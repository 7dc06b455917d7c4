//! A `SAMPLE` has one execution path and two schedulers: the event loop
//! serves it itself when it can see that is cheap, a worker otherwise.
//! These tests hold the two to the same answers, keep maintenance off
//! the loop thread, keep the loop fair under a pipelining client and a
//! crowd, keep admission control in front of both, and pin down the two
//! transport changes that came with it — the server's one `write` per
//! answer and the client's buffered read.
//!
//! Whether a request *was* served by the loop is read off
//! `srj_requests_inline_total`, never assumed: eligibility is a
//! prediction from the engine's observed ns/sample, and a debug build
//! draws ~10× slower than a release one (sixteen debug draws are
//! honestly over the 50 µs budget), hence [`SMALL_T`].

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use srj_core::JoinPair;
use srj_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, Request,
    Response, PROTOCOL_VERSION,
};
use srj_server::{
    Algorithm, Client, ClientConfig, ClientError, DatasetRegistry, FaultPlan, RequestStats,
    RequestStatus, SampleOutcome, SampleRequest, Server, ServerConfig, Side,
};

mod common;
use common::{metric_value, pseudo_points};

/// A request small enough for the loop in this build profile.
const SMALL_T: u64 = if cfg!(debug_assertions) { 2 } else { 16 };
/// A request no build profile predicts under the budget (≥ 90 ns × 4096
/// = 370 µs), yet quick to serve.
const LARGE_T: u64 = 4_096;

const DATASET: u64 = 1;

/// Several tests here time things (a ping against a burst, inline
/// budgets against observed draw costs): no interleaving.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn start(config: ServerConfig) -> Server {
    let mut registry = DatasetRegistry::new();
    registry.register(
        DATASET,
        pseudo_points(2_000, 11, 50.0),
        pseudo_points(2_000, 12, 50.0),
    );
    Server::start("127.0.0.1:0", registry, config).unwrap()
}

fn request(t: u64, seed: u64) -> SampleRequest {
    SampleRequest {
        req_id: 0,
        dataset: DATASET,
        l: 5.0,
        algorithm: Some(Algorithm::Kds),
        shards: 1,
        t,
        seed,
    }
}

fn inline_total(server: &Server) -> u64 {
    metric_value(&server.metrics_text(), "srj_requests_inline_total") as u64
}

/// Minor + patch + full swaps over every engine of the dataset.
fn swaps_total(server: &Server) -> u64 {
    let text = server.metrics_text();
    ["minor_swap", "cell_patch", "full_rebuild"]
        .iter()
        .map(|rung| {
            let series = format!("srj_maintenance_total{{dataset=\"{DATASET}\",rung=\"{rung}\"}}");
            metric_value(&text, &series) as u64
        })
        .sum()
}

/// Builds the engine and gives it a cost observation, both on a worker:
/// what every later "is it eligible" question presupposes.
fn warm(client: &mut Client) {
    let out = client.sample(request(LARGE_T, 99)).unwrap();
    assert_eq!(out.status, RequestStatus::Ok);
}

/// Sends `req` until the loop serves it (same seed, same answer each
/// time). The prediction is a cumulative mean, so one draw that lost
/// its time slice on a busy host can price a two-sample request out for
/// hundreds of requests; every tenth miss therefore adds a few thousand
/// honest observations through a worker. Panics if it never converges.
fn sample_inline(client: &mut Client, server: &Server, req: SampleRequest) -> SampleOutcome {
    for attempt in 1..=200 {
        let before = inline_total(server);
        let out = client.sample(req).unwrap();
        if inline_total(server) == before + 1 {
            return out;
        }
        if attempt % 10 == 0 {
            warm(client);
        }
    }
    panic!("a t = {} request was never served inline", req.t);
}

fn raw_connect(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .write_all(&encode_request(&Request::Hello {
            version: PROTOCOL_VERSION,
            features: 0,
        }))
        .unwrap();
    match read_response(&mut stream) {
        Response::Welcome { .. } => stream,
        other => panic!("expected WELCOME, got {other:?}"),
    }
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream).unwrap().expect("peer closed early");
    decode_response(&payload).unwrap()
}

/// Reads one whole `SAMPLE` answer off a raw connection that has only
/// this request outstanding: `BATCH`es, then its `DONE`.
fn read_answer(
    stream: &mut TcpStream,
    req_id: u32,
) -> (Vec<JoinPair>, RequestStatus, RequestStats) {
    let mut answers = read_answers(stream, 1);
    let (id, pairs, status, stats) = answers.remove(0);
    assert_eq!(id, req_id);
    (pairs, status, stats)
}

type Answer = (u32, Vec<JoinPair>, RequestStatus, RequestStats);

/// Reads frames until `n` answers are complete, and returns them in the
/// order their `DONE`s arrived. Requests pipelined on one connection
/// are multiplexed by the worker pool — frames of different requests
/// interleave, told apart by `req_id` — so this demultiplexes; a frame
/// after its request's `DONE` is an error.
fn read_answers(stream: &mut TcpStream, n: usize) -> Vec<Answer> {
    let mut open: HashMap<u32, Vec<JoinPair>> = HashMap::new();
    let mut closed: HashSet<u32> = HashSet::new();
    let mut finished: Vec<Answer> = Vec::with_capacity(n);
    while finished.len() < n {
        match read_response(stream) {
            Response::Batch { req_id, pairs } => {
                assert!(!closed.contains(&req_id), "a BATCH after its DONE");
                open.entry(req_id).or_default().extend(pairs);
            }
            Response::Done {
                req_id,
                status,
                stats,
            } => {
                assert!(closed.insert(req_id), "two DONEs for request {req_id}");
                let pairs = open.remove(&req_id).unwrap_or_default();
                finished.push((req_id, pairs, status, stats));
            }
            other => panic!("unexpected frame among SAMPLE answers: {other:?}"),
        }
    }
    finished
}

// ---- (a) one path, two schedulers -----------------------------------------

#[test]
fn same_seed_same_answer_on_either_thread() {
    let _serial = serial();
    let mut server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let req = request(SMALL_T, 42);

    // The first request of an engine is a cache miss: a worker's.
    let on_worker = client.sample(req).unwrap();
    assert_eq!(inline_total(&server), 0, "the loop must never build");
    assert_eq!(on_worker.status, RequestStatus::Ok);
    assert_eq!(on_worker.pairs.len() as u64, SMALL_T);

    warm(&mut client);
    let on_loop = sample_inline(&mut client, &server, req);
    assert_eq!(on_loop.status, RequestStatus::Ok);
    assert_eq!(on_loop.pairs, on_worker.pairs);
    assert_eq!(on_loop.stats.samples, on_worker.stats.samples);
    assert_eq!(on_loop.stats.iterations, on_worker.stats.iterations);

    server.shutdown();
}

/// Requests pipelined on one connection were always the worker pool's
/// to multiplex. The loop must not jump that queue: a small request
/// behind in-flight work is a job like before, with the same answer.
#[test]
fn a_request_behind_in_flight_work_is_not_served_inline() {
    let _serial = serial();
    // One worker, so the order in which the two jobs first run is the
    // order they were queued in.
    let mut server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    warm(&mut client);
    let small = request(SMALL_T, 42);
    let on_loop = sample_inline(&mut client, &server, small);
    let before = inline_total(&server);

    let mut stream = raw_connect(&server);
    let mut burst = encode_request(&Request::Sample(SampleRequest {
        req_id: 1,
        ..request(65_536, 7)
    }));
    burst.extend(encode_request(&Request::Sample(SampleRequest {
        req_id: 2,
        ..small
    })));
    stream.write_all(&burst).unwrap();
    // The long request was queued first and must be the first on the
    // wire: had the loop served the small one itself, its frames would
    // have been written before the worker finished a single batch.
    let first = read_frame(&mut stream).unwrap().expect("closed early");
    let Response::Batch { req_id: 1, pairs } = decode_response(&first).unwrap() else {
        panic!("the first frame must be the long request's first BATCH");
    };
    let mut answers = read_answers(&mut stream, 2);
    answers.sort_by_key(|a| a.0);
    let (_, long, status, _) = &answers[0];
    assert_eq!(
        (pairs.len() + long.len(), *status),
        (65_536, RequestStatus::Ok)
    );
    let (_, behind, status, stats) = &answers[1];
    assert_eq!(*status, RequestStatus::Ok);
    assert_eq!(*behind, on_loop.pairs);
    assert_eq!(stats.iterations, on_loop.stats.iterations);
    assert_eq!(
        inline_total(&server),
        before,
        "a request behind in-flight work must not be served by the loop"
    );
    server.shutdown();
}

// ---- (b) maintenance never runs on the loop ---------------------------------

#[test]
fn after_a_mutation_the_swap_and_the_sample_belong_to_a_worker() {
    let _serial = serial();
    let mut server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    warm(&mut client);

    for round in 0..5u64 {
        let req = request(SMALL_T, 1_000 + round);
        let before_delete = sample_inline(&mut client, &server, req);
        let mut doomed: Vec<u32> = before_delete.pairs.iter().map(|p| p.s).collect();
        doomed.sort_unstable();
        doomed.dedup();
        let deleted = client.delete(DATASET, Side::S, &doomed).unwrap();
        assert_eq!(deleted.status, RequestStatus::Ok);
        assert_eq!(deleted.applied as usize, doomed.len());

        // Same seed against the stale engine would return the very
        // pairs just deleted. The loop must see the drift, decline, and
        // let a worker fold it in: one swap, zero inline.
        let (inline, swaps) = (inline_total(&server), swaps_total(&server));
        let after_delete = client.sample(req).unwrap();
        assert_eq!(after_delete.status, RequestStatus::Ok);
        assert!(
            after_delete.pairs.iter().all(|p| !doomed.contains(&p.s)),
            "round {round}: a deleted point was sampled (read-your-writes broken)"
        );
        assert_eq!(
            inline_total(&server),
            inline,
            "round {round}: served inline with a swap due"
        );
        assert_eq!(swaps_total(&server), swaps + 1, "round {round}");

        // Settled again: back on the loop, same answer as the worker's.
        let settled = sample_inline(&mut client, &server, req);
        assert_eq!(settled.pairs, after_delete.pairs);
        assert_eq!(
            swaps_total(&server),
            swaps + 1,
            "round {round}: a swap nobody asked for"
        );
    }
    server.shutdown();
}

// ---- (c) fairness ------------------------------------------------------------

#[test]
fn a_pipelining_client_overflows_to_the_workers_and_pings_stay_fast() {
    const REQUESTS: u32 = 5_000;
    let _serial = serial();
    // Nothing may be shed here: every request must be answered Ok.
    let mut server = start(ServerConfig {
        shed_high_water: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    warm(&mut client);
    sample_inline(&mut client, &server, request(SMALL_T, 5));
    let before = inline_total(&server);

    let mut burst = Vec::new();
    for req_id in 1..=REQUESTS {
        burst.extend(encode_request(&Request::Sample(SampleRequest {
            req_id,
            ..request(SMALL_T, u64::from(req_id))
        })));
    }
    let mut stream = raw_connect(&server);
    let mut writer = stream.try_clone().unwrap();
    /// Stops the pinger even when an assertion unwinds past it.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let done = AtomicBool::new(false);
    let (burst_wall, worst_ping) = std::thread::scope(|scope| {
        // A bystander pings for as long as the burst lasts.
        let pinger = scope.spawn(|| {
            let mut worst = Duration::ZERO;
            while !done.load(Ordering::Acquire) {
                let t0 = Instant::now();
                client.ping().unwrap();
                worst = worst.max(t0.elapsed());
            }
            worst
        });
        let wall = {
            let _stop = StopOnDrop(&done);
            let started = Instant::now();
            // One write; on its own thread only so the answers can be
            // read while the kernel is still taking the bytes.
            let write = scope.spawn(move || writer.write_all(&burst).unwrap());
            let answers = read_answers(&mut stream, REQUESTS as usize);
            let wall = started.elapsed();
            write.join().unwrap();
            for (req_id, pairs, status, _) in &answers {
                assert_eq!(*status, RequestStatus::Ok, "request {req_id}");
                assert_eq!(pairs.len() as u64, SMALL_T, "request {req_id}");
            }
            wall
        };
        (wall, pinger.join().unwrap())
    });

    let inline = inline_total(&server) - before;
    assert!(
        inline < u64::from(REQUESTS),
        "all {REQUESTS} pipelined requests ran on the loop thread"
    );
    assert!(
        worst_ping < burst_wall / 10,
        "a ping took {worst_ping:?} while the burst took {burst_wall:?} ({inline} inline)"
    );
    server.shutdown();
}

/// The per-pass budget, made visible: with every frame held back 20 ms
/// by the fault plan, the requests of a crowd that wrote together come
/// due together and are dispatched by one pass of the loop. It may
/// serve the first few itself; the rest must go to the workers.
#[test]
fn a_crowd_in_one_pass_gets_one_budget_between_them() {
    const CROWD: usize = 32;
    const ROUNDS: u64 = 5;
    let _serial = serial();
    let mut server = start(ServerConfig {
        fault_plan: FaultPlan {
            seed: 3,
            delay_read_prob: 1.0,
            delay_read_ms: 20,
            ..FaultPlan::inert()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    warm(&mut client);
    sample_inline(&mut client, &server, request(SMALL_T, 5));

    let mut crowd: Vec<TcpStream> = (0..CROWD).map(|_| raw_connect(&server)).collect();
    let before = inline_total(&server);
    for round in 0..ROUNDS {
        let frames: Vec<Vec<u8>> = (0..CROWD as u64)
            .map(|i| {
                encode_request(&Request::Sample(SampleRequest {
                    req_id: 1 + round as u32,
                    ..request(SMALL_T, 1 + round * 100 + i)
                }))
            })
            .collect();
        for (stream, frame) in crowd.iter_mut().zip(&frames) {
            stream.write_all(frame).unwrap();
        }
        for stream in crowd.iter_mut() {
            let (pairs, status, _) = read_answer(stream, 1 + round as u32);
            assert_eq!(status, RequestStatus::Ok);
            assert_eq!(pairs.len() as u64, SMALL_T);
        }
    }
    let inline = inline_total(&server) - before;
    assert!(inline > 0, "a quiet, cheap request was never served inline");
    assert!(
        inline < CROWD as u64 * ROUNDS,
        "every one of {CROWD} simultaneous requests, {ROUNDS} times over, ran on the loop"
    );
    server.shutdown();
}

// ---- (d) admission is in front of both ----------------------------------------

/// What a connection saw for each of `n` sequential requests of size
/// `t`: `None` = served, `Some(ms)` = `BUSY` with that hint.
fn busy_pattern(server: &Server, t: u64, n: u32) -> Vec<Option<u32>> {
    let mut stream = raw_connect(server);
    (1..=n)
        .map(|req_id| {
            let req = SampleRequest {
                req_id,
                ..request(t, u64::from(req_id))
            };
            stream
                .write_all(&encode_request(&Request::Sample(req)))
                .unwrap();
            loop {
                match read_response(&mut stream) {
                    Response::Busy {
                        req_id: id,
                        retry_after_ms,
                    } => {
                        assert_eq!(id, req_id);
                        break Some(retry_after_ms);
                    }
                    Response::Done { status, .. } => {
                        assert_eq!(status, RequestStatus::Ok);
                        break None;
                    }
                    Response::Batch { .. } => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        })
        .collect()
}

/// Starts a server, warms it over connection 0 (so the connection under
/// test is connection 1 on every server, and draws the same fault
/// schedule), and returns the BUSY pattern of `n` requests of size `t`
/// plus how many of them the loop served.
fn pattern_on_fresh_server(config: ServerConfig, t: u64, n: u32) -> (Vec<Option<u32>>, u64) {
    let mut server = start(config);
    let patient = ClientConfig {
        retries: 50,
        backoff_base: Duration::from_millis(1),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(server.local_addr(), patient).unwrap();
    warm(&mut client);
    sample_inline(&mut client, &server, request(SMALL_T, 5));
    let before = inline_total(&server);
    let pattern = busy_pattern(&server, t, n);
    let inline = inline_total(&server) - before;
    server.shutdown();
    (pattern, inline)
}

#[test]
fn fault_busy_answers_do_not_depend_on_eligibility() {
    let _serial = serial();
    let config = ServerConfig {
        fault_plan: FaultPlan {
            seed: 11,
            busy_prob: 0.3,
            busy_retry_after_ms: 7,
            ..FaultPlan::inert()
        },
        ..ServerConfig::default()
    };
    let (small, small_inline) = pattern_on_fresh_server(config, SMALL_T, 60);
    let (large, large_inline) = pattern_on_fresh_server(config, LARGE_T, 60);
    assert_eq!(small, large, "same plan, same connection: same BUSY draws");
    let busy = small.iter().flatten().count() as u64;
    assert!(busy > 0 && busy < 60, "{busy} of 60 answered BUSY");
    assert!(small.iter().flatten().all(|&ms| ms == 7));
    assert_eq!(large_inline, 0);
    assert!(
        small_inline > 0 && small_inline <= 60 - busy,
        "{small_inline} inline of {} admitted",
        60 - busy
    );
}

#[test]
fn rate_limit_answers_do_not_depend_on_eligibility() {
    let _serial = serial();
    // One token, one more per second: the first request of the
    // connection is admitted, the rest of a quick burst is not.
    let config = ServerConfig {
        rate_limit_rps: 1,
        ..ServerConfig::default()
    };
    let admitted =
        |pattern: &[Option<u32>]| -> Vec<bool> { pattern.iter().map(Option::is_none).collect() };
    let (small, small_inline) = pattern_on_fresh_server(config, SMALL_T, 6);
    let (large, large_inline) = pattern_on_fresh_server(config, LARGE_T, 6);
    let want = [true, false, false, false, false, false];
    assert_eq!(admitted(&small), want);
    assert_eq!(admitted(&large), want);
    assert!(small.iter().chain(&large).flatten().all(|&ms| ms > 0));
    assert_eq!((small_inline, large_inline), (1, 0));
}

#[test]
fn shed_answers_do_not_depend_on_eligibility() {
    let _serial = serial();
    // One worker, one step of which is one very long batch; a second
    // such request then sits in the queue for as long, which is at the
    // high-water mark of 1.
    let long_t: u64 = if cfg!(debug_assertions) {
        100_000
    } else {
        500_000
    };
    let mut server = start(ServerConfig {
        workers: 1,
        batch_pairs: long_t as usize,
        shed_high_water: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    warm(&mut client);
    sample_inline(&mut client, &server, request(SMALL_T, 5));
    let before = inline_total(&server);

    let hog_request = encode_request(&Request::Sample(SampleRequest {
        req_id: 1,
        ..request(long_t, 3)
    }));
    let mut hogs: Vec<TcpStream> = (0..2).map(|_| raw_connect(&server)).collect();
    // The first hog must be *on* the worker before the second is sent,
    // or the second would itself be shed. A worker's acquisition is a
    // cache hit, counted as its step begins.
    let hits = server.stats().cache_hits;
    hogs[0].write_all(&hog_request).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.stats().cache_hits == hits {
        assert!(Instant::now() < deadline, "the worker never took the hog");
        std::thread::sleep(Duration::from_millis(1));
    }
    hogs[1].write_all(&hog_request).unwrap();
    // Pings are never shed: one round trip orders us behind the second
    // hog's frame, which now sits in the queue for a whole step.
    client.ping().unwrap();

    let quick = ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    };
    let mut probe = Client::connect_with(server.local_addr(), quick).unwrap();
    for t in [SMALL_T, LARGE_T] {
        match probe.sample(request(t, 8)) {
            Err(ClientError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 50),
            other => panic!("t = {t}: expected BUSY from a saturated queue, got {other:?}"),
        }
    }
    assert_eq!(inline_total(&server), before, "a shed request ran anyway");
    assert_eq!(
        metric_value(&server.metrics_text(), "srj_requests_shed") as u64,
        2
    );

    // The hogs are answered in full; then the queue is empty and the
    // same small request is the loop's again.
    for hog in hogs.iter_mut() {
        let (pairs, status, _) = read_answer(hog, 1);
        assert_eq!((pairs.len() as u64, status), (long_t, RequestStatus::Ok));
    }
    sample_inline(&mut probe, &server, request(SMALL_T, 8));
    server.shutdown();
}

// ---- (e) transport: split writes, and a buffer per connection --------------------

#[test]
fn client_reassembles_answers_split_across_writes() {
    let _serial = serial();
    let mut clean = start(ServerConfig::default());
    let mut split = start(ServerConfig {
        fault_plan: FaultPlan {
            seed: 5,
            partial_write_prob: 1.0,
            ..FaultPlan::inert()
        },
        ..ServerConfig::default()
    });
    let mut want = Client::connect(clean.local_addr()).unwrap();
    let mut got = Client::connect(split.local_addr()).unwrap();
    // One frame, two frames, and an answer of several 64 KiB frames.
    for (i, t) in [1, SMALL_T, 100, 20_000, SMALL_T].into_iter().enumerate() {
        let req = request(t, 70 + i as u64);
        let (want, got) = (want.sample(req).unwrap(), got.sample(req).unwrap());
        assert_eq!(got.status, RequestStatus::Ok);
        assert_eq!(got.pairs, want.pairs, "t = {t}");
    }
    got.ping().unwrap();
    assert_eq!(got.server_stats().unwrap().queries, 5);
    assert!(got.metrics().unwrap().contains("srj_requests_total"));
    assert_eq!(got.retries(), 0, "a split frame is not a transport failure");
    clean.shutdown();
    split.shutdown();
}

/// A scripted server: the first connection dies half-way through a
/// `BATCH` frame, the second answers in full. A client that kept the
/// dead connection's half frame would splice the new connection's
/// `WELCOME` into it.
#[test]
fn reconnect_discards_the_dead_connections_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let pairs: Vec<JoinPair> = (0..40).map(|i| JoinPair { r: i, s: i + 1 }).collect();
    let answer = pairs.clone();
    let script = std::thread::spawn(move || {
        let welcome = encode_response(&Response::Welcome {
            version: PROTOCOL_VERSION,
            features: 0,
        });
        let sample_id = |stream: &mut TcpStream| -> u32 {
            let hello = read_frame(stream).unwrap().expect("no HELLO");
            assert!(matches!(
                decode_request(&hello).unwrap(),
                Request::Hello { .. }
            ));
            stream.write_all(&welcome).unwrap();
            let frame = read_frame(stream).unwrap().expect("no SAMPLE");
            match decode_request(&frame).unwrap() {
                Request::Sample(req) => req.req_id,
                other => panic!("expected SAMPLE, got {other:?}"),
            }
        };
        let batch = |req_id| {
            encode_response(&Response::Batch {
                req_id,
                pairs: answer.clone(),
            })
        };

        let (mut first, _) = listener.accept().unwrap();
        let req_id = sample_id(&mut first);
        let frame = batch(req_id);
        first.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(first);

        let (mut second, _) = listener.accept().unwrap();
        let req_id = sample_id(&mut second);
        let mut whole = batch(req_id);
        whole.extend(encode_response(&Response::Done {
            req_id,
            status: RequestStatus::Ok,
            stats: RequestStats {
                samples: 40,
                iterations: 40,
                ..RequestStats::default()
            },
        }));
        second.write_all(&whole).unwrap();
        // Hold the connection until the client hangs up.
        let _ = read_frame(&mut second);
    });

    let config = ClientConfig {
        retries: 2,
        backoff_base: Duration::from_millis(1),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, config).unwrap();
    let out = client.sample(request(40, 1)).unwrap();
    assert_eq!(out.status, RequestStatus::Ok);
    assert_eq!(out.pairs, pairs);
    assert_eq!(client.retries(), 1);
    drop(client);
    script.join().unwrap();
}

// ---- observability ---------------------------------------------------------------

#[test]
fn an_inline_request_leaves_a_stage_record_and_no_queue_wait() {
    let _serial = serial();
    // Threshold 1 ns: every request is "slow", so every request's stage
    // record and context land in the slow log.
    let mut server = start(ServerConfig {
        slow_log_capacity: 64,
        slow_threshold_ns: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    warm(&mut client);
    let on_loop = sample_inline(&mut client, &server, request(SMALL_T, 21));
    let on_worker = client.sample(request(LARGE_T, 22)).unwrap();

    let log = client.slow_log(32).unwrap();
    let entry = |done: &SampleOutcome| {
        let id = done.stats.trace_id;
        assert_ne!(id, 0, "every request is captured");
        let e = log
            .iter()
            .find(|e| e.id == id)
            .unwrap_or_else(|| panic!("entry {id} missing from the slow log"));
        assert_eq!(e.elapsed_ns, done.stats.elapsed_ns);
        assert_eq!(e.stages.total(), e.elapsed_ns, "{e:?}");
        assert_eq!((e.served.as_str(), e.batches), ("kds", 1));
        e
    };
    let (fast, slow) = (entry(&on_loop), entry(&on_worker));
    assert!(fast.inline && fast.stages.queued_ns == 0, "{fast:?}");
    assert!(!slow.inline && slow.stages.queued_ns > 0, "{slow:?}");
    assert!(fast.stages.draw_ns > 0 && slow.stages.draw_ns > 0);
    assert_eq!((fast.t, slow.t), (SMALL_T, LARGE_T));
    server.shutdown();
}
