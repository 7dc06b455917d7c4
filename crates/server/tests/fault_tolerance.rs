//! End-to-end fault-tolerance tests over real loopback connections:
//! handshake rejection, idle-connection reaping, load shedding, rate
//! limiting, keepalives, and client retry semantics under an active
//! fault plan — each with its journal/metrics evidence — and the seeded
//! chaos soak that runs all of them at once.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use srj_geom::Rect;
use srj_obs::journal::{journal, EventKind};
use srj_server::protocol::{
    decode_response, encode_request, read_frame, ErrorCode, ProtocolError, Request, Response,
    SampleRequest, PROTOCOL_VERSION,
};
use srj_server::{
    Client, ClientConfig, ClientError, DatasetRegistry, FaultPlan, RequestStatus, Server,
    ServerConfig, Side,
};

mod common;
use common::{metric_value, pseudo_points};

/// Journal assertions are process-global and every test binds a
/// loopback server, so the tests in this binary do not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry_with(dataset: u64, n: usize) -> DatasetRegistry {
    let mut registry = DatasetRegistry::new();
    registry.register(
        dataset,
        pseudo_points(n, 11, 50.0),
        pseudo_points(n, 12, 50.0),
    );
    registry
}

/// Drives a raw (non-`Client`) connection: returns the decoded answer
/// to one written request frame.
fn raw_exchange(stream: &mut TcpStream, req: &Request) -> Response {
    stream.write_all(&encode_request(req)).unwrap();
    let payload = read_frame(stream).unwrap().expect("peer closed early");
    decode_response(&payload).unwrap()
}

#[test]
fn wrong_version_hello_is_rejected_cleanly() {
    let _serial = serial();
    // One worker: if rejected handshakes consumed worker slots, the
    // real request at the end could never be served.
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(1, 300), config).unwrap();
    let addr = server.local_addr();

    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let resp = raw_exchange(
            &mut stream,
            &Request::Hello {
                version: PROTOCOL_VERSION + 7,
                features: 0,
            },
        );
        match resp {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::VersionMismatch);
                assert!(
                    message.contains(&PROTOCOL_VERSION.to_string()),
                    "message should name the server version: {message:?}"
                );
            }
            other => panic!("expected ERROR, got {other:?}"),
        }
        // The server closes cleanly after the ERROR — no hang, no junk.
        assert!(read_frame(&mut stream).unwrap().is_none());
    }

    // A v0-style peer that never heard of HELLO gets the same clean
    // rejection for its first (non-HELLO) frame.
    let mut stream = TcpStream::connect(addr).unwrap();
    match raw_exchange(&mut stream, &Request::Stats) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::HandshakeRequired),
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert!(read_frame(&mut stream).unwrap().is_none());

    // The lone worker is still free: a well-versioned client is served.
    let mut client = Client::connect(addr).unwrap();
    let outcome = client
        .sample(SampleRequest {
            req_id: 0,
            dataset: 1,
            l: 5.0,
            algorithm: None,
            shards: 1,
            t: 100,
            seed: 1,
        })
        .unwrap();
    assert_eq!(outcome.status, RequestStatus::Ok);
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("srj_handshake_rejects_total 4"),
        "expected 4 handshake rejects in:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn idle_connection_is_reaped_and_journaled() {
    let _serial = serial();
    let idle = Duration::from_millis(200);
    let config = ServerConfig {
        idle_timeout: idle,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(2, 200), config).unwrap();
    let addr = server.local_addr();
    let seq_floor = journal().recent(1).first().map_or(0, |e| e.seq);

    // The victim: handshakes, then goes quiet.
    let _idle_client = Client::connect(addr).unwrap();
    let connected_at = Instant::now();

    // The observer polls METRICS (staying active itself) until the
    // victim is reaped — which must happen within 2x the idle deadline
    // (deadline + one maintainer sweep), plus scheduling margin.
    let mut scraper = Client::connect(addr).unwrap();
    let deadline = idle * 2 + Duration::from_millis(800);
    let reaped_at = loop {
        let text = scraper.metrics().unwrap();
        if text.lines().any(|l| {
            l.strip_prefix("srj_conn_reaped ")
                .is_some_and(|v| v.trim() != "0")
        }) {
            break connected_at.elapsed();
        }
        assert!(
            connected_at.elapsed() < deadline,
            "idle connection not reaped within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(
        reaped_at >= idle,
        "reaped after {reaped_at:?}, before the {idle:?} deadline"
    );

    let events = journal().recent(256);
    let reap = events
        .iter()
        .filter(|e| e.seq > seq_floor)
        .find(|e| e.kind == EventKind::ConnReaped)
        .expect("no ConnReaped journal event");
    assert!(
        reap.duration_ns >= idle.as_nanos() as u64,
        "reap recorded only {}ns idle",
        reap.duration_ns
    );
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "journal seq must be strictly monotone"
    );
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_samples_with_busy() {
    let _serial = serial();
    let config = ServerConfig {
        workers: 1,
        queue_frames: 4,
        shed_high_water: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(3, 400), config).unwrap();
    let addr = server.local_addr();
    let seq_floor = journal().recent(1).first().map_or(0, |e| e.seq);

    let mut stream = TcpStream::connect(addr).unwrap();
    match raw_exchange(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            features: 0,
        },
    ) {
        Response::Welcome { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected WELCOME, got {other:?}"),
    }

    // A huge request this connection does not read: its response queue
    // fills and the job parks, which marks the connection saturated.
    let big = Request::Sample(SampleRequest {
        req_id: 1,
        dataset: 3,
        l: 5.0,
        algorithm: None,
        shards: 1,
        t: 5_000_000,
        seed: 2,
    });
    stream.write_all(&encode_request(&big)).unwrap();
    // Wait until the job has demonstrably parked on the full response
    // queue: the writer is wedged against our unread socket buffer, so
    // once the park counter moves the connection stays saturated.
    let started = Instant::now();
    loop {
        let text = server.metrics_text();
        if text.lines().any(|l| {
            l.strip_prefix("srj_backpressure_parks_total ")
                .is_some_and(|v| v.trim() != "0")
        }) {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "sample job never parked"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(50));
    // The next SAMPLE on the saturated connection must be shed, not
    // queued behind megabytes of backlog.
    let second = Request::Sample(SampleRequest {
        req_id: 2,
        ..match big {
            Request::Sample(s) => s,
            _ => unreachable!(),
        }
    });
    stream.write_all(&encode_request(&second)).unwrap();

    let mut saw_busy = None;
    for _ in 0..100_000 {
        let payload = read_frame(&mut stream).unwrap().expect("closed early");
        match decode_response(&payload).unwrap() {
            Response::Busy {
                req_id,
                retry_after_ms,
            } => {
                saw_busy = Some((req_id, retry_after_ms));
                break;
            }
            _ => continue,
        }
    }
    let (req_id, retry_after_ms) = saw_busy.expect("saturated connection was never shed");
    assert_eq!(req_id, 2);
    assert!(retry_after_ms > 0);
    drop(stream);

    let shed = journal()
        .recent(256)
        .into_iter()
        .filter(|e| e.seq > seq_floor)
        .find(|e| e.kind == EventKind::LoadShed)
        .expect("no LoadShed journal event");
    assert_eq!(shed.dataset, Some(3));
    let metrics = server.metrics_text();
    assert!(
        metrics.lines().any(|l| l
            .strip_prefix("srj_requests_shed ")
            .is_some_and(|v| v.trim() != "0")),
        "srj_requests_shed not incremented:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn token_bucket_rate_limits_with_retry_hint() {
    let _serial = serial();
    let config = ServerConfig {
        rate_limit_rps: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(4, 100), config).unwrap();

    // No retries: the BUSY must surface, not be absorbed.
    let cfg = ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(server.local_addr(), cfg).unwrap();
    client
        .server_stats()
        .expect("burst budget admits the first");
    match client.server_stats() {
        Err(ClientError::Busy { retry_after_ms }) => assert!(retry_after_ms > 0),
        other => panic!("expected Busy, got {other:?}"),
    }
    // A client *with* retries rides the hint through transparently.
    let mut patient = Client::connect_with(
        server.local_addr(),
        ClientConfig {
            retries: 5,
            backoff_base: Duration::from_millis(20),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    patient.server_stats().unwrap();
    patient.server_stats().unwrap();
    assert!(
        patient.busy_answers() > 0,
        "second call must have been limited"
    );
    let metrics = server.metrics_text();
    assert!(
        metrics.lines().any(|l| l
            .strip_prefix("srj_rate_limited ")
            .is_some_and(|v| v.trim() != "0")),
        "srj_rate_limited not incremented:\n{metrics}"
    );
    server.shutdown();
}

/// A raw connection past its handshake, with a read deadline so a
/// missing answer fails the test instead of hanging it.
fn raw_connect(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        features: 0,
    };
    match raw_exchange(&mut stream, &hello) {
        Response::Welcome { .. } => stream,
        other => panic!("expected WELCOME, got {other:?}"),
    }
}

/// Writes `reqs` in one `write`, so the server admits them back to back
/// (far inside a token's refill time), and reads one answer per request.
fn raw_burst(stream: &mut TcpStream, reqs: &[Request]) -> Vec<Response> {
    let burst: Vec<u8> = reqs.iter().flat_map(encode_request).collect();
    stream.write_all(&burst).unwrap();
    reqs.iter()
        .map(|_| {
            let payload = read_frame(stream).unwrap().expect("peer closed early");
            decode_response(&payload).unwrap()
        })
        .collect()
}

/// One write holding more loop-answered frames than the out-queue holds
/// — HELLO, then 12 PING+STATS pairs, against the default 8 frames — is
/// answered in full and at once: when a flush frees room, decoding
/// resumes over the frames already read, which no socket event would
/// bring the loop back for.
#[test]
fn a_pipelined_burst_longer_than_the_out_queue_is_answered_in_full() {
    let _serial = serial();
    let config = ServerConfig::default();
    let mut server = Server::start("127.0.0.1:0", registry_with(1, 50), config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut burst = vec![Request::Hello {
        version: PROTOCOL_VERSION,
        features: 0,
    }];
    for token in 0..12 {
        burst.extend([Request::Ping { token }, Request::Stats]);
    }
    assert!(burst.len() > config.queue_frames);
    let t0 = Instant::now();
    let answers = raw_burst(&mut stream, &burst);
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    assert!(
        matches!(answers[0], Response::Welcome { .. }),
        "{answers:?}"
    );
    for (token, pair) in answers[1..].chunks(2).enumerate() {
        assert_eq!(
            pair[0],
            Response::Pong {
                token: token as u64
            }
        );
        assert!(matches!(pair[1], Response::ServerStats(_)), "{pair:?}");
    }
    server.shutdown();
}

/// The admission table, pinned per request kind on a raw connection:
/// which kinds a spent request bucket, a spent mutation bucket and a
/// forced-`BUSY` fault decline, which id each `BUSY` echoes, and which
/// kinds are exempt.
#[test]
fn admission_answers_each_request_kind_by_its_table_row() {
    let _serial = serial();
    const DATASET: u64 = 8;
    let sample = |req_id| {
        Request::Sample(SampleRequest {
            req_id,
            dataset: DATASET,
            l: 5.0,
            algorithm: None,
            shards: 1,
            t: 10,
            seed: 1,
        })
    };
    let insert = |req_id| Request::Insert {
        req_id,
        dataset: DATASET,
        side: Side::S,
        points: pseudo_points(4, 21, 50.0),
    };
    let delete = |req_id| Request::Delete {
        req_id,
        dataset: DATASET,
        side: Side::S,
        ids: vec![0, 1],
    };
    let epoch = |req_id| Request::Epoch {
        req_id,
        dataset: DATASET,
    };
    let start = |config| Server::start("127.0.0.1:0", registry_with(DATASET, 100), config).unwrap();

    // A spent request bucket: HELLO and PING pass, every other request
    // is declined, with its own id or 0 for the four id-less reads.
    let mut server = start(ServerConfig {
        rate_limit_rps: 1,
        ..ServerConfig::default()
    });
    let mut stream = raw_connect(&server);
    let answers = raw_burst(
        &mut stream,
        &[
            Request::Stats, // spends the one token
            Request::Ping { token: 9 },
            Request::Hello {
                version: PROTOCOL_VERSION,
                features: 0,
            },
            Request::Stats,
            Request::Metrics,
            Request::Trace { trace_id: 1 },
            Request::SlowLog { max: 4 },
            epoch(11),
            insert(12),
            delete(13),
            sample(14),
        ],
    );
    assert!(
        matches!(answers[0], Response::ServerStats(_)),
        "{answers:?}"
    );
    assert_eq!(answers[1], Response::Pong { token: 9 });
    assert!(
        matches!(answers[2], Response::Welcome { .. }),
        "{answers:?}"
    );
    let busy_ids: Vec<u32> = answers[3..]
        .iter()
        .map(|a| match a {
            Response::Busy {
                req_id,
                retry_after_ms,
            } if *retry_after_ms > 0 => *req_id,
            other => panic!("expected BUSY, got {other:?}"),
        })
        .collect();
    assert_eq!(busy_ids, [0, 0, 0, 0, 11, 12, 13, 14]);
    assert_eq!(
        metric_value(&server.metrics_text(), "srj_rate_limited"),
        8.0
    );
    server.shutdown();

    // A spent mutation bucket declines the second mutation only.
    let mut server = start(ServerConfig {
        mutation_rate_limit_rps: 1,
        ..ServerConfig::default()
    });
    let mut stream = raw_connect(&server);
    let answers = raw_burst(
        &mut stream,
        &[insert(1), delete(2), Request::Stats, epoch(3)],
    );
    assert!(
        matches!(
            answers[0],
            Response::Update {
                req_id: 1,
                status: RequestStatus::Ok,
                ..
            }
        ),
        "{answers:?}"
    );
    assert!(
        matches!(answers[1], Response::Busy { req_id: 2, retry_after_ms } if retry_after_ms > 0),
        "{answers:?}"
    );
    assert!(
        matches!(answers[2], Response::ServerStats(_)),
        "{answers:?}"
    );
    assert!(
        matches!(
            answers[3],
            Response::Epoch {
                req_id: 3,
                status: RequestStatus::Ok,
                ..
            }
        ),
        "{answers:?}"
    );
    stream.write_all(&encode_request(&sample(4))).unwrap();
    loop {
        let payload = read_frame(&mut stream).unwrap().expect("peer closed early");
        match decode_response(&payload).unwrap() {
            Response::Batch { req_id: 4, .. } => {}
            Response::Done {
                req_id: 4, status, ..
            } => {
                assert_eq!(status, RequestStatus::Ok);
                break;
            }
            other => panic!("expected the SAMPLE's answer, got {other:?}"),
        }
    }
    server.shutdown();

    // A certain forced BUSY declines SAMPLE, INSERT and DELETE with the
    // plan's hint; the reads it does not draw for pass.
    let mut server = start(ServerConfig {
        fault_plan: FaultPlan {
            seed: 1,
            busy_prob: 1.0,
            busy_retry_after_ms: 7,
            ..FaultPlan::inert()
        },
        ..ServerConfig::default()
    });
    let mut stream = raw_connect(&server);
    let answers = raw_burst(
        &mut stream,
        &[
            sample(21),
            insert(22),
            delete(23),
            Request::Stats,
            epoch(24),
        ],
    );
    for (answer, req_id) in answers.iter().zip([21, 22, 23]) {
        assert_eq!(
            *answer,
            Response::Busy {
                req_id,
                retry_after_ms: 7
            }
        );
    }
    assert!(
        matches!(answers[3], Response::ServerStats(_)),
        "{answers:?}"
    );
    assert!(
        matches!(
            answers[4],
            Response::Epoch {
                req_id: 24,
                status: RequestStatus::Ok,
                ..
            }
        ),
        "{answers:?}"
    );
    server.shutdown();

    // SHUTDOWN is exempt: an empty bucket still stops the server, which
    // closes the connection.
    let server = start(ServerConfig {
        rate_limit_rps: 1,
        ..ServerConfig::default()
    });
    let mut stream = raw_connect(&server);
    assert!(matches!(
        raw_exchange(&mut stream, &Request::Stats),
        Response::ServerStats(_)
    ));
    stream
        .write_all(&encode_request(&Request::Shutdown))
        .unwrap();
    match read_frame(&mut stream) {
        Ok(None) => {}
        Err(ProtocolError::Io(e))
            if !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("expected the server to close the connection, got {other:?}"),
    }
    server.wait_shutdown();
}

#[test]
fn ping_pong_keepalive() {
    let _serial = serial();
    let mut server =
        Server::start("127.0.0.1:0", registry_with(5, 50), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..5 {
        client.ping().unwrap();
    }
    assert_ne!(client.server_features(), 0);
    server.shutdown();
}

#[test]
fn client_retries_through_forced_busy() {
    let _serial = serial();
    let config = ServerConfig {
        fault_plan: FaultPlan {
            seed: 3,
            busy_prob: 0.5,
            busy_retry_after_ms: 1,
            ..FaultPlan::inert()
        },
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(6, 300), config).unwrap();
    let cfg = ClientConfig {
        retries: 30,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(10),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(server.local_addr(), cfg).unwrap();
    for seed in 1..=8 {
        let outcome = client
            .sample(SampleRequest {
                req_id: 0,
                dataset: 6,
                l: 5.0,
                algorithm: None,
                shards: 1,
                t: 200,
                seed,
            })
            .unwrap();
        assert_eq!(outcome.status, RequestStatus::Ok);
        assert_eq!(outcome.pairs.len(), 200);
    }
    assert!(
        client.busy_answers() > 0,
        "busy_prob 0.5 must have forced at least one BUSY"
    );
    server.shutdown();
}

/// Current live `|S'|` of a dataset, through the client's own retries.
fn probe_live(client: &mut Client, dataset: u64) -> u64 {
    match client.epoch(dataset) {
        Ok((RequestStatus::Ok, info)) => info.live_s,
        other => panic!("dataset {dataset}: EPOCH probe did not converge: {other:?}"),
    }
}

#[test]
fn mutations_survive_dropped_connections_exactly_once() {
    let _serial = serial();
    const BATCH: usize = 8;
    let config = ServerConfig {
        fault_plan: FaultPlan {
            seed: 5,
            drop_conn_prob: 0.15,
            ..FaultPlan::inert()
        },
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry_with(7, 500), config).unwrap();
    let cfg = ClientConfig {
        retries: 30,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(10),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(server.local_addr(), cfg).unwrap();
    let mut expected = probe_live(&mut client, 7);

    let points = pseudo_points(BATCH, 99, 50.0);
    let mut ambiguous = 0u64;
    for _ in 0..25 {
        match client.insert(7, Side::S, &points) {
            Ok(o) => {
                assert_eq!(o.status, RequestStatus::Ok);
                expected += u64::from(o.applied);
            }
            // The client could not prove the retry safe; the ledger
            // resolves it — the mutation applied once or not at all,
            // never twice.
            Err(ClientError::AmbiguousMutation) => {
                ambiguous += 1;
                let live = probe_live(&mut client, 7);
                assert!(
                    live == expected || live == expected + BATCH as u64,
                    "ambiguous insert must resolve to 0 or 1 applications: \
                     ledger {expected}, live {live}"
                );
                expected = live;
            }
            Err(e) => panic!("insert failed: {e}"),
        }
    }
    let live = probe_live(&mut client, 7);
    assert_eq!(live, expected, "lost or doubled mutation");
    assert!(
        client.retries() > 0,
        "drop_conn_prob 0.15 must have forced at least one retry \
         ({ambiguous} ambiguous)"
    );
    server.shutdown();
}

/// One chaos client: sole mutator of dataset `cid + 1`, alternating
/// insert/delete batches with reads and keeping a ledger of the live
/// `S` count the server *must* report. `AmbiguousMutation` (a retry
/// the client could not prove safe) is resolved the way an application
/// would: probe the authoritative count and accept only the states the
/// ambiguous operation can explain. Panics on a lost or doubled
/// mutation and on any operation that does not converge; returns the
/// client's `(retries, busy_answers)`.
fn chaos_client(cid: usize, addr: &str, cfg: ClientConfig, rounds: usize, t: u64) -> (u64, u64) {
    const BATCH: u64 = 32;
    let dataset = cid as u64 + 1;
    let mut client = Client::connect_with(addr, cfg).expect("chaos client connect");
    let mut expected = probe_live(&mut client, dataset);
    let inserts = pseudo_points(rounds * BATCH as usize, 0x50A4_D00D + cid as u64, 10_000.0);
    let mut inserts = inserts.chunks(BATCH as usize);
    for r in 0..rounds {
        if r % 3 == 2 && expected > 2 * BATCH {
            // `applied` can fall short of the batch when a fold
            // renumbered the id space: the ledger tracks applied, not
            // attempted.
            let live = probe_live(&mut client, dataset);
            if live > BATCH {
                let start = (r as u64 * 97) % (live - BATCH);
                let ids: Vec<u32> = (start..start + BATCH).map(|id| id as u32).collect();
                match client.delete(dataset, Side::S, &ids) {
                    Ok(o) => {
                        assert_eq!(o.status, RequestStatus::Ok, "client {cid} delete");
                        expected -= u64::from(o.applied);
                    }
                    Err(ClientError::AmbiguousMutation) => {
                        // A partially stale batch applied zero or one
                        // times lands anywhere in this range.
                        let live = probe_live(&mut client, dataset);
                        assert!(
                            live <= expected && live + BATCH >= expected,
                            "client {cid}: ambiguous delete left live {live}, ledger {expected}"
                        );
                        expected = live;
                    }
                    Err(e) => panic!("client {cid} delete did not converge: {e}"),
                }
            }
        } else {
            let points = inserts.next().expect("one batch per round");
            match client.insert(dataset, Side::S, points) {
                Ok(o) => {
                    assert_eq!(o.status, RequestStatus::Ok, "client {cid} insert");
                    expected += u64::from(o.applied);
                }
                Err(ClientError::AmbiguousMutation) => {
                    // Inserts apply atomically: once or not at all.
                    let live = probe_live(&mut client, dataset);
                    assert!(
                        live == expected || live == expected + BATCH,
                        "client {cid}: ambiguous insert left live {live}, ledger {expected}"
                    );
                    expected = live;
                }
                Err(e) => panic!("client {cid} insert did not converge: {e}"),
            }
        }
        // A read between every mutation: `sample` is idempotent and
        // retries freely, so faults cost latency, not correctness.
        let outcome = client
            .sample(SampleRequest {
                req_id: 0,
                dataset,
                l: 100.0,
                algorithm: None,
                shards: 1,
                t,
                seed: 1 + (cid * rounds + r) as u64,
            })
            .unwrap_or_else(|e| panic!("client {cid} round {r} did not converge: {e}"));
        assert_eq!(outcome.status, RequestStatus::Ok, "client {cid} round {r}");
        assert_eq!(outcome.pairs.len() as u64, t, "client {cid} round {r}");
    }
    assert_eq!(
        probe_live(&mut client, dataset),
        expected,
        "client {cid}: lost or doubled mutation"
    );
    (client.retries(), client.busy_answers())
}

/// The chaos soak: every fault the plan can inject at once (delayed
/// reads, partial writes, truncated frames, dropped connections, forced
/// `BUSY`) plus queue-depth shedding and a short idle deadline, against
/// two sole-mutator clients and a read-only control dataset. Mutations
/// must stay exactly-once, every operation must converge, the sample
/// stream must stay uniform over the exact join, and the hardening
/// paths must demonstrably have fired.
#[test]
fn chaos_soak_loses_no_mutation_and_stays_uniform() {
    let _serial = serial();
    const CLIENTS: usize = 2;
    const ROUNDS: usize = 40;
    const CTL_DATASET: u64 = 1_000;
    const CTL_L: f64 = 25.0;
    let idle = Duration::from_millis(300);

    let mut registry = DatasetRegistry::new();
    for cid in 0..CLIENTS {
        let mut r = pseudo_points(8_000, 0xC4A0_5000 + cid as u64, 10_000.0);
        let s = r.split_off(4_000);
        registry.register(cid as u64 + 1, r, s);
    }
    // Small enough to brute-force the exact join, dense enough that
    // every joinable pair expects well over five draws.
    let mut ctl_r = pseudo_points(100, 0xC7_1000, 100.0);
    let ctl_s = ctl_r.split_off(50);
    registry.register(CTL_DATASET, ctl_r.clone(), ctl_s.clone());
    let config = ServerConfig {
        fault_plan: FaultPlan {
            seed: 7,
            delay_read_prob: 0.05,
            delay_read_ms: 2,
            partial_write_prob: 0.03,
            truncate_frame_prob: 0.015,
            drop_conn_prob: 0.015,
            busy_prob: 0.05,
            busy_retry_after_ms: 5,
        },
        idle_timeout: idle,
        shed_high_water: 2,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr().to_string();
    // The soak's job is to converge through faults, not to report them.
    let cfg = ClientConfig {
        retries: 20,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(50),
        ..ClientConfig::default()
    };

    // A connection that speaks once and then goes quiet: the idle
    // sweep must reap it.
    let mut idle_client = Client::connect_with(addr.as_str(), cfg).expect("idle client connect");
    idle_client.ping().expect("idle client ping");
    let idle_since = Instant::now();

    let (retries, busy) = std::thread::scope(|scope| {
        let addr = addr.as_str();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|cid| {
                let cfg = ClientConfig {
                    jitter_seed: cid as u64 + 1,
                    ..cfg
                };
                scope.spawn(move || chaos_client(cid, addr, cfg, ROUNDS, 1_000))
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("chaos client panicked"))
            .fold((0, 0), |(r, b), (cr, cb)| (r + cr, b + cb))
    });

    // Chi-squared uniformity of the sample stream under faults:
    // retries and reassembly must not bias which pairs come back.
    let mut pair_index = HashMap::new();
    for (ri, rp) in ctl_r.iter().enumerate() {
        let w = Rect::window(*rp, CTL_L);
        for (si, sp) in ctl_s.iter().enumerate() {
            if w.contains(*sp) {
                pair_index.insert((ri as u32, si as u32), pair_index.len());
            }
        }
    }
    let j = pair_index.len();
    assert!(j > 20, "degenerate control join ({j} pairs)");
    let target = (60 * j as u64).clamp(20_000, 200_000);
    let mut counts = vec![0u64; j];
    let mut drawn = 0u64;
    let mut reader = Client::connect_with(addr.as_str(), cfg).expect("control client connect");
    let mut seed = 0xC210;
    while drawn < target {
        let outcome = reader
            .sample(SampleRequest {
                req_id: 0,
                dataset: CTL_DATASET,
                l: CTL_L,
                algorithm: None,
                shards: 1,
                t: (target - drawn).min(2_000),
                seed,
            })
            .expect("control read did not converge");
        assert_eq!(outcome.status, RequestStatus::Ok);
        for p in &outcome.pairs {
            let k = pair_index
                .get(&(p.r, p.s))
                .unwrap_or_else(|| panic!("{p:?} is outside the exact join"));
            counts[*k] += 1;
        }
        drawn += outcome.pairs.len() as u64;
        seed += 1;
    }
    let e = drawn as f64 / j as f64;
    let stat: f64 = counts
        .iter()
        .map(|&c| (c as f64 - e) * (c as f64 - e) / e)
        .sum();
    let df = (j - 1) as f64;
    // ~6 sigma above the chi-squared mean: essentially never trips on
    // a uniform sampler, catches gross bias.
    let threshold = df + 6.0 * (2.0 * df).sqrt();
    assert!(
        stat <= threshold,
        "chi-squared under faults: {stat:.1} > {threshold:.1} ({j} pairs, {drawn} draws)"
    );

    // The acceptance bound for the reap is 2x the idle deadline.
    let reap_by = idle * 2 + Duration::from_millis(200);
    std::thread::sleep(reap_by.saturating_sub(idle_since.elapsed()));
    let metrics = server.metrics_text();
    drop(idle_client);
    server.shutdown();

    assert!(
        retries + busy > 0,
        "fault plan produced no retry and no BUSY answer"
    );
    assert!(
        metric_value(&metrics, "srj_conn_reaped") >= 1.0,
        "no idle connection was reaped under the idle deadline:\n{metrics}"
    );
}
