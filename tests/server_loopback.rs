//! Loopback integration tests for the `srj-server` subsystem: the wire
//! protocol end to end, uniformity of networked samples under
//! concurrent clients, error frames, backpressure isolation, and
//! leak-free shutdown.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use srj::server::ServerStatsFrame;
use srj::{
    Algorithm, Client, DatasetRegistry, JoinPair, Point, Rect, RequestStatus, SampleRequest,
    Server, ServerConfig,
};

fn pseudo_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Point::new(next() * extent, next() * extent))
        .collect()
}

fn request(dataset: u64, l: f64, t: u64, seed: u64) -> SampleRequest {
    SampleRequest {
        req_id: 0,
        dataset,
        l,
        algorithm: None,
        shards: 1,
        t,
        seed,
    }
}

/// Concurrent clients over one server: every pair is a genuine join
/// result, and the pooled output is uniform over `J` (chi-square with
/// the same 6σ margin as `tests/uniformity.rs`).
#[test]
fn concurrent_clients_get_uniform_samples() {
    let r = pseudo_points(60, 1, 40.0);
    let s = pseudo_points(90, 2, 40.0);
    let l = 5.0;
    let join = srj::join::nested_loop_join(&r, &s, l);
    assert!(join.len() > 10, "test join too small to be meaningful");

    let mut registry = DatasetRegistry::new();
    registry.register(1, r.clone(), s.clone());
    let mut server = Server::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let per_pair = 60u64;
    let clients = 4u64;
    let per_client = per_pair * join.len() as u64 / clients;
    let all: Vec<Vec<JoinPair>> = std::thread::scope(|scope| {
        (0..clients)
            .map(|cid| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let outcome = client.sample(request(1, l, per_client, 100 + cid)).unwrap();
                    assert_eq!(outcome.status, RequestStatus::Ok);
                    assert_eq!(outcome.pairs.len() as u64, per_client);
                    outcome.pairs
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    let expected_support: std::collections::HashSet<JoinPair> =
        join.iter().map(|&(a, b)| JoinPair::new(a, b)).collect();
    let mut freq: HashMap<JoinPair, usize> = HashMap::new();
    for pairs in &all {
        for p in pairs {
            let w = Rect::window(r[p.r as usize], l);
            assert!(w.contains(s[p.s as usize]), "non-join pair {p:?}");
            assert!(expected_support.contains(p));
            *freq.entry(*p).or_default() += 1;
        }
    }
    assert_eq!(freq.len(), join.len(), "some join pairs unreachable");
    let expected = (clients * per_client) as f64 / join.len() as f64;
    let chi2: f64 = expected_support
        .iter()
        .map(|p| {
            let obs = *freq.get(p).unwrap_or(&0) as f64;
            (obs - expected) * (obs - expected) / expected
        })
        .sum();
    let df = (join.len() - 1) as f64;
    let threshold = df + 6.0 * (2.0 * df).sqrt();
    assert!(
        chi2 < threshold,
        "networked samples biased: χ² = {chi2:.1} ≥ {threshold:.1}"
    );

    // distinct seeds produced distinct streams
    assert_ne!(all[0], all[1]);
    server.shutdown();
}

/// Error frames: unknown dataset ids answer `DONE{UnknownDataset}` with
/// zero samples — and the connection stays usable.
#[test]
fn unknown_dataset_gets_an_error_frame() {
    let pts = pseudo_points(50, 3, 30.0);
    let mut registry = DatasetRegistry::new();
    registry.register(1, pts.clone(), pts.clone());
    let mut server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let outcome = client.sample(request(999, 4.0, 100, 1)).unwrap();
    assert_eq!(outcome.status, RequestStatus::UnknownDataset);
    assert!(outcome.pairs.is_empty());
    assert_eq!(outcome.stats.samples, 0);

    // same connection still serves the registered dataset
    let ok = client.sample(request(1, 4.0, 100, 1)).unwrap();
    assert_eq!(ok.status, RequestStatus::Ok);
    assert_eq!(ok.pairs.len(), 100);

    // and the error is visible in the server stats
    let stats: ServerStatsFrame = client.server_stats().unwrap();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.queries, 2);
    server.shutdown();
}

/// Forced algorithms round-trip: each algorithm byte reaches the
/// engine and the cache keys them apart. SAMPLE's reserved `shards`
/// field keys nothing: another value is the same engine and stream.
#[test]
fn forced_algorithms_are_honoured_and_cached_separately() {
    let pts = pseudo_points(80, 5, 40.0);
    let mut registry = DatasetRegistry::new();
    registry.register(1, pts.clone(), pts.clone());
    let mut server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let bbst = SampleRequest {
        algorithm: Some(Algorithm::Bbst),
        ..request(1, 5.0, 200, 9)
    };
    let mut bbst_pairs = Vec::new();
    for algorithm in [
        Some(Algorithm::Kds),
        Some(Algorithm::KdsRejection),
        Some(Algorithm::Bbst),
        None,
    ] {
        let outcome = client.sample(SampleRequest { algorithm, ..bbst }).unwrap();
        assert_eq!(outcome.status, RequestStatus::Ok, "{algorithm:?}");
        assert_eq!(outcome.pairs.len(), 200);
        if algorithm == Some(Algorithm::Bbst) {
            bbst_pairs = outcome.pairs;
        }
    }
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.cache_misses, 4, "each algorithm key builds once");
    assert_eq!(stats.engines_cached, 4);

    let outcome = client.sample(SampleRequest { shards: 4, ..bbst }).unwrap();
    assert_eq!(outcome.status, RequestStatus::Ok);
    assert_eq!(outcome.pairs, bbst_pairs, "shards must not move the stream");
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.cache_misses, 4, "shards must not key an engine");
    assert_eq!(stats.engines_cached, 4);
    server.shutdown();
}

/// A `SAMPLE` is one `sample_batch` per batch, under the default config:
/// a seeded request over TCP returns, pair for pair, what a seeded
/// handle of an in-process engine of the same family draws.
#[test]
fn a_tcp_sample_draws_what_a_seeded_in_process_handle_draws() {
    use srj::{Engine, SampleConfig};

    let r = pseudo_points(200, 41, 20.0);
    let s = pseudo_points(4_000, 42, 20.0);
    let (l, t, seed) = (2.0, 2_000, 9);

    let mut registry = DatasetRegistry::new();
    registry.register(1, r.clone(), s.clone());
    let mut server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for algorithm in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
        let outcome = client
            .sample(SampleRequest {
                algorithm: Some(algorithm),
                ..request(1, l, t, seed)
            })
            .unwrap();
        assert_eq!(outcome.status, RequestStatus::Ok, "{algorithm}");
        let engine = Engine::build(&r, &s, &SampleConfig::new(l), algorithm);
        let expected = engine.handle_seeded(seed).sample_batch(t as usize).unwrap();
        assert_eq!(outcome.pairs, expected, "{algorithm}");
    }
    server.shutdown();
}

/// A cache miss decides the BBST family's row granularity as an
/// in-process build does: on clustered data the first request over TCP
/// is served from group rows and returns, pair for pair, what a seeded
/// handle of `Engine::build` draws; the scrape says which rows serve.
#[test]
fn a_cache_miss_on_clustered_data_serves_the_in_process_group_rows() {
    use srj::{Engine, RowGranularity, SampleConfig};

    // Twelve clumps one unit wide under windows of half-extent 3.
    let centres = pseudo_points(12, 51, 58.0);
    let clumped = |n: usize, seed: u64| -> Vec<Point> {
        pseudo_points(n, seed, 1.0)
            .into_iter()
            .zip(centres.iter().cycle())
            .map(|(p, c)| Point::new(c.x + p.x, c.y + p.y))
            .collect()
    };
    let (r, s) = (clumped(300, 52), clumped(900, 53));
    let (l, t, seed) = (3.0, 2_000, 9);

    let engine = Engine::build(&r, &s, &SampleConfig::new(l), Algorithm::Bbst);
    assert_eq!(engine.row_granularity(), RowGranularity::Group);
    let expected = engine.handle_seeded(seed).sample_batch(t as usize).unwrap();

    let mut registry = DatasetRegistry::new();
    registry.register(1, r, s);
    let mut server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let outcome = client
        .sample(SampleRequest {
            algorithm: Some(Algorithm::Bbst),
            ..request(1, l, t, seed)
        })
        .unwrap();
    assert_eq!(outcome.status, RequestStatus::Ok);
    assert!(
        outcome.pairs == expected,
        "the served stream is not the in-process one"
    );
    assert_eq!(client.server_stats().unwrap().cache_misses, 1);

    let metrics = client.metrics().unwrap();
    let bytes = engine.memory_breakdown();
    for series in [
        format!(
            "srj_index_rows{{dataset=\"1\",granularity=\"group\"}} {}\n",
            engine.row_count()
        ),
        "srj_index_rows{dataset=\"1\",granularity=\"per_r\"} 0\n".to_string(),
        format!(
            "srj_index_bytes{{dataset=\"1\",structure=\"rows\"}} {}\n",
            bytes.rows
        ),
        "srj_index_bytes{dataset=\"1\",structure=\"units\"} 0\n".to_string(),
    ] {
        assert!(
            metrics.contains(&series),
            "missing {series:?} in:\n{metrics}"
        );
    }
    // A forty-byte row and nine four-byte cell slots per group.
    assert_eq!(bytes.rows, 76 * engine.row_count());
    server.shutdown();
}

/// The value of the unlabelled series `name` in a `METRICS` text.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} in:\n{text}"))
        .parse()
        .expect("a number")
}

/// The benchmark's `cold_windows` shape in small: 24 forced-BBST windows,
/// 50 to 280, cycled against an engine cache of 16. They stand on nine
/// ladder steps, one engine each, so only the first cycle misses.
#[test]
fn cycled_windows_miss_once_per_ladder_step() {
    use srj::{generate, split_rs, DatasetKind, DatasetSpec};

    let points = generate(&DatasetSpec::new(DatasetKind::PoiClusters, 4_000, 1));
    let (r, s) = split_rs(&points, 0.5, 1 ^ 0xDEAD_BEEF);
    let mut registry = DatasetRegistry::new();
    registry.register(1, r, s);
    let config = ServerConfig {
        cache_capacity: 16,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut misses = Vec::new();
    for cycle in 0..2 {
        for (i, l) in (50..=280).step_by(10).enumerate() {
            let outcome = client
                .sample(SampleRequest {
                    algorithm: Some(Algorithm::Bbst),
                    ..request(1, f64::from(l), 64, (24 * cycle + i + 1) as u64)
                })
                .unwrap();
            assert_eq!(outcome.status, RequestStatus::Ok, "l = {l}");
        }
        let text = client.metrics().unwrap();
        misses.push(metric(&text, "srj_engine_cache_misses_total"));
    }
    assert_eq!(misses, [9.0, 9.0], "the second cycle must not miss");
    assert_eq!(client.server_stats().unwrap().engines_cached, 9);
    server.shutdown();
}

/// Where a ladder step's rows fail the step's own window — uniform
/// data — a forced-BBST request below the step builds the window's own
/// index and nothing at the step: the step keeps its verdict, no rows,
/// and a second window on it is not probed against the step again.
/// Each window draws what an engine built for it alone draws.
#[test]
fn a_failed_step_builds_only_the_windows_own_index() {
    use srj::{Engine, SampleConfig};

    let r = pseudo_points(200, 41, 20.0);
    let s = pseudo_points(4_000, 42, 20.0);
    let mut registry = DatasetRegistry::new();
    registry.register(1, r.clone(), s.clone());
    let mut server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // 1.9 and 1.8 both stand on the step 2.
    for l in [1.9, 1.8, 1.9] {
        let outcome = client
            .sample(SampleRequest {
                algorithm: Some(Algorithm::Bbst),
                ..request(1, l, 500, 9)
            })
            .unwrap();
        assert_eq!(outcome.status, RequestStatus::Ok, "l = {l}");
        let alone = Engine::build(&r, &s, &SampleConfig::new(l), Algorithm::Bbst);
        let expected = alone.handle_seeded(9).sample_batch(500).unwrap();
        assert!(
            outcome.pairs == expected,
            "l = {l}: not the window's own stream"
        );
    }
    let stats = client.server_stats().unwrap();
    assert_eq!(
        (stats.cache_misses, stats.cache_hits, stats.engines_cached),
        (2, 1, 2),
        "one build per window, none at the step"
    );
    let text = client.metrics().unwrap();
    let rows = |granularity: &str| {
        metric(
            &text,
            &format!("srj_index_rows{{dataset=\"1\",granularity=\"{granularity}\"}}"),
        )
    };
    assert_eq!([rows("per_r"), rows("group")], [400.0, 0.0]);
    server.shutdown();
}

/// The backpressure contract: a client that stops reading stalls only
/// its own stream. While a slow reader's request is parked, a fast
/// client on the same (single-worker!) server completes many requests.
#[test]
fn slow_reader_stalls_only_its_own_connection() {
    let pts = pseudo_points(200, 7, 60.0);
    let mut registry = DatasetRegistry::new();
    registry.register(1, pts.clone(), pts.clone());
    // One worker and a tiny response queue: if the slow consumer could
    // block the pool, the fast client below would hang with it.
    let mut server = Server::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            workers: 1,
            queue_frames: 2,
            batch_pairs: 512,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let slow_parked = &AtomicBool::new(false);
    let fast_done = &AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut slow = Client::connect(addr).unwrap();
            // A huge request whose batches we drain at a crawl: after
            // the first batch, sleep until the fast client finished.
            let outcome = slow
                .sample_with(request(1, 6.0, 300_000, 11), |_batch| {
                    slow_parked.store(true, Ordering::Release);
                    let start = Instant::now();
                    while !fast_done.load(Ordering::Acquire)
                        && start.elapsed() < Duration::from_secs(30)
                    {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                })
                .unwrap();
            assert_eq!(outcome.status, RequestStatus::Ok);
        });
        // Wait until the slow stream is provably in flight.
        while !slow_parked.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut fast = Client::connect(addr).unwrap();
        let start = Instant::now();
        for i in 0..20 {
            let outcome = fast.sample(request(1, 6.0, 2_000, 50 + i)).unwrap();
            assert_eq!(outcome.status, RequestStatus::Ok);
            assert_eq!(outcome.pairs.len(), 2_000);
        }
        // 20 × 2k samples through the single worker while the slow
        // stream sits parked: seconds of budget, fails in minutes if
        // the worker were stuck on the slow connection.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "fast client starved behind a slow reader: {:?}",
            start.elapsed()
        );
        fast_done.store(true, Ordering::Release);
    });
    server.shutdown();
}

/// Graceful shutdown joins every spawned thread — including with
/// clients mid-stream — and is idempotent. `shutdown()` returning at
/// all is the no-leak guarantee (it joins acceptor, workers, and every
/// connection thread); afterwards the port no longer accepts.
#[test]
fn shutdown_is_clean_with_clients_in_flight() {
    let pts = pseudo_points(150, 9, 50.0);
    let mut registry = DatasetRegistry::new();
    registry.register(1, pts.clone(), pts.clone());
    let mut server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Park a huge request mid-stream by (almost) not reading it.
    let mut hanging = Client::connect(addr).unwrap();
    let started = &AtomicBool::new(false);
    let released = &AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _ = hanging.sample_with(request(1, 6.0, 50_000_000, 13), |_batch| {
                started.store(true, Ordering::Release);
                // stop reading until the shutdown below has happened:
                // the request parks server-side
                let begin = Instant::now();
                while !released.load(Ordering::Acquire) && begin.elapsed() < Duration::from_secs(30)
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        });
        while !started.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Joins acceptor + workers + connection threads; a leaked or
        // deadlocked thread would hang the test here forever.
        server.shutdown();
        server.shutdown(); // idempotent
        released.store(true, Ordering::Release);
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "listener survived shutdown"
        );
        // the hanging client's next read fails on the closed socket;
        // the scoped thread joins here
    });
}

/// A `SHUTDOWN` control frame from a client takes the whole server
/// down (the remote-operations path `Client::shutdown_server` uses).
#[test]
fn remote_shutdown_frame_stops_the_server() {
    let pts = pseudo_points(50, 15, 30.0);
    let mut registry = DatasetRegistry::new();
    registry.register(1, pts.clone(), pts.clone());
    let mut server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.shutdown_server().unwrap();
    server.wait_shutdown(); // returns because the flag is set remotely
    server.shutdown();
    assert!(std::net::TcpStream::connect(addr).is_err());
}
