//! `srj-server` — the networked sampling front-end over `srj-engine`.
//!
//! The engine (PR 1–2) serves in-process threads; this crate puts a
//! real server boundary in front of it: a dependency-free TCP
//! subsystem on `std::net` + `std::thread` speaking a length-prefixed
//! binary protocol, with the properties heavy multi-user traffic
//! needs —
//!
//! * **request batching**: one engine/handle acquisition per request,
//!   amortised over all `t` samples, streamed out in `BATCH` frames
//!   ([`ServerConfig::batch_pairs`] pairs each);
//! * **two schedulers, one execution path**: a `SAMPLE` the event loop
//!   can see is cheap — engine cached, nothing due, `t ×` observed
//!   ns/sample within a fixed 50 µs budget, quiet connection, budget
//!   left in this loop pass — is drawn and answered on the loop thread
//!   in one `write`; everything else goes to the worker pool. Both run
//!   the same function, so the pairs, counters and stage records are the same
//!   on either thread (see the `server` module docs);
//! * **backpressure**: a bounded per-connection response queue; a
//!   client that stops reading parks *its own* request and frees the
//!   worker — the pool never blocks on a slow socket;
//! * **fair multiplexing**: a fixed worker pool serves one batch per
//!   job step, round-robin across every in-flight request of every
//!   connection;
//! * **cache admission**: serving engines are built at most once per
//!   dataset and ladder step for forced BBST (the step's engine serves
//!   every window on it that its rows pass; a window they fail gets an
//!   engine of its own) and once per `(dataset, l, algorithm)` shape
//!   otherwise, shared across requests and connections (SAMPLE's
//!   `shards` field is reserved and ignored);
//! * **dynamic datasets**: `INSERT`/`DELETE` frames mutate a served
//!   dataset's point store; every serving engine is an
//!   [`srj_engine::EpochEngine`] that folds pending deltas in on its
//!   next handle acquisition (overlay snapshots between rebuilds,
//!   epoch swaps past the rebuild threshold) — in-flight requests keep
//!   streaming their pinned epoch; the `EPOCH` frame exposes the
//!   epoch/version counters;
//! * **graceful shutdown**: a control signal (API call or `SHUTDOWN`
//!   frame) stops the acceptor, closes every connection, and joins
//!   every spawned thread;
//! * **fault tolerance**: a mandatory versioned `HELLO`/`WELCOME`
//!   handshake (mismatched peers get a clean `ERROR`, never consume a
//!   worker slot), `PING`/`PONG` keepalives, per-connection
//!   read/write/idle deadlines (idle connections reaped by the event
//!   loop's sweep timer), token-bucket rate limiting and queue-depth
//!   load shedding answered with `BUSY { retry_after_ms }`, a client
//!   that retries with jittered backoff and keeps mutations
//!   exactly-once via `EPOCH` probes, and a seeded [`FaultPlan`] (inert
//!   by default) driving the chaos soak in `tests/fault_tolerance.rs` —
//!   see the README's "Failure semantics".
//!
//! Binaries: `srj-serve` (register datasets, serve) and `srj-top` (live
//! metrics dashboard with a server-health line). Throughput and latency
//! are measured by the repository's one benchmark (`benchmark/`). See
//! the README's "Network serving" and "Dynamic updates" sections for
//! the quickstart and `examples/network_serving.rs` for the in-process
//! version.

pub mod client;
mod event_loop;
mod exec;
pub mod fault;
mod http;
pub mod protocol;
mod server;
mod worker;

pub use client::{Client, ClientConfig, ClientError, SampleOutcome, UpdateOutcome};
pub use fault::{FaultPlan, FaultRng};
pub use protocol::{
    EpochInfo, ErrorCode, ProtocolError, Request, RequestStats, RequestStatus, Response,
    SampleRequest, ServerStatsFrame, Side, SlowLogEntry, Stages, UpdateStats,
};
pub use server::{DatasetRegistry, Server, ServerConfig, SLOW_AUTO_MIN_REQUESTS};
/// Re-exported so protocol users don't need a direct `srj-engine` dep.
pub use srj_engine::Algorithm;

#[cfg(test)]
mod tests {
    use super::*;
    use srj_geom::Point;

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

    #[test]
    fn end_to_end_sample_over_loopback() {
        let r = pseudo_points(200, 1, 50.0);
        let s = pseudo_points(300, 2, 50.0);
        let mut registry = DatasetRegistry::new();
        registry.register(7, r.clone(), s.clone());
        let mut server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();

        let mut client = Client::connect(server.local_addr()).unwrap();
        let outcome = client
            .sample(SampleRequest {
                req_id: 0,
                dataset: 7,
                l: 5.0,
                algorithm: None,
                shards: 1,
                t: 1_000,
                seed: 42,
            })
            .unwrap();
        assert_eq!(outcome.status, RequestStatus::Ok);
        assert_eq!(outcome.pairs.len(), 1_000);
        assert_eq!(outcome.stats.samples, 1_000);
        for p in &outcome.pairs {
            let w = srj_geom::Rect::window(r[p.r as usize], 5.0);
            assert!(w.contains(s[p.s as usize]));
        }

        // same seed ⇒ same stream, across a fresh connection
        let mut client2 = Client::connect(server.local_addr()).unwrap();
        let again = client2
            .sample(SampleRequest {
                req_id: 0,
                dataset: 7,
                l: 5.0,
                algorithm: None,
                shards: 1,
                t: 1_000,
                seed: 42,
            })
            .unwrap();
        assert_eq!(again.pairs, outcome.pairs);

        // server-side stats saw both requests
        let stats = client.server_stats().unwrap();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.samples, 2_000);
        assert_eq!(stats.cache_misses, 1, "second request must hit the cache");
        server.shutdown();
    }

    /// The PR6 acceptance loop: a live server's `METRICS` exposition
    /// carries the per-dataset request, latency, rejection, and all
    /// five maintenance-rung series, and a captured `SAMPLE`'s `DONE`
    /// names its slow-log entry, whose stage times sum to its latency.
    #[test]
    fn metrics_and_trace_over_loopback() {
        let r = pseudo_points(200, 3, 50.0);
        let s = pseudo_points(300, 4, 50.0);
        let mut registry = DatasetRegistry::new();
        registry.register(9, r, s);
        // Threshold 1 ns: every request is captured.
        let config = ServerConfig {
            slow_log_capacity: 8,
            slow_threshold_ns: 1,
            ..ServerConfig::default()
        };
        let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let outcome = client
            .sample(SampleRequest {
                req_id: 0,
                dataset: 9,
                l: 5.0,
                algorithm: None,
                shards: 1,
                t: 500,
                seed: 7,
            })
            .unwrap();
        assert_eq!(outcome.status, RequestStatus::Ok);
        assert_eq!(outcome.stats.trace_id, 1, "the first capture is entry 1");

        let text = client.metrics().unwrap();
        for required in [
            "srj_requests_total{dataset=\"9\"} 1",
            "srj_samples_total{dataset=\"9\"} 500",
            "# TYPE srj_request_latency_ns histogram",
            "srj_request_latency_ns_count{dataset=\"9\"} 1",
            "srj_request_latency_ns_bucket{dataset=\"9\",le=\"+Inf\"} 1",
            "srj_rejection_rate{dataset=\"9\"}",
            "srj_rejection_iterations_total{dataset=\"9\"}",
            "srj_mu_total{dataset=\"9\"}",
            "srj_connections_accepted_total 1",
        ] {
            assert!(text.contains(required), "missing {required:?} in:\n{text}");
        }
        for rung in ["minor_swap", "cell_patch", "full_rebuild"] {
            let series = format!("srj_maintenance_total{{dataset=\"9\",rung=\"{rung}\"}}");
            assert!(text.contains(&series), "missing {series:?} in:\n{text}");
        }
        // Memory by structure; `R` is the dataset's one set, 16 B a point.
        for structure in srj_core::IndexBytes::default()
            .parts()
            .map(|(name, _)| name)
        {
            let series = format!("srj_index_bytes{{dataset=\"9\",structure=\"{structure}\"}}");
            assert!(text.contains(&series), "missing {series:?} in:\n{text}");
        }
        assert!(
            text.contains("srj_index_bytes{dataset=\"9\",structure=\"r_points\"} 3200\n"),
            "200 points of R are 3200 bytes:\n{text}"
        );
        // ... and, on this data, a row per `r`.
        for rows in ["granularity=\"per_r\"} 200\n", "granularity=\"group\"} 0\n"] {
            let series = format!("srj_index_rows{{dataset=\"9\",{rows}");
            assert!(text.contains(&series), "missing {series:?} in:\n{text}");
        }
        // The ladder has exactly those rungs: nothing serving traffic
        // could trigger is exposed.
        assert_eq!(text.matches("srj_maintenance_total{").count(), 3, "{text}");
        for gone in ["repair", "replan"] {
            assert!(!text.contains(gone), "{gone:?} in:\n{text}");
        }

        let log = client.slow_log(8).unwrap();
        let entry = &log[0];
        assert_eq!(entry.id, outcome.stats.trace_id);
        assert_eq!((entry.t, entry.batches), (500, 1));
        assert_eq!(entry.iterations, outcome.stats.iterations);
        assert_eq!(entry.elapsed_ns, outcome.stats.elapsed_ns);
        assert_eq!(entry.stages.total(), entry.elapsed_ns);
        assert!(entry.stages.acquire_ns > 0 && entry.stages.draw_ns > 0);

        // A second window size is a second engine over the same base:
        // its rows add up, the sets they share count once — `R`, 200
        // points of 16 B (KDS keeps no permutation of it), and `S`,
        // 300 points of 16 B.
        let second = SampleRequest {
            req_id: 1,
            dataset: 9,
            l: 6.0,
            algorithm: None,
            shards: 1,
            t: 10,
            seed: 7,
        };
        assert_eq!(client.sample(second).unwrap().status, RequestStatus::Ok);
        let text = client.metrics().unwrap();
        for series in [
            "structure=\"r_points\"} 3200\n",
            "structure=\"point_set\"} 4800\n",
            "granularity=\"per_r\"} 400\n",
        ] {
            assert!(text.contains(series), "missing {series:?} in:\n{text}");
        }
        server.shutdown();
    }

    /// Windows whose half-extents round up to one ladder step are served
    /// by the step's engine from one set of group rows — its grid, its
    /// permutation of `R`, its rows and its alias — which the exposition
    /// counts once; windows on two steps stand on two engines, counted
    /// twice.
    #[test]
    fn group_rows_of_one_ladder_step_are_counted_once() {
        // Tight clusters, narrower than any window here: group rows serve.
        let centres = pseudo_points(12, 77, 58.0);
        let clustered = |n, seed| -> Vec<Point> {
            let cluster = |(i, p): (usize, Point)| {
                let c = centres[i % centres.len()];
                Point::new(c.x + p.x, c.y + p.y)
            };
            pseudo_points(n, seed, 0.8)
                .into_iter()
                .enumerate()
                .map(cluster)
                .collect()
        };
        let (r, s) = (clustered(200, 5), clustered(300, 6));
        let mut registry = DatasetRegistry::new();
        registry.register(4, r.clone(), s.clone());
        let mut server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // What one engine counts alone, window by window.
        let alone = |l| {
            let config = srj_core::SampleConfig::new(l);
            let engine = srj_engine::Engine::build(&r, &s, &config, Algorithm::Bbst);
            assert_eq!(engine.row_granularity(), srj_engine::RowGranularity::Group);
            engine.memory_breakdown()
        };
        let mut served = |l| {
            let request = SampleRequest {
                req_id: 0,
                dataset: 4,
                l,
                algorithm: Some(Algorithm::Bbst),
                shards: 1,
                t: 10,
                seed: 7,
            };
            assert_eq!(client.sample(request).unwrap().status, RequestStatus::Ok);
            let text = client.metrics().unwrap();
            ["grid", "rows", "alias", "r_points"].map(|structure| {
                let series = format!("srj_index_bytes{{dataset=\"4\",structure=\"{structure}\"}} ");
                let value = text
                    .lines()
                    .find_map(|line| line.strip_prefix(series.as_str()));
                value
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("no {series:?} in:\n{text}"))
            })
        };
        let parts = |b: srj_core::IndexBytes| [b.grid, b.rows, b.alias, b.r_points];
        let (step_one, step_two) = (parts(alone(0.9)), parts(alone(1.1)));
        assert_eq!(parts(alone(1.0)), step_one, "0.9 and 1.0 are one step");

        assert_eq!(served(0.9), step_one);
        assert_eq!(
            served(1.0),
            step_one,
            "a second window on the step adds nothing"
        );
        // A second step adds its own rows and permutation; `R` is one set.
        let r_set = 16 * r.len();
        let two_steps: Vec<usize> = (0..4)
            .map(|i| step_one[i] + step_two[i] - if i == 3 { r_set } else { 0 })
            .collect();
        assert_eq!(served(1.1).to_vec(), two_steps);
        server.shutdown();
    }

    /// The forensics loop: with the slow log armed with an absolute
    /// threshold, a slow request is retained with its stage record and
    /// request context, fast requests are not, and `DONE` names the
    /// entry exactly when one was captured.
    #[test]
    fn slow_requests_are_captured_with_span_forensics() {
        let r = pseudo_points(200, 5, 50.0);
        let s = pseudo_points(300, 6, 50.0);
        let mut registry = DatasetRegistry::new();
        registry.register(3, r, s);
        let threshold = std::time::Duration::from_millis(40);
        let threshold_ns = threshold.as_nanos() as u64;
        let config = ServerConfig {
            slow_log_capacity: 8,
            slow_threshold_ns: threshold_ns,
            ..ServerConfig::default()
        };
        let batch_pairs = config.batch_pairs as u64;
        let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let req = |t: u64| SampleRequest {
            req_id: 0,
            dataset: 3,
            l: 5.0,
            algorithm: None,
            shards: 1,
            t,
            seed: 9,
        };
        // Warm the engine cache so the fast probe below cannot be
        // slowed by the one-time index build.
        client.sample(req(1)).unwrap();
        let fast = client.sample(req(5)).unwrap();
        assert_eq!(fast.status, RequestStatus::Ok);
        assert_eq!(fast.stats.trace_id, 0, "a fast request is not captured");

        // Grow t until a request breaches the threshold for real —
        // self-calibrating, so the test holds on any build profile.
        let mut t = 50_000u64;
        let slow = loop {
            let outcome = client.sample(req(t)).unwrap();
            assert_eq!(outcome.status, RequestStatus::Ok);
            assert_eq!(
                outcome.stats.trace_id != 0,
                outcome.stats.elapsed_ns >= threshold_ns,
                "DONE names an entry exactly when the request was captured"
            );
            if std::time::Duration::from_nanos(outcome.stats.elapsed_ns) > 2 * threshold {
                break outcome;
            }
            t *= 4;
        };

        let entries = client.slow_log(32).unwrap();
        assert!(!entries.is_empty(), "the slow request must be retained");
        for e in &entries {
            assert!(
                e.t >= 50_000,
                "fast requests must not be captured (found t = {})",
                e.t
            );
            assert!(e.elapsed_ns >= threshold_ns);
            assert_eq!(e.stages.total(), e.elapsed_ns);
        }
        let newest = &entries[0];
        assert_eq!(newest.id, slow.stats.trace_id);
        assert_eq!(newest.dataset, 3);
        assert_eq!(newest.t, t);
        assert_eq!(newest.algorithm, "auto");
        assert!(["kds", "bbst"].contains(&newest.served.as_str()));
        assert!(newest.iterations >= slow.stats.samples);
        // Many batches on a worker: every stage took time, and they
        // add up to the latency `DONE` reported.
        assert!(t > batch_pairs);
        assert_eq!(newest.batches, t.div_ceil(batch_pairs));
        assert!(!newest.inline);
        assert_eq!(newest.elapsed_ns, slow.stats.elapsed_ns);
        assert_eq!(newest.stages.total(), newest.elapsed_ns);
        let s = newest.stages;
        for (stage, ns) in [
            ("queued", s.queued_ns),
            ("acquire", s.acquire_ns),
            ("draw", s.draw_ns),
            ("encode", s.encode_ns),
            ("waiting", s.waiting_ns),
        ] {
            assert!(ns > 0, "{stage} is 0 in {s:?}");
        }
        server.shutdown();
    }

    /// A server's capture is its own: starting a second server with
    /// the slow log off leaves the first one's entries whole.
    #[test]
    fn a_second_server_leaves_the_first_servers_capture_alone() {
        let start = |slow_log_capacity| {
            let mut registry = DatasetRegistry::new();
            registry.register(1, pseudo_points(200, 9, 50.0), pseudo_points(300, 10, 50.0));
            let config = ServerConfig {
                slow_log_capacity,
                slow_threshold_ns: 1,
                ..ServerConfig::default()
            };
            Server::start("127.0.0.1:0", registry, config).unwrap()
        };
        let req = SampleRequest {
            req_id: 0,
            dataset: 1,
            l: 5.0,
            algorithm: None,
            shards: 1,
            t: 100,
            seed: 5,
        };
        let mut a = start(8);
        let mut client = Client::connect(a.local_addr()).unwrap();
        assert_eq!(client.sample(req).unwrap().stats.trace_id, 1);
        let mut b = start(0);
        let after = client.sample(req).unwrap();
        assert_eq!(after.stats.trace_id, 2);
        let entry = &client.slow_log(1).unwrap()[0];
        assert_eq!(entry.id, 2);
        assert!(entry.stages.draw_ns > 0, "{entry:?}");
        assert_eq!(entry.stages.total(), entry.elapsed_ns);
        assert_eq!(entry.elapsed_ns, after.stats.elapsed_ns);
        b.shutdown();
        a.shutdown();
    }

    fn http_get(addr: std::net::SocketAddr, head: &str) -> String {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(head.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    /// The keys of a JSON object's outermost level, in order.
    fn top_level_keys(json: &str) -> Vec<&str> {
        let (mut keys, mut depth, mut string, mut escaped) = (Vec::new(), 0, None, false);
        for (i, c) in json.char_indices() {
            if let Some(start) = string {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => {
                        string = None;
                        if depth == 1 && json[i + 1..].trim_start().starts_with(':') {
                            keys.push(&json[start..i]);
                        }
                    }
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => string = Some(i + 1),
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
        }
        keys
    }

    /// The HTTP listener serves the three endpoints, enforces GET, and
    /// `/healthz` flips ready → degraded on a health signal (here a
    /// handshake reject) and recovers once the incident window ages
    /// out.
    #[test]
    fn http_endpoints_and_health_transitions() {
        let r = pseudo_points(200, 7, 50.0);
        let s = pseudo_points(300, 8, 50.0);
        let mut registry = DatasetRegistry::new();
        registry.register(4, r, s);
        let config = ServerConfig {
            http_port: Some(0),
            health_degraded_window_ms: 300,
            ..ServerConfig::default()
        };
        let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
        let http = server.http_addr().expect("http listener must be up");
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .sample(SampleRequest {
                req_id: 0,
                dataset: 4,
                l: 5.0,
                algorithm: None,
                shards: 1,
                t: 100,
                seed: 3,
            })
            .unwrap();

        let metrics = http_get(http, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("srj_requests_total{dataset=\"4\"} 1"));
        assert!(metrics.contains("srj_connections_accepted_total"));

        let vars = http_get(http, "GET /vars?probe=ci HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(vars.starts_with("HTTP/1.1 200 OK"), "{vars}");
        let (_, body) = vars.split_once("\r\n\r\n").expect("an HTTP head");
        assert_eq!(top_level_keys(body), ["metrics", "slow_log"], "{vars}");

        let health = http_get(http, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"status\":\"ready\""), "{health}");
        assert!(!health.contains("replans"), "{health}");

        assert!(http_get(http, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n").starts_with("HTTP/1.1 404"));
        assert!(
            http_get(http, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").starts_with("HTTP/1.1 405")
        );

        // A version-mismatched HELLO bumps the handshake-reject
        // counter: a health signal.
        {
            let mut bad = std::net::TcpStream::connect(server.local_addr()).unwrap();
            protocol::write_frame(
                &mut bad,
                &protocol::encode_request(&protocol::Request::Hello {
                    version: protocol::PROTOCOL_VERSION + 7,
                    features: 0,
                }),
            )
            .unwrap();
            // Wait for the ERROR answer so the reject has been counted.
            let _ = protocol::read_frame(&mut bad);
        }
        let degraded = http_get(http, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(
            degraded.starts_with("HTTP/1.1 503"),
            "expected degraded: {degraded}"
        );
        assert!(degraded.contains("\"status\":\"degraded\""), "{degraded}");

        // Once the incident window ages out, /healthz recovers.
        std::thread::sleep(std::time::Duration::from_millis(450));
        let recovered = http_get(http, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(
            recovered.starts_with("HTTP/1.1 200 OK"),
            "expected recovery: {recovered}"
        );
        server.shutdown();
    }
}
