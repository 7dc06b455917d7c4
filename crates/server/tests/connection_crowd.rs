//! The standing crowd: one event-loop thread must keep thousands of
//! mostly idle keepalive connections alive — each answering `PING`
//! well inside a short idle deadline — while a hot subset runs the
//! sampling workload through them. A crowd connection that stops
//! answering, or one reaped although it pinged in time, means the loop
//! starved it, mis-fired its idle timer or leaked its state under
//! fanout. Runs in its own test binary because it raises the
//! process-wide `RLIMIT_NOFILE`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use srj_net::rlimit;
use srj_server::{
    Client, ClientConfig, DatasetRegistry, RequestStatus, SampleRequest, Server, ServerConfig,
};

mod common;
use common::{metric_value, pseudo_points};

#[test]
fn keepalive_crowd_survives_a_hot_workload() {
    const CROWD: u64 = 2_000;
    const HOT_CLIENTS: u64 = 2;
    const T: u64 = 20_000;
    // Short on purpose: with the sweep below at half this period, a
    // reaped crowd connection is the server's mistake, not a
    // configuration accident.
    let idle = Duration::from_millis(1_500);

    // Both ends of every loopback connection live in this process, plus
    // the hot clients, listener, poller, waker and accept headroom.
    let soft = rlimit::raise_nofile(2 * CROWD + 512).expect("raise RLIMIT_NOFILE");
    let crowd_size = CROWD.min(soft.saturating_sub(512) / 2) as usize;
    assert!(
        crowd_size >= 256,
        "RLIMIT_NOFILE {soft} leaves room for only {crowd_size} keepalive connections"
    );

    let mut registry = DatasetRegistry::new();
    registry.register(
        1,
        pseudo_points(5_000, 21, 2_000.0),
        pseudo_points(5_000, 22, 2_000.0),
    );
    let config = ServerConfig {
        idle_timeout: idle,
        ..ServerConfig::default()
    };
    let mut server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr().to_string();
    let addr = addr.as_str();
    // No retries: a retry would redial, and a reaped keepalive
    // connection must surface as an error, not be papered over.
    let cfg = ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    };

    let mut crowd: Vec<Client> = (0..crowd_size)
        .map(|k| {
            Client::connect_with(addr, cfg)
                .unwrap_or_else(|e| panic!("keepalive connect {k}/{crowd_size}: {e}"))
        })
        .collect();
    let opened_at = Instant::now();

    // The sweeper borrows the crowd while the hot clients run. First
    // sweep immediately: the crowd is proven live before the hot load
    // competes for the core.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (stop, crowd) = (&stop, &mut crowd);
        let sweeper = scope.spawn(move || loop {
            let sweep_started = Instant::now();
            for (k, c) in crowd.iter_mut().enumerate() {
                c.ping()
                    .unwrap_or_else(|e| panic!("keepalive connection {k} stopped answering: {e}"));
            }
            while sweep_started.elapsed() < idle / 2 {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let hot: Vec<_> = (0..HOT_CLIENTS)
            .map(|cid| {
                scope.spawn(move || {
                    let mut client = Client::connect_with(addr, cfg).expect("hot client connect");
                    let mut seed = 1 + cid;
                    // Long enough that a crowd nobody pinged would have
                    // been reaped: the idle deadline plus the loop's
                    // sweep interval (<= 500 ms).
                    while opened_at.elapsed() < idle * 2 {
                        let outcome = client
                            .sample(SampleRequest {
                                req_id: 0,
                                dataset: 1,
                                l: 100.0,
                                algorithm: None,
                                shards: 1,
                                t: T,
                                seed,
                            })
                            .unwrap_or_else(|e| panic!("hot client {cid}: {e}"));
                        assert_eq!(outcome.status, RequestStatus::Ok, "hot client {cid}");
                        assert_eq!(outcome.pairs.len() as u64, T, "hot client {cid}");
                        seed += HOT_CLIENTS;
                    }
                })
            })
            .collect();
        for h in hot {
            h.join().expect("hot client panicked");
        }
        stop.store(true, Ordering::Relaxed);
        sweeper.join().expect("sweeper panicked");
    });

    for (k, c) in crowd.iter_mut().enumerate() {
        c.ping().unwrap_or_else(|e| {
            panic!("keepalive connection {k} did not survive the hot load: {e}")
        });
    }
    // Scraped while the crowd is still open.
    let metrics = server.metrics_text();
    drop(crowd);
    server.shutdown();
    assert!(
        metric_value(&metrics, "srj_conn_open") >= crowd_size as f64,
        "srj_conn_open below the standing crowd of {crowd_size}:\n{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "srj_conn_reaped"),
        0.0,
        "keepalive connections were reaped under fanout:\n{metrics}"
    );
}
