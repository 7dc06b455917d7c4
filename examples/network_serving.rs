//! Network serving quickstart: an in-process `srj-server` plus clients
//! driving it over loopback TCP — the whole request/batch/backpressure
//! path without leaving one binary.
//!
//! ```sh
//! cargo run --release --example network_serving
//! ```
//!
//! For separate processes, see `srj-serve` / `srj-top` (README
//! "Network serving").

use std::time::Instant;

use srj::{datagen, Client, DatasetRegistry, RequestStatus, SampleRequest, Server, ServerConfig};

fn main() {
    // 1. Register a dataset under an id — ids are what clients name in
    //    their requests, and the engine-cache identity.
    let points = datagen::generate(&datagen::DatasetSpec::new(
        datagen::DatasetKind::PoiClusters,
        40_000,
        7,
    ));
    let (r, s) = datagen::split_rs(&points, 0.5, 0xD15C);
    println!("dataset 1: |R| = {}, |S| = {}", r.len(), s.len());
    let mut registry = DatasetRegistry::new();
    registry.register(1, r, s);

    // 2. Start the server on an OS-assigned loopback port.
    let mut server =
        Server::start("127.0.0.1:0", registry, ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // 3. Concurrent clients: each opens one connection and draws a
    //    sample stream. The first request pays the index build (no
    //    algorithm forced: the engine picks); the rest hit the engine
    //    cache — a request that arrives while the build is in flight
    //    waits for it rather than building a second engine.
    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        (0..4u64)
            .map(|cid| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let outcome = client
                        .sample(SampleRequest {
                            req_id: 0,
                            dataset: 1,
                            l: 100.0,
                            algorithm: None, // let the engine pick
                            shards: 1,
                            t: 100_000,
                            seed: 1 + cid,
                        })
                        .expect("sample");
                    assert_eq!(outcome.status, RequestStatus::Ok);
                    println!(
                        "client {cid}: {} samples, server-side {:.1} ms, {:.2} iterations/sample",
                        outcome.pairs.len(),
                        outcome.stats.elapsed_ns as f64 / 1e6,
                        outcome.stats.iterations as f64 / outcome.stats.samples.max(1) as f64
                    );
                    outcome.pairs.len() as u64
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    let wall = start.elapsed();
    println!(
        "{total} samples over TCP in {:.2}s ({:.0} samples/sec)",
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64()
    );

    // 4. Server-wide stats over the wire, then graceful shutdown.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.server_stats().expect("stats");
    println!(
        "server: {} requests, {} samples, cache {} hit / {} miss, p99 {:.1} ms",
        stats.queries,
        stats.samples,
        stats.cache_hits,
        stats.cache_misses,
        stats.p99_ns as f64 / 1e6
    );
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (3, 1),
        "one window, one build"
    );
    server.shutdown();
    println!("server shut down cleanly");
}
