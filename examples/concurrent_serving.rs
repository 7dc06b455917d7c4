//! Concurrent query serving with `srj-engine`: build the index once,
//! then serve uniform join samples from many threads at once.
//!
//! ```sh
//! cargo run --release --example concurrent_serving
//! ```
//!
//! The demo
//! 1. generates a clustered POI-style workload,
//! 2. lets the data pick the sampler (`Engine::auto`) and prints which
//!    algorithm, at which row granularity, it serves with,
//! 3. serves batched sample queries from 8 threads against the one
//!    shared index,
//! 4. prints the engine's aggregate statistics (throughput, p50/p99),
//! 5. streams samples progressively until 1000 distinct `r` ids have
//!    been drawn.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use srj::{generate, split_rs, DatasetKind, DatasetSpec, Engine, Rect, SampleConfig};

const THREADS: u64 = 8;
const QUERIES_PER_THREAD: usize = 50;
const SAMPLES_PER_QUERY: usize = 2_000;

fn main() {
    // 1. A clustered workload on the paper's [0, 10000]² domain.
    let points = generate(&DatasetSpec::new(DatasetKind::PoiClusters, 120_000, 42));
    let (r, s) = split_rs(&points, 0.5, 7);
    let l = 100.0; // the paper's default half-extent
    let config = SampleConfig::new(l);

    // 2. Build once; with no algorithm forced, a six-figure input gets
    //    BBST, whose build probes the grid bound and picks the row
    //    granularity.
    let t0 = Instant::now();
    let engine = Arc::new(Engine::auto(&r, &s, &config));
    let build_time = t0.elapsed();
    println!("algorithm      : {}", engine.algorithm());
    println!("  rows         : {}", engine.row_granularity().label());
    println!(
        "built in       : {build_time:?} ({} bytes retained)",
        engine.memory_bytes()
    );

    // 3. Serve from THREADS threads; each gets its own seeded handle
    //    (own RNG, own phase report) against the shared index.
    let t1 = Instant::now();
    thread::scope(|scope| {
        for tid in 0..THREADS {
            let engine = Arc::clone(&engine);
            let r = &r;
            let s = &s;
            scope.spawn(move || {
                let mut handle = engine.handle_seeded(0x5EED ^ tid);
                for _ in 0..QUERIES_PER_THREAD {
                    let pairs = handle
                        .sample_batch(SAMPLES_PER_QUERY)
                        .expect("non-empty join");
                    // spot-check: every draw is a genuine join result
                    let p = pairs[0];
                    assert!(Rect::window(r[p.r as usize], l).contains(s[p.s as usize]));
                }
            });
        }
    });
    let serve_time = t1.elapsed();

    // 4. Aggregate statistics from the engine.
    let stats = engine.stats();
    let total = stats.samples as f64;
    println!(
        "\nserved         : {} queries / {} samples from {THREADS} threads",
        stats.queries, stats.samples
    );
    println!(
        "wall time      : {serve_time:?} ({:.0} samples/sec)",
        total / serve_time.as_secs_f64()
    );
    println!(
        "latency        : mean {:?}  p50 {:?}  p99 {:?}",
        stats.mean_latency, stats.p50_latency, stats.p99_latency
    );

    // 5. Progressive sampling: stream until a stopping rule fires (here,
    //    1000 distinct r ids — "stop sampling whenever sufficient join
    //    samples are obtained", §II). The stream records one aggregate
    //    stats query per internal batch, not one per draw.
    let queries_before = engine.stats().queries;
    let mut h = engine.handle_seeded(777);
    let mut distinct_r = std::collections::HashSet::new();
    let mut drawn = 0u64;
    for pair in h.stream() {
        drawn += 1;
        distinct_r.insert(pair.r);
        if distinct_r.len() >= 1_000 {
            break;
        }
    }
    println!(
        "\nstreamed       : {drawn} draws to reach 1000 distinct r ids \
         ({} stats queries recorded)",
        engine.stats().queries - queries_before
    );
}
