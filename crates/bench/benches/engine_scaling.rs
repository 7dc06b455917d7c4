//! Engine-path scaling: build wall-time vs `build_threads`, and
//! serving throughput (samples/sec) vs serving-thread count through
//! `srj-engine` — the multi-thread companion to the single-threaded
//! sampler benches.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srj_bench::scaled_spec;
use srj_core::SampleConfig;
use srj_datagen::DatasetKind;
use srj_engine::{Algorithm, Engine};

const SCALE: f64 = 0.05;
const L: f64 = 100.0;
const T: usize = 20_000;

/// Serving throughput: `total_samples` drawn with replacement, split
/// evenly over `threads` scoped threads each holding its own
/// [`srj_engine::SamplerHandle`]; returns samples/sec of the whole run.
fn serving_throughput(engine: &Engine, threads: usize, total_samples: usize) -> f64 {
    let per_thread = (total_samples / threads.max(1)).max(1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let mut handle = engine.handle_seeded(0x5EED ^ tid as u64);
                scope.spawn(move || {
                    handle
                        .sample_batch(per_thread)
                        .expect("bench datasets have non-empty joins")
                        .len()
                })
            })
            .collect();
        let drawn: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        drawn as f64 / start.elapsed().as_secs_f64()
    })
}

/// Build wall-time at 1/2/4 build threads, per algorithm. The per-`r`
/// upper-bounding loop dominates, so wall-time should fall with the
/// thread count on multi-core hosts (results are bit-identical at any
/// setting).
fn bench_build_threads(c: &mut Criterion) {
    let d = scaled_spec(DatasetKind::Uniform, SCALE, 0.5, 17);
    let mut g = c.benchmark_group("build_vs_threads");
    g.sample_size(10);
    for algo in [Algorithm::Kds, Algorithm::KdsRejection, Algorithm::Bbst] {
        for threads in [1usize, 2, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("{algo}"), threads),
                &threads,
                |b, &threads| {
                    let cfg = SampleConfig::new(L).with_build_threads(threads);
                    b.iter(|| Engine::build(&d.r, &d.s, &cfg, algo));
                },
            );
        }
    }
    g.finish();
}

/// Serving throughput vs thread count (1/2/4/8) through one engine:
/// each serving thread owns a `SamplerHandle` over the shared immutable
/// index, so throughput should scale with cores.
fn bench_serving_threads(c: &mut Criterion) {
    let d = scaled_spec(DatasetKind::Uniform, SCALE, 0.5, 17);
    let mut g = c.benchmark_group("serving_vs_threads");
    g.sample_size(10);
    let engine = Engine::build(&d.r, &d.s, &SampleConfig::new(L), Algorithm::Bbst);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("bbst", threads),
            &threads,
            |b, &threads| {
                b.iter(|| serving_throughput(&engine, threads, T));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_build_threads, bench_serving_threads);
criterion_main!(benches);
