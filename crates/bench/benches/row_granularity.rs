//! The BBST family's two row granularities on the four benchmark
//! workloads' datasets (`benchmark/src/workload.rs`: kind, scale, `l`,
//! data seed 1): per-`r` rows (`BbstIndex`, Algorithm 1) against one row
//! per cell of `R` (`GroupIndex`, the §III-B bound alone), both over a
//! point set whose sorts are already paid — a warm-base cold build, what
//! a serving cache miss pays.
//!
//! Criterion times the build and a 16 384-pair batch; iterations per
//! sample, ns per iteration (one more batch, timed alone) and index
//! bytes per point are printed once per index on a `#` line, and the
//! group / per-`r` ratio of ns per iteration once per dataset. That
//! ratio is what `srj-engine`'s row-granularity threshold
//! (`family::MIN_PROBE_ACCEPTANCE`) rests on. The datasets are the
//! benchmark's own sizes (up to 500 k × 500 k points), so a run takes
//! about a minute.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj_bench::scaled_spec;
use srj_core::{BbstIndex, Cursor, GroupIndex, SampleConfig, SamplerIndex};
use srj_datagen::DatasetKind;
use srj_grid::PointSet;

const BATCH: usize = 16_384;

/// `(workload, dataset kind, dataset scale, l)`; `cold_windows` at the
/// two ends and the middle of its 24 window sizes.
const DATASETS: [(&str, DatasetKind, f64, f64); 6] = [
    ("bulk_draw", DatasetKind::TaxiHotspots, 1.0, 100.0),
    ("small_requests", DatasetKind::Uniform, 0.2, 100.0),
    ("mixed_updates", DatasetKind::PoiClusters, 0.1, 100.0),
    ("cold_windows_50", DatasetKind::PoiClusters, 0.2, 50.0),
    ("cold_windows_160", DatasetKind::PoiClusters, 0.2, 160.0),
    ("cold_windows_280", DatasetKind::PoiClusters, 0.2, 280.0),
];

/// Benches a 16 384-pair batch of `index`, prints its `#` line and
/// returns its ns per iteration.
fn draw_rungs<I: SamplerIndex>(
    g: &mut criterion::BenchmarkGroup<'_>,
    rows: &str,
    name: &str,
    points: usize,
    index: I,
) -> f64 {
    let mut cursor = Cursor::new(Arc::new(index));
    let mut rng = SmallRng::seed_from_u64(7);
    let mut out = Vec::with_capacity(BATCH);
    g.bench_function(BenchmarkId::new(format!("draw_16k/{rows}"), name), |b| {
        b.iter(|| {
            out.clear();
            cursor.sample_batch(BATCH, &mut rng, &mut out).unwrap();
        });
    });
    // One more batch, timed on its own, prices an iteration.
    let before = cursor.sampling_stats().iterations;
    out.clear();
    let t0 = Instant::now();
    cursor.sample_batch(BATCH, &mut rng, &mut out).unwrap();
    let elapsed = t0.elapsed();
    let stats = cursor.sampling_stats();
    let ns_per_iteration = elapsed.as_nanos() as f64 / (stats.iterations - before) as f64;
    println!(
        "# {name} {rows}: {:.4} iterations/sample, {ns_per_iteration:.1} ns/iteration, {:.2} index bytes/point",
        stats.iterations as f64 / stats.samples as f64,
        cursor.index().index_memory_bytes() as f64 / points as f64,
    );
    ns_per_iteration
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("row_granularity");
    g.sample_size(10);
    for (name, kind, scale, l) in DATASETS {
        let d = scaled_spec(kind, scale, 0.5, 1);
        let s = Arc::new(PointSet::new(d.s.clone()));
        s.ensure_orders();
        let cfg = SampleConfig::new(l);
        g.bench_function(BenchmarkId::new("build/per_r", name), |b| {
            b.iter(|| BbstIndex::build(&d.r, &s, &cfg));
        });
        g.bench_function(BenchmarkId::new("build/group", name), |b| {
            b.iter(|| GroupIndex::build(&d.r, &s, &cfg));
        });
        let points = d.r.len() + d.s.len();
        let per_r = draw_rungs(
            &mut g,
            "per_r",
            name,
            points,
            BbstIndex::build(&d.r, &s, &cfg),
        );
        let group = draw_rungs(
            &mut g,
            "group",
            name,
            points,
            GroupIndex::build(&d.r, &s, &cfg),
        );
        println!(
            "# {name}: a group iteration costs {:.2} of a per_r one",
            group / per_r
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
