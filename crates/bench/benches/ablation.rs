//! Ablation benches for two design choices of the paper's BBST (§IV;
//! README "The samplers"):
//!
//! 1. case-3 mass mode — the paper's virtual bucket mass vs the tighter
//!    exact-mass extension (sampling throughput),
//! 2. the raw BBST quadrant-count primitive vs a brute scan of the cell,
//!    isolating the structure's `Õ(1)` claim from the pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj_bbst::{bucket_capacity, CellBbsts, MassMode, QuadrantQuery};
use srj_bench::scaled_spec;
use srj_core::{BbstSampler, JoinSampler, SampleConfig};
use srj_datagen::DatasetKind;
use srj_geom::Point;

const SCALE: f64 = 0.03;
const BATCH: usize = 10_000;

fn mass_mode(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_bucket_mass");
    g.sample_size(10);
    let d = scaled_spec(DatasetKind::TaxiHotspots, SCALE, 0.5, 19);
    for mode in [MassMode::Virtual, MassMode::Exact] {
        let cfg = SampleConfig::new(100.0).with_mass_mode(mode);
        let mut sampler = BbstSampler::build(&d.r, &d.s, &cfg);
        let mut rng = SmallRng::seed_from_u64(5);
        g.bench_function(BenchmarkId::new("sample", format!("{mode:?}")), |b| {
            b.iter(|| sampler.sample(BATCH, &mut rng).unwrap());
        });
    }
    g.finish();
}

fn cascading(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_fractional_cascading");
    g.sample_size(10);
    let d = scaled_spec(DatasetKind::TaxiHotspots, SCALE, 0.5, 21);
    for (label, casc) in [("plain", false), ("cascading", true)] {
        let mut cfg = SampleConfig::new(100.0);
        if casc {
            cfg = cfg.with_cascading();
        }
        // build (UB phase runs the case-3 counting n times)
        g.bench_function(BenchmarkId::new("build", label), |b| {
            b.iter(|| BbstSampler::build(&d.r, &d.s, &cfg));
        });
        let mut sampler = BbstSampler::build(&d.r, &d.s, &cfg);
        let mut rng = SmallRng::seed_from_u64(6);
        g.bench_function(BenchmarkId::new("sample", label), |b| {
            b.iter(|| sampler.sample(BATCH, &mut rng).unwrap());
        });
    }
    g.finish();
}

fn quadrant_count(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_quadrant_count");
    g.sample_size(10);
    // one large cell worth of points
    let pts: Vec<Point> = scaled_spec(DatasetKind::Uniform, 0.05, 1.0, 20).r;
    let mut by_x: Vec<u32> = (0..pts.len() as u32).collect();
    by_x.sort_by(|&a, &b| pts[a as usize].x.total_cmp(&pts[b as usize].x));
    let cb = CellBbsts::build(&pts, &by_x, bucket_capacity(pts.len()));
    let queries: Vec<QuadrantQuery> = (0..64)
        .map(|i| QuadrantQuery {
            x_is_min: i % 2 == 0,
            y_is_min: i % 4 < 2,
            x0: (i * 157 % 10_000) as f64,
            y0: (i * 211 % 10_000) as f64,
        })
        .collect();
    g.bench_function("bbst", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| cb.count_quadrant(q, MassMode::Virtual))
                .sum::<u64>()
        });
    });
    g.bench_function("brute_scan", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| pts.iter().filter(|p| q.contains(**p)).count() as u64)
                .sum::<u64>()
        });
    });
    g.finish();
}

criterion_group!(benches, mass_mode, cascading, quadrant_count);
criterion_main!(benches);
