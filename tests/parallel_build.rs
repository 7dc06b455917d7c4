//! The parallel build contract: `SampleConfig::build_threads` changes
//! wall-clock only, never results. For every algorithm, a build at any
//! thread count must produce bit-identical weights (`µ(r)` / exact
//! counts), the same `|J|`/`Σµ`, and — because the alias tables are
//! then also identical — the same sample stream under the same seed.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj::{
    generate, split_rs, BbstKdVariantSampler, BbstSampler, DatasetKind, DatasetSpec, JoinSampler,
    KdsRejectionSampler, KdsSampler, Point, SampleConfig,
};

/// A generated (`srj-datagen`) clustered dataset, not a hand-made one.
fn dataset() -> (Vec<Point>, Vec<Point>) {
    let points = generate(&DatasetSpec::new(DatasetKind::PoiClusters, 4_000, 99));
    split_rs(&points, 0.5, 0xD15C)
}

/// 1 is the serial path spelled out; 3 gives chunks of unequal length;
/// 4 and 8 are more builder threads than the reference host has cores.
/// The upper-bounding passes group each thread's chunk of `R` by grid
/// cell, so every count here cuts the groups differently.
const THREAD_SWEEP: [usize; 5] = [1, 2, 3, 4, 8];

#[test]
fn kds_parallel_build_is_bit_identical() {
    let (r, s) = dataset();
    let serial = KdsSampler::build(&r, &s, &SampleConfig::new(100.0));
    for threads in THREAD_SWEEP {
        let cfg = SampleConfig::new(100.0).with_build_threads(threads);
        let mut par = KdsSampler::build(&r, &s, &cfg);
        // exact counts ⇒ join size must match exactly
        assert_eq!(
            par.index().join_size(),
            serial.index().join_size(),
            "threads = {threads}"
        );
        // identical alias ⇒ identical stream under one seed
        let mut serial_cursor = srj::KdsCursor::new(std::sync::Arc::clone(serial.index()));
        let mut rng_a = SmallRng::seed_from_u64(42);
        let mut rng_b = SmallRng::seed_from_u64(42);
        assert_eq!(
            par.sample(500, &mut rng_a).unwrap(),
            serial_cursor.sample(500, &mut rng_b).unwrap(),
            "threads = {threads}"
        );
    }
}

#[test]
fn rejection_parallel_build_is_bit_identical() {
    let (r, s) = dataset();
    let serial = KdsRejectionSampler::build(&r, &s, &SampleConfig::new(100.0));
    for threads in THREAD_SWEEP {
        let cfg = SampleConfig::new(100.0).with_build_threads(threads);
        let mut par = KdsRejectionSampler::build(&r, &s, &cfg);
        assert_eq!(
            par.index().mu_total(),
            serial.index().mu_total(),
            "threads = {threads}"
        );
        for i in 0..r.len() {
            assert_eq!(
                par.index().mu_of(i),
                serial.index().mu_of(i),
                "threads = {threads}, r{i}"
            );
        }
        let mut serial_cursor = srj::KdsRejectionCursor::new(std::sync::Arc::clone(serial.index()));
        let mut rng_a = SmallRng::seed_from_u64(43);
        let mut rng_b = SmallRng::seed_from_u64(43);
        assert_eq!(
            par.sample(500, &mut rng_a).unwrap(),
            serial_cursor.sample(500, &mut rng_b).unwrap(),
            "threads = {threads}"
        );
    }
}

#[test]
fn bbst_parallel_build_is_bit_identical() {
    let (r, s) = dataset();
    let serial = BbstSampler::build(&r, &s, &SampleConfig::new(100.0));
    for threads in THREAD_SWEEP {
        let cfg = SampleConfig::new(100.0).with_build_threads(threads);
        let mut par = BbstSampler::build(&r, &s, &cfg);
        assert_eq!(
            par.index().mu_total(),
            serial.index().mu_total(),
            "threads = {threads}"
        );
        for i in 0..r.len() {
            assert_eq!(
                par.index().mu_of(i),
                serial.index().mu_of(i),
                "threads = {threads}, r{i}"
            );
        }
        let mut serial_cursor = srj::BbstCursor::new(std::sync::Arc::clone(serial.index()));
        let mut rng_a = SmallRng::seed_from_u64(44);
        let mut rng_b = SmallRng::seed_from_u64(44);
        assert_eq!(
            par.sample(500, &mut rng_a).unwrap(),
            serial_cursor.sample(500, &mut rng_b).unwrap(),
            "threads = {threads}"
        );
    }
}

#[test]
fn kd_variant_parallel_build_is_bit_identical() {
    let (r, s) = dataset();
    let serial = BbstKdVariantSampler::build(&r, &s, &SampleConfig::new(100.0));
    for threads in THREAD_SWEEP {
        let cfg = SampleConfig::new(100.0).with_build_threads(threads);
        let mut par = BbstKdVariantSampler::build(&r, &s, &cfg);
        assert_eq!(
            par.index().mu_total(),
            serial.index().mu_total(),
            "threads = {threads}"
        );
        let mut serial_cursor =
            srj::BbstKdVariantCursor::new(std::sync::Arc::clone(serial.index()));
        let mut rng_a = SmallRng::seed_from_u64(45);
        let mut rng_b = SmallRng::seed_from_u64(45);
        assert_eq!(
            par.sample(500, &mut rng_a).unwrap(),
            serial_cursor.sample(500, &mut rng_b).unwrap(),
            "threads = {threads}"
        );
    }
}

/// `Σµ` of the benchmark's `bulk_draw` index (TaxiHotspots at scale 1.0
/// as `srj_bench::scaled_spec` splits it with the benchmark's data
/// seed 1, `l` = 100), to the bit: the value PR 13 recorded on both of
/// its commits. The rows are integers and the alias sums them in input
/// order, so any change to how the upper bounds are computed — or to the
/// order `R` is visited in — that is not an exact refactor moves it.
#[test]
fn bulk_draw_mu_total_is_pinned() {
    let points = generate(&DatasetSpec::new(DatasetKind::TaxiHotspots, 1_000_000, 1));
    let (r, s) = split_rs(&points, 0.5, 1 ^ 0xDEAD_BEEF);
    let cfg = SampleConfig::new(100.0).with_build_threads(3);
    let sampler = BbstSampler::build(&r, &s, &cfg);
    assert_eq!(sampler.index().mu_total().to_bits(), 0x4216_190f_4124_0000);
}

#[test]
fn all_cores_build_threads_zero_works() {
    let (r, s) = dataset();
    let serial = BbstSampler::build(&r, &s, &SampleConfig::new(100.0));
    let auto = BbstSampler::build(&r, &s, &SampleConfig::new(100.0).with_build_threads(0));
    assert_eq!(auto.index().mu_total(), serial.index().mu_total());
}

#[test]
fn parallel_build_reports_wall_and_cpu() {
    let (r, s) = dataset();
    let cfg = SampleConfig::new(100.0).with_build_threads(4);
    let sampler = BbstSampler::build(&r, &s, &cfg);
    let rep = sampler.report();
    assert!(rep.upper_bounding > std::time::Duration::ZERO);
    // CPU ≥ wall·(fraction done in parallel); at minimum it is recorded.
    assert!(rep.upper_bounding_cpu > std::time::Duration::ZERO);
    // serial builds keep the two equal
    let serial = BbstSampler::build(&r, &s, &SampleConfig::new(100.0));
    let srep = serial.report();
    assert_eq!(srep.upper_bounding, srep.upper_bounding_cpu);
}

/// The per-cell sorts a build forces are raced by its threads, each
/// cell sorted once by whichever reaches it: the views come out as one
/// thread sorts them, and a second call finds nothing left to sort.
#[test]
fn raced_cell_views_are_the_serial_views() {
    let (_, s) = dataset();
    let serial = srj::grid::Grid::build(&s, 20.0);
    serial.sort_views(1);
    for threads in THREAD_SWEEP {
        let raced = srj::grid::Grid::build(&s, 20.0);
        raced.sort_views(threads);
        assert_eq!(raced.memory_bytes(), serial.memory_bytes());
        for (a, b) in raced.cells().iter().zip(serial.cells()) {
            assert_eq!(a.by_x(&s), b.by_x(&s), "threads = {threads}");
            assert_eq!(a.by_y(&s), b.by_y(&s), "threads = {threads}");
        }
        let again: usize = raced.cells().iter().map(|c| c.sort_views(&s)).sum();
        assert_eq!(again, 0, "threads = {threads}");
    }
}
