//! Datasets whose coordinates sit on multiples of the window half-extent
//! `l`, where floating-point rounding decides which cell a point falls in
//! and where a window ends — the inputs on which "a window lies inside
//! the 3×3 block around its centre" stops being true.
//!
//! * The corner query widened: a corner cell's quadrant used to be clipped
//!   *toward* the cell, so a window edge that rounding left a hair short
//!   of the cell still produced a degenerate, non-empty rectangle and the
//!   kd corner draw returned points outside `w(r)`.
//! * A window can reach a fourth column or row: `⌊x / l⌋` and `r.x ± l`
//!   disagree within an ulp of a cell boundary. KDS guards against it (an
//!   `r` of that kind goes on `KdsIndex::stray` and draws through
//!   `KdCellStore::sample_in_window`); the grid families do not yet, and
//!   their probes below are `#[ignore]`d with the counts they reach.
//!
//! Every probe draws 100 join sizes' worth of samples, so a reachable pair
//! is missed with probability `e⁻¹⁰⁰` per pair.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj::{
    generate, split_rs, BbstKdVariantSampler, BbstSampler, DatasetKind, DatasetSpec, JoinPair,
    JoinSampler, KdsIndex, KdsRejectionSampler, KdsSampler, Point, Rect, SampleConfig,
};

/// `R = S = {(i · 0.1, j · 0.1) : i < 40, j < 3}`, the products computed
/// in floating point; `l = 0.1`, 805 join pairs.
fn computed_lattice() -> (Vec<Point>, f64) {
    let pts = (0..40)
        .flat_map(|i| (0..3).map(move |j| Point::new(i as f64 * 0.1, j as f64 * 0.1)))
        .collect();
    (pts, 0.1)
}

/// Decimal literals, two points a side; `l = 0.1`, 2 join pairs, one of
/// them — `(0.3, 0.3)` with `(0.4, 0.3)` — across a fourth column.
fn two_point_probe() -> (Vec<Point>, Vec<Point>, f64) {
    let r = vec![Point::new(0.3, 0.3), Point::new(0.7, 0.7)];
    let s = vec![Point::new(0.4, 0.3), Point::new(0.7, 0.7)];
    (r, s, 0.1)
}

/// `R = S =` the decimal lattice `x ∈ {0.0 … 5.9}`, `y ∈ {0.0 … 0.3}`,
/// every coordinate **parsed from text**; `l = 0.1`, 1590 join pairs.
fn parsed_lattice() -> (Vec<Point>, f64) {
    let tenth = |k: u32| -> f64 { format!("{}.{}", k / 10, k % 10).parse().unwrap() };
    let pts = (0..60)
        .flat_map(|i| (0..4).map(move |j| Point::new(tenth(i), tenth(j))))
        .collect();
    (pts, 0.1)
}

/// Distinct pairs `sampler` emits in 100 · `|J|` draws; panics on a pair
/// outside its window.
fn reached(
    sampler: &mut dyn JoinSampler,
    r: &[Point],
    s: &[Point],
    l: f64,
    join_len: usize,
) -> HashSet<JoinPair> {
    let mut rng = SmallRng::seed_from_u64(0x0DD5);
    let pairs = sampler.sample(100 * join_len, &mut rng).unwrap();
    for p in &pairs {
        let (rp, sp) = (r[p.r as usize], s[p.s as usize]);
        assert!(
            Rect::window(rp, l).contains(sp),
            "{}: r = {rp:?}, s = {sp:?} lies outside w(r)",
            sampler.name()
        );
    }
    pairs.into_iter().collect()
}

/// The oracle: `srj-join`'s nested loop.
fn oracle(r: &[Point], s: &[Point], l: f64) -> HashSet<JoinPair> {
    srj::join::nested_loop_join(r, s, l)
        .into_iter()
        .map(|(a, b)| JoinPair::new(a, b))
        .collect()
}

/// `sampler` reaches exactly the oracle's pairs, none outside its window.
fn assert_reaches_the_join(sampler: &mut dyn JoinSampler, r: &[Point], s: &[Point], l: f64) {
    let join = oracle(r, s, l);
    let got = reached(sampler, r, s, l, join.len());
    assert_eq!(
        got.len(),
        join.len(),
        "{} reaches {} of {} pairs",
        sampler.name(),
        got.intersection(&join).count(),
        join.len()
    );
    assert_eq!(got, join, "{}", sampler.name());
}

#[test]
fn kd_corner_query_stays_inside_the_window() {
    let (pts, l) = computed_lattice();
    assert_eq!(oracle(&pts, &pts, l).len(), 805);
    let cfg = SampleConfig::new(l);
    // Both names of the one kd-cell algorithm; at the parent commit the
    // variant emitted 809 distinct pairs here, four outside their window.
    let mut variant = BbstKdVariantSampler::build(&pts, &pts, &cfg);
    assert_reaches_the_join(&mut variant, &pts, &pts, l);
    let mut kds = KdsSampler::build(&pts, &pts, &cfg);
    assert_eq!(kds.index().join_size(), 805);
    assert_reaches_the_join(&mut kds, &pts, &pts, l);
}

#[test]
fn kds_reaches_a_window_that_leaves_its_block() {
    let (r, s, l) = two_point_probe();
    let mut kds = KdsSampler::build(&r, &s, &SampleConfig::new(l));
    assert_eq!(kds.index().join_size(), 2);
    assert_eq!(kds.index().stray(), [0]);
    assert_reaches_the_join(&mut kds, &r, &s, l);

    let (pts, l) = parsed_lattice();
    for threads in [1, 3] {
        let cfg = SampleConfig::new(l).with_build_threads(threads);
        let mut kds = KdsSampler::build(&pts, &pts, &cfg);
        assert_eq!(kds.index().join_size(), 1590);
        assert!(!kds.index().stray().is_empty());
        assert_reaches_the_join(&mut kds, &pts, &pts, l);
    }
}

/// The guard is for coordinates on multiples of `l`; it must not become
/// the draw path of ordinary data unnoticed. The benchmark's four
/// datasets (`benchmark/src/workload.rs`: kind, scale × base size, data
/// seed 1) with the window sizes their workloads use.
#[test]
fn no_benchmark_dataset_has_a_stray_window() {
    let ls = |from: u32, to: u32| (from..=to).step_by(10).map(f64::from).collect::<Vec<_>>();
    for (name, kind, n, ls) in [
        (
            "bulk_draw",
            DatasetKind::TaxiHotspots,
            1_000_000,
            ls(100, 100),
        ),
        ("small_requests", DatasetKind::Uniform, 60_000, ls(100, 100)),
        (
            "mixed_updates",
            DatasetKind::PoiClusters,
            40_000,
            ls(100, 100),
        ),
        (
            "cold_windows",
            DatasetKind::PoiClusters,
            80_000,
            ls(50, 280),
        ),
    ] {
        let points = generate(&DatasetSpec::new(kind, n, 1));
        let (r, s) = split_rs(&points, 0.5, 1 ^ 0xDEAD_BEEF);
        for l in ls {
            let cfg = SampleConfig::new(l).with_build_threads(3);
            let index = KdsIndex::build(&r, &s, &cfg);
            assert!(index.stray().is_empty(), "{name}, l = {l}");
        }
    }
}

/// How many of the two probes' join pairs `build`'s sampler reaches.
fn reach_on_both_probes<S: JoinSampler>(
    build: impl Fn(&[Point], &[Point], &SampleConfig) -> S,
) -> (usize, usize) {
    let (r, s, l) = two_point_probe();
    let join = oracle(&r, &s, l);
    let mut sampler = build(&r, &s, &SampleConfig::new(l));
    let two = reached(&mut sampler, &r, &s, l, join.len());
    let (pts, l) = parsed_lattice();
    let join = oracle(&pts, &pts, l);
    let mut sampler = build(&pts, &pts, &SampleConfig::new(l));
    let lattice = reached(&mut sampler, &pts, &pts, l, join.len());
    (two.len(), lattice.len())
}

#[test]
#[ignore = "3×3 block assumption under rounding — ROADMAP"]
fn bbst_reaches_a_window_that_leaves_its_block() {
    let got = reach_on_both_probes(BbstSampler::build);
    assert_eq!(got, (2, 1590), "BBST reaches 1 of 2 and 1440 of 1590");
}

#[test]
#[ignore = "3×3 block assumption under rounding — ROADMAP"]
fn kds_rejection_reaches_a_window_that_leaves_its_block() {
    let got = reach_on_both_probes(KdsRejectionSampler::build);
    // The lattice's pairs are all reached, but not uniformly: a window
    // with a fourth column holds more points than the block µ(r) counts.
    assert_eq!(got, (2, 1590), "KDS-rejection reaches 1 of 2 (µ(r) = 0)");
}
