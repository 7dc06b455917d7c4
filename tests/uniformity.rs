//! Statistical uniformity tests: on small, fully-enumerable joins, every
//! sampler's output frequencies must match the uniform distribution over
//! `J` (Definition 2's core requirement, Theorem 3 for BBST).
//!
//! Deterministic: fixed seeds, chi-square threshold with a wide margin
//! (mean + 6σ of the χ² distribution), so failures indicate real bias
//! rather than unlucky draws.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj::{
    BbstKdVariantSampler, BbstSampler, JoinPair, JoinSampler, JoinThenSample, KdsRejectionSampler,
    KdsSampler, MassMode, Point, SampleConfig,
};
use std::collections::HashMap;

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

/// Draws `per_pair * |J|` samples and checks the χ² statistic against
/// `df + 6·√(2·df)`.
fn assert_uniform_over_join(sampler: &mut dyn JoinSampler, r: &[Point], s: &[Point], l: f64) {
    let join = srj::join::nested_loop_join(r, s, l);
    assert!(join.len() > 10, "test join too small to be meaningful");
    let expected_support: std::collections::HashSet<JoinPair> =
        join.iter().map(|&(a, b)| JoinPair::new(a, b)).collect();

    let per_pair = 60usize;
    let draws = per_pair * join.len();
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let samples = sampler.sample(draws, &mut rng).unwrap();

    let mut freq: HashMap<JoinPair, usize> = HashMap::new();
    for p in samples {
        assert!(
            expected_support.contains(&p),
            "{}: emitted a non-join pair {p:?}",
            sampler.name()
        );
        *freq.entry(p).or_default() += 1;
    }
    assert_eq!(
        freq.len(),
        join.len(),
        "{}: some join pairs are unreachable",
        sampler.name()
    );

    let expected = per_pair as f64;
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
        "{}: χ² = {chi2:.1} exceeds {threshold:.1} (df = {df})",
        sampler.name()
    );
}

fn test_sets() -> (Vec<Point>, Vec<Point>, f64) {
    // ~60 R × 90 S over a 60×60 domain with l = 6 gives a few hundred
    // join pairs spanning all three cell cases.
    (
        pseudo_points(60, 101, 60.0),
        pseudo_points(90, 102, 60.0),
        6.0,
    )
}

/// The loosest input the BBST bound has: every `r` sits at a cell
/// centre and its only partner diagonally `0.8 l` away, alone in the
/// corner cell — a one-point cell whose Virtual bound is the whole
/// bucket capacity, so `Σµ > 2 |J|` and most iterations hit a dud slot.
fn sparse_corner_sets() -> (Vec<Point>, Vec<Point>, f64) {
    let l = 5.0;
    let at = |i: usize, off: f64| Point::new((5 * i) as f64 * l + off * l, off * l);
    let r = (0..25).map(|i| at(i, 0.5)).collect();
    let s = (0..25).map(|i| at(i, 1.3)).collect();
    (r, s, l)
}

#[test]
fn kds_is_uniform() {
    let (r, s, l) = test_sets();
    let mut sampler = KdsSampler::build(&r, &s, &SampleConfig::new(l));
    assert_uniform_over_join(&mut sampler, &r, &s, l);
}

#[test]
fn kds_rejection_is_uniform() {
    let (r, s, l) = test_sets();
    let mut sampler = KdsRejectionSampler::build(&r, &s, &SampleConfig::new(l));
    assert_uniform_over_join(&mut sampler, &r, &s, l);
}

#[test]
fn bbst_is_uniform_virtual_mass() {
    for (r, s, l) in [test_sets(), sparse_corner_sets()] {
        let mut sampler = BbstSampler::build(&r, &s, &SampleConfig::new(l));
        assert_uniform_over_join(&mut sampler, &r, &s, l);
    }
    let (r, s, l) = sparse_corner_sets();
    let virt = BbstSampler::build(&r, &s, &SampleConfig::new(l));
    let mu = virt.index().mu_total();
    assert!(mu > 2.0 * r.len() as f64, "Σµ {mu}: the input is not loose");
}

#[test]
fn bbst_is_uniform_exact_mass() {
    for (r, s, l) in [test_sets(), sparse_corner_sets()] {
        let cfg = SampleConfig::new(l).with_mass_mode(MassMode::Exact);
        let mut sampler = BbstSampler::build(&r, &s, &cfg);
        assert_uniform_over_join(&mut sampler, &r, &s, l);
    }
    // The build-wide remedy for loose corners: strictly tighter where
    // buckets run short.
    let (r, s, l) = sparse_corner_sets();
    let mu = |mode| {
        let cfg = SampleConfig::new(l).with_mass_mode(mode);
        BbstSampler::build(&r, &s, &cfg).index().mu_total()
    };
    let (exact, virt) = (mu(MassMode::Exact), mu(MassMode::Virtual));
    assert!(exact < virt, "Exact Σµ {exact} not below Virtual {virt}");
}

#[test]
fn bbst_is_uniform_with_fractional_cascading() {
    let (r, s, l) = test_sets();
    let cfg = SampleConfig::new(l).with_cascading();
    let mut sampler = BbstSampler::build(&r, &s, &cfg);
    assert_uniform_over_join(&mut sampler, &r, &s, l);
}

#[test]
fn rangetree_sampler_is_uniform() {
    let (r, s, l) = test_sets();
    let mut sampler = srj::RangeTreeSampler::build(&r, &s, &SampleConfig::new(l));
    assert_uniform_over_join(&mut sampler, &r, &s, l);
}

#[test]
fn bbst_kd_variant_is_uniform() {
    let (r, s, l) = test_sets();
    let mut sampler = BbstKdVariantSampler::build(&r, &s, &SampleConfig::new(l));
    assert_uniform_over_join(&mut sampler, &r, &s, l);
}

#[test]
fn join_then_sample_is_uniform() {
    let (r, s, l) = test_sets();
    let mut sampler = JoinThenSample::build(&r, &s, &SampleConfig::new(l));
    assert_uniform_over_join(&mut sampler, &r, &s, l);
}

/// Uniformity must also hold on clustered data, where cell populations
/// are wildly skewed and the alias weights span orders of magnitude.
#[test]
fn bbst_is_uniform_on_skewed_data() {
    let mut r = pseudo_points(30, 201, 10.0); // dense clump
    r.extend(pseudo_points(20, 202, 80.0)); // sparse spread
    let mut s = pseudo_points(50, 203, 10.0);
    s.extend(pseudo_points(30, 204, 80.0));
    let l = 4.0;
    let mut sampler = BbstSampler::build(&r, &s, &SampleConfig::new(l));
    assert_uniform_over_join(&mut sampler, &r, &s, l);
}

/// Duplicate coordinates exercise the BBST's equal-key `B` lists.
#[test]
fn bbst_is_uniform_with_duplicate_coordinates() {
    let mut r = Vec::new();
    let mut s = Vec::new();
    for i in 0..8 {
        for _ in 0..3 {
            r.push(Point::new(i as f64 * 2.0, 5.0));
            s.push(Point::new(i as f64 * 2.0, 5.5));
            s.push(Point::new(i as f64 * 2.0 + 0.5, 4.5));
        }
    }
    let l = 3.0;
    let mut sampler = BbstSampler::build(&r, &s, &SampleConfig::new(l));
    assert_uniform_over_join(&mut sampler, &r, &s, l);
}
