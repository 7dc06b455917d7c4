//! Cross-algorithm integration tests: all samplers agree with each other
//! and with the exact join algorithms, end to end through the public
//! facade.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj::{
    generate, split_rs, BbstKdVariantSampler, BbstSampler, DatasetKind, DatasetSpec, JoinSampler,
    JoinThenSample, KdsRejectionSampler, KdsSampler, Rect, SampleConfig,
};

fn build_all(r: &[srj::Point], s: &[srj::Point], cfg: &SampleConfig) -> Vec<Box<dyn JoinSampler>> {
    vec![
        Box::new(KdsSampler::build(r, s, cfg)),
        Box::new(KdsRejectionSampler::build(r, s, cfg)),
        Box::new(BbstSampler::build(r, s, cfg)),
        Box::new(BbstKdVariantSampler::build(r, s, cfg)),
        Box::new(JoinThenSample::build(r, s, cfg)),
    ]
}

/// On every synthetic dataset family, every sampler emits only genuine
/// join pairs and fills the requested count.
#[test]
fn all_samplers_emit_only_join_pairs_on_all_dataset_kinds() {
    for kind in [
        DatasetKind::Uniform,
        DatasetKind::RoadLike,
        DatasetKind::PoiClusters,
        DatasetKind::TrajectoryLike,
        DatasetKind::TaxiHotspots,
    ] {
        let points = generate(&DatasetSpec::new(kind, 4_000, 5));
        let (r, s) = split_rs(&points, 0.5, 6);
        let cfg = SampleConfig::new(150.0);
        for mut sampler in build_all(&r, &s, &cfg) {
            let mut rng = SmallRng::seed_from_u64(7);
            let samples = sampler
                .sample(300, &mut rng)
                .unwrap_or_else(|e| panic!("{} on {kind:?}: {e}", sampler.name()));
            assert_eq!(samples.len(), 300);
            for p in samples {
                let w = Rect::window(r[p.r as usize], cfg.half_extent);
                assert!(
                    w.contains(s[p.s as usize]),
                    "{} on {kind:?}: non-join pair {p:?}",
                    sampler.name()
                );
            }
        }
    }
}

/// Marginal distribution over R must match the ground truth for every
/// sampler: the probability that a sample's R-point lies in spatial zone
/// `z` is `Σ_{r ∈ z} |S(w(r))| / |J|`. Aggregating into 16 zones keeps
/// the per-category expectation high enough for a tight χ² bound.
#[test]
fn r_marginals_match_ground_truth() {
    let points = generate(&DatasetSpec::new(DatasetKind::PoiClusters, 3_000, 8));
    let (r, s) = split_rs(&points, 0.5, 9);
    let l = 200.0;
    let cfg = SampleConfig::new(l);
    let draws = 60_000usize;

    let zone = |p: &srj::Point| -> usize {
        let i = ((p.x / 2500.0) as usize).min(3);
        let j = ((p.y / 2500.0) as usize).min(3);
        j * 4 + i
    };
    // ground truth zone distribution
    let grid = srj_grid::Grid::build(&s, l);
    let counts = srj::join::per_r_counts(&r, &grid, l);
    let join_size: u64 = counts.iter().sum();
    assert!(join_size > 0);
    let mut exact = [0f64; 16];
    for (rp, &c) in r.iter().zip(counts.iter()) {
        exact[zone(rp)] += c as f64 / join_size as f64;
    }

    for mut sampler in build_all(&r, &s, &cfg) {
        let mut rng = SmallRng::seed_from_u64(10);
        let samples = sampler.sample(draws, &mut rng).unwrap();
        let mut observed = [0f64; 16];
        for p in samples {
            observed[zone(&r[p.r as usize])] += 1.0;
        }
        let mut chi2 = 0.0f64;
        let mut df = 0.0f64;
        for z in 0..16 {
            let expected = exact[z] * draws as f64;
            if expected >= 5.0 {
                chi2 += (observed[z] - expected) * (observed[z] - expected) / expected;
                df += 1.0;
            } else {
                assert!(
                    observed[z] <= expected.max(1.0) * 30.0,
                    "{}: zone {z} grossly over-sampled",
                    sampler.name()
                );
            }
        }
        let threshold = df + 6.0 * (2.0 * df).sqrt();
        assert!(
            chi2 < threshold,
            "{}: zone χ² = {chi2:.1} over threshold {threshold:.1}",
            sampler.name()
        );
    }
}

/// Sampling without replacement returns distinct pairs that exhaust a
/// small join exactly.
#[test]
fn without_replacement_exhausts_small_join() {
    let points = generate(&DatasetSpec::new(DatasetKind::Uniform, 400, 12));
    let (r, s) = split_rs(&points, 0.5, 13);
    let l = 300.0;
    let join = srj::join::nested_loop_join(&r, &s, l);
    assert!(!join.is_empty());
    let mut sampler = BbstSampler::build(&r, &s, &SampleConfig::new(l));
    let mut rng = SmallRng::seed_from_u64(14);
    let got = sampler
        .sample_without_replacement(join.len(), &mut rng)
        .unwrap();
    let mut got_pairs: Vec<(u32, u32)> = got.into_iter().map(|p| (p.r, p.s)).collect();
    got_pairs.sort_unstable();
    let mut expected = join;
    expected.sort_unstable();
    assert_eq!(got_pairs, expected, "without-replacement must enumerate J");
}

/// The three exact-|J| sources agree: KDS counting, the variant's exact
/// µ, join-then-sample's materialised size, and srj-join's counter.
#[test]
fn join_size_consensus() {
    let points = generate(&DatasetSpec::new(DatasetKind::RoadLike, 3_000, 15));
    let (r, s) = split_rs(&points, 0.5, 16);
    let l = 120.0;
    let cfg = SampleConfig::new(l);
    let kds = KdsSampler::build(&r, &s, &cfg);
    let variant = BbstKdVariantSampler::build(&r, &s, &cfg);
    let jts = JoinThenSample::build(&r, &s, &cfg);
    let counted = srj::join::join_count(&r, &s, l);
    assert_eq!(kds.index().join_size(), counted);
    assert_eq!(variant.index().mu_total() as u64, counted);
    assert_eq!(jts.join_size(), counted);
    // and the BBST bound dominates it
    let bbst = BbstSampler::build(&r, &s, &cfg);
    assert!(bbst.index().mu_total() >= counted as f64);
}

/// Join algorithms agree with each other on generated data.
#[test]
fn join_algorithms_agree() {
    let points = generate(&DatasetSpec::new(DatasetKind::TaxiHotspots, 2_000, 17));
    let (r, s) = split_rs(&points, 0.4, 18);
    for l in [50.0, 150.0, 400.0] {
        let mut a = srj::join::grid_join(&r, &s, l);
        let mut b = srj::join::plane_sweep_join(&r, &s, l);
        let mut c = srj::join::nested_loop_join(&r, &s, l);
        let mut d = srj::join::rtree_join(&r, &s, l);
        srj::join::sort_pairs(&mut a);
        srj::join::sort_pairs(&mut b);
        srj::join::sort_pairs(&mut c);
        srj::join::sort_pairs(&mut d);
        assert_eq!(a, c, "grid vs nested, l = {l}");
        assert_eq!(b, c, "sweep vs nested, l = {l}");
        assert_eq!(d, c, "rtree vs nested, l = {l}");
    }
}

/// Samplers are deterministic given the same seed and build inputs.
#[test]
fn deterministic_given_seed() {
    let points = generate(&DatasetSpec::new(DatasetKind::PoiClusters, 2_000, 19));
    let (r, s) = split_rs(&points, 0.5, 20);
    let cfg = SampleConfig::new(150.0);
    let mut a = BbstSampler::build(&r, &s, &cfg);
    let mut b = BbstSampler::build(&r, &s, &cfg);
    let mut rng_a = SmallRng::seed_from_u64(99);
    let mut rng_b = SmallRng::seed_from_u64(99);
    assert_eq!(
        a.sample(1_000, &mut rng_a).unwrap(),
        b.sample(1_000, &mut rng_b).unwrap()
    );
}
