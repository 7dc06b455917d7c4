//! Property-based tests (proptest) over the core invariants, with random
//! point clouds, window sizes, and query positions.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj::{
    BbstSampler, JoinSampler, KdsRejectionSampler, KdsSampler, MassMode, Point, Rect, SampleConfig,
};
use srj_bbst::{bucket_capacity, CellBbsts, QuadrantQuery};
use srj_grid::Grid;
use srj_kdtree::KdTree;

fn arb_point(extent: f64) -> impl Strategy<Value = Point> {
    (0.0..extent, 0.0..extent).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max_n: usize, extent: f64) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(extent), 1..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// kd-tree range counting equals brute force for arbitrary windows.
    #[test]
    fn kdtree_count_matches_brute_force(
        pts in arb_points(300, 100.0),
        cx in 0.0..100.0f64,
        cy in 0.0..100.0f64,
        half in 0.1..60.0f64,
        leaf in 1usize..20,
    ) {
        let tree = KdTree::with_leaf_size(&pts, leaf);
        let w = Rect::window(Point::new(cx, cy), half);
        let brute = pts.iter().filter(|p| w.contains(**p)).count();
        prop_assert_eq!(tree.range_count(&w), brute);
    }

    /// kd-tree sampling returns a window member whenever one exists, and
    /// reports the exact count.
    #[test]
    fn kdtree_sample_is_in_window(
        pts in arb_points(200, 50.0),
        cx in 0.0..50.0f64,
        cy in 0.0..50.0f64,
        half in 0.5..30.0f64,
        seed in 0u64..1000,
    ) {
        let tree = KdTree::build(&pts);
        let w = Rect::window(Point::new(cx, cy), half);
        let brute = pts.iter().filter(|p| w.contains(**p)).count();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut scratch = srj_kdtree::CanonicalScratch::new();
        match tree.sample_in_range(&w, &mut rng, &mut scratch) {
            Some((id, count)) => {
                prop_assert_eq!(count, brute);
                prop_assert!(w.contains(pts[id as usize]));
            }
            None => prop_assert_eq!(brute, 0),
        }
    }

    /// Grid exact window counting equals brute force.
    #[test]
    fn grid_count_matches_brute_force(
        pts in arb_points(300, 100.0),
        cell in 0.5..40.0f64,
        cx in -10.0..110.0f64,
        cy in -10.0..110.0f64,
        half in 0.1..50.0f64,
    ) {
        let grid = Grid::build(&pts, cell);
        let w = Rect::window(Point::new(cx, cy), half);
        let brute = pts.iter().filter(|p| w.contains(**p)).count();
        prop_assert_eq!(grid.exact_window_count(&w), brute);
    }

    /// BBST quadrant counting is sandwiched: exact ≤ Exact-mass ≤
    /// Virtual-mass, and Virtual is bucket-resolution-tight (Lemma 5's
    /// structure: every counted bucket except at most one straddler
    /// holds a qualifying point... the bucket-level statement we can
    /// check deterministically is virt ≤ cap · (#matched buckets)).
    #[test]
    fn bbst_count_sandwich(
        pts in arb_points(400, 60.0),
        x0 in 0.0..60.0f64,
        y0 in 0.0..60.0f64,
        x_is_min in any::<bool>(),
        y_is_min in any::<bool>(),
    ) {
        let mut by_x: Vec<u32> = (0..pts.len() as u32).collect();
        by_x.sort_by(|&a, &b| pts[a as usize].x.total_cmp(&pts[b as usize].x));
        let cap = bucket_capacity(pts.len());
        let cb = CellBbsts::build(&pts, &by_x, cap);
        let q = QuadrantQuery { x_is_min, y_is_min, x0, y0 };
        let exact = pts.iter().filter(|p| q.contains(**p)).count() as u64;
        let tight = cb.count_quadrant(&q, MassMode::Exact);
        let virt = cb.count_quadrant(&q, MassMode::Virtual);
        prop_assert!(exact <= tight, "exact {} > tight {}", exact, tight);
        prop_assert!(tight <= virt, "tight {} > virt {}", tight, virt);
        // at most one bucket straddles the x boundary and one the y scan,
        // so virt / cap can exceed the number of buckets holding
        // qualifying points by at most 1 per dimension of slack... the
        // deterministic Lemma 5 shape:
        let cap = cap as u64;
        prop_assert!(virt <= cap * exact + 2 * cap, "virt {} exact {} cap {}", virt, exact, cap);
    }

    /// Full-pipeline sandwich: the BBST sampler's µ(r) respects Lemma 5
    /// against the exact count for every r, on random inputs.
    #[test]
    fn bbst_mu_respects_lemma5(
        r in arb_points(40, 80.0),
        s in arb_points(200, 80.0),
        l in 1.0..30.0f64,
    ) {
        let sampler = BbstSampler::build(&r, &s, &SampleConfig::new(l));
        let cap = sampler.index().bucket_cap() as f64;
        for (i, &rp) in r.iter().enumerate() {
            let w = Rect::window(rp, l);
            let exact = s.iter().filter(|p| w.contains(**p)).count() as f64;
            let mu = sampler.index().mu_of(i);
            prop_assert!(mu >= exact);
            // 4 corner cells, each contributing ≤ cap·exact_corner + 2·cap
            prop_assert!(mu <= cap.max(1.0) * exact + 8.0 * cap + 1.0);
        }
    }

    /// Rejection-sampler bound µ(r) dominates the exact count (9-cell
    /// population is a superset of the window).
    #[test]
    fn rejection_mu_dominates(
        r in arb_points(30, 60.0),
        s in arb_points(150, 60.0),
        l in 1.0..20.0f64,
    ) {
        let sampler = KdsRejectionSampler::build(&r, &s, &SampleConfig::new(l));
        let join = srj::join::join_count(&r, &s, l) as f64;
        prop_assert!(sampler.index().mu_total() >= join);
    }

    /// Join algorithms agree under arbitrary inputs (including heavy
    /// duplicates from the narrow value range).
    #[test]
    fn joins_agree(
        r in arb_points(60, 20.0),
        s in arb_points(60, 20.0),
        l in 0.5..15.0f64,
    ) {
        let mut a = srj::join::grid_join(&r, &s, l);
        let mut b = srj::join::plane_sweep_join(&r, &s, l);
        let mut c = srj::join::nested_loop_join(&r, &s, l);
        let mut d = srj::join::rtree_join(&r, &s, l);
        srj::join::sort_pairs(&mut a);
        srj::join::sort_pairs(&mut b);
        srj::join::sort_pairs(&mut c);
        srj::join::sort_pairs(&mut d);
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(&b, &c);
        prop_assert_eq!(&d, &c);
    }

    /// Every sampler emits only join pairs, for arbitrary geometry.
    #[test]
    fn samplers_emit_only_join_pairs(
        r in arb_points(40, 40.0),
        s in arb_points(80, 40.0),
        l in 1.0..15.0f64,
        seed in 0u64..500,
    ) {
        let cfg = SampleConfig::new(l).with_rejection_limit(200_000);
        let join_size = srj::join::join_count(&r, &s, l);
        let mut samplers: Vec<Box<dyn JoinSampler>> = vec![
            Box::new(KdsSampler::build(&r, &s, &cfg)),
            Box::new(KdsRejectionSampler::build(&r, &s, &cfg)),
            Box::new(BbstSampler::build(&r, &s, &cfg)),
        ];
        for sampler in &mut samplers {
            let mut rng = SmallRng::seed_from_u64(seed);
            match sampler.sample(20, &mut rng) {
                Ok(samples) => {
                    prop_assert!(join_size > 0);
                    for p in samples {
                        let w = Rect::window(r[p.r as usize], l);
                        prop_assert!(w.contains(s[p.s as usize]));
                    }
                }
                Err(_) => prop_assert_eq!(join_size, 0),
            }
        }
    }
}
