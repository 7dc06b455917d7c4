use rand::Rng;
use srj_geom::{Point, PointId};

use crate::bucket::{partition_into_buckets, Bucket};
use crate::tree::{Bbst, KeyKind, YPred};

/// A 2-sided (quadrant) query against one cell (case 3 of Section IV-A).
///
/// The query region is the product of two half-lines:
/// `x_is_min == true` means the region is `[x0, ∞)` in x (the cell is
/// bounded by `w(r).xmin`, i.e. cells `c↙`/`c↖`), otherwise `(−∞, x0]`
/// (bounded by `w(r).xmax`, cells `c↘`/`c↗`); `y_is_min` likewise for y.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuadrantQuery {
    /// `true` ⇒ x region is `[x0, ∞)`; `false` ⇒ `(−∞, x0]`.
    pub x_is_min: bool,
    /// `true` ⇒ y region is `[y0, ∞)`; `false` ⇒ `(−∞, y0]`.
    pub y_is_min: bool,
    /// The x boundary (`w(r).xmin` or `w(r).xmax`).
    pub x0: f64,
    /// The y boundary (`w(r).ymin` or `w(r).ymax`).
    pub y0: f64,
}

impl QuadrantQuery {
    /// `true` iff `p` lies inside the quadrant region.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        let x_ok = if self.x_is_min {
            p.x >= self.x0
        } else {
            p.x <= self.x0
        };
        let y_ok = if self.y_is_min {
            p.y >= self.y0
        } else {
            p.y <= self.y0
        };
        x_ok && y_ok
    }

    #[inline]
    fn y_pred(&self) -> YPred {
        if self.y_is_min {
            YPred::MaxAtLeast
        } else {
            YPred::MinAtMost
        }
    }
}

/// How the matched buckets are converted into the upper bound `µ(r, c)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MassMode {
    /// The paper's bound: every matched bucket contributes the full
    /// bucket capacity `⌈log₂ m⌉` (Section IV-D, Eq. 2). Slots beyond a
    /// short bucket's true size become rejections during sampling, which
    /// preserves exact per-point uniformity.
    #[default]
    Virtual,
    /// Extension (ablation): every matched bucket contributes its true
    /// size, using per-node prefix sums. Strictly tighter (fewer
    /// rejections), same asymptotic cost, slightly more memory traffic.
    Exact,
}

/// The per-cell pair of BBSTs (`T^min_c`, `T^max_c` in Algorithm 1
/// line 5) plus the bucket partition they index.
///
/// ```
/// use srj_bbst::{bucket_capacity, CellBbsts, MassMode, QuadrantQuery};
/// use srj_geom::Point;
///
/// let pts: Vec<Point> = (0..64).map(|i| Point::new(i as f64, (i * 7 % 64) as f64)).collect();
/// let mut by_x: Vec<u32> = (0..64).collect(); // already x-sorted here
/// let cell = CellBbsts::build(&pts, &by_x, bucket_capacity(pts.len()));
///
/// // c↙-style 2-sided query: [32, ∞) × [32, ∞)
/// let q = QuadrantQuery { x_is_min: true, y_is_min: true, x0: 32.0, y0: 32.0 };
/// let exact = pts.iter().filter(|p| q.contains(**p)).count() as u64;
/// let mu = cell.count_quadrant(&q, MassMode::Virtual);
/// assert!(mu >= exact); // Lemma 5: µ is an upper bound
/// ```
#[derive(Clone, Debug)]
pub struct CellBbsts {
    buckets: Vec<Bucket>,
    /// Keyed by bucket `min_x`; serves `xmax`-bounded quadrants.
    t_min: Bbst,
    /// Keyed by bucket `max_x`; serves `xmin`-bounded quadrants.
    t_max: Bbst,
    /// Bucket capacity `⌈log₂ m⌉` used for the virtual mass.
    cap: u32,
}

impl CellBbsts {
    /// Builds both BBSTs for a cell whose members are `by_x` (ids into
    /// `points`, sorted by x). `O(N)` time for `N = by_x.len()`
    /// (Lemma 1, ×2 for the two trees).
    pub fn build(points: &[Point], by_x: &[PointId], cap: u32) -> Self {
        Self::build_inner(points, by_x, cap, false)
    }

    /// Builds with fractional cascading (Lemma 4's optional `O(log m)`
    /// refinement; extra memory for the rank bridges).
    pub fn build_cascading(points: &[Point], by_x: &[PointId], cap: u32) -> Self {
        Self::build_inner(points, by_x, cap, true)
    }

    fn build_inner(points: &[Point], by_x: &[PointId], cap: u32, cascading: bool) -> Self {
        let buckets = partition_into_buckets(points, by_x, cap);
        let (t_min, t_max) = if cascading {
            (
                Bbst::build_cascading(&buckets, KeyKind::MinX),
                Bbst::build_cascading(&buckets, KeyKind::MaxX),
            )
        } else {
            (
                Bbst::build(&buckets, KeyKind::MinX),
                Bbst::build(&buckets, KeyKind::MaxX),
            )
        };
        CellBbsts {
            buckets,
            t_min,
            t_max,
            cap,
        }
    }

    /// `true` iff the cell's trees carry fractional-cascading bridges.
    pub fn is_cascading(&self) -> bool {
        self.t_min.is_cascading()
    }

    /// The bucket partition (for inspection and tests).
    #[inline]
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Bucket capacity used for the virtual mass.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.cap
    }

    #[inline]
    fn tree_for(&self, q: &QuadrantQuery) -> &Bbst {
        // Quadrants bounded below in x (by w.xmin) need buckets with
        // max_x ≥ x0 ⇒ T_max; quadrants bounded above need min_x ≤ x0 ⇒
        // T_min (paper Section IV-D).
        if q.x_is_min {
            &self.t_max
        } else {
            &self.t_min
        }
    }

    /// Upper bound `µ(r, c)` of the number of cell points inside the
    /// quadrant (`UPPER-BOUNDING`, case 3). `O(log² N)` time: `O(log N)`
    /// matched segments, one binary search each.
    ///
    /// Guarantees (Lemma 5): `exact ≤ µ(r, c)`, and in `Virtual` mode
    /// `µ(r, c) ≤ cap · (matched buckets)` where at most one matched
    /// bucket can be empty of qualifying points.
    pub fn count_quadrant(&self, q: &QuadrantQuery, mode: MassMode) -> u64 {
        let tree = self.tree_for(q);
        let y_pred = q.y_pred();
        let mut total = 0u64;
        tree.for_each_matched_run(q.x0, y_pred, q.y0, &self.buckets, |seg, lo, hi| {
            total += match mode {
                MassMode::Virtual => (hi - lo) as u64 * self.cap as u64,
                MassMode::Exact => tree.run_mass(seg, lo, hi),
            };
        });
        total
    }

    /// Draws one candidate point for the quadrant (sampling phase,
    /// case 3): counts the quadrant mass, draws a uniform rank below it
    /// and descends with [`CellBbsts::sample_quadrant_at`]. `None` for
    /// an empty quadrant or a *dud* draw.
    pub fn sample_quadrant<R: Rng + ?Sized>(
        &self,
        q: &QuadrantQuery,
        mode: MassMode,
        rng: &mut R,
    ) -> Option<u32> {
        let total = self.count_quadrant(q, mode);
        if total == 0 {
            return None;
        }
        self.sample_quadrant_at(q, mode, rng.gen_range(0..total))
    }

    /// The ranked descent on its own: the candidate at position `rank`
    /// of the quadrant's `µ(r, c) = count_quadrant(q, mode)` slots, for
    /// a caller that already holds both — the upper-bounding phase
    /// stored `µ(r, c)` as the cell's row weight, and the row pick that
    /// chose the cell drew the rank — so the draw walks the tree once,
    /// not twice.
    ///
    /// Returns the index **into the cell's `by_x` array**, or `None`
    /// for a *dud* draw (a virtual slot beyond a short bucket's true
    /// size — counts as a rejected iteration, exactly as the paper's
    /// "s may not have w(r) ∩ s" case).
    ///
    /// For a uniform `rank` each point of a matched bucket is returned
    /// with probability exactly `1 / µ(r, c)`, which is what Theorem 3's
    /// correctness argument requires. The caller must still verify the
    /// window predicate on the returned point.
    ///
    /// # Panics
    /// Panics if `rank >= count_quadrant(q, mode)`.
    pub fn sample_quadrant_at(
        &self,
        q: &QuadrantQuery,
        mode: MassMode,
        mut rank: u64,
    ) -> Option<u32> {
        let tree = self.tree_for(q);
        let y_pred = q.y_pred();
        let mut picked: Option<u32> = None;
        tree.for_each_matched_run(q.x0, y_pred, q.y0, &self.buckets, |seg, lo, hi| {
            if picked.is_some() {
                return;
            }
            match mode {
                MassMode::Virtual => {
                    let seg_mass = (hi - lo) as u64 * self.cap as u64;
                    if rank < seg_mass {
                        let bucket_off = (rank / self.cap as u64) as u32;
                        let slot = (rank % self.cap as u64) as u32;
                        let b = &self.buckets[tree.bucket_at(lo + bucket_off) as usize];
                        if slot < b.len() {
                            picked = Some(b.lo + slot);
                        } else {
                            // Dud slot: mark completion with a sentinel
                            // so later segments are skipped; caller sees
                            // None via the dud flag below.
                            picked = Some(u32::MAX);
                        }
                        return;
                    }
                    rank -= seg_mass;
                }
                MassMode::Exact => {
                    let seg_mass = tree.run_mass(seg, lo, hi);
                    if rank < seg_mass {
                        // Binary search the cumulative mass inside the
                        // run to locate the bucket owning this rank.
                        let (mut a, mut b) = (lo, hi);
                        while a < b {
                            let mid = a + (b - a) / 2;
                            if tree.run_mass(seg, lo, mid + 1) <= rank {
                                a = mid + 1;
                            } else {
                                b = mid;
                            }
                        }
                        let before = tree.run_mass(seg, lo, a);
                        let bucket = &self.buckets[tree.bucket_at(a) as usize];
                        let slot = (rank - before) as u32;
                        debug_assert!(slot < bucket.len());
                        picked = Some(bucket.lo + slot);
                        return;
                    }
                    rank -= seg_mass;
                }
            }
        });
        match picked {
            Some(u32::MAX) => None,
            Some(idx) => Some(idx),
            None => panic!("rank exceeded total quadrant mass"),
        }
    }

    /// Approximate heap footprint in bytes (Fig. 4 experiment).
    pub fn memory_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Bucket>()
            + self.t_min.memory_bytes()
            + self.t_max.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn make_cell(points: &[Point], cap: u32) -> (Vec<PointId>, CellBbsts) {
        let mut by_x: Vec<PointId> = (0..points.len() as u32).collect();
        by_x.sort_by(|&a, &b| points[a as usize].x.total_cmp(&points[b as usize].x));
        let cb = CellBbsts::build(points, &by_x, cap);
        (by_x, cb)
    }

    fn spread_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 41) as f64, ((i * 17) % 31) as f64))
            .collect()
    }

    fn all_quadrants(x0: f64, y0: f64) -> [QuadrantQuery; 4] {
        [
            QuadrantQuery {
                x_is_min: true,
                y_is_min: true,
                x0,
                y0,
            },
            QuadrantQuery {
                x_is_min: true,
                y_is_min: false,
                x0,
                y0,
            },
            QuadrantQuery {
                x_is_min: false,
                y_is_min: true,
                x0,
                y0,
            },
            QuadrantQuery {
                x_is_min: false,
                y_is_min: false,
                x0,
                y0,
            },
        ]
    }

    #[test]
    fn count_is_upper_bound_and_lemma5_tight() {
        let points = spread_points(300);
        let (_, cb) = make_cell(&points, 8);
        for q in all_quadrants(13.0, 11.0)
            .into_iter()
            .chain(all_quadrants(0.0, 0.0))
            .chain(all_quadrants(40.0, 30.0))
        {
            let exact = points.iter().filter(|p| q.contains(**p)).count() as u64;
            let virt = cb.count_quadrant(&q, MassMode::Virtual);
            let tight = cb.count_quadrant(&q, MassMode::Exact);
            assert!(exact <= tight, "{q:?}: exact {exact} > tight {tight}");
            assert!(tight <= virt, "{q:?}: tight {tight} > virt {virt}");
            // Lemma 5 shape: virt ≤ cap · exact + cap (one straddling
            // bucket may be all-misses).
            assert!(
                virt <= 8 * exact + 8 * 2,
                "{q:?}: virt {virt} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_cell_counts_zero() {
        let (_, cb) = make_cell(&[], 4);
        let q = QuadrantQuery {
            x_is_min: true,
            y_is_min: true,
            x0: 0.0,
            y0: 0.0,
        };
        assert_eq!(cb.count_quadrant(&q, MassMode::Virtual), 0);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(cb.sample_quadrant(&q, MassMode::Virtual, &mut rng), None);
    }

    #[test]
    fn exact_mode_equals_brute_bucket_mass() {
        let points = spread_points(157); // not a multiple of cap
        let (_, cb) = make_cell(&points, 8);
        let q = QuadrantQuery {
            x_is_min: true,
            y_is_min: true,
            x0: 17.0,
            y0: 9.0,
        };
        let brute: u64 = cb
            .buckets()
            .iter()
            .filter(|b| b.max_x >= q.x0 && b.max_y >= q.y0)
            .map(|b| b.len() as u64)
            .sum();
        assert_eq!(cb.count_quadrant(&q, MassMode::Exact), brute);
    }

    /// The crucial distributional property: after rejection (dud slots
    /// and the quadrant predicate), accepted samples are uniform over the
    /// exact qualifying set.
    fn assert_uniform(points: &[Point], cap: u32, q: QuadrantQuery, mode: MassMode) {
        let (by_x, cb) = make_cell(points, cap);
        let qualifying: Vec<u32> = (0..points.len() as u32)
            .filter(|&i| q.contains(points[i as usize]))
            .collect();
        assert!(!qualifying.is_empty(), "test needs a non-empty quadrant");
        let mut rng = SmallRng::seed_from_u64(1234);
        let mut freq: HashMap<u32, usize> = HashMap::new();
        let mut accepted = 0usize;
        let target = 40_000usize;
        let mut iterations = 0usize;
        while accepted < target {
            iterations += 1;
            assert!(
                iterations < target * 100,
                "acceptance rate pathologically low"
            );
            if let Some(idx) = cb.sample_quadrant(&q, mode, &mut rng) {
                let id = by_x[idx as usize];
                if q.contains(points[id as usize]) {
                    *freq.entry(id).or_default() += 1;
                    accepted += 1;
                }
            }
        }
        assert_eq!(
            freq.len(),
            qualifying.len(),
            "some qualifying point never sampled"
        );
        let expected = target as f64 / qualifying.len() as f64;
        for (&id, &c) in &freq {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.15, "point {id}: expected {expected:.1}, got {c}");
        }
    }

    #[test]
    fn accepted_samples_are_uniform_virtual() {
        let points = spread_points(120);
        let q = QuadrantQuery {
            x_is_min: true,
            y_is_min: true,
            x0: 25.0,
            y0: 15.0,
        };
        assert_uniform(&points, 7, q, MassMode::Virtual);
    }

    #[test]
    fn accepted_samples_are_uniform_exact() {
        let points = spread_points(120);
        let q = QuadrantQuery {
            x_is_min: false,
            y_is_min: true,
            x0: 20.0,
            y0: 12.0,
        };
        assert_uniform(&points, 7, q, MassMode::Exact);
    }

    #[test]
    fn accepted_samples_are_uniform_other_quadrants() {
        let points = spread_points(90);
        assert_uniform(
            &points,
            5,
            QuadrantQuery {
                x_is_min: true,
                y_is_min: false,
                x0: 10.0,
                y0: 20.0,
            },
            MassMode::Virtual,
        );
        assert_uniform(
            &points,
            5,
            QuadrantQuery {
                x_is_min: false,
                y_is_min: false,
                x0: 30.0,
                y0: 25.0,
            },
            MassMode::Virtual,
        );
    }

    /// The ranked descent enumerates the quadrant's slots: over
    /// `rank ∈ [0, µ)` every member of a matched bucket comes up exactly
    /// once, and the remaining ranks are the duds of short buckets.
    #[test]
    fn ranked_descent_enumerates_every_slot_once() {
        let points = spread_points(157); // short last bucket
        for cascading in [false, true] {
            let (_, cb) = if cascading {
                make_cell_cascading(&points, 8)
            } else {
                make_cell(&points, 8)
            };
            for q in all_quadrants(17.0, 9.0) {
                for mode in [MassMode::Virtual, MassMode::Exact] {
                    let mu = cb.count_quadrant(&q, mode);
                    let mut seen: Vec<u32> = (0..mu)
                        .filter_map(|rank| cb.sample_quadrant_at(&q, mode, rank))
                        .collect();
                    let duds = mu - seen.len() as u64;
                    seen.sort_unstable();
                    let expected: Vec<u32> = cb
                        .buckets()
                        .iter()
                        .filter(|b| {
                            let x_ok = if q.x_is_min {
                                b.max_x >= q.x0
                            } else {
                                b.min_x <= q.x0
                            };
                            let y_ok = if q.y_is_min {
                                b.max_y >= q.y0
                            } else {
                                b.min_y <= q.y0
                            };
                            x_ok && y_ok
                        })
                        .flat_map(|b| b.lo..b.hi)
                        .collect();
                    assert_eq!(seen, expected, "{q:?} {mode:?} cascading={cascading}");
                    if mode == MassMode::Exact {
                        assert_eq!(duds, 0, "exact mass has no dud slots");
                    }
                }
            }
        }
    }

    #[test]
    fn sample_never_returns_nonmatching_bucket_point() {
        // every returned candidate must come from a bucket whose bbox
        // matches the query (dud slots return None instead)
        let points = spread_points(200);
        let (by_x, cb) = make_cell(&points, 8);
        let q = QuadrantQuery {
            x_is_min: true,
            y_is_min: true,
            x0: 22.0,
            y0: 18.0,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..5_000 {
            if let Some(idx) = cb.sample_quadrant(&q, MassMode::Virtual, &mut rng) {
                let id = by_x[idx as usize];
                let p = points[id as usize];
                // candidate's bucket matched, so the candidate can only
                // fail on coordinates the bucket straddles
                let b = cb
                    .buckets()
                    .iter()
                    .find(|b| idx >= b.lo && idx < b.hi)
                    .unwrap();
                assert!(b.max_x >= q.x0 && b.max_y >= q.y0);
                // point coordinates are within bucket extrema
                assert!(p.x >= b.min_x && p.x <= b.max_x);
            }
        }
    }

    #[test]
    fn memory_accounting_scales() {
        let small = make_cell(&spread_points(50), 6).1;
        let large = make_cell(&spread_points(5000), 6).1;
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    fn make_cell_cascading(points: &[Point], cap: u32) -> (Vec<PointId>, CellBbsts) {
        let mut by_x: Vec<PointId> = (0..points.len() as u32).collect();
        by_x.sort_by(|&a, &b| points[a as usize].x.total_cmp(&points[b as usize].x));
        let cb = CellBbsts::build_cascading(points, &by_x, cap);
        (by_x, cb)
    }

    /// The cascaded walk must return exactly the same counts as the
    /// per-node binary-search walk, for every quadrant shape, boundary
    /// position, and mass mode.
    #[test]
    fn cascading_counts_equal_plain_counts() {
        let points = spread_points(337); // odd size, short last bucket
        for cap in [1u32, 5, 9] {
            let (_, plain) = make_cell(&points, cap);
            let (_, casc) = make_cell_cascading(&points, cap);
            assert!(casc.is_cascading() && !plain.is_cascading());
            for x0 in [-1.0, 0.0, 7.5, 20.0, 40.0, 41.0] {
                for y0 in [-1.0, 0.0, 11.0, 15.5, 30.0, 31.0] {
                    for q in all_quadrants(x0, y0) {
                        for mode in [MassMode::Virtual, MassMode::Exact] {
                            assert_eq!(
                                plain.count_quadrant(&q, mode),
                                casc.count_quadrant(&q, mode),
                                "cap={cap} {q:?} {mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cascading_sampling_is_uniform() {
        let points = spread_points(120);
        let q = QuadrantQuery {
            x_is_min: true,
            y_is_min: true,
            x0: 25.0,
            y0: 15.0,
        };
        let (by_x, cb) = make_cell_cascading(&points, 7);
        let qualifying: Vec<u32> = (0..points.len() as u32)
            .filter(|&i| q.contains(points[i as usize]))
            .collect();
        let mut rng = SmallRng::seed_from_u64(77);
        let mut freq: HashMap<u32, usize> = HashMap::new();
        let mut accepted = 0;
        while accepted < 40_000 {
            if let Some(idx) = cb.sample_quadrant(&q, MassMode::Virtual, &mut rng) {
                let id = by_x[idx as usize];
                if q.contains(points[id as usize]) {
                    *freq.entry(id).or_default() += 1;
                    accepted += 1;
                }
            }
        }
        assert_eq!(freq.len(), qualifying.len());
        let expected = 40_000.0 / qualifying.len() as f64;
        for (&id, &c) in &freq {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.15, "point {id}: expected {expected:.1}, got {c}");
        }
    }

    #[test]
    fn cascading_costs_more_memory() {
        let points = spread_points(4000);
        let (_, plain) = make_cell(&points, 8);
        let (_, casc) = make_cell_cascading(&points, 8);
        assert!(casc.memory_bytes() > plain.memory_bytes());
    }
}
