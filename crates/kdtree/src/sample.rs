use rand::Rng;
use srj_geom::{PointId, Rect};

use crate::KdTree;

/// Per-cursor parameter of the kd draws, **empty since the ranked walk**:
/// [`KdTree::sample_in_range`] used to materialise the window's canonical
/// decomposition into a reusable `ranges` vector for every draw; it now
/// counts, draws a rank and walks to it ([`KdTree::nth_in_range`]), which
/// needs no buffer. The type stays so that `sample_in_range` and
/// `KdCellStore::sample_in_window` keep the signatures their callers
/// outside this workspace (the `benchmark/` crate) compile against.
///
/// `KdsIndex` no longer decomposes a window per draw at all: its build
/// stored the per-cell counts, so a draw ranks straight into one cell.
/// Per-draw counting is KDS-rejection's, whose acceptance test needs it.
#[derive(Default, Clone, Debug)]
pub struct CanonicalScratch;

impl CanonicalScratch {
    /// Creates the (empty) scratch.
    pub fn new() -> Self {
        Self
    }
}

impl KdTree {
    /// Draws one point **uniformly at random** from the indexed points
    /// inside the closed window `w`, independently of any previous draw.
    ///
    /// Returns `(id, count)` where `count = |S ∩ w|`, or `None` when the
    /// window is empty. The count is exactly what `KDS-rejection` needs
    /// for its acceptance probability `|S(w(r))| / µ(r)` (paper
    /// Section III-B).
    ///
    /// This is the KDS primitive \[Xie et al., SIGMOD 2021\]: count the
    /// window ([`KdTree::range_count`]), draw a uniform rank below the
    /// count, return the point at that rank of the window's canonical
    /// decomposition ([`KdTree::nth_in_range`]). Every point in `S ∩ w`
    /// is returned with probability exactly `1 / count`.
    pub fn sample_in_range<R: Rng + ?Sized>(
        &self,
        w: &Rect,
        rng: &mut R,
        _scratch: &mut CanonicalScratch,
    ) -> Option<(PointId, usize)> {
        let count = self.range_count(w);
        if count == 0 {
            return None;
        }
        let id = self
            .nth_in_range(w, rng.gen_range(0..count))
            .expect("rank below the window's count");
        Some((id, count))
    }

    /// The ranked walk on its own: the id at position `rank` of `S ∩ w`,
    /// for a caller that already holds a uniform rank below
    /// [`KdTree::range_count`] — `None` iff `rank` is not below it.
    ///
    /// Positions follow the canonical decomposition of `w` in depth-first
    /// order, left subtree first: a fully covered node contributes its
    /// contiguous slice (so a rank inside it is one index), a boundary
    /// leaf its in-window points in slice order. The walk stops at the
    /// node the rank falls into; `O(√m)` like the count. Every comparison
    /// is closed, so `w` may be open to `±∞` on any side.
    pub fn nth_in_range(&self, w: &Rect, rank: usize) -> Option<PointId> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut rank = rank;
        self.nth_rec(0, w, &mut rank)
    }

    /// `rank` is decremented by every in-window point passed over.
    fn nth_rec(&self, node: u32, w: &Rect, rank: &mut usize) -> Option<PointId> {
        let n = &self.nodes[node as usize];
        if !w.intersects(&n.bbox) {
            return None;
        }
        if w.contains_rect(&n.bbox) {
            let len = n.len() as usize;
            if *rank < len {
                return Some(self.ids[n.lo as usize + *rank]);
            }
            *rank -= len;
            return None;
        }
        if n.is_leaf() {
            for i in n.lo as usize..n.hi as usize {
                if w.contains(self.pts[i]) {
                    if *rank == 0 {
                        return Some(self.ids[i]);
                    }
                    *rank -= 1;
                }
            }
            return None;
        }
        self.nth_rec(n.left, w, rank)
            .or_else(|| self.nth_rec(n.right, w, rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use srj_geom::Point;
    use std::collections::HashMap;

    fn grid_points(nx: usize, ny: usize) -> Vec<Point> {
        let mut v = Vec::with_capacity(nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                v.push(Point::new(i as f64, j as f64));
            }
        }
        v
    }

    #[test]
    fn empty_window_returns_none() {
        let t = KdTree::build(&grid_points(10, 10));
        let mut rng = SmallRng::seed_from_u64(1);
        let mut scratch = CanonicalScratch::new();
        let w = Rect::new(100.0, 100.0, 200.0, 200.0);
        assert_eq!(t.sample_in_range(&w, &mut rng, &mut scratch), None);
    }

    #[test]
    fn empty_tree_returns_none() {
        let t = KdTree::build(&[]);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut scratch = CanonicalScratch::new();
        let w = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(t.sample_in_range(&w, &mut rng, &mut scratch), None);
    }

    #[test]
    fn sample_lies_in_window_and_count_is_exact() {
        let pts = grid_points(20, 20);
        let t = KdTree::with_leaf_size(&pts, 4);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut scratch = CanonicalScratch::new();
        let w = Rect::new(2.5, 3.0, 11.0, 9.5);
        let expected = pts.iter().filter(|p| w.contains(**p)).count();
        for _ in 0..500 {
            let (id, count) = t.sample_in_range(&w, &mut rng, &mut scratch).unwrap();
            assert_eq!(count, expected);
            assert!(w.contains(pts[id as usize]));
        }
    }

    #[test]
    fn single_point_window() {
        let pts = grid_points(10, 10);
        let t = KdTree::build(&pts);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut scratch = CanonicalScratch::new();
        let w = Rect::degenerate(Point::new(4.0, 7.0));
        let (id, count) = t.sample_in_range(&w, &mut rng, &mut scratch).unwrap();
        assert_eq!(count, 1);
        assert_eq!(pts[id as usize], Point::new(4.0, 7.0));
    }

    #[test]
    fn draws_are_uniform_over_window() {
        // 6x6 sub-window of a 12x12 grid => 36 qualifying points.
        let pts = grid_points(12, 12);
        let t = KdTree::with_leaf_size(&pts, 3);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut scratch = CanonicalScratch::new();
        let w = Rect::new(3.0, 3.0, 8.0, 8.0);
        let draws = 180_000usize;
        let mut freq: HashMap<PointId, usize> = HashMap::new();
        for _ in 0..draws {
            let (id, count) = t.sample_in_range(&w, &mut rng, &mut scratch).unwrap();
            assert_eq!(count, 36);
            *freq.entry(id).or_default() += 1;
        }
        assert_eq!(freq.len(), 36, "every qualifying point must be reachable");
        let expected = draws as f64 / 36.0;
        for (&id, &c) in &freq {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.06, "point {id}: expected {expected}, got {c}");
        }
    }

    #[test]
    fn whole_domain_window_is_uniform_over_everything() {
        let pts = grid_points(8, 8);
        let t = KdTree::with_leaf_size(&pts, 2);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut scratch = CanonicalScratch::new();
        let w = Rect::new(-1.0, -1.0, 9.0, 9.0);
        let mut freq = vec![0usize; 64];
        for _ in 0..128_000 {
            let (id, count) = t.sample_in_range(&w, &mut rng, &mut scratch).unwrap();
            assert_eq!(count, 64);
            freq[id as usize] += 1;
        }
        let expected = 128_000.0 / 64.0;
        for (id, &c) in freq.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.08, "point {id}: expected {expected}, got {c}");
        }
    }

    /// Ranks `0..count` enumerate `S ∩ w` exactly once each, and nothing
    /// lies beyond `count` — for every leaf size, on rectangles that are
    /// bounded, degenerate, empty, and open to ±∞ (the quadrants a grid
    /// cell's corner query poses).
    #[test]
    fn nth_in_range_enumerates_the_range_once() {
        // Duplicates and points on the query edges included.
        let mut pts = grid_points(9, 7);
        pts.extend(grid_points(3, 3));
        const INF: f64 = f64::INFINITY;
        let rects = [
            Rect::new(2.0, 1.0, 6.0, 4.0),
            Rect::new(2.5, 1.5, 2.5, 1.5),
            Rect::degenerate(Point::new(1.0, 1.0)),
            Rect::new(100.0, 100.0, 200.0, 200.0),
            Rect::new(-INF, -INF, INF, INF),
            Rect::new(3.0, 2.0, INF, INF),
            Rect::new(-INF, 2.0, 3.0, INF),
            Rect::new(3.0, -INF, INF, 2.0),
            Rect::new(-INF, -INF, 3.0, 2.0),
        ];
        for leaf_size in [1, 4, 16] {
            let t = KdTree::with_leaf_size(&pts, leaf_size);
            for w in &rects {
                let count = t.range_count(w);
                let brute = pts.iter().filter(|p| w.contains(**p)).count();
                assert_eq!(count, brute, "leaf {leaf_size} {w:?}");
                let mut ids: Vec<PointId> = (0..count)
                    .map(|rank| t.nth_in_range(w, rank).expect("rank below the count"))
                    .collect();
                assert!(ids.iter().all(|&id| w.contains(pts[id as usize])));
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), count, "leaf {leaf_size} {w:?}: an id repeated");
                assert_eq!(t.nth_in_range(w, count), None, "leaf {leaf_size} {w:?}");
            }
        }
        assert_eq!(KdTree::build(&[]).nth_in_range(&rects[4], 0), None);
    }

    /// One word per draw: the rank. The count and the walk take none.
    #[test]
    fn sample_in_range_spends_one_rank_per_draw() {
        let pts = grid_points(12, 12);
        let t = KdTree::with_leaf_size(&pts, 3);
        let w = Rect::new(3.0, 3.0, 8.0, 8.0);
        let mut scratch = CanonicalScratch::new();
        let (mut a, mut b) = (SmallRng::seed_from_u64(11), SmallRng::seed_from_u64(11));
        for _ in 0..200 {
            let (id, count) = t.sample_in_range(&w, &mut a, &mut scratch).unwrap();
            assert_eq!(Some(id), t.nth_in_range(&w, b.gen_range(0..count)));
        }
    }
}
