use srj_geom::{Point, PointId, Rect};

/// Sentinel child index for leaves.
pub(crate) const NONE: u32 = u32::MAX;

/// Default number of points per leaf.
///
/// Small enough that boundary leaves stay cheap to scan, large enough to
/// keep the node array compact. Benchmarked as a reasonable middle ground;
/// override with [`KdTree::with_leaf_size`].
pub const DEFAULT_LEAF_SIZE: usize = 16;

#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// Tight bounding box of the points in this subtree.
    pub(crate) bbox: Rect,
    /// Start of this subtree's contiguous slice in the point array.
    pub(crate) lo: u32,
    /// One past the end of the slice.
    pub(crate) hi: u32,
    /// Left child node index, or [`NONE`] for a leaf.
    pub(crate) left: u32,
    /// Right child node index, or [`NONE`] for a leaf.
    pub(crate) right: u32,
}

impl Node {
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.left == NONE
    }

    #[inline]
    pub(crate) fn len(&self) -> u32 {
        self.hi - self.lo
    }
}

/// Static 2-D kd-tree over a point set.
///
/// Built once from a slice of points; supports:
/// * [`KdTree::range_count`] — exact `|S ∩ w|`,
/// * [`KdTree::range_report`] — all ids in `w`,
/// * [`KdTree::nth_in_range`] — the id at a given rank of `S ∩ w`, and
///   [`KdTree::sample_in_range`] — one uniform, independent draw from
///   `S ∩ w` (the KDS primitive: count, uniform rank, ranked walk), see
///   the `sample` module.
///
/// Space is `O(m)`: the reordered point array, the id permutation, and
/// `O(m / leaf_size)` nodes.
///
/// ```
/// use srj_geom::{Point, Rect};
/// use srj_kdtree::{CanonicalScratch, KdTree};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let pts: Vec<Point> = (0..100).map(|i| Point::new(i as f64, (i % 10) as f64)).collect();
/// let tree = KdTree::build(&pts);
/// let w = Rect::new(10.0, 2.0, 30.0, 7.0);
/// assert_eq!(tree.range_count(&w), pts.iter().filter(|p| w.contains(**p)).count());
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut scratch = CanonicalScratch::new();
/// let (id, count) = tree.sample_in_range(&w, &mut rng, &mut scratch).unwrap();
/// assert!(w.contains(pts[id as usize]));
/// assert_eq!(count, tree.range_count(&w));
/// ```
#[derive(Clone, Debug)]
pub struct KdTree {
    pub(crate) pts: Vec<Point>,
    pub(crate) ids: Vec<PointId>,
    pub(crate) nodes: Vec<Node>,
    leaf_size: usize,
}

impl KdTree {
    /// Builds a kd-tree with the default leaf size.
    ///
    /// Ids are the indices of `points`; an empty input yields an empty
    /// tree (all queries return zero results).
    pub fn build(points: &[Point]) -> Self {
        Self::with_leaf_size(points, DEFAULT_LEAF_SIZE)
    }

    /// Builds a kd-tree with an explicit leaf size (must be ≥ 1).
    pub fn with_leaf_size(points: &[Point], leaf_size: usize) -> Self {
        assert!(leaf_size >= 1, "leaf_size must be at least 1");
        assert!(
            points.len() <= NONE as usize,
            "kd-tree supports at most u32::MAX - 1 points"
        );
        assert!(
            points.iter().all(|p| p.x.is_finite() && p.y.is_finite()),
            "points must have finite coordinates"
        );
        let mut entries: Vec<(Point, PointId)> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as PointId))
            .collect();
        let mut nodes = Vec::with_capacity(if points.is_empty() {
            0
        } else {
            2 * points.len().div_ceil(leaf_size)
        });
        if !entries.is_empty() {
            build_rec(&mut entries, 0, 0, leaf_size, &mut nodes);
        }
        let mut pts = Vec::with_capacity(entries.len());
        let mut ids = Vec::with_capacity(entries.len());
        for (p, id) in entries {
            pts.push(p);
            ids.push(id);
        }
        KdTree {
            pts,
            ids,
            nodes,
            leaf_size,
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// `true` iff the tree indexes no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Leaf size the tree was built with.
    #[inline]
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Exact number of indexed points inside the closed rectangle `w`.
    ///
    /// `O(√m + k)` on a balanced tree.
    pub fn range_count(&self, w: &Rect) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        self.count_rec(0, w)
    }

    fn count_rec(&self, node: u32, w: &Rect) -> usize {
        let n = &self.nodes[node as usize];
        if !w.intersects(&n.bbox) {
            return 0;
        }
        if w.contains_rect(&n.bbox) {
            return n.len() as usize;
        }
        if n.is_leaf() {
            return self.pts[n.lo as usize..n.hi as usize]
                .iter()
                .filter(|p| w.contains(**p))
                .count();
        }
        self.count_rec(n.left, w) + self.count_rec(n.right, w)
    }

    /// Appends the ids of all indexed points inside `w` to `out`.
    pub fn range_report(&self, w: &Rect, out: &mut Vec<PointId>) {
        if self.nodes.is_empty() {
            return;
        }
        self.report_rec(0, w, out);
    }

    fn report_rec(&self, node: u32, w: &Rect, out: &mut Vec<PointId>) {
        let n = &self.nodes[node as usize];
        if !w.intersects(&n.bbox) {
            return;
        }
        if w.contains_rect(&n.bbox) {
            out.extend_from_slice(&self.ids[n.lo as usize..n.hi as usize]);
            return;
        }
        if n.is_leaf() {
            for i in n.lo..n.hi {
                if w.contains(self.pts[i as usize]) {
                    out.push(self.ids[i as usize]);
                }
            }
            return;
        }
        self.report_rec(n.left, w, out);
        self.report_rec(n.right, w, out);
    }

    /// Approximate heap footprint in bytes (for the Fig. 4 experiment).
    pub fn memory_bytes(&self) -> usize {
        self.pts.capacity() * std::mem::size_of::<Point>()
            + self.ids.capacity() * std::mem::size_of::<PointId>()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
    }
}

/// Recursive median-split construction over `entries[lo..]`.
///
/// Returns the index of the created node. `depth` selects the split axis
/// (x at even depths, y at odd depths — the classic alternating scheme
/// that yields the `O(√m)` range-query bound).
fn build_rec(
    entries: &mut [(Point, PointId)],
    base: u32,
    depth: usize,
    leaf_size: usize,
    nodes: &mut Vec<Node>,
) -> u32 {
    let bbox = bounding_rect_of(entries);
    let me = nodes.len() as u32;
    nodes.push(Node {
        bbox,
        lo: base,
        hi: base + entries.len() as u32,
        left: NONE,
        right: NONE,
    });
    if entries.len() > leaf_size {
        let axis = depth & 1;
        let mid = entries.len() / 2;
        entries.select_nth_unstable_by(mid, |a, b| a.0.coord(axis).total_cmp(&b.0.coord(axis)));
        let (l, r) = entries.split_at_mut(mid);
        let left = build_rec(l, base, depth + 1, leaf_size, nodes);
        let right = build_rec(r, base + mid as u32, depth + 1, leaf_size, nodes);
        nodes[me as usize].left = left;
        nodes[me as usize].right = right;
    }
    me
}

fn bounding_rect_of(entries: &[(Point, PointId)]) -> Rect {
    // `entries` is non-empty by construction.
    let mut r = Rect::degenerate(entries[0].0);
    for (p, _) in &entries[1..] {
        r = r.grown_to(*p);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(nx: usize, ny: usize) -> Vec<Point> {
        let mut v = Vec::with_capacity(nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                v.push(Point::new(i as f64, j as f64));
            }
        }
        v
    }

    fn brute_count(pts: &[Point], w: &Rect) -> usize {
        pts.iter().filter(|p| w.contains(**p)).count()
    }

    #[test]
    fn empty_tree_queries() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.range_count(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0);
        let mut out = vec![];
        t.range_report(&Rect::new(0.0, 0.0, 1.0, 1.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(&[Point::new(2.0, 3.0)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.range_count(&Rect::new(0.0, 0.0, 5.0, 5.0)), 1);
        assert_eq!(t.range_count(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0);
        assert_eq!(t.range_count(&Rect::degenerate(Point::new(2.0, 3.0))), 1);
    }

    #[test]
    fn count_matches_brute_force_on_grid() {
        let pts = grid_points(20, 20);
        let t = KdTree::build(&pts);
        let windows = [
            Rect::new(0.0, 0.0, 19.0, 19.0),
            Rect::new(2.5, 2.5, 7.5, 11.5),
            Rect::new(5.0, 5.0, 5.0, 5.0),
            Rect::new(-3.0, -3.0, -1.0, -1.0),
            Rect::new(18.0, 18.0, 40.0, 40.0),
        ];
        for w in &windows {
            assert_eq!(t.range_count(w), brute_count(&pts, w), "window {w:?}");
        }
    }

    #[test]
    fn report_matches_count_and_is_correct() {
        let pts = grid_points(15, 15);
        let t = KdTree::build(&pts);
        let w = Rect::new(3.5, 0.0, 9.0, 6.5);
        let mut out = vec![];
        t.range_report(&w, &mut out);
        assert_eq!(out.len(), t.range_count(&w));
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), t.range_count(&w), "duplicate ids reported");
        for id in &out {
            assert!(w.contains(pts[*id as usize]));
        }
        // everything not reported must be outside
        let reported: std::collections::HashSet<u32> = out.into_iter().collect();
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(w.contains(*p), reported.contains(&(i as u32)));
        }
    }

    #[test]
    fn all_duplicate_points() {
        let pts = vec![Point::new(1.0, 1.0); 100];
        let t = KdTree::with_leaf_size(&pts, 4);
        assert_eq!(t.range_count(&Rect::new(0.0, 0.0, 2.0, 2.0)), 100);
        assert_eq!(t.range_count(&Rect::degenerate(Point::new(1.0, 1.0))), 100);
        assert_eq!(t.range_count(&Rect::new(1.5, 1.5, 2.0, 2.0)), 0);
    }

    #[test]
    fn collinear_points() {
        let pts: Vec<Point> = (0..64).map(|i| Point::new(i as f64, 0.0)).collect();
        let t = KdTree::with_leaf_size(&pts, 2);
        assert_eq!(t.range_count(&Rect::new(10.0, -1.0, 20.0, 1.0)), 11);
        assert_eq!(t.range_count(&Rect::new(10.5, -1.0, 19.5, 1.0)), 9);
    }

    #[test]
    fn leaf_size_one_works() {
        let pts = grid_points(8, 8);
        let t = KdTree::with_leaf_size(&pts, 1);
        let w = Rect::new(1.0, 1.0, 4.0, 4.0);
        assert_eq!(t.range_count(&w), brute_count(&pts, &w));
    }

    #[test]
    #[should_panic(expected = "leaf_size must be at least 1")]
    fn zero_leaf_size_panics() {
        KdTree::with_leaf_size(&[], 0);
    }

    #[test]
    fn memory_accounting_scales() {
        let small = KdTree::build(&grid_points(5, 5));
        let large = KdTree::build(&grid_points(50, 50));
        assert!(large.memory_bytes() > small.memory_bytes());
    }
}
