use std::sync::OnceLock;

use srj_geom::{Point, PointId, Rect};

/// One non-empty grid cell.
///
/// Holds its member ids once, in ascending id order ([`Cell::members`]):
/// all a draw that picks a member at a uniform rank needs, and all a
/// grid build or patch writes. The exact 1-sided (case 2) counts and
/// runs need the members sorted by x (`S(c)`) and by y (`S_y(c)`, the
/// copy built in Algorithm 1 lines 3–4); those two orders are views,
/// sorted the first time anyone asks ([`Cell::by_x`], [`Cell::by_y`]) and
/// kept, so a cell nobody reads a run of is never sorted. Two threads
/// that ask at once sort it once (the second waits for the first).
///
/// Members with equal coordinates come in ascending id order: `by_x` is
/// sorted by `(x, id)` and `by_y` by `(y, id)`, coordinates compared by
/// [`f64::total_cmp`]. So a cell and its views are a function of its
/// member set: rebuilt or built from scratch, the arrays are equal.
///
/// The views are sorted against the points the caller passes, which must
/// be the array the members index — the grid's [`crate::Grid::points`],
/// or any later extension of it (ids are stable across a patch).
#[derive(Clone, Debug)]
pub struct Cell {
    /// Discrete cell coordinate `(⌊x/side⌋, ⌊y/side⌋)`.
    pub coord: (i32, i32),
    /// Geometric extent of the cell (half-open in space, but stored as a
    /// closed rect for intersection tests; membership is decided by the
    /// coordinate formula, not this rect).
    pub rect: Rect,
    /// Member ids in ascending id order.
    members: Vec<PointId>,
    /// `by_x` followed by `by_y`, in one allocation, once sorted.
    views: OnceLock<Box<[PointId]>>,
}

impl Cell {
    /// The cell at `coord` of a grid of side `cell_side`, holding
    /// `members` in ascending id order, with no view sorted.
    pub(crate) fn new(coord: (i32, i32), cell_side: f64, members: Vec<PointId>) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members unsorted");
        let (x, y) = (coord.0 as f64, coord.1 as f64);
        let [x0, y0, x1, y1] = [x, y, x + 1.0, y + 1.0].map(|c| c * cell_side);
        Cell {
            coord,
            rect: Rect::new(x0, y0, x1, y1),
            members,
            views: OnceLock::new(),
        }
    }

    /// Member ids in ascending id order.
    #[inline]
    pub fn members(&self) -> &[PointId] {
        &self.members
    }

    /// Number of points in the cell (`|S(c)|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff the cell holds no points (never stored, but kept for
    /// API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member ids in ascending `(x, id)` order, sorted on first use.
    #[inline]
    pub fn by_x(&self, points: &[Point]) -> &[PointId] {
        &self.views(points)[..self.len()]
    }

    /// Member ids in ascending `(y, id)` order, sorted on first use.
    #[inline]
    pub fn by_y(&self, points: &[Point]) -> &[PointId] {
        &self.views(points)[self.len()..]
    }

    /// Whether the two views are sorted yet.
    pub fn has_views(&self) -> bool {
        self.views.get().is_some()
    }

    /// Makes sure both views exist and returns the heap bytes **this
    /// call** made sorting them: zero when they were already there, and
    /// zero for a caller that waited while another thread sorted them.
    pub fn sort_views(&self, points: &[Point]) -> usize {
        let mut made = 0;
        self.views.get_or_init(|| {
            let views = sorted_views(&self.members, points);
            made = std::mem::size_of_val(&*views);
            views
        });
        made
    }

    #[inline]
    fn views(&self, points: &[Point]) -> &[PointId] {
        self.views
            .get_or_init(|| sorted_views(&self.members, points))
    }

    /// First index in `by_x` whose point has `x >= x0`.
    #[inline]
    pub fn lower_bound_x(&self, points: &[Point], x0: f64) -> usize {
        self.by_x(points)
            .partition_point(|&id| points[id as usize].x < x0)
    }

    /// First index in `by_x` whose point has `x > x0`.
    #[inline]
    pub fn upper_bound_x(&self, points: &[Point], x0: f64) -> usize {
        self.by_x(points)
            .partition_point(|&id| points[id as usize].x <= x0)
    }

    /// First index in `by_y` whose point has `y >= y0`.
    #[inline]
    pub fn lower_bound_y(&self, points: &[Point], y0: f64) -> usize {
        self.by_y(points)
            .partition_point(|&id| points[id as usize].y < y0)
    }

    /// First index in `by_y` whose point has `y > y0`.
    #[inline]
    pub fn upper_bound_y(&self, points: &[Point], y0: f64) -> usize {
        self.by_y(points)
            .partition_point(|&id| points[id as usize].y <= y0)
    }

    /// Exact count of members with `x >= x0` (case 2, cell `c←`):
    /// `µ(r, c←) = |{s ∈ S(c←) : w(r).xmin ≤ s.x}|`.
    #[inline]
    pub fn count_x_at_least(&self, points: &[Point], x0: f64) -> usize {
        self.len() - self.lower_bound_x(points, x0)
    }

    /// Exact count of members with `x <= x0` (case 2, cell `c→`).
    #[inline]
    pub fn count_x_at_most(&self, points: &[Point], x0: f64) -> usize {
        self.upper_bound_x(points, x0)
    }

    /// Exact count of members with `y >= y0` (case 2, cell `c↓`).
    #[inline]
    pub fn count_y_at_least(&self, points: &[Point], y0: f64) -> usize {
        self.len() - self.lower_bound_y(points, y0)
    }

    /// Exact count of members with `y <= y0` (case 2, cell `c↑`).
    #[inline]
    pub fn count_y_at_most(&self, points: &[Point], y0: f64) -> usize {
        self.upper_bound_y(points, y0)
    }

    /// Exact count of members inside the closed rectangle `w`.
    ///
    /// Binary-searches the x range, then filters by y — `O(log |S(c)| + k)`
    /// where `k` is the x-run length. Used by the exact window counter
    /// (ground truth for `|J|` and for KDS-rejection acceptance tests).
    pub fn count_in_rect(&self, points: &[Point], w: &Rect) -> usize {
        let lo = self.lower_bound_x(points, w.min_x);
        let hi = self.upper_bound_x(points, w.max_x);
        self.by_x(points)[lo..hi]
            .iter()
            .filter(|&&id| {
                let y = points[id as usize].y;
                w.min_y <= y && y <= w.max_y
            })
            .count()
    }

    /// Approximate heap footprint in bytes: the members, and the views
    /// once they are sorted.
    pub fn memory_bytes(&self) -> usize {
        let views = self.views.get().map_or(0, |v| v.len());
        (self.members.capacity() + views) * std::mem::size_of::<PointId>()
    }
}

/// `members` (ascending ids) in `(x, id)` order, then in `(y, id)` order.
fn sorted_views(members: &[PointId], points: &[Point]) -> Box<[PointId]> {
    let mut views = Vec::with_capacity(2 * members.len());
    // The key rides beside the id, so the sort reads nothing else: an
    // integer that orders as `f64::total_cmp` orders the coordinate (its
    // bits, with the magnitude bits of negative values flipped).
    let mut keyed: Vec<(i64, PointId)> = Vec::with_capacity(members.len());
    for coord in [|p: Point| p.x, |p: Point| p.y] {
        keyed.clear();
        keyed.extend(members.iter().map(|&id| {
            let bits = coord(points[id as usize]).to_bits() as i64;
            (bits ^ (((bits >> 63) as u64) >> 1) as i64, id)
        }));
        keyed.sort_unstable();
        views.extend(keyed.iter().map(|&(_, id)| id));
    }
    views.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_cell(points: &[Point]) -> Cell {
        Cell::new((0, 0), 10.0, (0..points.len() as u32).collect())
    }

    fn pts() -> Vec<Point> {
        vec![
            Point::new(1.0, 9.0),
            Point::new(2.0, 8.0),
            Point::new(3.0, 7.0),
            Point::new(4.0, 6.0),
            Point::new(5.0, 5.0),
            Point::new(5.0, 4.0), // duplicate x
            Point::new(7.0, 3.0),
            Point::new(8.0, 2.0),
        ]
    }

    #[test]
    fn one_sided_counts_are_exact() {
        let points = pts();
        let c = make_cell(&points);
        assert_eq!(c.count_x_at_least(&points, 5.0), 4); // 5,5,7,8
        assert_eq!(c.count_x_at_least(&points, 5.1), 2); // 7,8
        assert_eq!(c.count_x_at_most(&points, 5.0), 6);
        assert_eq!(c.count_x_at_most(&points, 0.5), 0);
        assert_eq!(c.count_y_at_least(&points, 6.0), 4); // 6,7,8,9
        assert_eq!(c.count_y_at_most(&points, 3.0), 2); // 2,3
    }

    #[test]
    fn runs_match_counts_and_predicates() {
        let points = pts();
        let c = make_cell(&points);
        let run = &c.by_x(&points)[c.lower_bound_x(&points, 5.0)..];
        assert_eq!(run.len(), c.count_x_at_least(&points, 5.0));
        assert!(run.iter().all(|&id| points[id as usize].x >= 5.0));
        let run = &c.by_y(&points)[..c.upper_bound_y(&points, 7.0)];
        assert_eq!(run.len(), c.count_y_at_most(&points, 7.0));
        assert!(run.iter().all(|&id| points[id as usize].y <= 7.0));
    }

    #[test]
    fn count_in_rect_matches_brute_force() {
        let points = pts();
        let c = make_cell(&points);
        let windows = [
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(2.0, 2.0, 5.0, 8.0),
            Rect::new(4.5, 0.0, 7.5, 4.5),
            Rect::new(9.0, 9.0, 10.0, 10.0),
        ];
        for w in &windows {
            let brute = points.iter().filter(|p| w.contains(**p)).count();
            assert_eq!(c.count_in_rect(&points, w), brute, "window {w:?}");
        }
    }

    #[test]
    fn boundary_inclusive() {
        let points = pts();
        let c = make_cell(&points);
        // closed predicate: x >= 1.0 includes the point at x == 1.0
        assert_eq!(c.count_x_at_least(&points, 1.0), 8);
        assert_eq!(c.count_x_at_most(&points, 8.0), 8);
    }

    #[test]
    fn empty_cell() {
        let points: Vec<Point> = vec![];
        let c = make_cell(&points);
        assert!(c.is_empty());
        assert_eq!(c.count_x_at_least(&points, 0.0), 0);
        assert_eq!(c.count_in_rect(&points, &Rect::new(0.0, 0.0, 1.0, 1.0)), 0);
    }

    #[test]
    fn views_break_ties_by_id() {
        let points = vec![
            Point::new(2.0, 1.0),
            Point::new(-1.0, 1.0),
            Point::new(2.0, -3.0),
            Point::new(0.0, 1.0),
            Point::new(-1.0, 7.5),
            Point::new(-0.0, 0.0),
        ];
        let c = make_cell(&points);
        assert_eq!(c.by_x(&points), [1, 4, 5, 3, 0, 2]);
        assert_eq!(c.by_y(&points), [2, 5, 0, 1, 3, 4]);
    }

    #[test]
    fn views_order_as_total_cmp() {
        let values = [
            f64::MAX,
            -1e300,
            2.5,
            -f64::MIN_POSITIVE,
            0.0,
            -0.0,
            f64::MIN,
            f64::MIN_POSITIVE,
            -2.5,
            1e300,
            0.5,
        ];
        let points: Vec<Point> = (0..values.len())
            .map(|i| Point::new(values[i], values[values.len() - 1 - i]))
            .collect();
        let c = make_cell(&points);
        let mut want: Vec<PointId> = c.members().to_vec();
        want.sort_by(|&a, &b| points[a as usize].x.total_cmp(&points[b as usize].x));
        assert_eq!(c.by_x(&points), want);
        want.sort_by(|&a, &b| points[a as usize].y.total_cmp(&points[b as usize].y));
        assert_eq!(c.by_y(&points), want);
    }

    #[test]
    fn views_are_sorted_once_and_charged_once() {
        let points = pts();
        let c = make_cell(&points);
        assert!(!c.has_views());
        assert_eq!(c.memory_bytes(), 8 * 4);
        let x = c.by_x(&points).as_ptr();
        assert!(c.has_views());
        assert_eq!(c.sort_views(&points), 0);
        assert_eq!(c.by_x(&points).as_ptr(), x);
        assert_eq!(c.memory_bytes(), 8 * 4 * 3);
        let fresh = make_cell(&points);
        assert_eq!(fresh.sort_views(&points), 8 * 4 * 2);
        assert_eq!(fresh.by_y(&points), c.by_y(&points));
    }
}
