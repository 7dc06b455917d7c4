use srj_geom::{Point, PointId, Rect};

/// One non-empty grid cell.
///
/// Holds the member point ids twice, sorted by x (`S(c)` — the paper
/// pre-sorts `S` by x, so this order is "inherited") and sorted by y
/// (`S_y(c)`, the copy built in Algorithm 1 lines 3–4). Both orders are
/// needed for the exact 1-sided (case 2) counts and runs.
///
/// Members with equal coordinates come in ascending id order: `by_x` is
/// sorted by `(x, id)` and `by_y` by `(y, id)`, coordinates compared by
/// [`f64::total_cmp`]. Every way a cell is made — a full build's scatter
/// of the [`crate::PointSet`] orders, a [`crate::Grid::patch`]'s sort of
/// a dirty cell — gives that order, so a cell is a function of its
/// member set: rebuilt or built from scratch, the arrays are equal.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Discrete cell coordinate `(⌊x/side⌋, ⌊y/side⌋)`.
    pub coord: (i32, i32),
    /// Geometric extent of the cell (half-open in space, but stored as a
    /// closed rect for intersection tests; membership is decided by the
    /// coordinate formula, not this rect).
    pub rect: Rect,
    /// Member ids in ascending `(x, id)` order.
    pub by_x: Vec<PointId>,
    /// Member ids in ascending `(y, id)` order.
    pub by_y: Vec<PointId>,
}

impl Cell {
    /// Number of points in the cell (`|S(c)|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.by_x.len()
    }

    /// `true` iff the cell holds no points (never stored, but kept for
    /// API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.by_x.is_empty()
    }

    /// First index in `by_x` whose point has `x >= x0`.
    #[inline]
    pub fn lower_bound_x(&self, points: &[Point], x0: f64) -> usize {
        self.by_x.partition_point(|&id| points[id as usize].x < x0)
    }

    /// First index in `by_x` whose point has `x > x0`.
    #[inline]
    pub fn upper_bound_x(&self, points: &[Point], x0: f64) -> usize {
        self.by_x.partition_point(|&id| points[id as usize].x <= x0)
    }

    /// First index in `by_y` whose point has `y >= y0`.
    #[inline]
    pub fn lower_bound_y(&self, points: &[Point], y0: f64) -> usize {
        self.by_y.partition_point(|&id| points[id as usize].y < y0)
    }

    /// First index in `by_y` whose point has `y > y0`.
    #[inline]
    pub fn upper_bound_y(&self, points: &[Point], y0: f64) -> usize {
        self.by_y.partition_point(|&id| points[id as usize].y <= y0)
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

    /// Ids of members with `x >= x0`, as a contiguous run of `by_x`.
    #[inline]
    pub fn run_x_at_least(&self, points: &[Point], x0: f64) -> &[PointId] {
        &self.by_x[self.lower_bound_x(points, x0)..]
    }

    /// Ids of members with `x <= x0`, as a contiguous run of `by_x`.
    #[inline]
    pub fn run_x_at_most(&self, points: &[Point], x0: f64) -> &[PointId] {
        &self.by_x[..self.upper_bound_x(points, x0)]
    }

    /// Ids of members with `y >= y0`, as a contiguous run of `by_y`.
    #[inline]
    pub fn run_y_at_least(&self, points: &[Point], y0: f64) -> &[PointId] {
        &self.by_y[self.lower_bound_y(points, y0)..]
    }

    /// Ids of members with `y <= y0`, as a contiguous run of `by_y`.
    #[inline]
    pub fn run_y_at_most(&self, points: &[Point], y0: f64) -> &[PointId] {
        &self.by_y[..self.upper_bound_y(points, y0)]
    }

    /// Exact count of members inside the closed rectangle `w`.
    ///
    /// Binary-searches the x range, then filters by y — `O(log |S(c)| + k)`
    /// where `k` is the x-run length. Used by the exact window counter
    /// (ground truth for `|J|` and for KDS-rejection acceptance tests).
    pub fn count_in_rect(&self, points: &[Point], w: &Rect) -> usize {
        let lo = self.lower_bound_x(points, w.min_x);
        let hi = self.upper_bound_x(points, w.max_x);
        self.by_x[lo..hi]
            .iter()
            .filter(|&&id| {
                let y = points[id as usize].y;
                w.min_y <= y && y <= w.max_y
            })
            .count()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.by_x.capacity() + self.by_y.capacity()) * std::mem::size_of::<PointId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_cell(points: &[Point]) -> Cell {
        let mut by_x: Vec<PointId> = (0..points.len() as u32).collect();
        by_x.sort_by(|&a, &b| points[a as usize].x.total_cmp(&points[b as usize].x));
        let mut by_y: Vec<PointId> = (0..points.len() as u32).collect();
        by_y.sort_by(|&a, &b| points[a as usize].y.total_cmp(&points[b as usize].y));
        Cell {
            coord: (0, 0),
            rect: Rect::new(0.0, 0.0, 10.0, 10.0),
            by_x,
            by_y,
        }
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
        let run = c.run_x_at_least(&points, 5.0);
        assert_eq!(run.len(), c.count_x_at_least(&points, 5.0));
        assert!(run.iter().all(|&id| points[id as usize].x >= 5.0));
        let run = c.run_y_at_most(&points, 7.0);
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
}
