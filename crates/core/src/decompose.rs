//! Shared window-over-grid decomposition helpers (Section IV-A/IV-D).
//!
//! Both the proposed BBST algorithm and its Fig. 9 kd-tree variant
//! decompose `w(r)` over the 3×3 cell block and treat cases 1 and 2
//! identically; only case 3 differs. The case-1/2 logic lives here.

use srj_bbst::QuadrantQuery;
use srj_geom::{PointId, Rect};
use srj_grid::{Cell, CellCase};

/// Exact case-1/2 count `µ(r, c)` for a non-corner cell (Section IV-D
/// rationale (i)/(ii)); `None` for corner cells.
pub(crate) fn case12_count(
    cell: &Cell,
    points: &[srj_geom::Point],
    case: CellCase,
    w: &Rect,
) -> Option<u64> {
    let c = match case {
        CellCase::Full => cell.len(),
        CellCase::XMinSided => cell.count_x_at_least(points, w.min_x),
        CellCase::XMaxSided => cell.count_x_at_most(points, w.max_x),
        CellCase::YMinSided => cell.count_y_at_least(points, w.min_y),
        CellCase::YMaxSided => cell.count_y_at_most(points, w.max_y),
        CellCase::Quadrant { .. } => return None,
    };
    Some(c as u64)
}

/// The contiguous run of qualifying ids for a case-1/2 cell (sampling
/// phase (i)/(ii)), found by binary search against the window; `None`
/// for corner cells. The draw itself uses [`case12_stored_run`]; this is
/// the reference it is checked against.
pub(crate) fn case12_run<'a>(
    cell: &'a Cell,
    points: &[srj_geom::Point],
    case: CellCase,
    w: &Rect,
) -> Option<&'a [PointId]> {
    let run = match case {
        CellCase::Full => &cell.by_x[..],
        CellCase::XMinSided => cell.run_x_at_least(points, w.min_x),
        CellCase::XMaxSided => cell.run_x_at_most(points, w.max_x),
        CellCase::YMinSided => cell.run_y_at_least(points, w.min_y),
        CellCase::YMaxSided => cell.run_y_at_most(points, w.max_y),
        CellCase::Quadrant { .. } => return None,
    };
    Some(run)
}

/// The same run as [`case12_run`], recovered from the `count` the
/// upper-bounding phase stored as the cell's row weight
/// ([`case12_count`]): a 1-sided run is a prefix or a suffix of one of
/// the cell's sorted arrays, so its length alone locates it — no binary
/// search, no read of the point coordinates. `None` for corner cells.
///
/// # Panics
/// Panics if `count` exceeds the cell's population.
#[inline]
pub(crate) fn case12_stored_run(cell: &Cell, case: CellCase, count: usize) -> Option<&[PointId]> {
    let n = cell.len();
    let run = match case {
        CellCase::Full | CellCase::XMaxSided => &cell.by_x[..count],
        CellCase::XMinSided => &cell.by_x[n - count..],
        CellCase::YMaxSided => &cell.by_y[..count],
        CellCase::YMinSided => &cell.by_y[n - count..],
        CellCase::Quadrant { .. } => return None,
    };
    Some(run)
}

/// The 2-sided query a corner cell poses (Section IV-D rationale (iii)):
/// the window boundary that cuts into the cell on each axis.
pub(crate) fn quadrant_query(x_is_min: bool, y_is_min: bool, w: &Rect) -> QuadrantQuery {
    QuadrantQuery {
        x_is_min,
        y_is_min,
        x0: if x_is_min { w.min_x } else { w.max_x },
        y0: if y_is_min { w.min_y } else { w.max_y },
    }
}

/// The corner cell's quadrant region clipped to the cell extent, as a
/// rectangle — used by the kd-tree variant, whose per-cell trees answer
/// rectangle queries rather than quadrant queries.
pub(crate) fn quadrant_rect(q: &QuadrantQuery, cell_rect: &Rect) -> Rect {
    let (min_x, max_x) = if q.x_is_min {
        (q.x0.min(cell_rect.max_x), cell_rect.max_x)
    } else {
        (cell_rect.min_x, q.x0.max(cell_rect.min_x))
    };
    let (min_y, max_y) = if q.y_is_min {
        (q.y0.min(cell_rect.max_y), cell_rect.max_y)
    } else {
        (cell_rect.min_y, q.y0.max(cell_rect.min_y))
    };
    Rect::new(min_x, min_y, max_x, max_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srj_geom::Point;
    use srj_grid::{case_of, Grid, NEIGHBOR_OFFSETS};

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

    /// Cases 1 and 2 claim exactness: the count must equal the brute
    /// force count of cell points inside the window, for every cell of
    /// the 3×3 block of many probe points.
    #[test]
    fn case12_counts_are_exact() {
        let s = pseudo_points(2000, 3, 100.0);
        let l = 7.0;
        let grid = Grid::build(&s, l);
        let probes = pseudo_points(50, 4, 100.0);
        for rp in probes {
            let w = Rect::window(rp, l);
            let hood = grid.neighborhood(rp);
            for (i, cell) in hood.iter().enumerate() {
                let Some(cell) = cell else { continue };
                let case = case_of(i);
                let Some(count) = case12_count(cell, grid.points(), case, &w) else {
                    continue; // corner cell
                };
                let brute = cell
                    .by_x
                    .iter()
                    .filter(|&&id| w.contains(grid.point(id)))
                    .count() as u64;
                assert_eq!(
                    count, brute,
                    "offset {:?} case {case:?} r {rp:?}",
                    NEIGHBOR_OFFSETS[i]
                );
            }
        }
    }

    /// Every id in a case-1/2 run must satisfy the window, and the run
    /// length must equal the count.
    #[test]
    fn case12_runs_match_counts() {
        let s = pseudo_points(1500, 5, 80.0);
        let l = 6.0;
        let grid = Grid::build(&s, l);
        for rp in pseudo_points(30, 6, 80.0) {
            let w = Rect::window(rp, l);
            for (i, cell) in grid.neighborhood(rp).iter().enumerate() {
                let Some(cell) = cell else { continue };
                let case = case_of(i);
                let (Some(count), Some(run)) = (
                    case12_count(cell, grid.points(), case, &w),
                    case12_run(cell, grid.points(), case, &w),
                ) else {
                    continue;
                };
                assert_eq!(run.len() as u64, count);
                for &id in run {
                    assert!(
                        w.contains(grid.point(id)),
                        "case {case:?} leaked id outside the window"
                    );
                }
            }
        }
    }

    #[test]
    fn quadrant_query_boundaries() {
        let w = Rect::new(10.0, 20.0, 30.0, 40.0);
        let q = quadrant_query(true, true, &w); // c↙
        assert_eq!((q.x0, q.y0), (10.0, 20.0));
        let q = quadrant_query(false, false, &w); // c↗
        assert_eq!((q.x0, q.y0), (30.0, 40.0));
        let q = quadrant_query(true, false, &w); // c↖
        assert_eq!((q.x0, q.y0), (10.0, 40.0));
    }

    #[test]
    fn quadrant_rect_clips_to_cell() {
        let cell = Rect::new(0.0, 0.0, 10.0, 10.0);
        let q = QuadrantQuery {
            x_is_min: true,
            y_is_min: true,
            x0: 4.0,
            y0: 6.0,
        };
        assert_eq!(quadrant_rect(&q, &cell), Rect::new(4.0, 6.0, 10.0, 10.0));
        let q = QuadrantQuery {
            x_is_min: false,
            y_is_min: false,
            x0: 4.0,
            y0: 6.0,
        };
        assert_eq!(quadrant_rect(&q, &cell), Rect::new(0.0, 0.0, 4.0, 6.0));
    }
}
