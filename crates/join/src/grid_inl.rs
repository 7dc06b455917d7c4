use srj_geom::{Point, Rect};
use srj_grid::Grid;

use crate::IdPair;

/// Grid index nested-loop join: builds a grid over `S` with cell side
/// equal to the window half-extent, then reports, for every `r`, the
/// points of the ≤ 9 overlapping cells that pass the window predicate.
///
/// `O(m log m)` build + `O(n + |J| + boundary scans)` probe. This is the
/// "index nested-loop" state-of-the-art family \[Jacox & Samet 2007;
/// Šidlauskas & Jensen 2014\] specialised to the fixed-size-window join.
pub fn grid_join(r: &[Point], s: &[Point], half_extent: f64) -> Vec<IdPair> {
    assert!(half_extent > 0.0, "half_extent must be positive");
    let grid = Grid::build(s, half_extent);
    let mut out = Vec::new();
    for (i, &rp) in r.iter().enumerate() {
        let w = Rect::window(rp, half_extent);
        for cell in grid.neighborhood(rp).into_iter().flatten() {
            if w.contains_rect(&cell.rect) {
                // case-1 style: the whole cell qualifies
                for &sid in cell.members() {
                    out.push((i as u32, sid));
                }
            } else {
                // boundary cell: x-binary search then y filter
                let lo = cell.lower_bound_x(grid.points(), w.min_x);
                let hi = cell.upper_bound_x(grid.points(), w.max_x);
                for &sid in &cell.by_x(grid.points())[lo..hi] {
                    let y = grid.point(sid).y;
                    if w.min_y <= y && y <= w.max_y {
                        out.push((i as u32, sid));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested::nested_loop_join;
    use crate::sort_pairs;

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

    #[test]
    fn matches_nested_loop() {
        let r = pseudo_points(120, 1, 100.0);
        let s = pseudo_points(150, 2, 100.0);
        for l in [1.0, 5.0, 20.0, 60.0, 200.0] {
            let mut a = grid_join(&r, &s, l);
            let mut b = nested_loop_join(&r, &s, l);
            sort_pairs(&mut a);
            sort_pairs(&mut b);
            assert_eq!(a, b, "half_extent {l}");
        }
    }

    #[test]
    fn points_on_cell_boundaries() {
        // integer lattice points sit exactly on cell boundaries for l = 1
        let r: Vec<Point> = (0..5)
            .flat_map(|i| (0..5).map(move |j| Point::new(i as f64, j as f64)))
            .collect();
        let s = r.clone();
        let mut a = grid_join(&r, &s, 1.0);
        let mut b = nested_loop_join(&r, &s, 1.0);
        sort_pairs(&mut a);
        sort_pairs(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_sides() {
        assert!(grid_join(&[], &pseudo_points(10, 3, 10.0), 1.0).is_empty());
        assert!(grid_join(&pseudo_points(10, 3, 10.0), &[], 1.0).is_empty());
    }
}
