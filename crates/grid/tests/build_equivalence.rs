//! The scatter-built grid against the definition: bucket every indexed
//! point by its cell coordinate in id order; a bucket's views are its
//! members sorted by `(x, id)` and by `(y, id)`.
//!
//! Inputs live on a half-unit lattice around the origin, so they are full
//! of duplicate coordinates (the tie order is what is being pinned),
//! negative coordinates and points exactly on cell boundaries.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use srj_geom::{Point, PointId, Rect};
use srj_grid::{Grid, PointSet};

/// Members in id order, `by_x`, `by_y`.
type Members = (Vec<PointId>, Vec<PointId>, Vec<PointId>);

/// Cell coordinate → (members, `by_x`, `by_y`) of the indexed points, by
/// definition.
fn reference(points: &[Point], skip: &HashSet<PointId>, l: f64) -> BTreeMap<(i32, i32), Members> {
    let mut cells: BTreeMap<(i32, i32), Members> = BTreeMap::new();
    for (id, p) in (0..).zip(points) {
        if !skip.contains(&id) {
            let coord = ((p.x / l).floor() as i32, (p.y / l).floor() as i32);
            cells.entry(coord).or_default().0.push(id);
        }
    }
    let at = |id: PointId| points[id as usize];
    for (members, by_x, by_y) in cells.values_mut() {
        by_x.clone_from(members);
        by_x.sort_by(|&a, &b| at(a).x.total_cmp(&at(b).x).then(a.cmp(&b)));
        by_y.clone_from(members);
        by_y.sort_by(|&a, &b| at(a).y.total_cmp(&at(b).y).then(a.cmp(&b)));
    }
    cells
}

fn assert_is(grid: &Grid, points: &[Point], skip: &HashSet<PointId>) {
    let l = grid.cell_side();
    let want = reference(points, skip, l);
    assert_eq!(grid.points(), points);
    assert_eq!(grid.num_cells(), want.len());
    assert_eq!(grid.live_points(), points.len() - skip.len());
    for (&coord, (members, by_x, by_y)) in &want {
        let slot = grid
            .cell_slot_at(coord)
            .expect("a non-empty cell has a slot");
        let cell = grid.cell(slot);
        assert!(std::ptr::eq(cell, grid.cell_at(coord).unwrap()));
        assert_eq!(cell.coord, coord);
        assert_eq!(cell.members(), members, "members of {coord:?}");
        assert_eq!(cell.by_x(points), by_x, "by_x of {coord:?}");
        assert_eq!(cell.by_y(points), by_y, "by_y of {coord:?}");
        let (cx, cy) = (coord.0 as f64, coord.1 as f64);
        assert_eq!(
            cell.rect,
            Rect::new(cx * l, cy * l, (cx + 1.0) * l, (cy + 1.0) * l)
        );
        for p in members.iter().map(|&id| points[id as usize]) {
            assert_eq!(grid.coord_of(p), coord);
        }
        // The lookup holds nothing but the non-empty cells.
        for neighbour in [(coord.0 + 1, coord.1), (coord.0, coord.1 - 1)] {
            assert_eq!(
                grid.cell_slot_at(neighbour).is_some(),
                want.contains_key(&neighbour)
            );
        }
    }
}

fn lattice_point() -> impl Strategy<Value = Point> {
    (0u32..41, 0u32..41).prop_map(|(x, y)| Point::new(x as f64 * 0.5 - 10.0, y as f64 * 0.5 - 10.0))
}

fn cell_side() -> impl Strategy<Value = f64> {
    (0usize..5).prop_map(|i| [0.5, 1.0, 1.5, 2.0, 3.7][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scatter_build_is_the_sorted_bucketing(
        points in prop::collection::vec(lattice_point(), 0..300),
        l in cell_side(),
    ) {
        assert_is(&Grid::build(&points, l), &points, &HashSet::new());
    }

    #[test]
    fn grids_of_two_cell_sides_share_one_set(
        points in prop::collection::vec(lattice_point(), 1..300),
        l1 in cell_side(),
        l2 in cell_side(),
    ) {
        let set = Arc::new(PointSet::new(points.clone()));
        let first = Grid::build(&set, l1);
        let second = Grid::build(&set, l2);
        prop_assert!(Arc::ptr_eq(first.point_set(), &set));
        prop_assert!(Arc::ptr_eq(second.point_set(), &set));
        prop_assert_eq!(set.memory_bytes(), points.len() * 16);
        assert_is(&first, &points, &HashSet::new());
        assert_is(&second, &points, &HashSet::new());
    }

    /// A cell `patch` rebuilt and the same cell built from scratch are
    /// equal arrays, ties included, and the cells it rebuilt are the
    /// ones `dirty_cells` names. A clean cell is carried over with the
    /// views it had; a rebuilt one has none until read.
    #[test]
    fn a_patched_grid_is_the_grid_of_the_patched_points(
        base in prop::collection::vec(lattice_point(), 0..200),
        tagged in prop::collection::vec((lattice_point(), any::<bool>()), 0..60),
        stride in 2usize..9,
        l in cell_side(),
    ) {
        let inserted: Vec<Point> = tagged.iter().map(|t| t.0).collect();
        let mut all = base.clone();
        all.extend_from_slice(&inserted);
        // Every `stride`-th base id, and the tagged inserts, are deleted.
        let deleted: HashSet<PointId> = (0..base.len())
            .step_by(stride)
            .chain((base.len()..).zip(&tagged).filter(|(_, t)| t.1).map(|(id, _)| id))
            .map(|id| id as PointId)
            .collect();
        let grid = Grid::build(&base, l);
        // Views on every other cell before the patch.
        for cell in grid.cells().iter().step_by(2) {
            cell.sort_views(grid.points());
        }
        let (patched, report) = grid.patch(&inserted, &deleted);
        for (slot, from) in report.shared_from.iter().enumerate() {
            let cell = patched.cell_arc(slot as u32);
            match from {
                Some(old) => {
                    let old = grid.cell_arc(*old);
                    prop_assert!(Arc::ptr_eq(cell, old));
                    prop_assert_eq!(cell.has_views(), old.has_views());
                }
                None => prop_assert!(!cell.has_views()),
            }
        }
        assert_is(&patched, &all, &deleted);
        prop_assert_eq!(report.cells_rebuilt, grid.dirty_cells(&inserted, &deleted).len());
    }
}

#[test]
fn empty_input_has_no_cells() {
    let grid = Grid::build(&[], 2.0);
    assert_is(&grid, &[], &HashSet::new());
    assert_eq!(grid.num_points(), 0);
}

#[test]
fn one_cell_of_two_thousand_members() {
    // 2000 points on a 7 × 11 sub-lattice of one cell: every coordinate
    // value is shared by hundreds of ids.
    let points: Vec<Point> = (0..2000)
        .map(|i| Point::new(8.0 + (i % 7) as f64 * 0.25, -4.0 + (i % 11) as f64 * 0.125))
        .collect();
    let grid = Grid::build(&points, 4.0);
    assert_eq!(grid.num_cells(), 1);
    assert_eq!(grid.cell_at((2, -1)).unwrap().len(), 2000);
    assert_eq!(grid.point_set().memory_bytes(), 2000 * 16);
    let unsorted = grid.memory_bytes();
    assert_is(&grid, &points, &HashSet::new());
    // The views `assert_is` read are counted with the grid: two more ids
    // a member.
    assert_eq!(grid.memory_bytes(), unsorted + 2000 * 2 * 4);
}
