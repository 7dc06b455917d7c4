//! Shared window-over-grid decomposition helpers (Section IV-A/IV-D).
//!
//! The proposed BBST algorithm and KDS (which is also the paper's Fig. 9
//! kd-tree variant) both decompose `w(r)` over the 3×3 cell block and
//! treat cases 1 and 2 identically; only case 3 differs. The case-1/2
//! logic — count, run and draw — lives here, and so does the
//! upper-bounding pass built on it ([`upper_bounding`]), which takes the
//! case-3 count as a closure.

use std::time::{Duration, Instant};

use srj_alias::{AliasTable, BlockRow, RowPick};
use srj_bbst::QuadrantQuery;
use srj_geom::{Point, PointId, Rect};
use srj_grid::{case_of, Cell, CellCase, Grid};

use crate::cellstore::{CellStore, CellUnit};
use crate::parallel::par_chunks;

/// Exact case-1/2 count `µ(r, c)` for a non-corner cell (Section IV-D
/// rationale (i)/(ii)); `None` for corner cells.
pub(crate) fn case12_count(cell: &Cell, points: &[Point], case: CellCase, w: &Rect) -> Option<u64> {
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
    points: &[Point],
    case: CellCase,
    w: &Rect,
) -> Option<&'a [PointId]> {
    let (by_x, by_y) = (cell.by_x(points), cell.by_y(points));
    let run = match case {
        CellCase::Full => by_x,
        CellCase::XMinSided => &by_x[cell.lower_bound_x(points, w.min_x)..],
        CellCase::XMaxSided => &by_x[..cell.upper_bound_x(points, w.max_x)],
        CellCase::YMinSided => &by_y[cell.lower_bound_y(points, w.min_y)..],
        CellCase::YMaxSided => &by_y[..cell.upper_bound_y(points, w.max_y)],
        CellCase::Quadrant { .. } => return None,
    };
    Some(run)
}

/// The same run as [`case12_run`], recovered from the `count` the
/// upper-bounding phase stored as the cell's row weight
/// ([`case12_count`]): a 1-sided run is a prefix or a suffix of one of
/// the cell's sorted views, so its length alone locates it — no binary
/// search, no read of the point coordinates (`points`, the array the
/// cell indexes, is read only if the views are not sorted yet). `None`
/// for corner cells.
///
/// # Panics
/// Panics if `count` exceeds the cell's population.
#[inline]
pub(crate) fn case12_stored_run<'a>(
    cell: &'a Cell,
    points: &[Point],
    case: CellCase,
    count: usize,
) -> Option<&'a [PointId]> {
    let n = cell.len();
    let run = match case {
        CellCase::Full | CellCase::XMaxSided => &cell.by_x(points)[..count],
        CellCase::XMinSided => &cell.by_x(points)[n - count..],
        CellCase::YMaxSided => &cell.by_y(points)[..count],
        CellCase::YMinSided => &cell.by_y(points)[n - count..],
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

/// The corner cell's quadrant as a rectangle, for per-cell structures
/// that answer rectangle queries (the kd side): bounded by the window's
/// two edges and **open to ±∞ on the far sides**. The structure queried
/// holds one cell's members, so there is nothing to clip — and a clip
/// toward the cell would widen the query whenever rounding leaves the
/// window edge a hair short of the cell.
pub(crate) fn open_quadrant(q: &QuadrantQuery) -> Rect {
    const INF: f64 = f64::INFINITY;
    let open = |is_min: bool, edge: f64| if is_min { (edge, INF) } else { (-INF, edge) };
    let ((min_x, max_x), (min_y, max_y)) = (open(q.x_is_min, q.x0), open(q.y_is_min, q.y0));
    Rect::new(min_x, min_y, max_x, max_y)
}

/// The draw from a picked case-1/2 cell, shared by every index whose rows
/// store exact run lengths there: the member at `pick.rank` of the run
/// `pick.weight` locates ([`case12_stored_run`]). Never rejects.
#[inline]
pub(crate) fn case12_draw<U: CellUnit>(
    store: &CellStore<U>,
    slot: u32,
    case: CellCase,
    pick: &RowPick,
    w: &Rect,
) -> PointId {
    let grid = store.grid();
    let cell = grid.cell(slot);
    let run = case12_stored_run(cell, grid.points(), case, pick.weight as usize)
        .expect("non-corner case must yield a run");
    debug_assert_eq!(
        Some(run),
        case12_run(cell, grid.points(), case, w),
        "stored row weight disagrees with the window's run"
    );
    let sid = run[pick.rank as usize];
    debug_assert!(
        w.contains(grid.point(sid)),
        "case-1/2 sample escaped the window"
    );
    sid
}

/// What `UPPER-BOUNDING` + `ALIAS-BUILDING` leave behind: the per-`r`
/// cell distributions `A_r`, the global alias `A` over `µ(r)` (`None`
/// when `Σµ = 0`), and what the phase cost.
pub(crate) struct UpperBounds {
    pub rows: Vec<BlockRow>,
    pub alias: Option<AliasTable>,
    /// Wall-clock of the whole phase.
    pub wall: Duration,
    /// CPU time summed over builder threads (`== wall` when serial).
    pub cpu: Duration,
}

/// Phase 2 of Algorithm 1 for every `r`, **cell-major**: each builder
/// thread takes a contiguous chunk of `R`, groups it by grid cell
/// ([`Grid::group_by_cell`]), sweeps every group's 3×3 block once
/// ([`sweep_group`]) and scatters the resulting rows back to the
/// members' positions; then the alias over the row totals.
///
/// `corner(slot, q)` is the case-3 bound `µ(r, c)` of the cell at `slot`
/// for the quadrant `q` — the only step the BBST algorithm (a BBST
/// bound) and KDS (an exact kd count) do not share.
///
/// A row is a function of its `r` and the immutable `S`-side alone, so
/// the result does not depend on `threads` or on how `R` is ordered or
/// chunked — and it equals [`per_r_weights`] row for row, integer for
/// integer.
pub(crate) fn upper_bounding<C>(
    grid: &Grid,
    r: &[Point],
    l: f64,
    threads: usize,
    corner: C,
) -> UpperBounds
where
    C: Fn(u32, &QuadrantQuery) -> u64 + Sync,
{
    let t0 = Instant::now();
    let (rows, par) = par_chunks(r, threads, |_, chunk| {
        let mut rows = vec![BlockRow::default(); chunk.len()];
        sweep_rows(grid, chunk, l, &corner, &mut rows);
        rows
    });
    // The groups and the sweep's buffers are gone by now: the alias
    // build's transients are the phase's memory peak, as before.
    let weights: Vec<f64> = rows.iter().map(|row| row.total() as f64).collect();
    let alias = AliasTable::new(&weights);
    let wall = t0.elapsed();
    UpperBounds {
        rows,
        alias,
        wall,
        cpu: par.cpu + wall.saturating_sub(par.wall),
    }
}

/// Most members one [`sweep_group`] call takes. A larger group is swept
/// in pieces — any part of a group is a group — so the per-thread
/// buffers stay near 84 KiB: cache-resident, and no part of the
/// build's memory peak however crowded a cell of `R` is.
const SWEEP_PIECE: usize = 1024;

/// Group → sweep → scatter over one chunk of `R`: writes `rows[i]` for
/// every `r[i]` whose block is not empty (an empty block's row is the
/// all-zero default `rows` came with). The extra part of every row is
/// left empty.
pub(crate) fn sweep_rows<C>(grid: &Grid, r: &[Point], l: f64, corner: &C, rows: &mut [BlockRow])
where
    C: Fn(u32, &QuadrantQuery) -> u64,
{
    let groups = grid.group_by_cell(r);
    let mut scratch = SweepScratch::default();
    let pieces = groups.iter().flat_map(|group| group.chunks(SWEEP_PIECE));
    for (g, members) in pieces.enumerate() {
        // One block resolution serves the whole group.
        let slots = grid.neighborhood_slots(r[members[0] as usize]);
        if slots.iter().all(Option::is_none) {
            continue;
        }
        sweep_group(grid, r, members, &slots, l, corner, &mut scratch);
        // Debug builds (every `cargo test`) re-derive every 64th group
        // the per-r way.
        debug_assert!(
            g % 64 != 0
                || members.iter().zip(&scratch.weights).all(
                    |(&m, w)| w.map(u64::from) == per_r_weights(grid, r[m as usize], l, corner)
                ),
            "cell-major sweep disagrees with the per-r reference in group {g}"
        );
        for (&m, &w) in members.iter().zip(&scratch.weights) {
            rows[m as usize] = BlockRow::new(w.map(u64::from), 0);
        }
    }
}

/// Per-thread buffers of [`sweep_group`], reused from group to group.
#[derive(Default)]
struct SweepScratch {
    /// The group's `r` points, in member order.
    points: Vec<Point>,
    /// `(r.x, member position)` by ascending `r.x`, and the same for
    /// `y`: the key rides along so the sort reads nothing else.
    by_x: Vec<(f64, u32)>,
    by_y: Vec<(f64, u32)>,
    /// `µ(r, c_0..c_8)` per member, in member order: the sweep's output,
    /// in the width a [`BlockRow`] keeps.
    weights: Vec<[u32; 9]>,
}

/// The sweep kernel: `µ(r, c)` for every member `r` of one group and
/// every cell `c` of the block they share, walked **neighbour by
/// neighbour** so that one `S` cell's arrays (and trees) stay hot while
/// the whole group is answered against them.
///
/// * Case 1: `|S(c)|`, the same for every member.
/// * Case 2: the members' window edges, taken in coordinate order, cut
///   the cell's sorted array at non-decreasing positions (`r.x − l` and
///   `r.x + l` are monotone in `r.x`), so each member's binary search
///   becomes a gallop from the previous member's answer.
/// * Case 3: `corner`, once per member as before, but back to back on
///   one cell and in `x` order.
fn sweep_group<C>(
    grid: &Grid,
    r: &[Point],
    members: &[u32],
    slots: &[Option<u32>; 9],
    l: f64,
    corner: &C,
    scratch: &mut SweepScratch,
) where
    C: Fn(u32, &QuadrantQuery) -> u64,
{
    let SweepScratch {
        points,
        by_x,
        by_y,
        weights,
    } = scratch;
    points.clear();
    points.extend(members.iter().map(|&m| r[m as usize]));
    by_x.clear();
    by_x.extend(points.iter().zip(0..).map(|(p, j)| (p.x, j)));
    by_x.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    by_y.clear();
    by_y.extend(points.iter().zip(0..).map(|(p, j)| (p.y, j)));
    by_y.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    weights.clear();
    weights.resize(members.len(), [0; 9]);

    let s = grid.points();
    let window = |j: u32| Rect::window(points[j as usize], l);
    for (i, slot) in slots.iter().enumerate() {
        let Some(slot) = *slot else { continue };
        let cell = grid.cell(slot);
        // A cell's candidate positions are bounded by ids; the BBST
        // bound is the one count that is not a slice length.
        let mut set = |j: u32, count: u64| {
            weights[j as usize][i] = u32::try_from(count).expect("cell count overflows u32")
        };
        match case_of(i) {
            CellCase::Full => (0..members.len() as u32).for_each(|j| set(j, cell.len() as u64)),
            CellCase::XMinSided => {
                let edge = |j| window(j).min_x;
                monotone_counts(cell.by_x(s), |id| s[id as usize].x, by_x, edge, true, set)
            }
            CellCase::XMaxSided => {
                let edge = |j| window(j).max_x;
                monotone_counts(cell.by_x(s), |id| s[id as usize].x, by_x, edge, false, set)
            }
            CellCase::YMinSided => {
                let edge = |j| window(j).min_y;
                monotone_counts(cell.by_y(s), |id| s[id as usize].y, by_y, edge, true, set)
            }
            CellCase::YMaxSided => {
                let edge = |j| window(j).max_y;
                monotone_counts(cell.by_y(s), |id| s[id as usize].y, by_y, edge, false, set)
            }
            CellCase::Quadrant { x_is_min, y_is_min } => {
                for &(_, j) in by_x.iter() {
                    let q = quadrant_query(x_is_min, y_is_min, &window(j));
                    set(j, corner(slot, &q));
                }
            }
        }
    }
}

/// The 1-sided counts of [`case12_count`] for a whole group against one
/// cell: `ids` is the cell's array sorted by `coord`, `order` the
/// group's members by ascending coordinate on the same axis and
/// `edge(j)` member `j`'s window edge on it, hence non-decreasing along
/// `order`. `at_least` counts `coord ≥ edge` (a `*MinSided` cell),
/// otherwise `coord ≤ edge`. Every member gallops from its
/// predecessor's cut, the first from the array's front.
fn monotone_counts(
    ids: &[PointId],
    coord: impl Fn(PointId) -> f64,
    order: &[(f64, u32)],
    edge: impl Fn(u32) -> f64,
    at_least: bool,
    mut emit: impl FnMut(u32, u64),
) {
    let mut cut = 0usize;
    for &(_, j) in order {
        let e = edge(j);
        // Exactly `Cell::lower_bound_*` / `Cell::upper_bound_*`.
        let before = |id: PointId| {
            if at_least {
                coord(id) < e
            } else {
                coord(id) <= e
            }
        };
        cut += gallop(&ids[cut..], before);
        emit(j, if at_least { ids.len() - cut } else { cut } as u64);
    }
}

/// `ids.partition_point(before)` by exponential search from the front:
/// `O(log answer)` probes instead of `O(log len)`.
fn gallop(ids: &[PointId], before: impl Fn(PointId) -> bool) -> usize {
    // Everything left of `lo` is `before`.
    let (mut lo, mut step) = (0usize, 1usize);
    while lo + step <= ids.len() && before(ids[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(ids.len());
    lo + ids[lo..hi].partition_point(|&id| before(id))
}

/// `µ(r, c_0..c_8)` the per-`r` way — nine grid probes, four binary
/// searches, four `corner` calls for this `r` alone — which is how the
/// upper-bounding phase ran before it went cell-major. The reference
/// [`sweep_group`] is checked against, in tests and (every 64th group)
/// in every debug build.
pub(crate) fn per_r_weights<C>(grid: &Grid, rp: Point, l: f64, corner: &C) -> [u64; 9]
where
    C: Fn(u32, &QuadrantQuery) -> u64,
{
    let w = Rect::window(rp, l);
    let mut cell_w = [0u64; 9];
    for (i, slot) in grid.neighborhood_slots(rp).into_iter().enumerate() {
        let Some(slot) = slot else { continue };
        cell_w[i] = match case_of(i) {
            CellCase::Quadrant { x_is_min, y_is_min } => {
                corner(slot, &quadrant_query(x_is_min, y_is_min, &w))
            }
            case => case12_count(grid.cell(slot), grid.points(), case, &w)
                .expect("non-corner case must yield an exact count"),
        };
    }
    cell_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use srj_grid::NEIGHBOR_OFFSETS;

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
                    .members()
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

    /// The gallop is `partition_point` for every cut position, at every
    /// length around the doubling steps.
    #[test]
    fn gallop_is_partition_point() {
        for len in 0..70u32 {
            let ids: Vec<PointId> = (0..len).collect();
            for cut in 0..=len {
                assert_eq!(gallop(&ids, |id| id < cut), cut as usize, "len {len}");
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
}
