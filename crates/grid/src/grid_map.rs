use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use srj_geom::{Point, PointId, Rect};

use crate::cell::Cell;
use crate::fx::{self, FxHashMap};
use crate::offsets::NEIGHBOR_OFFSETS;
use crate::point_set::{IntoPointSet, PointSet};

/// What a [`Grid::patch`] did: which cells of the patched grid were
/// structurally shared with the pre-patch grid and which were rebuilt.
#[derive(Clone, Debug, Default)]
pub struct GridPatch {
    /// For each slot of the patched grid: the pre-patch slot whose
    /// [`Cell`] was `Arc`-shared into it, or `None` when the cell was
    /// rebuilt (dirty) or is brand new.
    pub shared_from: Vec<Option<u32>>,
    /// Cells rebuilt or newly created — the work the patch actually
    /// paid for (includes cells that vanished because every member was
    /// deleted).
    pub cells_rebuilt: usize,
    /// Cells carried over by `Arc` clone (zero rebuild cost).
    pub cells_shared: usize,
}

/// Non-empty hash grid over a point set (`GRID-MAPPING(S, l)`).
///
/// The grid is built **on** an `Arc<`[`PointSet`]`>` and keeps it (the
/// algorithms index by [`PointId`]): any number of grids — one per
/// window size — share one point array. Its own state is a hash map
/// from discrete cell coordinates to cell slots and one [`Cell`] per
/// non-empty cell: its members, and the x- and y-sorted views of them
/// once something reads a run ([`Grid::sort_views`] sorts them all).
///
/// Total space is `O(m)`: each point id appears in exactly one cell's
/// members, and in its two views once they are sorted.
///
/// ```
/// use srj_geom::{Point, Rect};
/// use srj_grid::Grid;
///
/// let pts = vec![Point::new(1.0, 1.0), Point::new(12.0, 3.0), Point::new(13.0, 4.0)];
/// let grid = Grid::build(&pts, 10.0); // cell side = window half-extent
/// assert_eq!(grid.num_cells(), 2);    // only non-empty cells exist
/// assert_eq!(grid.coord_of(pts[1]), (1, 0));
/// assert_eq!(grid.exact_window_count(&Rect::new(0.0, 0.0, 12.5, 5.0)), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Grid {
    cell_side: f64,
    set: Arc<PointSet>,
    lookup: FxHashMap<(i32, i32), u32>,
    /// `Arc`-held so [`Grid::patch`] can carry clean cells into the
    /// patched grid by reference instead of copying them.
    cells: Vec<Arc<Cell>>,
}

impl Grid {
    /// Builds the grid with the given cell side (the paper uses cell side
    /// = window half-extent `l`, i.e. half the window side) on `points`:
    /// a slice, copied, or an `Arc<PointSet>`, shared ([`IntoPointSet`]).
    ///
    /// `O(m)` time and space: one hash probe per point finds its cell
    /// slot and counts the cell, then one pass over the ids appends each
    /// to its cell's members, which therefore come in ascending id
    /// order. No cell is sorted: the first read of a cell's views sorts
    /// that cell ([`Cell::by_x`]), and a builder that reads them all
    /// sorts them up front ([`Grid::sort_views`]).
    ///
    /// # Panics
    ///
    /// Panics if `cell_side` is not strictly positive and finite, or if a
    /// coordinate divided by `cell_side` overflows `i32` (cannot happen
    /// for the paper's normalised `[0, 10000]²` domain with any sane `l`).
    pub fn build(points: impl IntoPointSet, cell_side: f64) -> Self {
        Self::build_on(points.into_point_set(), cell_side)
    }

    fn build_on(set: Arc<PointSet>, cell_side: f64) -> Self {
        assert!(
            cell_side.is_finite() && cell_side > 0.0,
            "cell_side must be positive and finite, got {cell_side}"
        );

        // Slots in order of first appearance by id.
        let mut lookup: FxHashMap<(i32, i32), u32> = FxHashMap::default();
        let mut coords: Vec<(i32, i32)> = Vec::new();
        let mut sizes: Vec<u32> = Vec::new();
        let slot_of: Vec<u32> = set
            .points()
            .iter()
            .map(|&p| {
                let coord = coord_of_raw(p, cell_side);
                let slot = *lookup.entry(coord).or_insert_with(|| {
                    coords.push(coord);
                    sizes.push(0);
                    (coords.len() - 1) as u32
                });
                sizes[slot as usize] += 1;
                slot
            })
            .collect();

        let mut members: Vec<Vec<PointId>> = sizes
            .iter()
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        for (id, &slot) in (0..).zip(&slot_of) {
            members[slot as usize].push(id);
        }
        let cells: Vec<Arc<Cell>> = coords
            .into_iter()
            .zip(members)
            .map(|(coord, members)| Arc::new(Cell::new(coord, cell_side, members)))
            .collect();
        Grid {
            cell_side,
            set,
            lookup,
            cells,
        }
    }

    /// Sorts the views of every cell ([`Cell::sort_views`]) on up to
    /// `threads` threads (at least one), and returns the wall time the
    /// call took: what a build that reads every cell's runs — per-`r`
    /// rows, KDS, KDS-rejection — charges to pre-processing. Cells whose
    /// views exist cost nothing; threads that reach one cell at once
    /// sort it once.
    pub fn sort_views(&self, threads: usize) -> Duration {
        /// Cells a thread claims at a time.
        const BATCH: usize = 64;
        let t0 = Instant::now();
        // Hands out batches only: each `fetch_add` claims its own, and
        // the views themselves are published by their `OnceLock`.
        let next = AtomicUsize::new(0);
        let work = || loop {
            let start = next.fetch_add(BATCH, Ordering::Relaxed);
            let Some(batch) = self.cells.get(start..(start + BATCH).min(self.cells.len())) else {
                break;
            };
            for cell in batch {
                cell.sort_views(self.points());
            }
        };
        let helpers = threads
            .min(self.cells.len().div_ceil(BATCH))
            .saturating_sub(1);
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(work);
            }
            work();
        });
        t0.elapsed()
    }

    /// Sorts the views of every cell in the 3×3 block around each of
    /// `around`, and returns the heap bytes this call made doing so.
    pub fn sort_views_around(&self, around: &[Point]) -> usize {
        let mut centres: Vec<(i32, i32)> = around.iter().map(|&p| self.coord_of(p)).collect();
        centres.sort_unstable();
        centres.dedup();
        let mut made = 0;
        for (cx, cy) in centres {
            for (dx, dy) in NEIGHBOR_OFFSETS {
                let coord = (cx.saturating_add(dx), cy.saturating_add(dy));
                if let Some(cell) = self.cell_at(coord) {
                    made += cell.sort_views(self.points());
                }
            }
        }
        made
    }

    /// The coordinates of the cells a [`Grid::patch`] with these
    /// mutations rebuilds. `inserted` get ids `self.num_points()..`, as
    /// in a patch, and `deleted` holds ids of either kind. A cell is
    /// dirty iff it gains a live insert or loses a member; an id
    /// inserted and deleted in the same batch never materialises, so it
    /// touches no cell.
    pub fn dirty_cells<'a>(
        &self,
        inserted: &[Point],
        deleted: impl IntoIterator<Item = &'a PointId>,
    ) -> HashSet<(i32, i32)> {
        let base_len = self.set.len();
        let mut dirty = HashSet::new();
        let mut live = vec![true; inserted.len()];
        for &id in deleted {
            match (id as usize).checked_sub(base_len) {
                None => {
                    dirty.insert(self.coord_of(self.point(id)));
                }
                Some(i) => {
                    if let Some(flag) = live.get_mut(i) {
                        *flag = false;
                    }
                }
            }
        }
        let live_inserts = inserted.iter().zip(live).filter(|&(_, live)| live);
        dirty.extend(live_inserts.map(|(&p, _)| self.coord_of(p)));
        dirty
    }

    /// Rebuilds **only the dirty cells** ([`Grid::dirty_cells`]) for a
    /// set of point mutations, structurally sharing every clean cell's
    /// `Arc` with this grid.
    ///
    /// `inserted` points are appended to the point array and get ids
    /// `self.points().len()..`; `deleted` ids (base or just-inserted)
    /// are removed from their cells but stay resolvable through
    /// [`Grid::point`] — ids are **stable** across a patch, which is
    /// exactly what lets clean cells be shared verbatim, views and all.
    /// Cost: one flat copy of the point array (into a [`PointSet`] of the
    /// patched grid's own) plus `O(|c|)` per dirty cell, whose members
    /// come out in ascending id order as a full build gives them, with no
    /// view sorted.
    pub fn patch(&self, inserted: &[Point], deleted: &HashSet<PointId>) -> (Grid, GridPatch) {
        self.patch_onto(Arc::new(self.set.extended(inserted)), deleted)
    }

    /// [`Grid::patch`] onto `set`, this grid's set with the inserted
    /// points appended — held, not copied, so a caller that keeps the
    /// extended set anyway (a store's next `S`) shares it with the
    /// patched grid. Costs only the dirty cells.
    ///
    /// # Panics
    /// Panics if `set` is shorter than this grid's set.
    pub fn patch_onto(&self, set: Arc<PointSet>, deleted: &HashSet<PointId>) -> (Grid, GridPatch) {
        let base_len = self.set.len();
        let points = set.points();
        let inserted = &points[base_len..];
        debug_assert!(points[..base_len] == *self.set.points(), "not an extension");
        let dirty = self.dirty_cells(inserted, deleted);

        // Live inserted ids grouped by destination cell coordinate.
        let mut added: FxHashMap<(i32, i32), Vec<PointId>> = FxHashMap::default();
        for (id, &p) in (base_len as PointId..).zip(inserted) {
            if !deleted.contains(&id) {
                added.entry(self.coord_of(p)).or_default().push(id);
            }
        }

        let mut lookup: FxHashMap<(i32, i32), u32> = FxHashMap::default();
        let mut cells: Vec<Arc<Cell>> = Vec::with_capacity(self.cells.len() + added.len());
        let mut shared_from: Vec<Option<u32>> = Vec::new();
        let mut cells_rebuilt = 0usize;
        for (old_slot, cell) in self.cells.iter().enumerate() {
            let coord = cell.coord;
            if !dirty.contains(&coord) {
                lookup.insert(coord, cells.len() as u32);
                shared_from.push(Some(old_slot as u32));
                cells.push(Arc::clone(cell));
                continue;
            }
            cells_rebuilt += 1;
            let mut ids: Vec<PointId> = cell
                .members()
                .iter()
                .copied()
                .filter(|id| !deleted.contains(id))
                .collect();
            if let Some(mut extra) = added.remove(&coord) {
                ids.append(&mut extra);
            }
            if ids.is_empty() {
                continue; // every member deleted: the cell vanishes
            }
            lookup.insert(coord, cells.len() as u32);
            shared_from.push(None);
            cells.push(Arc::new(Cell::new(coord, self.cell_side, ids)));
        }
        // Brand-new cells: inserts into previously empty coordinates
        // (sorted for a deterministic slot order).
        let mut fresh: Vec<((i32, i32), Vec<PointId>)> = added.into_iter().collect();
        fresh.sort_unstable_by_key(|&(c, _)| c);
        for (coord, ids) in fresh {
            cells_rebuilt += 1;
            lookup.insert(coord, cells.len() as u32);
            shared_from.push(None);
            cells.push(Arc::new(Cell::new(coord, self.cell_side, ids)));
        }
        let cells_shared = shared_from.iter().filter(|s| s.is_some()).count();
        (
            Grid {
                cell_side: self.cell_side,
                set,
                lookup,
                cells,
            },
            GridPatch {
                shared_from,
                cells_rebuilt,
                cells_shared,
            },
        )
    }

    /// Cell side length the grid was built with.
    #[inline]
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }

    /// Number of indexed points (`m`).
    #[inline]
    pub fn num_points(&self) -> usize {
        self.set.len()
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// All indexed points, indexable by [`PointId`].
    #[inline]
    pub fn points(&self) -> &[Point] {
        self.set.points()
    }

    /// The set the grid was built on — the one it was given
    /// ([`Grid::patch_onto`] too), unless it was given a slice or came
    /// out of [`Grid::patch`], which make their own.
    #[inline]
    pub fn point_set(&self) -> &Arc<PointSet> {
        &self.set
    }

    /// Coordinates of point `id`.
    #[inline]
    pub fn point(&self, id: PointId) -> Point {
        self.set.points()[id as usize]
    }

    /// All non-empty cells (iteration order is unspecified but stable).
    /// The `Arc` wrappers are the unit of structural sharing across
    /// [`Grid::patch`]es: `Arc::ptr_eq` on two grids' cells proves a
    /// cell was carried over untouched.
    #[inline]
    pub fn cells(&self) -> &[Arc<Cell>] {
        &self.cells
    }

    /// Number of points currently indexed by some cell. Equal to
    /// [`Grid::num_points`] for a plain build; smaller when a
    /// [`Grid::patch`] left dead ids behind.
    pub fn live_points(&self) -> usize {
        self.cells.iter().map(|c| c.len()).sum()
    }

    /// Discrete cell coordinate containing `p`.
    #[inline]
    pub fn coord_of(&self, p: Point) -> (i32, i32) {
        coord_of_raw(p, self.cell_side)
    }

    /// The cell at `coord`, if non-empty.
    #[inline]
    pub fn cell_at(&self, coord: (i32, i32)) -> Option<&Cell> {
        self.lookup
            .get(&coord)
            .map(|&slot| &*self.cells[slot as usize])
    }

    /// Slot index of the cell at `coord`, if non-empty. Slots index
    /// [`Grid::cells`] and stay stable for the grid's lifetime, letting
    /// callers attach per-cell side structures (e.g. the BBST pair).
    #[inline]
    pub fn cell_slot_at(&self, coord: (i32, i32)) -> Option<u32> {
        self.lookup.get(&coord).copied()
    }

    /// The cell stored at `slot` (see [`Grid::cell_slot_at`]).
    #[inline]
    pub fn cell(&self, slot: u32) -> &Cell {
        &self.cells[slot as usize]
    }

    /// The `Arc` holding the cell at `slot` — the sharing token a
    /// cell-granular store compares across epochs.
    #[inline]
    pub fn cell_arc(&self, slot: u32) -> &Arc<Cell> {
        &self.cells[slot as usize]
    }

    /// Slot index of **one** cell of the 3×3 block around the cell
    /// containing `p`: neighbour `i` in [`NEIGHBOR_OFFSETS`] order, i.e.
    /// entry `i` of [`Grid::neighborhood_slots`] for one hash probe
    /// instead of nine. A draw that has already chosen its neighbour
    /// calls this.
    ///
    /// # Panics
    /// Panics if `i >= 9`.
    #[inline]
    pub fn neighbor_slot(&self, p: Point, i: usize) -> Option<u32> {
        let (cx, cy) = self.coord_of(p);
        let (dx, dy) = NEIGHBOR_OFFSETS[i];
        self.cell_slot_at((cx.saturating_add(dx), cy.saturating_add(dy)))
    }

    /// Slot indices of the ≤ 9 cells of the 3×3 block around the cell
    /// containing `p`, in [`NEIGHBOR_OFFSETS`] order — for callers that
    /// walk the whole block; see [`Grid::neighbor_slot`] for one cell.
    pub fn neighborhood_slots(&self, p: Point) -> [Option<u32>; 9] {
        let (cx, cy) = self.coord_of(p);
        let mut out = [None; 9];
        for (slot, &(dx, dy)) in out.iter_mut().zip(NEIGHBOR_OFFSETS.iter()) {
            let coord = (cx.saturating_add(dx), cy.saturating_add(dy));
            *slot = self.cell_slot_at(coord);
        }
        out
    }

    /// The ≤ 9 cells of the 3×3 block around the cell containing `p`, in
    /// [`NEIGHBOR_OFFSETS`] order (`None` where the cell is empty).
    pub fn neighborhood(&self, p: Point) -> [Option<&Cell>; 9] {
        let (cx, cy) = self.coord_of(p);
        let mut out = [None; 9];
        for (slot, &(dx, dy)) in out.iter_mut().zip(NEIGHBOR_OFFSETS.iter()) {
            // Windows at the domain edge may index coordinates one step
            // outside the populated range; saturating keeps them empty.
            let coord = (cx.saturating_add(dx), cy.saturating_add(dy));
            *slot = self.cell_at(coord);
        }
        out
    }

    /// Sum of `|S(c)|` over the 3×3 block around `p` — the loose
    /// upper bound `µ(r)` of KDS-rejection (Section III-B), `O(1)`.
    pub fn neighborhood_population(&self, p: Point) -> usize {
        self.neighborhood(p).iter().flatten().map(|c| c.len()).sum()
    }

    /// Exact number of indexed points inside the closed rectangle `w`.
    ///
    /// Visits every cell overlapping `w`; fully-covered cells contribute
    /// `|S(c)|` in `O(1)`, boundary cells contribute an x-binary-search
    /// plus a scan of the x-run. Used as ground truth (`|S(w(r))|`, and
    /// `|J| = Σ_r |S(w(r))|`).
    pub fn exact_window_count(&self, w: &Rect) -> usize {
        let (lo_cx, lo_cy) = coord_of_raw(Point::new(w.min_x, w.min_y), self.cell_side);
        let (hi_cx, hi_cy) = coord_of_raw(Point::new(w.max_x, w.max_y), self.cell_side);
        let span = (hi_cx as i64 - lo_cx as i64 + 1) * (hi_cy as i64 - lo_cy as i64 + 1);
        if span > self.cells.len() as i64 {
            // Wide window: iterating the non-empty cells is cheaper.
            return self
                .cells
                .iter()
                .map(|c| self.count_cell_in_window(c, w))
                .sum();
        }
        let mut total = 0usize;
        for cx in lo_cx..=hi_cx {
            for cy in lo_cy..=hi_cy {
                if let Some(c) = self.cell_at((cx, cy)) {
                    total += self.count_cell_in_window(c, w);
                }
            }
        }
        total
    }

    #[inline]
    fn count_cell_in_window(&self, c: &Cell, w: &Rect) -> usize {
        if w.contains_rect(&c.rect) {
            c.len()
        } else {
            c.count_in_rect(self.set.points(), w)
        }
    }

    /// Approximate heap footprint in bytes (Fig. 4 experiment),
    /// [`PointSet::memory_bytes`] of the set it stands on included. Grids
    /// of several cell sides on one set each report that share; whoever
    /// adds grids up counts it once per [`Grid::point_set`].
    pub fn memory_bytes(&self) -> usize {
        let map_entry = std::mem::size_of::<((i32, i32), u32)>();
        self.set.memory_bytes()
            + fx::table_bytes(self.lookup.capacity(), map_entry)
            + self.cells.capacity() * std::mem::size_of::<Arc<Cell>>()
            + self
                .cells
                .iter()
                .map(|c| fx::arc_bytes::<Cell>() + c.memory_bytes())
                .sum::<usize>()
    }
}

#[inline]
fn coord_of_raw(p: Point, cell_side: f64) -> (i32, i32) {
    let (qx, qy) = (p.x / cell_side, p.y / cell_side);
    // `floor(q)` lies in `i32` iff `q` does in `[i32::MIN, i32::MAX + 1)`.
    let fits = |q: f64| q >= i32::MIN as f64 && q < i32::MAX as f64 + 1.0;
    debug_assert!(fits(qx), "cell x coordinate overflow");
    debug_assert!(fits(qy), "cell y coordinate overflow");
    (floor_i32(qx), floor_i32(qy))
}

/// `q.floor() as i32`, without the `floor` call (a libm call on
/// baseline x86-64): the saturating truncation, less one where it
/// rounded up — below zero, truncation is a ceiling. Equal to
/// `q.floor() as i32` for every `f64`: NaN gives 0, and values beyond
/// `i32` saturate.
#[inline]
fn floor_i32(q: f64) -> i32 {
    let t = q as i32;
    t.saturating_sub(((t as f64) > q) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize, seed: u64) -> Vec<Point> {
        // Deterministic pseudo-random points without pulling in rand here.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect()
    }

    /// `floor_i32` is `floor() as i32` on every `f64`: the edge values,
    /// `±2³¹ ± ½`, random bit patterns, and the decimal lattices of the
    /// rounding probes (`tests/rounding_probes.rs`), computed and parsed,
    /// over the window sizes that put them on cell boundaries.
    #[test]
    fn integer_floor_is_floor_as_i32() {
        let check = |q: f64| {
            assert_eq!(floor_i32(q), q.floor() as i32, "{q:e} = {:#x}", q.to_bits());
        };
        let two31 = 2f64.powi(31);
        let below_one = 1.0 - f64::EPSILON / 2.0;
        for q in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            below_one,
            -below_one,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            two31,
            -two31,
            two31 - 1.0,
            -two31 - 1.0,
            two31 + 0.5,
            two31 - 0.5,
            -two31 + 0.5,
            -two31 - 0.5,
            two31 - 1.5,
            -two31 + 1.5,
            2f64.powi(52) + 1.0,
            -(2f64.powi(52) + 1.0),
        ] {
            check(q);
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            check(f64::from_bits(state));
        }
        let parsed = |k: i32| -> f64 {
            let sign = if k < 0 { "-" } else { "" };
            let k = k.unsigned_abs();
            format!("{sign}{}.{}", k / 10, k % 10).parse().unwrap()
        };
        for l in [0.1, 0.3, 7.0, 1e-3, 50.0] {
            for k in -600..600 {
                for x in [k as f64 * 0.1, parsed(k)] {
                    for q in [x / l, (x - l) / l, (x + l) / l] {
                        check(q);
                    }
                }
            }
        }
    }

    #[test]
    fn every_point_in_exactly_one_cell() {
        let pts = cluster(500, 3);
        let g = Grid::build(&pts, 7.0);
        let mut seen = vec![0u32; pts.len()];
        for c in g.cells() {
            assert!(!c.is_empty(), "empty cell materialised");
            assert!(c.members().windows(2).all(|w| w[0] < w[1]));
            for &id in c.members() {
                seen[id as usize] += 1;
                assert_eq!(g.coord_of(pts[id as usize]), c.coord);
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
        assert_eq!(g.cells().iter().map(|c| c.len()).sum::<usize>(), pts.len());
    }

    #[test]
    fn cell_arrays_are_sorted() {
        let pts = cluster(300, 11);
        let g = Grid::build(&pts, 10.0);
        assert!(g.cells().iter().all(|c| !c.has_views()));
        g.sort_views(3);
        for c in g.cells() {
            assert!(c.has_views());
            assert!(c
                .by_x(&pts)
                .windows(2)
                .all(|w| pts[w[0] as usize].x <= pts[w[1] as usize].x));
            assert!(c
                .by_y(&pts)
                .windows(2)
                .all(|w| pts[w[0] as usize].y <= pts[w[1] as usize].y));
        }
    }

    #[test]
    fn point_on_cell_boundary_goes_to_upper_cell() {
        let pts = vec![Point::new(10.0, 10.0), Point::new(9.999, 9.999)];
        let g = Grid::build(&pts, 10.0);
        assert_eq!(g.coord_of(pts[0]), (1, 1));
        assert_eq!(g.coord_of(pts[1]), (0, 0));
        assert_eq!(g.num_cells(), 2);
    }

    #[test]
    fn negative_coordinates() {
        let pts = vec![Point::new(-0.5, -0.5), Point::new(0.5, 0.5)];
        let g = Grid::build(&pts, 1.0);
        assert_eq!(g.coord_of(pts[0]), (-1, -1));
        assert_eq!(g.coord_of(pts[1]), (0, 0));
        assert!(g.cell_at((-1, -1)).is_some());
    }

    #[test]
    fn neighborhood_layout_and_population() {
        // one point per cell of a 3x3 block centred at cell (1,1)
        let mut pts = Vec::new();
        for cx in 0..3 {
            for cy in 0..3 {
                pts.push(Point::new(cx as f64 + 0.5, cy as f64 + 0.5));
            }
        }
        let g = Grid::build(&pts, 1.0);
        let center = Point::new(1.5, 1.5);
        let hood = g.neighborhood(center);
        assert!(hood.iter().all(|c| c.is_some()));
        assert_eq!(g.neighborhood_population(center), 9);
        // at the corner of the populated block only 4 cells exist
        let corner = Point::new(0.5, 0.5);
        assert_eq!(g.neighborhood(corner).iter().flatten().count(), 4);
        assert_eq!(g.neighborhood_population(corner), 4);
    }

    #[test]
    fn exact_window_count_matches_brute_force() {
        let pts = cluster(800, 17);
        let g = Grid::build(&pts, 9.0);
        let windows = [
            Rect::new(0.0, 0.0, 100.0, 100.0),
            Rect::new(13.0, 22.0, 31.0, 40.0),
            Rect::new(50.0, 50.0, 50.0, 50.0),
            Rect::new(-20.0, -20.0, -1.0, -1.0),
            Rect::new(95.0, 0.0, 200.0, 200.0),
        ];
        for w in &windows {
            let brute = pts.iter().filter(|p| w.contains(**p)).count();
            assert_eq!(g.exact_window_count(w), brute, "window {w:?}");
        }
    }

    #[test]
    fn wide_window_path_matches_narrow_path() {
        // tiny cell side forces the "span > num_cells" fallback
        let pts = cluster(100, 23);
        let g = Grid::build(&pts, 0.01);
        let w = Rect::new(0.0, 0.0, 100.0, 100.0);
        let brute = pts.iter().filter(|p| w.contains(**p)).count();
        assert_eq!(g.exact_window_count(&w), brute);
    }

    #[test]
    #[should_panic(expected = "cell_side must be positive")]
    fn zero_cell_side_panics() {
        Grid::build(&[], 0.0);
    }

    #[test]
    fn empty_grid() {
        let g = Grid::build(&[], 5.0);
        assert_eq!(g.num_cells(), 0);
        assert_eq!(g.num_points(), 0);
        assert_eq!(g.exact_window_count(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0);
        assert_eq!(g.neighborhood_population(Point::new(0.0, 0.0)), 0);
    }

    #[test]
    fn memory_accounting_scales() {
        let small = Grid::build(&cluster(100, 1), 10.0);
        let large = Grid::build(&cluster(10_000, 1), 10.0);
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn neighborhood_slots_agree_with_neighborhood() {
        let pts = cluster(400, 31);
        let g = Grid::build(&pts, 12.0);
        for probe in [Point::new(50.0, 50.0), Point::new(3.0, 97.0), pts[7]] {
            let cells = g.neighborhood(probe);
            let slots = g.neighborhood_slots(probe);
            for (c, s) in cells.iter().zip(slots.iter()) {
                match (c, s) {
                    (Some(cell), Some(slot)) => assert_eq!(cell.coord, g.cell(*slot).coord),
                    (None, None) => {}
                    _ => panic!("neighborhood and slots disagree"),
                }
            }
        }
    }

    #[test]
    fn neighbor_slot_is_one_entry_of_neighborhood_slots() {
        let pts = cluster(400, 31);
        let g = Grid::build(&pts, 12.0);
        // Probes inside, at the populated edge, and outside the data.
        for probe in [
            Point::new(50.0, 50.0),
            Point::new(3.0, 97.0),
            Point::new(-30.0, 140.0),
            pts[7],
        ] {
            let all = g.neighborhood_slots(probe);
            for (i, &slot) in all.iter().enumerate() {
                assert_eq!(g.neighbor_slot(probe, i), slot, "{probe:?} neighbour {i}");
            }
        }
    }

    #[test]
    fn patch_rebuilds_only_dirty_cells_and_shares_the_rest() {
        let pts = cluster(600, 41);
        let g = Grid::build(&pts, 10.0);
        // One insert and one delete, far apart.
        let ins = vec![Point::new(5.0, 5.0)];
        let del_id = pts.iter().position(|p| p.x > 80.0 && p.y > 80.0).unwrap() as PointId;
        let deleted: HashSet<PointId> = [del_id].into_iter().collect();
        let (p, rep) = g.patch(&ins, &deleted);

        // Ids: stable base ids, appended insert id.
        assert_eq!(p.num_points(), 601);
        assert_eq!(p.point(600), ins[0]);
        assert_eq!(p.live_points(), 600); // +1 insert, −1 delete
        assert_eq!(rep.shared_from.len(), p.num_cells());
        // rebuilt counts vanished cells too, so shared + rebuilt covers
        // at least every surviving cell.
        assert!(rep.cells_shared + rep.cells_rebuilt >= p.num_cells());

        // Exactly the two touched coordinates were rebuilt.
        let dirty_a = g.coord_of(ins[0]);
        let dirty_b = g.coord_of(pts[del_id as usize]);
        for (slot, from) in rep.shared_from.iter().enumerate() {
            let cell = p.cell(slot as u32);
            if cell.coord == dirty_a || cell.coord == dirty_b {
                assert!(from.is_none(), "dirty cell {:?} was shared", cell.coord);
            } else {
                let old_slot = from.expect("clean cell not shared");
                assert!(
                    Arc::ptr_eq(p.cell_arc(slot as u32), g.cell_arc(old_slot)),
                    "clean cell {:?} not Arc-shared",
                    cell.coord
                );
            }
        }
        assert!(rep.cells_rebuilt <= 2);
        assert!(rep.cells_shared >= g.num_cells() - 2);

        // Deleted id is out of every cell; membership is otherwise intact.
        for c in p.cells() {
            assert!(!c.members().contains(&del_id));
            assert!(c
                .by_x(p.points())
                .windows(2)
                .all(|w| p.points()[w[0] as usize].x <= p.points()[w[1] as usize].x));
        }
        // Window counts agree with a brute force over the live set.
        let w = Rect::new(20.0, 20.0, 70.0, 90.0);
        let live = (0..601u32)
            .filter(|&id| id != del_id)
            .filter(|&id| w.contains(p.point(id)))
            .count();
        assert_eq!(p.exact_window_count(&w), live);
    }

    #[test]
    fn dirty_cells_match_what_a_patch_would_touch() {
        let g = Grid::build(&[Point::new(5.0, 5.0), Point::new(25.0, 25.0)], 10.0);
        // Insert into an empty coordinate, delete a base point, and
        // insert-then-delete into a third coordinate (which a patch
        // never materialises and must NOT count as dirty).
        let inserted = [Point::new(45.0, 45.0), Point::new(95.0, 95.0)]; // ids 2, 3
        let deleted: HashSet<PointId> = [0, 3].into();
        let dirty = g.dirty_cells(&inserted, &deleted);
        assert!(dirty.contains(&(4, 4)), "live insert's cell is dirty");
        assert!(dirty.contains(&(0, 0)), "base delete's cell is dirty");
        assert!(
            !dirty.contains(&(9, 9)),
            "insert-then-delete must not dirty its would-be cell"
        );
        assert_eq!(dirty.len(), 2);
        // Any set of ids will do.
        let fx: crate::fx::FxHashSet<PointId> = deleted.iter().copied().collect();
        assert_eq!(g.dirty_cells(&inserted, &fx), dirty);
        let (_, rep) = g.patch(&inserted, &deleted);
        assert_eq!(rep.cells_rebuilt, dirty.len());
    }

    #[test]
    fn patch_drops_emptied_cells_and_creates_fresh_ones() {
        let pts = vec![Point::new(1.0, 1.0), Point::new(55.0, 55.0)];
        let g = Grid::build(&pts, 10.0);
        assert_eq!(g.num_cells(), 2);
        // Delete the only member of cell (0,0); insert into empty (9,9).
        let deleted: HashSet<PointId> = [0u32].into_iter().collect();
        let (p, rep) = g.patch(&[Point::new(95.0, 95.0)], &deleted);
        assert_eq!(p.num_cells(), 2);
        assert!(p.cell_at((0, 0)).is_none(), "emptied cell survived");
        assert!(p.cell_at((9, 9)).is_some(), "fresh cell missing");
        assert!(Arc::ptr_eq(
            p.cell_arc(p.cell_slot_at((5, 5)).unwrap()),
            g.cell_arc(g.cell_slot_at((5, 5)).unwrap())
        ));
        assert_eq!(rep.cells_shared, 1);
        // Both the emptied and the fresh cell count as rebuilt work.
        assert_eq!(rep.cells_rebuilt, 2);
        // Insert-then-delete within one patch never materialises (the
        // new point's id is p.num_points() == 3).
        let deleted: HashSet<PointId> = [3u32].into_iter().collect();
        let (q, _) = p.patch(&[Point::new(15.0, 15.0)], &deleted);
        assert!(q.cell_at((1, 1)).is_none());
    }
}
