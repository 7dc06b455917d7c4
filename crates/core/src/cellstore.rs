//! Cell-granular, patchable `S`-side structures.
//!
//! Every index in this crate bottoms out in per-cell structures over
//! `S`: the grid's member lists, the per-cell BBST pairs (§IV), or
//! per-cell kd-trees (the KDS family; a cell no larger than a kd leaf
//! keeps no tree and is scanned). A [`CellStore`] holds them as an
//! immutable, `Arc`-shared collection — one [`Grid`] plus one unit per
//! non-empty cell — and supports [`CellStore::patch_onto`]: given the
//! store's set with the points inserted since appended, and the ids
//! deleted since, produce a **new** store that rebuilds only the cells
//! those mutations touch and carries every clean cell (and its unit)
//! over by `Arc` clone.
//!
//! Patching never renumbers ids: inserted points are appended to the
//! point array, deleted points stay resolvable but leave their cells
//! (they become *dead* ids — indexed by no cell, invisible to every
//! count and draw). That id stability is what makes structural sharing
//! sound: a clean cell's sorted id lists mean exactly the same thing in
//! the patched store. The epoch machinery in `srj-engine` uses this to
//! turn a major epoch swap from `O(|S|)` S-side work into `O(dirty
//! cells)`.

use std::collections::HashSet;
use std::sync::Arc;

use rand::Rng;
use srj_bbst::CellBbsts;
use srj_geom::{Point, PointId, Rect};
use srj_grid::fx::arc_bytes;
use srj_grid::{Cell, Grid, IntoPointSet, PointSet};
use srj_kdtree::{CanonicalScratch, KdTree, DEFAULT_LEAF_SIZE};

use crate::cursor::IndexBytes;
use crate::parallel::{effective_threads, par_map};

/// A per-cell payload a [`CellStore`] can carry: built from one cell's
/// member list, never mutated afterwards.
pub trait CellUnit: Send + Sync + Sized + 'static {
    /// Build parameters shared by every cell of a store (e.g. the BBST
    /// bucket capacity). Fixed when the store is first built; a patch
    /// reuses the original context so rebuilt and shared cells stay
    /// consistent.
    type Ctx: Clone + Send + Sync;

    /// Builds the unit for `cell` (member ids index into `points`).
    fn build_unit(points: &[Point], cell: &Cell, ctx: &Self::Ctx) -> Self;

    /// Approximate heap footprint of this unit, in bytes.
    fn unit_memory_bytes(&self) -> usize;
}

impl CellUnit for CellBbsts {
    type Ctx = BbstCellCtx;

    fn build_unit(points: &[Point], cell: &Cell, ctx: &BbstCellCtx) -> Self {
        if ctx.cascading {
            CellBbsts::build_cascading(points, cell.by_x(points), ctx.cap)
        } else {
            CellBbsts::build(points, cell.by_x(points), ctx.cap)
        }
    }

    fn unit_memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// Build context for per-cell BBST pairs: the bucket capacity
/// `⌈log₂ m⌉` and the fractional-cascading switch.
#[derive(Clone, Copy, Debug)]
pub struct BbstCellCtx {
    /// Bucket capacity used for the virtual mass (Section IV-D).
    pub cap: u32,
    /// Whether the trees carry fractional-cascading bridges.
    pub cascading: bool,
}

/// The KDS family's per-cell unit: a kd-tree over the cell's members, or
/// nothing for a cell of at most [`DEFAULT_LEAF_SIZE`] members. Such a
/// cell's tree would be one leaf — a scan behind four allocations — so
/// [`KdCellStore`] scans the cell's `by_x` against the grid's point array
/// instead, and the unit is 8 bytes in its `Arc`. (Every cell keeps its
/// own `Arc` either way: that pointer is the cell's sharing token, so a
/// rebuilt cell must not share one with its predecessor.)
pub type KdCellUnit = Option<Box<KdTree>>;

impl CellUnit for KdCellUnit {
    type Ctx = ();

    /// The tree's point ids are **local** (positions in the cell's
    /// `by_x`), so callers map a local id through `by_x` back to the
    /// global id.
    fn build_unit(points: &[Point], cell: &Cell, _ctx: &()) -> Self {
        (cell.len() > DEFAULT_LEAF_SIZE).then(|| {
            let by_x = cell.by_x(points);
            let pts: Vec<Point> = by_x.iter().map(|&id| points[id as usize]).collect();
            Box::new(KdTree::build(&pts))
        })
    }

    fn unit_memory_bytes(&self) -> usize {
        self.as_ref().map_or(0, |tree| {
            std::mem::size_of::<KdTree>() + tree.memory_bytes()
        })
    }
}

/// What a [`CellStore::patch_onto`] did, surfaced all the way to the serving
/// stats (`cells-patched` counters).
#[derive(Clone, Copy, Debug, Default)]
pub struct PatchReport {
    /// Cells in the patched store.
    pub cells_total: usize,
    /// Cells rebuilt (dirty; includes cells that vanished because every
    /// member was deleted) — the work the patch paid for.
    pub cells_rebuilt: usize,
    /// Cells carried over by `Arc` clone, structurally shared with the
    /// pre-patch store.
    pub cells_shared: usize,
}

/// An immutable, `Arc`-shared collection of per-cell structures over
/// `S`: the grid plus one [`CellUnit`] per non-empty cell, patchable at
/// cell granularity. See the module docs.
pub struct CellStore<U: CellUnit> {
    grid: Arc<Grid>,
    units: Vec<Arc<U>>,
    ctx: U::Ctx,
}

impl<U: CellUnit> CellStore<U> {
    /// Builds every cell unit over `grid`, which the store holds, not
    /// copies: an engine's one grid of `S` (units on `threads` builder
    /// threads; bit-identical to serial).
    pub fn from_grid(grid: Arc<Grid>, ctx: U::Ctx, threads: usize) -> Self {
        let (units, _par) = par_map(grid.cells(), threads, |_, c| {
            Arc::new(U::build_unit(grid.points(), c, &ctx))
        });
        CellStore { grid, units, ctx }
    }

    /// The grid underneath (cells, coordinates, point array).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The `Arc` holding the grid — the coarse sharing token.
    pub fn grid_arc(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.units.len()
    }

    /// The unit for the cell at `slot`.
    pub fn unit(&self, slot: u32) -> &U {
        &self.units[slot as usize]
    }

    /// The `Arc` holding the unit at `slot` — `Arc::ptr_eq` across two
    /// stores proves the cell's structure was shared, not rebuilt.
    pub fn unit_arc(&self, slot: u32) -> &Arc<U> {
        &self.units[slot as usize]
    }

    /// The build context the store was created with.
    pub fn ctx(&self) -> &U::Ctx {
        &self.ctx
    }

    /// Per-cell sharing tokens for diagnostics and tests: the cell's
    /// coordinate paired with its unit's `Arc` pointer.
    pub fn cell_tokens(&self) -> Vec<((i32, i32), usize)> {
        self.grid
            .cells()
            .iter()
            .zip(&self.units)
            .map(|(c, u)| (c.coord, Arc::as_ptr(u) as usize))
            .collect()
    }

    /// Rebuilds only the cells touched by the points `set` appends to
    /// the grid's set and by `deleted`, standing on `set`
    /// ([`Grid::patch_onto`]) and `Arc`-sharing every clean cell's grid
    /// entry **and** unit with this store. Ids are stable: inserted
    /// points get `grid.num_points()..`, deleted ids become dead
    /// (resolvable, but indexed by no cell). The original
    /// [`CellStore::ctx`] is reused.
    pub fn patch_onto(
        &self,
        set: Arc<PointSet>,
        deleted: &HashSet<PointId>,
    ) -> (Self, PatchReport) {
        let (grid, gp) = self.grid.patch_onto(set, deleted);
        let grid = Arc::new(grid);
        let units: Vec<Arc<U>> = gp
            .shared_from
            .iter()
            .enumerate()
            .map(|(slot, from)| match from {
                Some(old) => Arc::clone(&self.units[*old as usize]),
                None => Arc::new(U::build_unit(
                    grid.points(),
                    grid.cell(slot as u32),
                    &self.ctx,
                )),
            })
            .collect();
        let report = PatchReport {
            cells_total: units.len(),
            cells_rebuilt: gp.cells_rebuilt,
            cells_shared: gp.cells_shared,
        };
        (
            CellStore {
                grid,
                units,
                ctx: self.ctx.clone(),
            },
            report,
        )
    }

    /// Approximate heap footprint: grid plus every unit (shared units
    /// are charged here; an aggregator dedups via the store's token).
    pub fn memory_bytes(&self) -> usize {
        self.index_bytes().total()
    }

    /// [`CellStore::memory_bytes`] by structure: the point set, the
    /// grid over it, the units — each in its `Arc` — and their list. The
    /// `R`-side entries are zero.
    pub fn index_bytes(&self) -> IndexBytes {
        let units = self
            .units
            .iter()
            .map(|u| arc_bytes::<U>() + u.unit_memory_bytes());
        IndexBytes {
            units: self.units.capacity() * std::mem::size_of::<Arc<U>>() + units.sum::<usize>(),
            ..IndexBytes::of_grid(&self.grid)
        }
    }
}

/// The KDS family's `S`-side: per-cell kd-trees behind a [`CellStore`],
/// answering exact counts and ranked draws per cell
/// ([`KdCellStore::count_in_cell`], [`KdCellStore::nth_in_cell`]) and per
/// window ([`KdCellStore::count_window`],
/// [`KdCellStore::sample_in_window`]).
///
/// A window of half-extent = the grid's cell side overlaps at most the
/// 3×3 block around it, so a count visits ≤ 9 cells — fully covered
/// cells in `O(1)`, boundary cells through their kd-tree in `O(√|c|)`, or
/// by a scan when the cell is no larger than a leaf — preserving the
/// §III-A `O(√m)` query bound while making the structure patchable cell
/// by cell.
pub struct KdCellStore {
    store: CellStore<KdCellUnit>,
}

impl KdCellStore {
    /// Builds the grid (cell side = the window half-extent `l`; on a
    /// copy of a slice, or sharing an `Arc<PointSet>`) and the per-cell
    /// kd-trees.
    pub fn build(s: impl IntoPointSet, cell_side: f64, threads: usize) -> Self {
        Self::from_grid(Arc::new(Grid::build(s, cell_side)), threads)
    }

    /// Sorts the views of every cell of an already-built grid, which
    /// the store holds, not copies ([`Grid::sort_views`]), and builds
    /// the per-cell kd-trees over them.
    pub fn from_grid(grid: Arc<Grid>, threads: usize) -> Self {
        grid.sort_views(effective_threads(threads));
        KdCellStore {
            store: CellStore::from_grid(grid, (), threads),
        }
    }

    /// The cell store underneath.
    pub fn store(&self) -> &CellStore<KdCellUnit> {
        &self.store
    }

    /// The grid underneath.
    pub fn grid(&self) -> &Grid {
        self.store.grid()
    }

    /// Number of indexed (live) points.
    pub fn live_points(&self) -> usize {
        self.store.grid().live_points()
    }

    /// Cell-granular patch onto `set`; see [`CellStore::patch_onto`].
    pub fn patch_onto(
        &self,
        set: Arc<PointSet>,
        deleted: &HashSet<PointId>,
    ) -> (Self, PatchReport) {
        let (store, report) = self.store.patch_onto(set, deleted);
        (KdCellStore { store }, report)
    }

    /// Identity token of the shared allocation (the grid `Arc`).
    pub fn token(&self) -> usize {
        Arc::as_ptr(self.store.grid_arc()) as usize
    }

    /// Walks every cell slot overlapping `w` (≤ 9 for the window sizes
    /// the samplers use; falls back to scanning the non-empty cells for
    /// degenerate wide windows).
    fn for_each_covering_slot(&self, w: &Rect, mut f: impl FnMut(u32)) {
        let grid = self.store.grid();
        let (lo_cx, lo_cy) = grid.coord_of(Point::new(w.min_x, w.min_y));
        let (hi_cx, hi_cy) = grid.coord_of(Point::new(w.max_x, w.max_y));
        let span = (hi_cx as i64 - lo_cx as i64 + 1) * (hi_cy as i64 - lo_cy as i64 + 1);
        if span > grid.num_cells() as i64 {
            for slot in 0..grid.num_cells() as u32 {
                if w.intersects(&grid.cell(slot).rect) {
                    f(slot);
                }
            }
            return;
        }
        for cx in lo_cx..=hi_cx {
            for cy in lo_cy..=hi_cy {
                if let Some(slot) = grid.cell_slot_at((cx, cy)) {
                    f(slot);
                }
            }
        }
    }

    /// The kd-tree of a cell above the leaf size.
    fn tree(&self, slot: u32) -> &KdTree {
        self.store
            .unit(slot)
            .as_deref()
            .expect("a cell above the leaf size has a tree")
    }

    /// The members of a cell no larger than a leaf inside `w`, in `by_x`
    /// order: the scan that stands in for its tree.
    fn scan<'a>(&'a self, cell: &'a Cell, w: &'a Rect) -> impl Iterator<Item = PointId> + 'a {
        let grid = self.store.grid();
        let inside = move |id: &PointId| w.contains(grid.point(*id));
        cell.by_x(grid.points()).iter().copied().filter(inside)
    }

    /// Exact count of the members of the cell at `slot` inside the
    /// closed rectangle `w` (which may be open to `±∞`): the cell's
    /// kd-tree, or a scan of a cell no larger than a leaf.
    pub fn count_in_cell(&self, slot: u32, w: &Rect) -> usize {
        let cell = self.store.grid().cell(slot);
        if cell.len() <= DEFAULT_LEAF_SIZE {
            self.scan(cell, w).count()
        } else {
            self.tree(slot).range_count(w)
        }
    }

    /// The **global** id at position `rank` among the members of the cell
    /// at `slot` inside `w`, in a fixed order (see
    /// [`KdTree::nth_in_range`]); `None` iff `rank` is not below
    /// [`KdCellStore::count_in_cell`]. A uniform rank gives a uniform
    /// member.
    pub fn nth_in_cell(&self, slot: u32, w: &Rect, rank: usize) -> Option<PointId> {
        let cell = self.store.grid().cell(slot);
        if cell.len() <= DEFAULT_LEAF_SIZE {
            self.scan(cell, w).nth(rank)
        } else {
            let local = self.tree(slot).nth_in_range(w, rank)?;
            Some(cell.by_x(self.store.grid().points())[local as usize])
        }
    }

    /// [`KdCellStore::count_in_cell`] behind the fully-covered shortcut.
    fn count_cell(&self, slot: u32, w: &Rect) -> usize {
        let cell = self.store.grid().cell(slot);
        if w.contains_rect(&cell.rect) {
            cell.len()
        } else {
            self.count_in_cell(slot, w)
        }
    }

    /// Exact `|S ∩ w|` over the live points.
    pub fn count_window(&self, w: &Rect) -> usize {
        let mut total = 0usize;
        self.for_each_covering_slot(w, |slot| total += self.count_cell(slot, w));
        total
    }

    /// One uniform, independent draw from `S ∩ w` with the exact count
    /// `|S ∩ w|` taken on the way — the per-draw count is what
    /// KDS-rejection's acceptance test needs, and this is that family's
    /// hottest loop. ([`crate::KdsIndex`] stored its counts at build time
    /// and calls this only for an `r` on its stray list.) Returns the
    /// **global** point id and the count, or `None` when the window is
    /// empty.
    ///
    /// One word: a uniform rank below the count picks the covering cell
    /// *and* the position inside it ([`KdCellStore::nth_in_cell`]). The
    /// per-cell counts are gathered once into a stack buffer (≤ 9 cells
    /// for the window sizes the samplers use), so no cell is counted
    /// twice; degenerate wide windows (> 9 covering cells) fall back to a
    /// re-walk.
    pub fn sample_in_window<R: Rng + ?Sized>(
        &self,
        w: &Rect,
        rng: &mut R,
        _scratch: &mut CanonicalScratch,
    ) -> Option<(PointId, usize)> {
        let mut counts: [(u32, usize); 9] = [(0, 0); 9];
        let mut filled = 0usize;
        let mut overflow = false;
        let mut total = 0usize;
        self.for_each_covering_slot(w, |slot| {
            let count = self.count_cell(slot, w);
            if count == 0 {
                return;
            }
            total += count;
            if filled < counts.len() {
                counts[filled] = (slot, count);
                filled += 1;
            } else {
                overflow = true;
            }
        });
        if total == 0 {
            return None;
        }
        let mut rank = rng.gen_range(0..total as u64) as usize;
        // `in_cell_rank` is uniform below the cell's count.
        let draw = |slot: u32, in_cell_rank: usize| {
            self.nth_in_cell(slot, w, in_cell_rank)
                .expect("rank below the cell's count")
        };
        if !overflow {
            for &(slot, count) in &counts[..filled] {
                if rank < count {
                    return Some((draw(slot, rank), total));
                }
                rank -= count;
            }
            unreachable!("rank exceeded the window count");
        }
        // Wide-window fallback: re-walk the covering cells to locate
        // the ranked one.
        let mut picked: Option<PointId> = None;
        self.for_each_covering_slot(w, |slot| {
            if picked.is_some() {
                return;
            }
            let count = self.count_cell(slot, w);
            if rank < count {
                picked = Some(draw(slot, rank));
            } else {
                rank -= count;
            }
        });
        Some((picked.expect("rank exceeded the window count"), total))
    }

    /// Approximate heap footprint (grid + per-cell trees).
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

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
    fn kd_cell_store_counts_match_brute_force() {
        let s = pseudo_points(500, 3, 80.0);
        let store = KdCellStore::build(&s, 7.0, 1);
        assert_eq!(store.live_points(), 500);
        for &(cx, cy, half) in &[(20.0, 20.0, 7.0), (5.0, 70.0, 7.0), (40.0, 40.0, 3.0)] {
            let w = Rect::window(Point::new(cx, cy), half);
            let brute = s.iter().filter(|p| w.contains(**p)).count();
            assert_eq!(store.count_window(&w), brute, "window {w:?}");
        }
        // Degenerate wide window exercises the fallback path.
        let wide = Rect::new(-10.0, -10.0, 200.0, 200.0);
        assert_eq!(store.count_window(&wide), 500);
    }

    #[test]
    fn kd_cell_store_samples_are_uniform_in_window() {
        let s = pseudo_points(120, 11, 30.0);
        let store = KdCellStore::build(&s, 6.0, 1);
        let w = Rect::window(Point::new(15.0, 15.0), 6.0);
        let qualifying: Vec<u32> = (0..s.len() as u32)
            .filter(|&i| w.contains(s[i as usize]))
            .collect();
        assert!(qualifying.len() > 5, "test window too sparse");
        let mut rng = SmallRng::seed_from_u64(7);
        let mut scratch = CanonicalScratch::new();
        let mut freq: HashMap<u32, u64> = HashMap::new();
        let draws = 40_000;
        for _ in 0..draws {
            let (id, count) = store.sample_in_window(&w, &mut rng, &mut scratch).unwrap();
            assert_eq!(count, qualifying.len());
            assert!(w.contains(s[id as usize]));
            *freq.entry(id).or_default() += 1;
        }
        assert_eq!(freq.len(), qualifying.len(), "some point never sampled");
        let expected = draws as f64 / qualifying.len() as f64;
        for (&id, &c) in &freq {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.15, "point {id}: expected {expected:.1}, got {c}");
        }
    }

    #[test]
    fn patch_shares_clean_units_and_stays_exact() {
        let s = pseudo_points(400, 21, 60.0);
        let store = KdCellStore::build(&s, 6.0, 1);
        let inserted = vec![Point::new(3.0, 3.0), Point::new(3.5, 3.2)];
        let deleted: HashSet<PointId> = [7u32, 200].into_iter().collect();
        let set = Arc::new(store.grid().point_set().extended(&inserted));
        let (patched, rep) = store.patch_onto(set, &deleted);

        assert_eq!(rep.cells_total, patched.store().num_cells());
        assert!(rep.cells_rebuilt >= 1 && rep.cells_rebuilt <= 4);
        assert!(rep.cells_shared > 0);
        // Clean cells share the unit Arc; dirty cells do not.
        let before: HashMap<(i32, i32), usize> = store.store().cell_tokens().into_iter().collect();
        let mut shared = 0;
        for (coord, token) in patched.store().cell_tokens() {
            if before.get(&coord) == Some(&token) {
                shared += 1;
            }
        }
        assert_eq!(shared, rep.cells_shared);

        // Counts over the patched store match a brute force over the
        // live set (stable ids, dead ids invisible).
        let live: Vec<(u32, Point)> = (0..s.len() as u32)
            .filter(|id| !deleted.contains(id))
            .map(|id| (id, s[id as usize]))
            .chain(
                inserted
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| ((s.len() + i) as u32, p)),
            )
            .collect();
        assert_eq!(patched.live_points(), live.len());
        let w = Rect::window(Point::new(4.0, 4.0), 6.0);
        let brute = live.iter().filter(|(_, p)| w.contains(*p)).count();
        assert_eq!(patched.count_window(&w), brute);
        // Sampling never emits a dead id.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut scratch = CanonicalScratch::new();
        for _ in 0..2_000 {
            let (id, _) = patched
                .sample_in_window(&w, &mut rng, &mut scratch)
                .unwrap();
            assert!(!deleted.contains(&id));
        }
    }
}
