//! Delta overlay: uniform sampling over a **mutated** dataset between
//! full index rebuilds.
//!
//! Every index in this crate is build-once/immutable — the right call
//! for the paper's static workloads, but a dynamic dataset (point
//! inserts and deletes) would otherwise force a full rebuild per
//! mutation. The overlay answers correctly *between* rebuilds: pending
//! mutations live in a small [`DeltaSet`] (insert buffers + delete
//! tombstones) and an [`OverlayIndex`] composes the unchanged base
//! index with the deltas, preserving per-iteration uniformity.
//!
//! ## Sources, and who owns a pair
//!
//! Let the current (logical) dataset be `R' = (R ∖ R⁻) ∪ R⁺` and
//! `S' = (S ∖ S⁻) ∪ S⁺`. Inserts arrive in **swaps**: every refresh of
//! the overlay that finds new inserts appends, per side, one immutable
//! *chunk* covering that side's new tail of the insert buffer. The
//! sources of an overlay are the base index and its chunks, and every
//! pair of the join `J'` belongs to **exactly one** of them:
//!
//! * `(r, s)` with both endpoints in the base sets belongs to the
//!   **base** source.
//! * Every other pair belongs to the chunk of its **later-inserted
//!   endpoint**. The `R` tail of a swap sees the base `S` and every
//!   inserted `S` up to *and including* that swap's; the `S` tail sees
//!   the base `R` and the inserted `R` of *earlier* swaps only. For
//!   `(r⁺, s⁺)` inserted in swaps `a` and `b`: if `b ≤ a` the pair is in
//!   `r⁺`'s chunk and `s⁺`'s chunk never saw `r⁺`; if `b > a` it is the
//!   other way round. For `(r⁺, s)` or `(r, s⁺)` with a base partner the
//!   inserted endpoint is the only owner there can be.
//!
//! A chunk stores what it saw of the opposite side's inserts as a
//! **watermark** — a length of that insert buffer — and, per member
//! `p`, the row every base index keeps per `r` ([`BlockRow`]): candidate
//! counts over the nine cells of `p`'s 3×3 block in the **base** grid of
//! the opposite side, then, in the row's extra part, the number of
//! opposite inserts below the watermark in the same block (the *cross*
//! part). Cases 1 and 2 are the exact runs of Section IV-A, as for the
//! base index; a corner cell is bounded by its population and a cross
//! candidate by its cell, and both are tested against the window when
//! drawn. There is no `|R⁺|·|S⁺|` term anywhere: an inserted point only
//! ever ranks into its own block. The runs are always those of the
//! grid's cell side: where it exceeds `l` (an epoch whose group rows
//! stand on `l`'s ladder step), a run holds its side's window, which
//! holds `l`'s, and every candidate is tested against the window. An
//! exact run is a subset of its cell, so such a row never weighs more
//! than the block's nine cell populations would.
//!
//! One iteration of a chunk is two random words — a member
//! `∝ row total` from the chunk's alias, then a uniform position in the
//! member's row ([`BlockRow::pick_word`]: cell or cross part, and the
//! rank inside it, from one word) — one grid probe for the chosen cell,
//! the candidate at that rank, and the test. A pair the chunk owns is
//! one position of one row, so it comes out with probability
//! `(total / W_chunk) · (1 / total) = 1 / W_chunk`. A top-level alias
//! over `(W_base, W_chunk₁, …)` re-picks the source on **every**
//! iteration ([`SamplerIndex::try_draw`]'s composition rule), so per
//! iteration every pair of `J'` has probability `1/W`,
//! `W = W_base + Σ W_chunk`, and accepted samples are uniform over the
//! *current* join.
//!
//! ## The prefix argument
//!
//! Cross candidates come from one **append-only** grid per side: cell
//! coordinate → indices into that side's insert buffer, in insertion
//! order. A cell's list only ever grows at its tail, by indices larger
//! than all it holds, so what a chunk saw of a cell — the members below
//! its watermark — is a *prefix* of that cell's list in every later
//! version of the grid, the same members at the same ranks. One growing
//! grid therefore serves every chunk of an epoch: a row built at
//! watermark `w` resolves each cross rank to the same candidate forever
//! after, no chunk keeps a grid version of its own, and old rows never
//! need recomputing. (Property-tested below.)
//!
//! ## Tombstones
//!
//! A pair with a tombstoned endpoint — of **either** side, base or
//! inserted, tombstoned before or after the chunk that owns the pair
//! was built — is **rejected when drawn**. That filters the emitted set
//! down to the live join without touching any survivor's probability,
//! which stays `1/W` per iteration. Members already tombstoned when
//! their chunk is built get an all-zero row, so they are never picked.
//!
//! ## Blocks
//!
//! [`OverlayIndex`] overrides [`SamplerIndex::try_many`]: the sources
//! of a whole block come from the top-level alias first, the base's
//! share of the block runs through **one** `base.try_many` call (for a
//! BBST base that is its staged block kernel), its outcomes pass the
//! tombstone filter, the chunk iterations run inline, and everything
//! is woven back in iteration order. Iterations are independent — each
//! spends words no other one sees — so the outcomes are those of
//! sequential [`SamplerIndex::try_draw`]s and
//! [`SamplerIndex::draw_many`]'s exactness argument (a block never
//! holds more iterations than samples owed; outcomes are consumed in
//! order; the rejection valve counts across blocks) carries over
//! unchanged. As with BBST, the pairs a seed produces through an
//! overlay depend on the batch sizes too.
//!
//! ## Cost of a snapshot
//!
//! Everything a swap computes is immutable and `Arc`-shared with the
//! next snapshot: [`OverlaySupport::extended`] builds rows only for
//! the new tail of each insert buffer, copies only the insert-grid
//! cells the tail lands in, and an [`OverlayIndex`] is those `Arc`s
//! plus a top-level alias — `O(batch + #sources)`, not `O(|delta|)`.
//! The base grid of `S` is the epoch's own — the one its full build or
//! cell patch made ([`OverlaySupport::on_grid`]), dead ids already out
//! of every cell — and the grid of base `R` is built once per epoch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use srj_alias::{AliasTable, BlockRow};
use srj_geom::{Point, PointId, Rect};
use srj_grid::fx::{self, FxHashMap, FxHashSet};
use srj_grid::{case_of, CellCase, Grid, PointSet, NEIGHBOR_OFFSETS};

use crate::config::{JoinPair, PhaseReport, SampleConfig, SampleError};
use crate::cursor::{IndexBytes, SamplerIndex, BLOCK};
use crate::decompose::{case12_stored_run, sweep_rows};

/// Pending mutations against a base `(R, S)` snapshot: insert buffers
/// plus delete tombstones.
///
/// Point ids are stable within an epoch: base points keep their build
/// ids (`0..base_len`), inserted points get `base_len + i` in insertion
/// order. Deleting an inserted point tombstones it (its id is never
/// reused); a full rebuild compacts ids and resets the delta.
#[derive(Clone, Debug, Default)]
pub struct DeltaSet {
    /// `|R|` of the base snapshot the ids are relative to.
    pub base_r_len: usize,
    /// `|S|` of the base snapshot.
    pub base_s_len: usize,
    /// Inserted `R` points; id of `r_inserted[i]` is `base_r_len + i`.
    pub r_inserted: Vec<Point>,
    /// Inserted `S` points; id of `s_inserted[j]` is `base_s_len + j`.
    pub s_inserted: Vec<Point>,
    /// Tombstoned `R` ids (base or inserted). Fx-hashed: every draw
    /// through an overlay probes both tombstone sets, and the keys are
    /// dense ids the store checked against the dataset's size — a
    /// caller chooses which of them to tombstone, never their values.
    pub r_deleted: FxHashSet<PointId>,
    /// Tombstoned `S` ids (base or inserted).
    pub s_deleted: FxHashSet<PointId>,
}

impl DeltaSet {
    /// An empty delta against a base of the given sizes.
    pub fn for_base(base_r_len: usize, base_s_len: usize) -> Self {
        DeltaSet {
            base_r_len,
            base_s_len,
            ..DeltaSet::default()
        }
    }

    /// `true` iff no mutation is pending.
    pub fn is_empty(&self) -> bool {
        self.r_inserted.is_empty()
            && self.s_inserted.is_empty()
            && self.r_deleted.is_empty()
            && self.s_deleted.is_empty()
    }

    /// Total pending operations (inserts + tombstones; a deleted
    /// inserted point counts twice — it cost two operations).
    pub fn pending_ops(&self) -> usize {
        self.r_inserted.len() + self.s_inserted.len() + self.r_deleted.len() + self.s_deleted.len()
    }

    /// Live `|R'|` (base + inserted − tombstoned).
    pub fn live_r_len(&self) -> usize {
        self.base_r_len + self.r_inserted.len() - self.r_deleted.len()
    }

    /// Live `|S'|`.
    pub fn live_s_len(&self) -> usize {
        self.base_s_len + self.s_inserted.len() - self.s_deleted.len()
    }

    /// Whether `R` id `id` is currently live.
    pub fn is_r_live(&self, id: PointId) -> bool {
        (id as usize) < self.base_r_len + self.r_inserted.len() && !self.r_deleted.contains(&id)
    }

    /// Whether `S` id `id` is currently live.
    pub fn is_s_live(&self, id: PointId) -> bool {
        (id as usize) < self.base_s_len + self.s_inserted.len() && !self.s_deleted.contains(&id)
    }

    /// Resolves `R` id `id` against `base_r` (live or tombstoned).
    pub fn r_point(&self, base_r: &[Point], id: PointId) -> Option<Point> {
        let i = id as usize;
        if i < self.base_r_len {
            base_r.get(i).copied()
        } else {
            self.r_inserted.get(i - self.base_r_len).copied()
        }
    }

    /// Resolves `S` id `id` against `base_s`.
    pub fn s_point(&self, base_s: &[Point], id: PointId) -> Option<Point> {
        let j = id as usize;
        if j < self.base_s_len {
            base_s.get(j).copied()
        } else {
            self.s_inserted.get(j - self.base_s_len).copied()
        }
    }

    /// Approximate heap footprint of the buffers.
    pub fn memory_bytes(&self) -> usize {
        let set = |ids: &FxHashSet<PointId>| {
            fx::table_bytes(ids.capacity(), std::mem::size_of::<PointId>())
        };
        (self.r_inserted.capacity() + self.s_inserted.capacity()) * std::mem::size_of::<Point>()
            + set(&self.r_deleted)
            + set(&self.s_deleted)
    }

    /// Pending tombstones (deletes only, both sides). Tombstone-heavy
    /// deltas degrade the base source's acceptance rate *and* keep `Σµ`
    /// inflated, so the engine tracks them against a separate (lower)
    /// rebuild threshold than the total pending fraction.
    pub fn tombstone_ops(&self) -> usize {
        self.r_deleted.len() + self.s_deleted.len()
    }
}

/// One side's inserted points by grid cell, **append-only**: a cell's
/// list holds indices into that side's insert buffer in ascending
/// order and only ever grows at its tail. Growing copies the touched
/// cells (`Arc::make_mut`) and shares the rest, so an older snapshot
/// keeps reading the version it was built with.
#[derive(Clone, Default)]
struct InsertGrid {
    cells: FxHashMap<(i32, i32), Arc<Vec<u32>>>,
}

impl InsertGrid {
    /// Appends `points[from..]` (as indices `from..`), each to the cell
    /// `coord_of` maps it to.
    fn extend(&mut self, points: &[Point], from: usize, coord_of: impl Fn(Point) -> (i32, i32)) {
        for (j, &p) in points.iter().enumerate().skip(from) {
            Arc::make_mut(self.cells.entry(coord_of(p)).or_default()).push(j as u32);
        }
    }

    /// The members of the cell at `coord` below `watermark`: a prefix
    /// of the cell's list, the same one in every later version.
    #[inline]
    fn seen(&self, coord: (i32, i32), watermark: u32) -> &[u32] {
        let Some(ids) = self.cells.get(&coord) else {
            return &[];
        };
        // Mostly the whole list: only the cells that grew since the
        // asking chunk was built hold anything at or above its mark.
        let n = match ids.last() {
            Some(&last) if last >= watermark => ids.partition_point(|&j| j < watermark),
            _ => ids.len(),
        };
        &ids[..n]
    }

    /// How many members the 3×3 block around `center` holds below
    /// `watermark`: the cross part of a row.
    fn seen_in_block(&self, center: (i32, i32), watermark: u32) -> usize {
        block_coords(center)
            .map(|c| self.seen(c, watermark).len())
            .sum()
    }

    /// The `rank`-th of those members, cell by cell in
    /// [`block_coords`] order; `None` past the last.
    #[inline]
    fn kth_in_block(&self, center: (i32, i32), watermark: u32, mut rank: usize) -> Option<u32> {
        block_coords(center).find_map(|c| {
            let seen = self.seen(c, watermark);
            let hit = seen.get(rank).copied();
            rank = rank.saturating_sub(seen.len());
            hit
        })
    }

    fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<((i32, i32), Arc<Vec<u32>>)>();
        fx::table_bytes(self.cells.capacity(), entry)
            + self
                .cells
                .values()
                .map(|ids| fx::arc_bytes::<Vec<u32>>() + ids.capacity() * 4)
                .sum::<usize>()
    }
}

/// The 3×3 block of cell coordinates around `center`, in
/// [`NEIGHBOR_OFFSETS`] order (the order [`Grid::neighbor_slot`] uses).
#[inline]
fn block_coords(center: (i32, i32)) -> impl Iterator<Item = (i32, i32)> {
    NEIGHBOR_OFFSETS
        .iter()
        .map(move |&(dx, dy)| (center.0.saturating_add(dx), center.1.saturating_add(dy)))
}

/// The inserts one swap added to one side, as a sampling source: see
/// the module docs. Immutable; shared by every later snapshot of the
/// epoch.
struct Chunk {
    /// Index (into the side's insert buffer) of the first member.
    start: usize,
    /// Opposite-side inserts below this index are the members' cross
    /// candidates.
    watermark: u32,
    /// One per member, tombstoned or not: the nine cells of the member's
    /// block in the opposite base grid, the cross candidates in the extra
    /// part. Shared with the versions of this chunk a later tombstone
    /// produces ([`Chunk::without_dead`]).
    rows: Arc<Vec<BlockRow>>,
    /// Over the row totals, zero for the members that were tombstoned
    /// when it was built. A chunk is only kept while some weight is
    /// positive.
    alias: AliasTable,
    /// How many members the alias gives no weight for being tombstoned.
    dead: usize,
}

impl Chunk {
    /// Rows and alias for `points[start..]` against the opposite side:
    /// its base grid and its insert grid below `watermark`. `dead(j)`
    /// says whether insert `j` of this side is tombstoned. Cases 1 and 2
    /// are the exact runs of half-extent `l` (the grid's cell side, or a
    /// few ulps more; see [`OverlaySupport::extended`]), a corner cell
    /// its population. `None` when no live member has a candidate.
    fn build(
        points: &[Point],
        start: usize,
        dead: impl Fn(usize) -> bool,
        opposite: &Grid,
        opposite_inserts: &InsertGrid,
        watermark: u32,
        l: f64,
    ) -> Option<Chunk> {
        let tail = &points[start..];
        // The base index's cell-major sweep with a trivial corner bound,
        // straight into the chunk's rows.
        let mut rows = vec![BlockRow::default(); tail.len()];
        let population = |slot: u32, _: &_| opposite.cell(slot).len() as u64;
        sweep_rows(opposite, tail, l, &population, &mut rows);
        // Then the cross part in place.
        for (row, &p) in rows.iter_mut().zip(tail) {
            let cross = opposite_inserts.seen_in_block(opposite.coord_of(p), watermark);
            row.add_extra(cross as u64);
        }
        // Debug builds (every `cargo test`) count every 64th member's
        // candidates the slow way.
        debug_assert!(
            rows.iter().zip(tail).step_by(64).all(|(row, &p)| {
                row.total() as usize
                    == brute_force_candidates(p, opposite, opposite_inserts, watermark, l)
            }),
            "an insert row disagrees with the brute-force count over its block"
        );
        Chunk::weighted(start, watermark, Arc::new(rows), dead)
    }

    /// A chunk over `rows` whose alias gives the members `dead(j)`
    /// names no weight: every pair such a member's row owns has a
    /// tombstoned endpoint, so dropping the row leaves every live pair
    /// its one position. `None` when no live member has a candidate.
    fn weighted(
        start: usize,
        watermark: u32,
        rows: Arc<Vec<BlockRow>>,
        dead: impl Fn(usize) -> bool,
    ) -> Option<Chunk> {
        let mut tombstoned = 0;
        let weights: Vec<f64> = (start..)
            .zip(rows.iter())
            .map(|(j, row)| {
                if dead(j) {
                    tombstoned += 1;
                    0.0
                } else {
                    row.total() as f64
                }
            })
            .collect();
        Some(Chunk {
            start,
            watermark,
            alias: AliasTable::new(&weights)?,
            rows,
            dead: tombstoned,
        })
    }

    /// This chunk re-weighted for a larger tombstone set; the rows are
    /// shared, not copied.
    fn without_dead(&self, dead: impl Fn(usize) -> bool) -> Option<Chunk> {
        Chunk::weighted(self.start, self.watermark, Arc::clone(&self.rows), dead)
    }

    fn weight(&self) -> f64 {
        self.alias.total_weight()
    }
}

/// What a row of `p` must total, member by member over the block: the
/// members of the centre and edge cells in `p`'s window of half-extent
/// `l`, every member of a corner cell, every opposite insert below the
/// watermark.
fn brute_force_candidates(
    p: Point,
    opposite: &Grid,
    opposite_inserts: &InsertGrid,
    watermark: u32,
    l: f64,
) -> usize {
    let base: usize = opposite
        .neighborhood(p)
        .iter()
        .enumerate()
        .filter_map(|(i, cell)| cell.map(|cell| (case_of(i), cell)))
        .map(|(case, cell)| match case {
            CellCase::Quadrant { .. } => cell.len(),
            _ => cell
                .members()
                .iter()
                .filter(|&&id| Rect::window(p, l).contains(opposite.point(id)))
                .count(),
        })
        .sum();
    let cross: usize = block_coords(opposite.coord_of(p))
        .filter_map(|c| opposite_inserts.cells.get(&c))
        .map(|ids| ids.iter().filter(|&&j| j < watermark).count())
        .sum();
    base + cross
}

/// One side's insert sources so far: how much of the insert buffer
/// they cover, the append-only grid over that much, and the chunks in
/// insert order.
#[derive(Clone, Default)]
struct InsertSide {
    seen: usize,
    grid: Arc<InsertGrid>,
    chunks: Vec<Arc<Chunk>>,
    /// Size of the side's tombstone set when the chunks' aliases were
    /// last brought up to date with it.
    tombstones: usize,
}

impl InsertSide {
    /// Re-weights the chunks whose members `deleted` has tombstoned
    /// since their alias was built (`first_id` is the id of insert 0).
    /// A tombstone set only grows, so its size says whether there is
    /// anything to do; if so, one pass over it counts the tombstoned
    /// members per chunk and only the chunks whose count moved are
    /// re-weighted.
    fn drop_tombstoned(&mut self, deleted: &FxHashSet<PointId>, first_id: usize) {
        if deleted.len() == self.tombstones {
            return;
        }
        self.tombstones = deleted.len();
        let mut dead = vec![0usize; self.chunks.len()];
        for j in deleted
            .iter()
            .filter_map(|&id| (id as usize).checked_sub(first_id))
        {
            // The last chunk starting at or before `j`, if `j` is one
            // of its members (a swap whose inserts had no candidates
            // left no chunk).
            let k = self.chunks.partition_point(|c| c.start <= j);
            if k > 0 && j - self.chunks[k - 1].start < self.chunks[k - 1].rows.len() {
                dead[k - 1] += 1;
            }
        }
        let is_dead = |j: usize| deleted.contains(&((first_id + j) as PointId));
        let chunks = std::mem::take(&mut self.chunks);
        self.chunks = chunks
            .into_iter()
            .zip(dead)
            .filter_map(|(chunk, dead)| {
                if dead == chunk.dead {
                    Some(chunk)
                } else {
                    chunk.without_dead(is_dead).map(Arc::new)
                }
            })
            .collect();
    }

    /// Heap bytes by structure: the insert grid, every chunk's rows and
    /// alias, and the chunk list itself (as `delta`).
    fn index_bytes(&self) -> IndexBytes {
        let chunks = self.chunks.iter();
        IndexBytes {
            grid: self.grid.memory_bytes(),
            rows: chunks
                .clone()
                .map(|c| c.rows.capacity() * std::mem::size_of::<BlockRow>())
                .sum(),
            alias: chunks.map(|c| c.alias.memory_bytes()).sum(),
            delta: self.chunks.capacity() * std::mem::size_of::<Arc<Chunk>>()
                + self.chunks.len() * std::mem::size_of::<Chunk>(),
            ..IndexBytes::default()
        }
    }
}

/// Per-epoch support structures for [`OverlayIndex`]: a hash grid over
/// base `S` and one over base `R` of one cell side — every window up to
/// it stays in its 3×3 block — plus the insert sources of the epoch's
/// swaps so far. The grid of `S` is normally the epoch's own, and the
/// grid of `R` stands on the epoch's `R` set
/// ([`OverlaySupport::on_grid`]): only the cells of the grid of `R` are
/// built here. A chunk row counts cases 1 and 2 exactly at the cell
/// side, whatever window later draws from it.
/// [`OverlaySupport::extended`] is the `O(batch)` step from one snapshot
/// of the epoch's delta to the next; everything it returns is
/// `Arc`-shared with what it was called on.
pub struct OverlaySupport {
    s_grid: Arc<Grid>,
    r_grid: Arc<Grid>,
    /// What of the two base grids this support counts as its own,
    /// taken once where they are built — both with their sets where the
    /// sets were copied for it, else the cells of `r_grid` alone — plus
    /// the views its chunks sorted on them since.
    base_bytes: IndexBytes,
    /// The views the chunks sorted on a grid of `S` handed in, which its
    /// owner counts; `None` for a grid of the support's own.
    lent_views: Option<usize>,
    build_time: Duration,
    r_side: InsertSide,
    s_side: InsertSide,
}

impl OverlaySupport {
    /// Builds both grids, of cell side `side`, over copies of a base
    /// snapshot; `O(n + m)`. [`OverlaySupport::build_time`] covers both.
    pub fn build(base_r: &[Point], base_s: &[Point], side: f64) -> Self {
        let t0 = Instant::now();
        let s_grid = Arc::new(Grid::build(base_s, side));
        let r_grid = Arc::new(Grid::build(base_r, side));
        OverlaySupport {
            base_bytes: IndexBytes::of_grid(&s_grid) + IndexBytes::of_grid(&r_grid),
            lent_views: None,
            s_grid,
            r_grid,
            build_time: t0.elapsed(),
            r_side: InsertSide::default(),
            s_side: InsertSide::default(),
        }
    }

    /// A support over `s_grid` — the base build's own grid of `S`, held,
    /// not copied — and a grid of the same cell side on `base_r`, the
    /// base build's own `R` set. Neither set is this support's to count,
    /// nor are the views its chunks sort on `s_grid`
    /// ([`OverlaySupport::lent_views`]). Ids the grid's cells leave out
    /// (the dead ids a cell patch left behind) are never a candidate.
    pub fn on_grid(base_r: &Arc<PointSet>, s_grid: Arc<Grid>) -> Self {
        let t0 = Instant::now();
        let r_grid = Arc::new(Grid::build(base_r, s_grid.cell_side()));
        OverlaySupport {
            base_bytes: IndexBytes {
                point_set: 0,
                ..IndexBytes::of_grid(&r_grid)
            },
            lent_views: Some(0),
            s_grid,
            r_grid,
            build_time: t0.elapsed(),
            r_side: InsertSide::default(),
            s_side: InsertSide::default(),
        }
    }

    /// This support brought up to `delta`: per side with inserts beyond
    /// what it already covers, one more chunk and the insert grid grown
    /// by that tail; and the chunks whose members `delta` has tombstoned
    /// since, re-weighted without them. No row already built is
    /// recomputed or copied (a grown grid copies the cells the tail
    /// lands in), and a chunk nothing happened to is shared as it is.
    ///
    /// The `S` tail is chunked **before** the `R` tail is added to
    /// anything, and the `R` tail after the `S` tail is in the grid:
    /// that is the ownership rule of the module docs.
    ///
    /// # Panics
    /// Panics if `delta` is not a later state of the delta this support
    /// has seen (other base lengths, or shorter insert buffers).
    pub fn extended(&self, delta: &DeltaSet) -> OverlaySupport {
        assert_eq!(
            self.s_grid.num_points(),
            delta.base_s_len,
            "overlay support S-grid does not cover the base S snapshot"
        );
        assert_eq!(
            self.r_grid.num_points(),
            delta.base_r_len,
            "overlay support R-grid does not cover the base R snapshot"
        );
        assert!(
            self.r_side.seen <= delta.r_inserted.len()
                && self.s_side.seen <= delta.s_inserted.len(),
            "overlay support has seen inserts this delta does not hold"
        );
        let l = self.side();
        let (mut r_side, mut s_side) = (self.r_side.clone(), self.s_side.clone());
        let (mut base_bytes, mut lent_views) = (self.base_bytes, self.lent_views);
        r_side.drop_tombstoned(&delta.r_deleted, delta.base_r_len);
        s_side.drop_tombstoned(&delta.s_deleted, delta.base_s_len);
        if s_side.seen < delta.s_inserted.len() {
            // A row of an inserted `s` ranks the `r` with `s ∈ w(r)`,
            // but counts them as the `r ∈ w(s)`: the same set up to the
            // rounding of `s.x − l` against `r.x + l`. Bounding with a
            // half-extent a few ulps of the largest coordinate wider
            // makes the counted set a superset whatever the rounding;
            // the draw then tests `s ∈ w(r)` itself.
            let reach = delta.s_inserted[s_side.seen..]
                .iter()
                .fold(l, |m, p| m.max(p.x.abs()).max(p.y.abs()));
            let wide = l + 8.0 * f64::EPSILON * (reach + l);
            let dead = |j: usize| {
                delta
                    .s_deleted
                    .contains(&((delta.base_s_len + j) as PointId))
            };
            // Every cell the chunk's rows count and its draws read has
            // its views sorted here, and counted: a draw never sorts.
            base_bytes.grid += self
                .r_grid
                .sort_views_around(&delta.s_inserted[s_side.seen..]);
            s_side.chunks.extend(
                Chunk::build(
                    &delta.s_inserted,
                    s_side.seen,
                    dead,
                    &self.r_grid,
                    &r_side.grid,
                    r_side.seen as u32,
                    wide,
                )
                .map(Arc::new),
            );
            Arc::make_mut(&mut s_side.grid)
                .extend(&delta.s_inserted, s_side.seen, |p| self.s_grid.coord_of(p));
            s_side.seen = delta.s_inserted.len();
        }
        if r_side.seen < delta.r_inserted.len() {
            let dead = |i: usize| {
                delta
                    .r_deleted
                    .contains(&((delta.base_r_len + i) as PointId))
            };
            let made = self
                .s_grid
                .sort_views_around(&delta.r_inserted[r_side.seen..]);
            *lent_views.as_mut().unwrap_or(&mut base_bytes.grid) += made;
            r_side.chunks.extend(
                Chunk::build(
                    &delta.r_inserted,
                    r_side.seen,
                    dead,
                    &self.s_grid,
                    &s_side.grid,
                    s_side.seen as u32,
                    l,
                )
                .map(Arc::new),
            );
            Arc::make_mut(&mut r_side.grid)
                .extend(&delta.r_inserted, r_side.seen, |p| self.r_grid.coord_of(p));
            r_side.seen = delta.r_inserted.len();
        }
        OverlaySupport {
            s_grid: Arc::clone(&self.s_grid),
            r_grid: Arc::clone(&self.r_grid),
            base_bytes,
            lent_views,
            build_time: self.build_time,
            r_side,
            s_side,
        }
    }

    /// The grids' cell side: the widest window the support serves, and
    /// the half-extent its chunk rows count cases 1 and 2 at.
    fn side(&self) -> f64 {
        self.s_grid.cell_side()
    }

    /// Wall-clock the grid builds took.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// How many sources an overlay over this support draws from: the
    /// base index plus one per chunk.
    pub fn source_count(&self) -> usize {
        1 + self.r_side.chunks.len() + self.s_side.chunks.len()
    }

    /// Heap bytes of the views this support's chunks sorted on the grid
    /// of `S` it was handed ([`OverlaySupport::on_grid`]): its owner's to
    /// count, though a walk of the owner made before misses them.
    pub fn lent_views(&self) -> usize {
        self.lent_views.unwrap_or(0)
    }

    /// Heap bytes of the base grids this support built, both insert
    /// grids and every chunk's rows and alias.
    pub fn memory_bytes(&self) -> usize {
        self.index_bytes().total()
    }

    /// [`OverlaySupport::memory_bytes`] by structure. A grid of `S` and
    /// an `R` set handed in are their base build's to count. The base
    /// grids are not walked again, `O(inserts)`, not `O(cells)`: what
    /// the chunks added to them is counted where they sorted it.
    fn index_bytes(&self) -> IndexBytes {
        self.base_bytes + self.r_side.index_bytes() + self.s_side.index_bytes()
    }

    /// Every chunk of one side (`R`'s if `r_side`) in insert order, as
    /// `(start, watermark, rows)`: the index into the side's insert
    /// buffer of the chunk's first member, how much of the opposite
    /// side's insert buffer its cross parts count, and one row per
    /// member.
    pub fn chunk_rows(&self, r_side: bool) -> impl Iterator<Item = (usize, usize, &[BlockRow])> {
        let side = if r_side { &self.r_side } else { &self.s_side };
        side.chunks
            .iter()
            .map(|c| (c.start, c.watermark as usize, &c.rows[..]))
    }
}

/// A base index composed with a [`DeltaSet`]: answers uniformly over
/// the **current** (mutated) join without touching the base build. See
/// the module docs for the ownership rule the sources follow.
///
/// Immutable and `Send + Sync` like every index: a mutation produces a
/// *new* overlay snapshot, which the engine layer swaps in atomically
/// while in-flight cursors finish against the old one.
pub struct OverlayIndex<I: SamplerIndex> {
    base: Arc<I>,
    /// The half-extent of the window a draw tests: at most the
    /// support's cell side.
    window: f64,
    /// This snapshot's own delta: the inserted points a chunk's members
    /// and cross candidates index into, and the tombstones. It, the
    /// support and the alias are shared with the snapshot's views at
    /// narrower windows ([`OverlayIndex::at`]).
    delta: Arc<DeltaSet>,
    /// The base grids and the insert sources, brought up to `delta`.
    support: Arc<OverlaySupport>,
    /// Alias over `(W_base, R chunks…, S chunks…)`; `None` when all are
    /// zero.
    source_alias: Option<Arc<AliasTable>>,
    total_weight: f64,
    rejection_limit: u64,
    build_report: PhaseReport,
}

/// Per-cursor scratch of an overlay draw: the base index's own, and the
/// buffer the base's share of a block comes back in.
#[derive(Default)]
pub struct OverlayScratch<S> {
    base: S,
    base_outcomes: Vec<Option<JoinPair>>,
}

impl<I: SamplerIndex> OverlayIndex<I> {
    /// Assembles an overlay snapshot over `support`'s sources: their
    /// `Arc`s and a top-level alias. `support` is brought up to `delta`
    /// first ([`OverlaySupport::extended`] — nothing to do when the
    /// caller already did); the result is used here and dropped, so a
    /// caller that takes one snapshot after another extends the support
    /// itself and keeps it, and each batch of inserts is chunked once.
    ///
    /// # Panics
    /// Panics if `support` was built for a different base snapshot than
    /// `delta` describes, or has seen inserts `delta` does not hold —
    /// mismatched sources would silently bias the overlay — or if its
    /// cell side is below `config.half_extent`.
    pub fn new(
        base: Arc<I>,
        delta: DeltaSet,
        support: &OverlaySupport,
        config: &SampleConfig,
    ) -> Self {
        let l = config.half_extent;
        assert!(
            l <= support.side(),
            "overlay grid cell side ({}) is below the window half-extent ({l})",
            support.side()
        );
        let support = support.extended(&delta);

        let w_base = base.total_weight();
        let chunks = support.r_side.chunks.iter().chain(&support.s_side.chunks);
        let weights: Vec<f64> = std::iter::once(w_base)
            .chain(chunks.map(|c| c.weight()))
            .collect();
        let build_report = base.index_build_report();
        OverlayIndex {
            source_alias: AliasTable::new(&weights).map(Arc::new),
            total_weight: weights.iter().sum(),
            rejection_limit: config.max_consecutive_rejections,
            window: l,
            support: Arc::new(support),
            base,
            delta: Arc::new(delta),
            build_report,
        }
    }

    /// This snapshot for the windows of half-extent `l` over `base`, a
    /// view of this snapshot's base at `l`: the same sources and the
    /// same rows (`Arc`-shared, nothing copied), every candidate tested
    /// against the narrower window.
    /// A row bounds the candidates of the support's window, which
    /// contains the narrower one, so each pair of the narrower join is
    /// still one position of one row, and the draws stay uniform.
    ///
    /// # Panics
    /// Panics if `l` exceeds the support's cell side, or if `base`
    /// weighs other than this snapshot's base (it must be the same rows
    /// at another window).
    pub fn at(&self, base: Arc<I>, l: f64) -> Self {
        assert!(
            l <= self.support.side(),
            "window {l} exceeds the overlay's cell side {}",
            self.support.side()
        );
        assert_eq!(
            base.total_weight().to_bits(),
            self.base.total_weight().to_bits(),
            "a window's base must stand on the snapshot's rows"
        );
        OverlayIndex {
            base,
            window: l,
            delta: Arc::clone(&self.delta),
            support: Arc::clone(&self.support),
            source_alias: self.source_alias.clone(),
            ..*self
        }
    }

    /// The unchanged base index underneath.
    pub fn base(&self) -> &Arc<I> {
        &self.base
    }

    /// The pending mutations this snapshot serves.
    pub fn delta(&self) -> &DeltaSet {
        &self.delta
    }

    /// Heap bytes of what this snapshot adds to its base: the support,
    /// the alias over the sources and the pending mutations. The base
    /// is not walked.
    pub fn own_bytes(&self) -> IndexBytes {
        self.support.index_bytes()
            + IndexBytes {
                alias: self
                    .source_alias
                    .as_ref()
                    .map_or(0, |alias| alias.memory_bytes()),
                delta: self.delta.memory_bytes(),
                ..IndexBytes::default()
            }
    }

    /// The tombstone filter: `pair` if both its endpoints are live.
    #[inline]
    fn live(&self, pair: JoinPair) -> Option<JoinPair> {
        (!self.delta.r_deleted.contains(&pair.r) && !self.delta.s_deleted.contains(&pair.s))
            .then_some(pair)
    }

    /// A base-source outcome through the tombstone filter. The base ran
    /// against a report of its own, so a pair the filter drops is not
    /// counted as a sample.
    #[inline]
    fn keep_live(&self, drawn: Option<JoinPair>, stats: &mut PhaseReport) -> Option<JoinPair> {
        let kept = drawn.and_then(|pair| self.live(pair));
        stats.samples += u64::from(kept.is_some());
        kept
    }

    /// One iteration of chunk source `source` (`≥ 1`, in the top-level
    /// alias's numbering) on two words: the member, then the position
    /// in its row.
    fn try_chunk(
        &self,
        source: usize,
        member_word: u64,
        row_word: u64,
        stats: &mut PhaseReport,
    ) -> Option<JoinPair> {
        stats.iterations += 1;
        let (d, sup) = (&self.delta, &self.support);
        let from_r = source <= sup.r_side.chunks.len();
        // This side's inserts and id offset, then the opposite side's
        // base grid, insert grid, inserts and id offset.
        let (chunk, points, first_id, grid, inserts, opposite, opposite_first_id) = if from_r {
            let chunk = &sup.r_side.chunks[source - 1];
            let (grid, inserts) = (&sup.s_grid, &sup.s_side.grid);
            (
                chunk,
                &d.r_inserted,
                d.base_r_len,
                grid,
                inserts,
                &d.s_inserted,
                d.base_s_len,
            )
        } else {
            let chunk = &sup.s_side.chunks[source - 1 - sup.r_side.chunks.len()];
            let (grid, inserts) = (&sup.r_grid, &sup.r_side.grid);
            (
                chunk,
                &d.s_inserted,
                d.base_s_len,
                grid,
                inserts,
                &d.r_inserted,
                d.base_r_len,
            )
        };
        let member = chunk.alias.sample_word(member_word);
        let p = points[chunk.start + member];
        let pick = chunk.rows[member]
            .pick_word(row_word)
            .expect("alias returned a member with an empty row");
        let (rank, weight) = (pick.rank as usize, pick.weight as usize);

        let this_id = (first_id + chunk.start + member) as PointId;
        let pair = |candidate: usize| {
            if from_r {
                JoinPair::new(this_id, candidate as PointId)
            } else {
                JoinPair::new(candidate as PointId, this_id)
            }
        };
        let in_window = |candidate: Point| {
            let (rp, sp) = if from_r {
                (p, candidate)
            } else {
                (candidate, p)
            };
            Rect::window(rp, self.window).contains(sp)
        };
        // The candidate at the picked rank, and the test `s ∈ w(r)`
        // where the row does not already guarantee it.
        let accepted = if pick.part == BlockRow::EXTRA {
            let j = inserts
                .kth_in_block(grid.coord_of(p), chunk.watermark, rank)
                .expect("cross rank outside what the chunk saw of its block")
                as usize;
            in_window(opposite[j]).then(|| pair(opposite_first_id + j))
        } else {
            let slot = grid
                .neighbor_slot(p, pick.part)
                .expect("positive row weight for an empty cell");
            let cell = grid.cell(slot);
            match case_of(pick.part) {
                // A corner, counted as its whole cell.
                CellCase::Quadrant { .. } => {
                    let id = cell.by_x(grid.points())[rank];
                    in_window(grid.point(id)).then(|| pair(id as usize))
                }
                case => {
                    let run = case12_stored_run(cell, grid.points(), case, weight)
                        .expect("non-corner case must yield a run");
                    let id = run[rank];
                    // The run is exactly the window's for an inserted
                    // `r` at the cell side (no coordinate is read); for
                    // an inserted `s` it was bounded a few ulps wide,
                    // and for a narrower window it holds more, so test.
                    let exact = from_r && self.window.to_bits() == sup.side().to_bits();
                    debug_assert!(!exact || in_window(grid.point(id)));
                    (exact || in_window(grid.point(id))).then(|| pair(id as usize))
                }
            }
        };
        let kept = accepted.and_then(|pair| self.live(pair));
        stats.samples += u64::from(kept.is_some());
        kept
    }
}

impl<I: SamplerIndex> SamplerIndex for OverlayIndex<I> {
    type Scratch = OverlayScratch<I::Scratch>;

    fn algorithm_name(&self) -> &'static str {
        self.base.algorithm_name()
    }

    /// One iteration: the source from the top-level alias — re-picked
    /// every iteration, see [`SamplerIndex::try_draw`] — then one
    /// iteration of that source.
    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        let alias = self.source_alias.as_ref().ok_or(SampleError::EmptyJoin)?;
        Ok(match alias.sample(rng) {
            0 => {
                let mut sub = PhaseReport::default();
                let drawn = self.base.try_draw(rng, &mut scratch.base, &mut sub)?;
                stats.iterations += sub.iterations;
                self.keep_live(drawn, stats)
            }
            source => self.try_chunk(source, rng.next_u64(), rng.next_u64(), stats),
        })
    }

    /// A block of iterations, source by source (module docs, "Blocks"):
    /// the block's sources, then the base's share of it in one
    /// `base.try_many` call, then the chunk iterations inline, woven
    /// back in iteration order.
    fn try_many<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        scratch: &mut Self::Scratch,
        stats: &mut PhaseReport,
        out: &mut Vec<Option<JoinPair>>,
    ) -> Result<(), SampleError> {
        let mut sources = [0usize; BLOCK];
        let mut left = n;
        while left > 0 {
            // Asked only while an iteration is wanted: `n = 0` is `Ok`
            // even on an empty join.
            let alias = self.source_alias.as_ref().ok_or(SampleError::EmptyJoin)?;
            let b = left.min(BLOCK);
            let sources = &mut sources[..b];
            alias.sample_many(rng, sources);
            let base_share = sources.iter().filter(|&&source| source == 0).count();
            let mut sub = PhaseReport::default();
            scratch.base_outcomes.clear();
            self.base.try_many(
                base_share,
                rng,
                &mut scratch.base,
                &mut sub,
                &mut scratch.base_outcomes,
            )?;
            stats.iterations += sub.iterations;
            let mut base_outcomes = scratch.base_outcomes.iter();
            out.extend(sources.iter().map(|&source| match source {
                0 => {
                    let drawn = base_outcomes
                        .next()
                        .expect("one outcome per base iteration");
                    self.keep_live(*drawn, stats)
                }
                source => self.try_chunk(source, rng.next_u64(), rng.next_u64(), stats),
            }));
            left -= b;
        }
        Ok(())
    }

    fn rejection_limit(&self) -> u64 {
        self.rejection_limit
    }

    fn total_weight(&self) -> f64 {
        self.total_weight
    }

    fn index_build_report(&self) -> PhaseReport {
        self.build_report
    }

    fn index_bytes(&self) -> IndexBytes {
        self.base.index_bytes() + self.own_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BbstIndex, Cursor, JoinSampler, KdsIndex, KdsRejectionIndex};
    use proptest::prelude::*;
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

    /// Brute-force current join over a delta'd dataset.
    fn live_join(base_r: &[Point], base_s: &[Point], delta: &DeltaSet, l: f64) -> Vec<JoinPair> {
        let mut rs: Vec<(PointId, Point)> = Vec::new();
        for (i, &p) in base_r.iter().enumerate() {
            rs.push((i as PointId, p));
        }
        for (i, &p) in delta.r_inserted.iter().enumerate() {
            rs.push(((delta.base_r_len + i) as PointId, p));
        }
        let mut ss: Vec<(PointId, Point)> = Vec::new();
        for (j, &p) in base_s.iter().enumerate() {
            ss.push((j as PointId, p));
        }
        for (j, &p) in delta.s_inserted.iter().enumerate() {
            ss.push(((delta.base_s_len + j) as PointId, p));
        }
        let mut out = Vec::new();
        for &(rid, rp) in rs.iter().filter(|(id, _)| !delta.r_deleted.contains(id)) {
            let w = Rect::window(rp, l);
            for &(sid, sp) in ss.iter().filter(|(id, _)| !delta.s_deleted.contains(id)) {
                if w.contains(sp) {
                    out.push(JoinPair::new(rid, sid));
                }
            }
        }
        out
    }

    fn mutated_delta(base_r: &[Point], base_s: &[Point], seed: u64) -> DeltaSet {
        let mut delta = DeltaSet::for_base(base_r.len(), base_s.len());
        let extra_r = pseudo_points(25, seed, 60.0);
        let extra_s = pseudo_points(30, seed + 1, 60.0);
        delta.r_inserted = extra_r;
        delta.s_inserted = extra_s;
        // tombstone a spread of base points and one inserted point per side
        for id in (0..base_r.len() as u32).step_by(7) {
            delta.r_deleted.insert(id);
        }
        for id in (0..base_s.len() as u32).step_by(9) {
            delta.s_deleted.insert(id);
        }
        delta.r_deleted.insert((base_r.len() + 3) as PointId);
        delta.s_deleted.insert((base_s.len() + 5) as PointId);
        delta
    }

    /// Chi-squared over the full pair space must not reject uniformity
    /// (threshold mirrors tests/uniformity.rs: p ≈ 0.001).
    fn assert_uniform(counts: &HashMap<JoinPair, u64>, join: &[JoinPair], draws: u64) {
        let k = join.len() as f64;
        let expected = draws as f64 / k;
        assert!(expected >= 5.0, "test underpowered: expected {expected}");
        let chi2: f64 = join
            .iter()
            .map(|p| {
                let o = *counts.get(p).unwrap_or(&0) as f64;
                (o - expected) * (o - expected) / expected
            })
            .sum();
        let dof = k - 1.0;
        // Wilson–Hilferty normal approximation of the chi² 99.9th pct.
        let z = 3.09;
        let cut = dof * (1.0 - 2.0 / (9.0 * dof) + z * (2.0 / (9.0 * dof)).sqrt()).powi(3);
        assert!(
            chi2 < cut,
            "chi2 {chi2:.1} over cutoff {cut:.1} (dof {dof})"
        );
    }

    fn overlay_uniformity_case<I, F>(build: F, seed: u64)
    where
        I: SamplerIndex,
        F: Fn(&[Point], &[Point], &SampleConfig) -> I,
    {
        let l = 6.0;
        let cfg = SampleConfig::new(l);
        let base_r = pseudo_points(60, 100 + seed, 50.0);
        let base_s = pseudo_points(80, 200 + seed, 50.0);
        let delta = mutated_delta(&base_r, &base_s, 300 + seed);
        let join = live_join(&base_r, &base_s, &delta, l);
        assert!(join.len() > 30, "workload too sparse: {}", join.len());

        let support = OverlaySupport::build(&base_r, &base_s, l);
        let base = Arc::new(build(&base_r, &base_s, &cfg));
        let overlay = Arc::new(OverlayIndex::new(
            Arc::clone(&base),
            delta.clone(),
            &support,
            &cfg,
        ));

        let draws = (join.len() as u64 * 60).max(20_000);
        let mut cursor = Cursor::new(Arc::clone(&overlay));
        let mut rng = SmallRng::seed_from_u64(9 + seed);
        let mut counts: HashMap<JoinPair, u64> = HashMap::new();
        let join_set: std::collections::HashSet<JoinPair> = join.iter().copied().collect();
        for _ in 0..draws {
            let p = cursor.sample_one(&mut rng).unwrap();
            assert!(join_set.contains(&p), "emitted non-join / dead pair {p:?}");
            *counts.entry(p).or_insert(0) += 1;
        }
        assert_uniform(&counts, &join, draws);
        // accounting: accepted samples equal the draws, iterations ≥
        let rep = cursor.report();
        assert_eq!(rep.samples, draws);
        assert!(rep.iterations >= draws);
    }

    #[test]
    fn overlay_uniform_over_kds_base() {
        overlay_uniformity_case(|r, s, cfg| KdsIndex::build(r, s, cfg), 1);
    }

    #[test]
    fn overlay_uniform_over_kds_rejection_base() {
        overlay_uniformity_case(|r, s, cfg| KdsRejectionIndex::build(r, s, cfg), 2);
    }

    #[test]
    fn overlay_uniform_over_bbst_base() {
        overlay_uniformity_case(|r, s, cfg| BbstIndex::build(r, s, cfg), 3);
    }

    /// A support standing on the base's own grid of `S` and `R` set
    /// serves exactly what one that built its own does — the same
    /// weight, the same stream — and leaves both to the base to count.
    #[test]
    fn a_support_on_the_base_grid_serves_alike_and_counts_no_s() {
        let l = 6.0;
        let cfg = SampleConfig::new(l);
        let base_r = pseudo_points(60, 61, 50.0);
        let base_s = pseudo_points(80, 62, 50.0);
        let delta = mutated_delta(&base_r, &base_s, 63);
        let base = Arc::new(BbstIndex::build(&base_r, &base_s, &cfg));
        let s_grid = Arc::clone(base.s_structures().store().grid_arc());
        let own = OverlaySupport::build(&base_r, &base_s, l);
        let shared = OverlaySupport::on_grid(base.r_set(), Arc::clone(&s_grid));
        // The one a support builds itself holds both base sets and its
        // own grid of `S`, with the views its chunks sort on it.
        let own_s = Grid::build(&base_s, l);
        let own_sets = |own_s: &Grid| own_s.memory_bytes() + 16 * base_r.len();
        assert_eq!(own.memory_bytes() - shared.memory_bytes(), own_sets(&own_s));
        let overlay = |support| {
            Arc::new(OverlayIndex::new(
                Arc::clone(&base),
                delta.clone(),
                support,
                &cfg,
            ))
        };
        let (a, b) = (overlay(&own), overlay(&shared));
        assert_eq!(a.total_weight(), b.total_weight());
        own_s.sort_views_around(&delta.r_inserted);
        assert_eq!(
            a.index_bytes().total() - b.index_bytes().total(),
            own_sets(&own_s)
        );
        let stream = |o: &Arc<OverlayIndex<BbstIndex>>| {
            let mut rng = SmallRng::seed_from_u64(64);
            Cursor::new(Arc::clone(o)).sample(2_000, &mut rng).unwrap()
        };
        assert_eq!(stream(&a), stream(&b));
    }

    #[test]
    fn empty_delta_matches_base_weight() {
        let cfg = SampleConfig::new(5.0);
        let r = pseudo_points(50, 5, 40.0);
        let s = pseudo_points(50, 6, 40.0);
        let base = Arc::new(BbstIndex::build(&r, &s, &cfg));
        let support = OverlaySupport::build(&r, &s, 5.0);
        let delta = DeltaSet::for_base(r.len(), s.len());
        let overlay = OverlayIndex::new(Arc::clone(&base), delta, &support, &cfg);
        assert_eq!(overlay.total_weight(), base.total_weight());
    }

    #[test]
    fn everything_deleted_is_rejection_limited() {
        let cfg = SampleConfig::new(5.0).with_rejection_limit(2_000);
        let r = pseudo_points(20, 7, 20.0);
        let s = pseudo_points(20, 8, 20.0);
        let base = Arc::new(KdsRejectionIndex::build(&r, &s, &cfg));
        let support = OverlaySupport::build(&r, &s, 5.0);
        let mut delta = DeltaSet::for_base(r.len(), s.len());
        for id in 0..r.len() as u32 {
            delta.r_deleted.insert(id);
        }
        let overlay = Arc::new(OverlayIndex::new(base, delta, &support, &cfg));
        let mut cursor = Cursor::new(overlay);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            cursor.sample_one(&mut rng),
            Err(SampleError::RejectionLimit)
        );
    }

    #[test]
    fn empty_base_with_inserts_still_serves() {
        // The base join is empty; all pairs come from the delta sources.
        let cfg = SampleConfig::new(5.0);
        let r: Vec<Point> = Vec::new();
        let s: Vec<Point> = Vec::new();
        let base = Arc::new(BbstIndex::build(&r, &s, &cfg));
        let support = OverlaySupport::build(&r, &s, 5.0);
        let mut delta = DeltaSet::for_base(0, 0);
        delta.r_inserted = pseudo_points(10, 11, 10.0);
        delta.s_inserted = pseudo_points(15, 12, 10.0);
        let join = live_join(&r, &s, &delta, 5.0);
        assert!(!join.is_empty());
        let overlay = Arc::new(OverlayIndex::new(base, delta, &support, &cfg));
        let mut cursor = Cursor::new(overlay);
        let mut rng = SmallRng::seed_from_u64(2);
        let join_set: std::collections::HashSet<JoinPair> = join.into_iter().collect();
        for _ in 0..500 {
            let p = cursor.sample_one(&mut rng).unwrap();
            assert!(join_set.contains(&p));
        }
    }

    /// The same mutations applied in five refreshes — inserts on both
    /// sides, base tombstones in between — or all at once: the pairs
    /// change owner (fresh, every `r⁺` sees every `s⁺` and no `s⁺` sees
    /// an `r⁺`), the positions they take up do not, so the two overlays
    /// weigh the same. Tombstoned *inserts* are left out on purpose: a
    /// dead member drops its whole row, and whose row a dead pair sat
    /// in is exactly what differs.
    #[test]
    fn fresh_support_weighs_what_the_extended_one_does() {
        let l = 6.0;
        let cfg = SampleConfig::new(l);
        let base_r = pseudo_points(60, 41, 50.0);
        let base_s = pseudo_points(80, 42, 50.0);
        let base = Arc::new(BbstIndex::build(&base_r, &base_s, &cfg));
        let more_r = pseudo_points(40, 43, 50.0);
        let more_s = pseudo_points(50, 44, 50.0);

        let mut delta = DeltaSet::for_base(base_r.len(), base_s.len());
        let mut support = OverlaySupport::build(&base_r, &base_s, l);
        for step in 0..5 {
            delta.r_inserted.extend_from_slice(&more_r[step * 8..][..8]);
            delta
                .s_inserted
                .extend_from_slice(&more_s[step * 10..][..10]);
            delta.r_deleted.insert(step as PointId * 7);
            delta.s_deleted.insert(step as PointId * 9);
            support = support.extended(&delta);
            assert_eq!(support.source_count(), 1 + 2 * (step + 1));
        }
        let stepwise = OverlayIndex::new(Arc::clone(&base), delta.clone(), &support, &cfg);
        // `new` on a support that has seen nothing extends it itself.
        let fresh = OverlaySupport::build(&base_r, &base_s, l);
        assert_eq!(fresh.source_count(), 1);
        let at_once = OverlayIndex::new(Arc::clone(&base), delta.clone(), &fresh, &cfg);
        assert_eq!(at_once.support.source_count(), 3);
        assert_eq!(stepwise.total_weight(), at_once.total_weight());
        assert!(stepwise.total_weight() > base.total_weight());
        // Fresh, the inserted S see no inserted R at all.
        assert!(at_once.support.s_side.chunks[0]
            .rows
            .iter()
            .all(|row| row.weight(BlockRow::EXTRA) == 0));
        // A support that is ahead of the delta it is handed is refused.
        let mut shorter = delta.clone();
        shorter.r_inserted.pop();
        let ahead = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            OverlayIndex::new(Arc::clone(&base), shorter, &support, &cfg)
        }));
        assert!(ahead.is_err(), "a support ahead of its delta must panic");
    }

    /// A later swap that tombstones members of an earlier chunk takes
    /// their weight out of that chunk's alias — and only that chunk is
    /// rebuilt, around the same rows.
    #[test]
    fn tombstoned_members_lose_their_weight_in_place() {
        let l = 6.0;
        let base_r = pseudo_points(60, 51, 50.0);
        let base_s = pseudo_points(80, 52, 50.0);
        let mut delta = DeltaSet::for_base(base_r.len(), base_s.len());
        let mut support = OverlaySupport::build(&base_r, &base_s, l);
        delta.s_inserted = pseudo_points(20, 53, 50.0);
        support = support.extended(&delta);
        delta.s_inserted.extend(pseudo_points(20, 54, 50.0));
        support = support.extended(&delta);
        let (first, second) = (
            Arc::clone(&support.s_side.chunks[0]),
            Arc::clone(&support.s_side.chunks[1]),
        );
        let doomed = (0..20).find(|&j| first.rows[j].total() > 0).unwrap();
        delta.s_deleted.insert((base_s.len() + doomed) as PointId);
        delta.s_deleted.insert(3); // a base id: no chunk's business
        let support = support.extended(&delta);
        let reweighted = &support.s_side.chunks[0];
        assert!(Arc::ptr_eq(&reweighted.rows, &first.rows), "rows are kept");
        assert_eq!(
            reweighted.weight(),
            first.weight() - first.rows[doomed].total() as f64
        );
        assert!(Arc::ptr_eq(&support.s_side.chunks[1], &second));
        // Nothing new: the same chunks again.
        let again = support.extended(&delta);
        assert!(Arc::ptr_eq(
            &again.s_side.chunks[0],
            &support.s_side.chunks[0]
        ));
    }

    /// `s ∈ w(r)` is the join; an inserted `s` counts its partners as
    /// the `r ∈ w(s)`. Here `s.x` is exactly `w(r_a).max_x`, yet
    /// `s.x − l` rounds to just right of `r_a.x`: bounded with `l`
    /// itself the row would miss `r_a`. Bounded a few ulps wide it holds
    /// `r_a` and its near neighbour `r_b`, which is no partner — and the
    /// draw, testing `s ∈ w(r)` itself, only ever returns `r_a`.
    #[test]
    fn an_inserted_s_is_bounded_wide_and_tested_exactly() {
        let l = 0.1;
        let r_a = Point::new(0.021, 0.05);
        let r_b = Point::new(0.020999999999999967, 0.05); // ten ulps left
        let s = Point::new(r_a.x + l, 0.05);
        assert!(s.x - l > r_a.x, "the example must round the wrong way");
        assert!(Rect::window(r_a, l).contains(s));
        assert!(!Rect::window(r_b, l).contains(s));

        let cfg = SampleConfig::new(l);
        let base_r = vec![r_a, r_b];
        let base = Arc::new(BbstIndex::build(&base_r, &[], &cfg));
        let mut delta = DeltaSet::for_base(2, 0);
        delta.s_inserted.push(s);
        let support = OverlaySupport::build(&base_r, &[], l);
        let overlay = Arc::new(OverlayIndex::new(base, delta, &support, &cfg));
        assert_eq!(
            overlay.total_weight(),
            2.0,
            "both near-edge points are candidates"
        );
        let mut cursor = Cursor::new(overlay);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            assert_eq!(cursor.sample_one(&mut rng), Ok(JoinPair::new(0, 0)));
        }
        let rep = cursor.report();
        assert!(rep.iterations > rep.samples, "r_b must have been proposed");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The prefix argument: what a row built at watermark `w` counts
        /// in its block, and the candidate every rank of it resolves to,
        /// are the same against the grid as it stood at `w` and against
        /// every later version of it — however the later inserts fall.
        #[test]
        fn a_cross_rank_resolves_the_same_in_every_later_grid(
            cells in prop::collection::vec((0i32..4, 0i32..4), 1..120),
            cuts in prop::collection::vec(0usize..120, 1..5),
            probe in (0i32..4, 0i32..4),
        ) {
            // One point per drawn cell, cell side 1: the cell is the
            // coordinate.
            let points: Vec<Point> = cells
                .iter()
                .map(|&(x, y)| Point::new(x as f64 + 0.5, y as f64 + 0.5))
                .collect();
            let coord = |p: Point| (p.x.floor() as i32, p.y.floor() as i32);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(points.len())).collect();
            cuts.push(points.len());
            cuts.sort_unstable();
            // Grow the grid cut by cut, keeping every version.
            let mut versions = vec![(0usize, InsertGrid::default())];
            for &cut in &cuts {
                let (from, mut grid) = versions.last().cloned().unwrap();
                grid.extend(&points[..cut], from, coord);
                versions.push((cut, grid));
            }
            for (v, (watermark, built_against)) in versions.iter().enumerate() {
                let w = *watermark as u32;
                let count = built_against.seen_in_block(probe, w);
                let candidates: Vec<u32> = (0..count)
                    .map(|k| built_against.kth_in_block(probe, w, k).unwrap())
                    .collect();
                prop_assert!(candidates.iter().all(|&j| j < w));
                for (_, later) in &versions[v..] {
                    prop_assert_eq!(later.seen_in_block(probe, w), count);
                    for (k, &j) in candidates.iter().enumerate() {
                        prop_assert_eq!(later.kth_in_block(probe, w, k), Some(j));
                    }
                    prop_assert_eq!(later.kth_in_block(probe, w, count), None);
                }
            }
        }
    }

    #[test]
    fn live_len_accounting() {
        let mut delta = DeltaSet::for_base(10, 20);
        delta.r_inserted.push(Point::new(0.0, 0.0));
        delta.r_deleted.insert(0);
        delta.r_deleted.insert(10); // the inserted one
        assert_eq!(delta.live_r_len(), 9);
        assert_eq!(delta.live_s_len(), 20);
        assert!(!delta.is_r_live(0));
        assert!(!delta.is_r_live(10));
        assert!(delta.is_r_live(1));
        assert!(!delta.is_r_live(11), "never-inserted id is not live");
        assert_eq!(delta.pending_ops(), 3);
    }
}
