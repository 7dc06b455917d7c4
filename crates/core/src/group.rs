//! BBST rows at group granularity: one row per cell of `R`
//! ([`GroupIndex`]). Every `r` of a cell sees the same 3×3 block, so the
//! group pass ([`block_row`]) resolves each block once — its nine cell
//! populations and its nine cells' grid slots — and a draw reads both
//! off the group's rows: the grid's hash is read only at build. The
//! rows ([`GroupCore`]) do not depend on the window, only on the cell
//! side, so any window up to that side can stand on them — and which
//! windows they serve is one number the rows hold
//! ([`GroupCore::serves`]).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srj_alias::{AliasTable, BlockRow, NUM_CELLS};
use srj_geom::{Point, PointId, Rect};
use srj_grid::{CellGroups, Grid, IntoPointSet, PointSet};

use crate::config::{JoinPair, PhaseReport, SampleConfig, SampleError};
use crate::cursor::{Cursor, IndexBytes, SamplerIndex, BLOCK};

/// A block cell that holds no point of `S`: the slot a group row stores
/// for it.
pub const NO_CELL: u32 = u32::MAX;

/// Iterations of the probe that admits group rows for a window
/// ([`GroupCore::serves`]), and the generator seed it always starts
/// from.
const PROBE_ITERATIONS: usize = 4096;
const PROBE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Group rows serve a window when the probe accepts at least this many
/// of its iterations, i.e. needs ≤ 2 iterations a sample. Two is the
/// ratio of what an iteration costs at the two row granularities:
///
/// * A group iteration (three words, no tree descent, no hash probe)
///   costs at most 0.48 of a per-`r` one. That worst case is
///   `bulk_draw`'s data, where both draws are cache-bound; the other
///   benchmark datasets measure 0.29–0.34.
/// * Per-`r` rows ([`crate::BbstIndex`]) need at least one iteration a
///   sample.
///
/// So admitted group rows never draw slower than per-`r` rows could,
/// and they build 6–8× faster and keep under half the bytes.
/// `experiments row-granularity` (`srj-bench`) prints each dataset's ns
/// per iteration at both granularities and their ratio; re-price this
/// constant from one run of it.
const MIN_PROBE_ACCEPTED: usize = PROBE_ITERATIONS / 2;

/// The group pass, one group at a time: `R` is grouped by grid cell
/// ([`Grid::group_by_cell`]), and every member of a group sees the same
/// 3×3 block, so the §III-B bound — `µ(r)` = the population of `r`'s
/// block — is taken once per group. Returns the row of the block of a
/// group's `members` (indices into `r`) — its nine cell populations,
/// extra part empty — and the nine cells' grid slots ([`NO_CELL`] where
/// a cell is empty): one [`Grid::neighborhood_slots`] per group resolves
/// the block for good.
///
/// `Σ |members| · row.total()` over the groups is `Σ_r µ(r)`; both are
/// sums of integers, so below 2⁵³ they are the same `f64` in any order.
///
/// # Panics
/// Panics if a block holds more than `u32::MAX` points
/// ([`BlockRow::new`]).
fn block_row(grid: &Grid, r: &[Point], members: &[u32]) -> (BlockRow, [u32; NUM_CELLS]) {
    let slots = grid.neighborhood_slots(r[members[0] as usize]);
    let cells = slots.map(|slot| slot.map_or(0, |slot| grid.cell(slot).len() as u64));
    (
        BlockRow::new(cells, 0),
        slots.map(|slot| slot.unwrap_or(NO_CELL)),
    )
}

/// The BBST family at **group granularity**: one row and one alias
/// column per non-empty cell of `R`, no per-cell structure over `S`
/// beyond the grid's own sorted arrays, no per-`r` pass.
///
/// The §III-B bound `µ(r)` — the population of the 3×3 block around
/// `r`'s cell — is a property of the cell, so all of a cell's `r` share
/// one [`BlockRow`] (the block's nine cell populations) and one slot row
/// (the block's nine cells' grid slots). The rows are a [`GroupCore`]:
/// the shared [`PointSet`]s of `S` and of `R`, a scatter-built [`Grid`]
/// on the first, the grouping of the second — the members of each group
/// as indices into it, 4 B per `r`: `R` itself is not copied — the rows,
/// and one alias over
/// `|R_g| · µ_g` — an `O(n + m)` build with a hash probe per point as its
/// most expensive step, the only hash probes the index ever makes. The
/// window half-extent `l` enters at the window test of a draw and
/// nowhere else, so a core whose cell side is `≥ l` serves the window
/// exactly: its blocks cover `w(r, l)`. One core serves every window up
/// to its side ([`GroupIndex::on_core`]).
///
/// One iteration spends three words — alias → group, uniform member →
/// `r`, uniform position in the row → part and rank — then reads the
/// part's slot off the group's slot row (no grid probe),
/// `s = cell.members()[rank]`, and tests `s ∈ w(r)`. Every
/// `(r, position)` has probability
/// `(|R_g| µ_g / W) · (1 / |R_g|) · (1 / µ_g) = 1 / W`, and each pair of
/// `J` is exactly one such position, so accepted pairs are uniform and
/// independent (the §III-B argument) at `W / |J|` expected iterations a
/// sample. That ratio has no guarantee: it is ≈ 9/4 on locally uniform
/// data at a cell side of `l` and close to 1 where `S` is clustered
/// below the window size — which is when this index beats per-`r` rows
/// ([`crate::BbstIndex`]) outright; the rows measure it for any window
/// themselves ([`GroupCore::serves`]), and `srj-engine` picks by that. A
/// wider cell loosens the bound by the blocks' extra area.
///
/// `Send + Sync`, never mutated after build.
pub struct GroupIndex {
    /// The rows; shared with every index on the same core.
    core: Arc<GroupCore>,
    config: SampleConfig,
    build_report: PhaseReport,
}

/// What group rows are made of apart from the window: the grid of `S`,
/// the group pass over `R` and the alias. A function of the two point
/// sets and the cell side alone, so every [`GroupIndex`] whose window
/// half-extent is at most the side can stand on one.
///
/// `Send + Sync`, never mutated after build.
pub struct GroupCore {
    grid: Arc<Grid>,
    /// `R`, shared with every other index built on the same set.
    r: Arc<PointSet>,
    /// The grouping of `r` by grid cell, as the group pass left it:
    /// the members of group `g`, as indices into `r`, are
    /// `groups.members(g)`. Groups whose block is empty are dropped
    /// ([`CellGroups::retain`]), so group `g` is row `g`.
    groups: CellGroups,
    /// Per group: the nine cell populations of its block.
    rows: Vec<BlockRow>,
    /// Per group: the grid slots of its block's nine cells, [`NO_CELL`]
    /// where a cell is empty — shared by every member, since all of them
    /// lie in one cell.
    blocks: Vec<[u32; NUM_CELLS]>,
    /// Over `|R_g| · µ_g`.
    alias: Option<AliasTable>,
    /// The group pass, as upper bounding.
    build_report: PhaseReport,
    /// The narrowest window these rows serve ([`GroupCore::serves`]),
    /// computed on first use.
    narrowest_served: OnceLock<f64>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GroupIndex>();
    assert_send_sync::<GroupCore>();
};

impl GroupCore {
    /// The group pass of `r` (a slice, copied, or an `Arc<PointSet>`,
    /// shared) over a ready grid, whose build is charged to whoever
    /// built it.
    ///
    /// The grouping of `r` is kept as the members' ids, its empty-block
    /// groups dropped in place, so the pass peaks at the grouping's own
    /// 8 B a point ([`Grid::group_by_cell`]), 4 B a point over what it
    /// keeps.
    ///
    /// # Panics
    /// Panics if `r` has more than `u32::MAX` points.
    pub fn build(r: impl IntoPointSet, grid: Arc<Grid>) -> Self {
        let r = r.into_point_set();
        let t0 = Instant::now();
        let mut groups = grid.group_by_cell(&r);
        // At most one row a group, allocated once: exact capacities
        // once shrunk, as `own_bytes` counts what is allocated.
        let mut rows = Vec::with_capacity(groups.len());
        let mut blocks = Vec::with_capacity(groups.len());
        let mut weights = Vec::with_capacity(groups.len());
        groups.retain(|members| {
            let (row, slots) = block_row(&grid, &r, members);
            if row.total() == 0 {
                return false;
            }
            weights.push(members.len() as f64 * f64::from(row.total()));
            rows.push(row);
            blocks.push(slots);
            true
        });
        rows.shrink_to_fit();
        blocks.shrink_to_fit();
        let alias = AliasTable::new(&weights);
        let upper_bounding = t0.elapsed();
        GroupCore {
            grid,
            r,
            groups,
            rows,
            blocks,
            alias,
            build_report: PhaseReport {
                upper_bounding,
                upper_bounding_cpu: upper_bounding,
                ..PhaseReport::default()
            },
            narrowest_served: OnceLock::new(),
        }
    }

    /// The grid the rows stand on: the whole `S`-side.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// The `R` the rows draw from: the set they were built on, shared.
    pub fn r_set(&self) -> &Arc<PointSet> {
        &self.r
    }

    /// Number of rows: the cells of `R` whose block holds a point.
    pub fn group_count(&self) -> usize {
        self.rows.len()
    }

    /// What the group pass cost, as upper bounding.
    pub fn build_report(&self) -> PhaseReport {
        self.build_report
    }

    /// Whether these rows serve the window of half-extent `l`: a probe
    /// of 4096 iterations of their own kernel, from a fixed seed,
    /// accepts at least half of them — at most two iterations a sample
    /// (`MIN_PROBE_ACCEPTED` says why two).
    ///
    /// The probe's words pick a group, a member and a position whatever
    /// the window is, and only the window test reads `l`, so the verdict
    /// of every window is one number: the narrowest window served,
    /// computed the first time any window is asked for and kept.
    ///
    /// # Panics
    /// Panics if `l` exceeds the cell side.
    pub fn serves(&self, l: f64) -> bool {
        assert!(
            l <= self.grid.cell_side(),
            "window {l} exceeds the rows' cell side {}",
            self.grid.cell_side()
        );
        let narrowest = self.narrowest_served.get_or_init(|| {
            // The window that reaches `MIN_PROBE_ACCEPTED` candidates.
            let mut least = self.probe_windows();
            *least
                .select_nth_unstable_by(MIN_PROBE_ACCEPTED - 1, f64::total_cmp)
                .1
        });
        l >= *narrowest
    }

    /// [`GroupCore::serves`] where the rows have computed their verdict,
    /// `None` before: never probes.
    pub fn verdict(&self, l: f64) -> Option<bool> {
        self.narrowest_served.get().map(|&narrowest| l >= narrowest)
    }

    /// The probe of [`GroupCore::serves`], run at the cell side: for each
    /// of its 4096 candidates in order, the least half-extent whose
    /// window test accepts it, `∞` where the side's rejects it (every
    /// one, on an empty join). A window up to the side accepts exactly
    /// the candidates whose least half-extent it reaches.
    pub fn probe_windows(&self) -> Vec<f64> {
        let side = self.grid.cell_side();
        let mut rng = SmallRng::seed_from_u64(PROBE_SEED);
        let (mut outcomes, mut stats) = (Vec::new(), PhaseReport::default());
        let probed = self.try_many(side, PROBE_ITERATIONS, &mut rng, &mut stats, &mut outcomes);
        let mut least = vec![f64::INFINITY; PROBE_ITERATIONS];
        if probed.is_ok() {
            for (least, pair) in least.iter_mut().zip(outcomes) {
                if let Some(pair) = pair {
                    let (r, s) = (self.r[pair.r as usize], self.grid.point(pair.s));
                    *least = least_half_extent(r, s, side);
                }
            }
        }
        least
    }

    /// Heap bytes of the core beyond the two point sets it stands on —
    /// the grid's cells and map, the grouping of `R` (as `r_points`),
    /// the rows and the alias: what a second index on the same core adds
    /// nothing to.
    pub fn own_bytes(&self) -> IndexBytes {
        let grid = IndexBytes::of_grid(&self.grid);
        IndexBytes {
            r_points: self.groups.memory_bytes(),
            rows: self.rows.capacity() * std::mem::size_of::<BlockRow>()
                + self.blocks.capacity() * std::mem::size_of::<[u32; NUM_CELLS]>(),
            alias: self.alias.as_ref().map_or(0, AliasTable::memory_bytes),
            point_set: 0,
            ..grid
        }
    }

    /// Position in the grouping's order of a uniform member of group
    /// `g`.
    #[inline]
    fn member_at(&self, g: usize, word: u64) -> usize {
        let members = self.groups.range(g);
        let len = members.end - members.start;
        members.start + ((u128::from(word) * len as u128) >> 64) as usize
    }

    /// A uniform position of group `g`'s row as the grid slot of its
    /// cell and the rank inside it, both read off the group's rows: no
    /// grid probe.
    #[inline]
    fn pick(&self, g: usize, word: u64) -> (u32, u32) {
        let pick = self.rows[g]
            .pick_word(word)
            .expect("alias returned a group with an empty block");
        debug_assert!(pick.part < NUM_CELLS, "a group row has no extra part");
        let slot = self.blocks[g][pick.part];
        assert!(
            slot != NO_CELL,
            "positive cell population for an empty cell"
        );
        (slot, pick.rank)
    }

    /// The window test of an iteration at half-extent `l`: `r` (its
    /// index and point) against the candidate `s`. Owns the
    /// per-iteration accounting, so [`SamplerIndex::try_draw`], the block
    /// kernel and the probe cannot disagree on it.
    #[inline]
    fn accept(
        l: f64,
        (ridx, rp): (u32, Point),
        (sid, sp): (PointId, Point),
        stats: &mut PhaseReport,
    ) -> Option<JoinPair> {
        stats.iterations += 1;
        Rect::window(rp, l).contains(sp).then(|| {
            stats.samples += 1;
            JoinPair::new(ridx, sid)
        })
    }

    /// The block kernel at half-extent `l`: see
    /// [`GroupIndex`]'s [`SamplerIndex::try_many`].
    #[inline]
    fn try_many<R: Rng + ?Sized>(
        &self,
        l: f64,
        n: usize,
        rng: &mut R,
        stats: &mut PhaseReport,
        out: &mut Vec<Option<JoinPair>>,
    ) -> Result<(), SampleError> {
        let mut group = [0usize; BLOCK];
        let mut ridx = [0u32; BLOCK];
        let mut rp = [Point::default(); BLOCK];
        let mut picked = [(0u32, 0u32); BLOCK];
        let mut members: [&[PointId]; BLOCK] = [&[]; BLOCK];
        let mut sid = [0 as PointId; BLOCK];
        let mut sp = [Point::default(); BLOCK];
        // The core's arrays as locals: they stay in registers across
        // the stages instead of being read back off the shared self.
        let (ids, r, grid) = (self.groups.order(), self.r.points(), &*self.grid);
        let mut left = n;
        while left > 0 {
            // Asked only while an iteration is wanted: `n = 0` is `Ok`
            // even on an empty join.
            let alias = self.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
            let b = left.min(BLOCK);
            alias.sample_many(rng, &mut group[..b]);
            for (i, &g) in ridx[..b].iter_mut().zip(&group[..b]) {
                *i = self.member_at(g, rng.next_u64()) as u32;
            }
            for i in &mut ridx[..b] {
                *i = ids[*i as usize];
            }
            for (p, &i) in rp[..b].iter_mut().zip(&ridx[..b]) {
                *p = r[i as usize];
            }
            for (p, &g) in picked[..b].iter_mut().zip(&group[..b]) {
                *p = self.pick(g, rng.next_u64());
            }
            for (m, &(slot, _)) in members[..b].iter_mut().zip(&picked[..b]) {
                *m = grid.cell(slot).members();
            }
            for ((s, m), &(_, rank)) in sid[..b].iter_mut().zip(&members[..b]).zip(&picked[..b]) {
                *s = m[rank as usize];
            }
            for (p, &s) in sp[..b].iter_mut().zip(&sid[..b]) {
                *p = grid.point(s);
            }
            out.extend((0..b).map(|k| Self::accept(l, (ridx[k], rp[k]), (sid[k], sp[k]), stats)));
            left -= b;
        }
        Ok(())
    }
}

/// The least half-extent `l` whose window around `r` contains `s`,
/// given that `side` is one: exact, as the window test rounds. The test
/// is monotone in `l` — both edges of the window move outward as `l`
/// grows, rounding included — so a walk by ulps from any start ends
/// there. The start is each axis' distance less half an ulp of `s`'s
/// coordinate on the side of `r` — where `r ± l` starts to round onto
/// `s` — so the walk is an ulp or two even where the coordinates'
/// ulps dwarf the window's.
fn least_half_extent(r: Point, s: Point, side: f64) -> f64 {
    let fits = |l: f64| Rect::window(r, l).contains(s);
    let reach = |r: f64, s: f64| {
        let toward = if s > r { s.next_down() } else { s.next_up() };
        (s - r).abs() - (s - toward).abs() / 2.0
    };
    let mut l = reach(r.x, s.x).max(reach(r.y, s.y)).clamp(0.0, side);
    while l > 0.0 && fits(l.next_down()) {
        l = l.next_down();
    }
    while !fits(l) {
        l = l.next_up();
    }
    l
}

impl GroupIndex {
    /// Builds the grid over `s` (a slice, copied, or an `Arc<PointSet>`,
    /// shared) at cell side `config.half_extent` and the group rows of
    /// `r` (the same) over it.
    pub fn build(r: impl IntoPointSet, s: impl IntoPointSet, config: &SampleConfig) -> Self {
        let t0 = Instant::now();
        let grid = Arc::new(Grid::build(s, config.half_extent));
        let grid_mapping = t0.elapsed();
        let mut index = Self::build_on_grid(r, grid, config);
        index.build_report.grid_mapping = grid_mapping;
        index
    }

    /// The group pass over a ready grid ([`GroupCore::build`]), whose
    /// build is charged to whoever built it.
    ///
    /// # Panics
    /// Panics if the grid's cell side is below `config.half_extent` (a
    /// window would leave its 3×3 block), or if `r` has more than
    /// `u32::MAX` points.
    pub fn build_on_grid(r: impl IntoPointSet, grid: Arc<Grid>, config: &SampleConfig) -> Self {
        Self::assert_fits(&grid, config);
        let core = GroupCore::build(r, grid);
        let build_report = core.build_report();
        GroupIndex {
            build_report,
            ..Self::on_core(Arc::new(core), config)
        }
    }

    /// The window `config.half_extent` over ready rows, which cost this
    /// index nothing: its build report is empty.
    ///
    /// # Panics
    /// Panics if the core's cell side is below `config.half_extent`.
    pub fn on_core(core: Arc<GroupCore>, config: &SampleConfig) -> Self {
        Self::assert_fits(&core.grid, config);
        GroupIndex {
            core,
            config: *config,
            build_report: PhaseReport::default(),
        }
    }

    /// This index for the windows of half-extent `l` on the same rows,
    /// in `O(1)`: [`GroupIndex::on_core`] at `l`, the rest of the
    /// configuration kept.
    ///
    /// # Panics
    /// Panics if the core's cell side is below `l`.
    pub fn at(&self, l: f64) -> Self {
        let config = SampleConfig {
            half_extent: l,
            ..self.config
        };
        Self::on_core(Arc::clone(&self.core), &config)
    }

    fn assert_fits(grid: &Grid, config: &SampleConfig) {
        assert!(
            grid.cell_side() >= config.half_extent,
            "grid cell side ({}) must be at least the window half-extent ({})",
            grid.cell_side(),
            config.half_extent
        );
    }

    /// The rows this index draws from, shared.
    pub fn core(&self) -> &Arc<GroupCore> {
        &self.core
    }

    /// The grid the index stands on: its whole `S`-side.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.core.grid
    }

    /// The `R` the index draws from: the set it was built on, shared.
    pub fn r_set(&self) -> &Arc<PointSet> {
        &self.core.r
    }

    /// Number of rows: the cells of `R` whose block holds a point.
    pub fn group_count(&self) -> usize {
        self.core.group_count()
    }

    /// The rows, one per group.
    pub fn rows(&self) -> &[BlockRow] {
        &self.core.rows
    }

    /// The rows' cell slots, one `[slot; 9]` per group in the row's part
    /// order ([`NO_CELL`] where the part is 0).
    pub fn blocks(&self) -> &[[u32; NUM_CELLS]] {
        &self.core.blocks
    }

    /// Group `g`'s members, as indices into [`GroupIndex::r_set`].
    pub fn group_members(&self, g: usize) -> &[u32] {
        self.core.groups.members(g)
    }

    /// `W = Σ_g |R_g| · µ_g = Σ_r µ(r)` under the §III-B bound.
    pub fn mu_total(&self) -> f64 {
        self.core
            .alias
            .as_ref()
            .map_or(0.0, AliasTable::total_weight)
    }
}

impl SamplerIndex for GroupIndex {
    type Scratch = ();

    fn algorithm_name(&self) -> &'static str {
        "BBST (group rows)"
    }

    /// One iteration: three words, in the order alias, member, position.
    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        _scratch: &mut (),
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        let core = &*self.core;
        let alias = core.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
        let g = alias.sample_word(rng.next_u64());
        let ridx = core.groups.order()[core.member_at(g, rng.next_u64())];
        let (slot, rank) = core.pick(g, rng.next_u64());
        let sid = core.grid.cell(slot).members()[rank as usize];
        let (r, s) = ((ridx, core.r[ridx as usize]), (sid, core.grid.point(sid)));
        Ok(GroupCore::accept(self.config.half_extent, r, s, stats))
    }

    /// The block kernel: the iterations of [`Self::try_draw`], up to
    /// `BLOCK` (64) at a time and one dependent load per stage — every
    /// group; every member position; its index into `R`, then its point;
    /// every pick off its group's rows; the picked cell's members, then
    /// the candidate's id, then its point; then every window test — so
    /// the cache misses of one stage (alias column, member id, `R`
    /// point, group rows, cell, cell array, `S` point) are those of up
    /// to 64 independent iterations in flight together.
    ///
    /// Each iteration spends its own three words and nothing else, so
    /// the outcomes are those of independent `try_draw`s (the
    /// [`SamplerIndex::try_many`] condition). A block takes its alias
    /// words first, its member words second and its position words
    /// last: iteration `i` of a block of `b` sees words `i`, `b + i`
    /// and `2b + i`, so the pairs are a function of the seed **and** of
    /// the sequence of `t`s a caller passes.
    fn try_many<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        _scratch: &mut (),
        stats: &mut PhaseReport,
        out: &mut Vec<Option<JoinPair>>,
    ) -> Result<(), SampleError> {
        self.core
            .try_many(self.config.half_extent, n, rng, stats, out)
    }

    fn rejection_limit(&self) -> u64 {
        self.config.max_consecutive_rejections
    }

    fn total_weight(&self) -> f64 {
        self.mu_total()
    }

    fn index_build_report(&self) -> PhaseReport {
        self.build_report
    }

    /// The core's own bytes and the two point sets it stands on.
    fn index_bytes(&self) -> IndexBytes {
        let own = self.core.own_bytes();
        IndexBytes {
            r_points: own.r_points + self.core.r.memory_bytes(),
            point_set: self.core.grid.point_set().memory_bytes(),
            ..own
        }
    }
}

/// Cheap per-thread query state over a shared [`GroupIndex`] (see
/// [`Cursor`]).
pub type GroupCursor = Cursor<GroupIndex>;
