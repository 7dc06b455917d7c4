//! BBST rows at group granularity: one row per cell of `R`
//! ([`GroupIndex`]). Every `r` of a cell sees the same 3×3 block, so the
//! group pass ([`block_rows`]) resolves each block once — its nine cell
//! populations and its nine cells' grid slots — and a draw reads both
//! off the group's rows: the grid's hash is read only at build.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use srj_alias::{AliasTable, BlockRow, NUM_CELLS};
use srj_geom::{Point, PointId, Rect};
use srj_grid::{CellGroups, Grid, IntoPointSet};

use crate::config::{JoinPair, PhaseReport, SampleConfig, SampleError};
use crate::cursor::{Cursor, IndexBytes, SamplerIndex, BLOCK};

/// A block cell that holds no point of `S`: the slot a group row stores
/// for it.
pub const NO_CELL: u32 = u32::MAX;

/// The group pass: `R` is grouped by grid cell ([`Grid::group_by_cell`]),
/// and every member of a group sees the same 3×3 block, so the §III-B
/// bound — `µ(r)` = the population of `r`'s block — is taken once per
/// group. Yields each group's members (indices into `r`) with the row of
/// its block's nine cell populations, extra part empty, and the nine
/// cells' grid slots ([`NO_CELL`] where a cell is empty): one
/// [`Grid::neighborhood_slots`] per group resolves the block for good.
///
/// `Σ |members| · row.total()` over the groups is `Σ_r µ(r)`; both are
/// sums of integers, so below 2⁵³ they are the same `f64` in any order.
///
/// # Panics
/// Panics if a block holds more than `u32::MAX` points
/// ([`BlockRow::new`]).
pub(crate) fn block_rows<'a>(
    grid: &'a Grid,
    r: &'a [Point],
    groups: &'a CellGroups,
) -> impl Iterator<Item = (&'a [u32], BlockRow, [u32; NUM_CELLS])> + 'a {
    groups.iter().map(move |members| {
        let slots = grid.neighborhood_slots(r[members[0] as usize]);
        let cells = slots.map(|slot| slot.map_or(0, |slot| grid.cell(slot).len() as u64));
        (
            members,
            BlockRow::new(cells, 0),
            slots.map(|slot| slot.unwrap_or(NO_CELL)),
        )
    })
}

/// The BBST family at **group granularity**: one row and one alias
/// column per non-empty cell of `R`, no per-cell structure over `S`
/// beyond the grid's own sorted arrays, no per-`r` pass.
///
/// The §III-B bound `µ(r)` — the population of the 3×3 block around
/// `r`'s cell — is a property of the cell, so all of a cell's `r` share
/// one [`BlockRow`] (the block's nine cell populations) and one slot row
/// (the block's nine cells' grid slots). The index is the shared
/// [`srj_grid::PointSet`], a scatter-built [`Grid`] on it, `R` in group
/// order, the rows, and one alias over `|R_g| · µ_g`: an `O(n + m)`
/// build with a hash probe per point as its most expensive step — the
/// only hash probes the index ever makes.
///
/// One iteration spends three words — alias → group, uniform member →
/// `r`, uniform position in the row → part and rank — then reads the
/// part's slot off the group's slot row (no grid probe),
/// `s = cell.by_x[rank]`, and tests `s ∈ w(r)`. Every
/// `(r, position)` has probability
/// `(|R_g| µ_g / W) · (1 / |R_g|) · (1 / µ_g) = 1 / W`, and each pair of
/// `J` is exactly one such position, so accepted pairs are uniform and
/// independent (the §III-B argument) at `W / |J|` expected iterations a
/// sample. That ratio has no guarantee: it is ≈ 9/4 on locally uniform
/// data and close to 1 where `S` is clustered below the window size —
/// which is when this index beats per-`r` rows ([`crate::BbstIndex`])
/// outright; `srj-engine` measures it at build time and picks.
///
/// `Send + Sync`, never mutated after build.
pub struct GroupIndex {
    grid: Arc<Grid>,
    /// `R` in group order, and beside it each point's index in the
    /// input (two arrays: 20 B per `r`, not a padded 24): group `g` is
    /// `points[starts[g]..starts[g + 1]]`. Groups whose block is empty
    /// are not kept.
    points: Vec<Point>,
    ids: Vec<u32>,
    starts: Vec<u32>,
    /// Per group: the nine cell populations of its block.
    rows: Vec<BlockRow>,
    /// Per group: the grid slots of its block's nine cells, [`NO_CELL`]
    /// where a cell is empty — shared by every member, since all of them
    /// lie in one cell.
    blocks: Vec<[u32; NUM_CELLS]>,
    /// Over `|R_g| · µ_g`.
    alias: Option<AliasTable>,
    config: SampleConfig,
    build_report: PhaseReport,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GroupIndex>();
};

impl GroupIndex {
    /// Builds the grid over `s` (a slice, copied, or an `Arc<PointSet>`,
    /// shared) and the group rows over it.
    pub fn build(r: &[Point], s: impl IntoPointSet, config: &SampleConfig) -> Self {
        let s = s.into_point_set();
        let preprocessing = s.ensure_orders();
        let t0 = Instant::now();
        let grid = Arc::new(Grid::build(s, config.half_extent));
        let grid_mapping = t0.elapsed();
        let mut index = Self::build_on_grid(r, grid, config);
        index.build_report.preprocessing = preprocessing;
        index.build_report.grid_mapping = grid_mapping;
        index
    }

    /// The group pass over a ready grid, whose build is charged to
    /// whoever built it.
    ///
    /// # Panics
    /// Panics if the grid's cell side differs from `config.half_extent`
    /// (a window would leave its 3×3 block), or if `r` has more than
    /// `u32::MAX` points.
    pub fn build_on_grid(r: &[Point], grid: Arc<Grid>, config: &SampleConfig) -> Self {
        assert!(
            grid.cell_side().to_bits() == config.half_extent.to_bits(),
            "grid cell side ({}) must equal the window half-extent ({})",
            grid.cell_side(),
            config.half_extent
        );
        let t0 = Instant::now();
        let groups = grid.group_by_cell(r);
        let mut points = Vec::with_capacity(r.len());
        let mut ids = Vec::with_capacity(r.len());
        let mut starts = vec![0u32];
        let mut rows = Vec::new();
        let mut blocks = Vec::new();
        let mut weights = Vec::new();
        for (members, row, slots) in block_rows(&grid, r, &groups) {
            if row.total() == 0 {
                continue;
            }
            points.extend(members.iter().map(|&i| r[i as usize]));
            ids.extend_from_slice(members);
            starts.push(points.len() as u32);
            weights.push(members.len() as f64 * f64::from(row.total()));
            rows.push(row);
            blocks.push(slots);
        }
        // Exact capacities: `index_bytes` counts what is allocated.
        points.shrink_to_fit();
        ids.shrink_to_fit();
        starts.shrink_to_fit();
        rows.shrink_to_fit();
        blocks.shrink_to_fit();
        let alias = AliasTable::new(&weights);
        let upper_bounding = t0.elapsed();
        GroupIndex {
            grid,
            points,
            ids,
            starts,
            rows,
            blocks,
            alias,
            config: *config,
            build_report: PhaseReport {
                upper_bounding,
                upper_bounding_cpu: upper_bounding,
                ..PhaseReport::default()
            },
        }
    }

    /// The grid the index stands on: its whole `S`-side.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// Number of rows: the cells of `R` whose block holds a point.
    pub fn group_count(&self) -> usize {
        self.rows.len()
    }

    /// The rows, one per group.
    pub fn rows(&self) -> &[BlockRow] {
        &self.rows
    }

    /// The rows' cell slots, one `[slot; 9]` per group in the row's part
    /// order ([`NO_CELL`] where the part is 0).
    pub fn blocks(&self) -> &[[u32; NUM_CELLS]] {
        &self.blocks
    }

    /// Group `g`'s members: their points, and beside each its index in
    /// the input.
    pub fn group_members(&self, g: usize) -> (&[Point], &[u32]) {
        let range = self.starts[g] as usize..self.starts[g + 1] as usize;
        (&self.points[range.clone()], &self.ids[range])
    }

    /// `W = Σ_g |R_g| · µ_g = Σ_r µ(r)` under the §III-B bound.
    pub fn mu_total(&self) -> f64 {
        self.alias.as_ref().map_or(0.0, AliasTable::total_weight)
    }

    /// Position in `points` of a uniform member of group `g`.
    #[inline]
    fn member_at(&self, g: usize, word: u64) -> usize {
        let (lo, hi) = (self.starts[g], self.starts[g + 1]);
        lo as usize + ((u128::from(word) * u128::from(hi - lo)) >> 64) as usize
    }

    /// The member at position `at`: its point and its index in the input.
    #[inline]
    fn member(&self, at: usize) -> (Point, u32) {
        (self.points[at], self.ids[at])
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

    /// The candidate at `rank` of the picked cell and the window test.
    /// Owns the per-iteration accounting, so [`SamplerIndex::try_draw`]
    /// and the block kernel cannot disagree on it.
    #[inline]
    fn resolve(
        &self,
        (rp, ridx): (Point, u32),
        (slot, rank): (u32, u32),
        stats: &mut PhaseReport,
    ) -> Option<JoinPair> {
        stats.iterations += 1;
        let sid: PointId = self.grid.cell(slot).by_x[rank as usize];
        let w = Rect::window(rp, self.config.half_extent);
        w.contains(self.grid.point(sid)).then(|| {
            stats.samples += 1;
            JoinPair::new(ridx, sid)
        })
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
        let alias = self.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
        let g = alias.sample_word(rng.next_u64());
        let r = self.member(self.member_at(g, rng.next_u64()));
        let picked = self.pick(g, rng.next_u64());
        Ok(self.resolve(r, picked, stats))
    }

    /// The block kernel: the iterations of [`Self::try_draw`], up to
    /// `BLOCK` (64) at a time and stage by stage — every group, every
    /// member position, every `r`, every pick off its group's rows, then
    /// every candidate with its test — so the cache misses of one stage
    /// (alias column, `R` entry, group rows, cell array and `S` point)
    /// are those of up to 64 independent iterations in flight together.
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
        let mut group = [0usize; BLOCK];
        let mut at = [0usize; BLOCK];
        let mut r = [(Point::default(), 0u32); BLOCK];
        let mut picked = [(0u32, 0u32); BLOCK];
        let mut left = n;
        while left > 0 {
            // Asked only while an iteration is wanted: `n = 0` is `Ok`
            // even on an empty join.
            let alias = self.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
            let b = left.min(BLOCK);
            alias.sample_many(rng, &mut group[..b]);
            for (at, &g) in at[..b].iter_mut().zip(&group[..b]) {
                *at = self.member_at(g, rng.next_u64());
            }
            for (r, &at) in r[..b].iter_mut().zip(&at[..b]) {
                *r = self.member(at);
            }
            for (p, &g) in picked[..b].iter_mut().zip(&group[..b]) {
                *p = self.pick(g, rng.next_u64());
            }
            out.extend(
                r[..b]
                    .iter()
                    .zip(&picked[..b])
                    .map(|(&r, &p)| self.resolve(r, p, stats)),
            );
            left -= b;
        }
        Ok(())
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

    fn index_bytes(&self) -> IndexBytes {
        IndexBytes {
            r_points: self.points.capacity() * std::mem::size_of::<Point>()
                + (self.ids.capacity() + self.starts.capacity()) * std::mem::size_of::<u32>(),
            rows: self.rows.capacity() * std::mem::size_of::<BlockRow>()
                + self.blocks.capacity() * std::mem::size_of::<[u32; NUM_CELLS]>(),
            alias: self.alias.as_ref().map_or(0, AliasTable::memory_bytes),
            ..IndexBytes::of_grid(&self.grid)
        }
    }
}

/// Cheap per-thread query state over a shared [`GroupIndex`] (see
/// [`Cursor`]).
pub type GroupCursor = Cursor<GroupIndex>;
