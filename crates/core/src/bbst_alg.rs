use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use srj_alias::{AliasTable, BlockRow, RowPick, NUM_CELLS};
use srj_bbst::{bucket_capacity, CellBbsts};
use srj_geom::{Point, PointId, Rect};
use srj_grid::{case_of, CellCase, Grid, IntoPointSet, PointSet};

use crate::cellstore::{BbstCellCtx, CellStore, PatchReport};
use crate::config::{JoinPair, PhaseReport, SampleConfig, SampleError};
use crate::cursor::{Cursor, IndexBytes, SamplerIndex, BLOCK};
use crate::decompose::{case12_draw, quadrant_query, upper_bounding};
use crate::parallel::effective_threads;

/// Immutable build product of the paper's proposed algorithm
/// (Section IV, Algorithm 1): `Õ(n + m + t)` expected time,
/// `O(n + m)` space.
///
/// **Phase 1 — online data-structure building** (`GRID-MAPPING` +
/// `BBST-BUILDING`): map `S` onto a grid of cell side `l`, sort each
/// cell's ids in x order and in y order ([`Grid::sort_views`]) and build
/// the two per-cell BBSTs. `O(m log m)` (Lemma 3).
///
/// **Phase 2 — approximate range counting** (`UPPER-BOUNDING` +
/// `ALIAS-BUILDING`): for every `r`, decompose `w(r)` over the 3×3 cell
/// block — exact counts for the fully-covered centre (case 1) and the
/// 1-sided edge cells (case 2), BBST quadrant bounds for the 2-sided
/// corner cells (case 3) — then build the per-`r` cell distribution
/// `A_r` and the global alias `A` over `µ(r)`. `O(n log m)` (Lemma 4),
/// with `|S(w(r))| ≤ µ(r) ≤ max{O(log m)·|S(w(r))|, O(log m)}`
/// (Lemma 5). The pass is **cell-major** — group → sweep → scatter:
///
/// * **group** — `R` is counting-sorted by the grid cell that contains
///   each `r` ([`Grid::group_by_cell`]). Every member of a group sees
///   the same 3×3 block, so the block's nine hash probes are paid once
///   per group, not once per `r`.
/// * **sweep** — the block is walked neighbour by neighbour, the whole
///   group against one `S` cell at a time, so that cell's sorted arrays
///   and BBST pair stay in cache. Case 1 is one number for the group.
///   Case 2 takes the members in coordinate order: their window edges
///   cut the cell's array at non-decreasing positions, so each binary
///   search shrinks to a gallop from the previous cut. Case 3 is the
///   same quadrant count per `r`, now back to back on one tree.
/// * **scatter** — each member's nine weights go to `rows[ridx]`, its
///   position in `R`; `A` is then built over the totals in that order.
///
/// The rows are **the same integers** the per-`r` form of Algorithm 1
/// produces (nine probes, four binary searches, four tree walks for one
/// `r` after another, in input order): counts do not depend on the
/// order they are taken in. Hence `Σµ`, the alias and every fixed-seed
/// sample stream are bit-identical to that form at every
/// `build_threads`. The per-`r` form stays in the crate only as the
/// reference the sweep is tested against — a proptest compares all nine
/// weights of every row, and every debug build re-derives every 64th
/// group with it — because it is the paper's text and plainly right,
/// while the sweep is only faster and equal.
///
/// Both phases happen once, in [`BbstIndex::build`]; the result is
/// `Send + Sync` and never mutated, so any number of threads can run
/// **phase 3 — sampling** against it concurrently through their own
/// [`BbstCursor`]s. One iteration (Algorithm 1 lines 12–15) is two
/// random words and two steps:
///
/// * **pick** — `r ∼ A` from the first word; from the second, a
///   uniform position in `[0, µ(r))`, which is a cell `∼ A_r` *and* a
///   rank inside that cell's `µ(r, c)` candidate slots; then one grid
///   probe, for the chosen neighbour only.
/// * **resolve** — the candidate at that rank, by case, and the test
///   `s ∈ w(r)`. A row weight is a count of positions, and phase 2
///   already stored it: for a case-1/2 cell it is the length of the
///   exact run, which is a prefix or suffix of the cell's x- or
///   y-sorted member array, so the rank indexes the array directly (no
///   binary search, no coordinate read); for a corner cell it is the
///   quadrant mass, so the rank goes straight into the BBST descent (no
///   second counting walk).
///
/// Cases 1–2 never reject; case 3 rejects with the bounded probability
/// of Lemma 5, so a sample costs `Õ(1)` expected time (Lemma 6) and
/// every pair of `J` is emitted with probability exactly `1/Σµ` per
/// iteration (Theorem 3) — i.e. accepted samples are uniform and
/// independent.
///
/// [`SamplerIndex::try_draw`] is exactly pick + resolve, and so is the
/// stream path built on it. A batch
/// ([`SamplerIndex::draw_many`], behind [`Cursor::sample_batch`]) — and
/// the base share of an overlay's batch — runs the same two steps up to
/// 64 iterations at a time, stage by stage, through the
/// [`SamplerIndex::try_many`] override; `draw_many`'s documentation
/// argues why block order leaves Theorem 3 untouched and why the pairs
/// then depend on the seed *and* the batch sizes.
pub struct BbstIndex {
    /// `R`, shared with every other index built on the same set.
    r: Arc<PointSet>,
    /// The `S`-side: grid + per-cell BBST pairs behind one `Arc`-shared,
    /// cell-granular [`CellStore`]. Rebuilds over a new `R` stand on the
    /// same copy ([`BbstIndex::build_shared`]); an epoch engine patches
    /// it cell by cell across rebuilds.
    store: Arc<CellStore<CellBbsts>>,
    /// Per-`r` cell distributions (`A_r` in Algorithm 1).
    rows: Vec<BlockRow>,
    /// Global alias over `µ(r)` (`A` in Algorithm 1).
    alias: Option<AliasTable>,
    config: SampleConfig,
    build_report: PhaseReport,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BbstIndex>();
};

/// The `S`-side of a [`BbstIndex`] (phase 1 of Algorithm 1): the grid
/// and the per-cell BBSTs behind one [`CellStore`], `Arc`-held so many
/// indexes — e.g. an engine's rebuilds over a new `R` — can be built
/// over one copy, and patchable cell by cell across epochs. Produced by
/// [`BbstIndex::build_s_structures`] or, over a grid the caller built,
/// [`BbstIndex::s_structures_on_grid`]; consumed by
/// [`BbstIndex::build_shared`].
pub struct BbstSStructures {
    store: Arc<CellStore<CellBbsts>>,
    /// Wall-clock of the per-cell sorts of `S` the build forced
    /// ([`Grid::sort_views`]): zero for cells already sorted.
    pub preprocessing: std::time::Duration,
    /// Wall-clock of grid construction + per-cell BBST builds.
    pub grid_mapping: std::time::Duration,
}

impl BbstSStructures {
    /// The cell store underneath.
    pub fn store(&self) -> &Arc<CellStore<CellBbsts>> {
        &self.store
    }

    /// Heap bytes of the shared structures.
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
    }

    /// Rebuilds only the cells touched by `inserted`/`deleted`,
    /// structurally sharing every clean cell with this `S`-side, on a
    /// copy of its set extended by `inserted`
    /// ([`BbstSStructures::patch_onto`]).
    pub fn patch(
        &self,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (BbstSStructures, PatchReport) {
        let set = self.store.grid().point_set().extended(inserted);
        self.patch_onto(Arc::new(set), deleted)
    }

    /// [`BbstSStructures::patch`] onto `set`, the set extended by the
    /// inserted points, which it holds (see [`CellStore::patch_onto`]).
    /// The patch cost is charged to the returned structure's
    /// `grid_mapping`.
    pub fn patch_onto(
        &self,
        set: Arc<PointSet>,
        deleted: &HashSet<PointId>,
    ) -> (BbstSStructures, PatchReport) {
        let t0 = Instant::now();
        let (store, report) = self.store.patch_onto(set, deleted);
        (
            BbstSStructures {
                store: Arc::new(store),
                preprocessing: std::time::Duration::ZERO,
                grid_mapping: t0.elapsed(),
            },
            report,
        )
    }
}

impl BbstIndex {
    /// Runs phases 1 and 2 of Algorithm 1 (`s` as in
    /// [`BbstIndex::build_s_structures`]; `r` likewise, a slice or a
    /// shared set).
    pub fn build(r: impl IntoPointSet, s: impl IntoPointSet, config: &SampleConfig) -> Self {
        let s_side = Self::build_s_structures(s, config);
        Self::build_inner(
            r.into_point_set(),
            Arc::clone(&s_side.store),
            config,
            s_side.preprocessing,
            s_side.grid_mapping,
        )
    }

    /// The per-cell BBSTs over a grid the caller already built with cell
    /// side `config.half_extent` — and may go on sharing: the structures
    /// hold the `Arc`, not a copy. The grid's cells are sorted first
    /// ([`Grid::sort_views`]), which is `preprocessing`; `grid_mapping`
    /// is what the trees cost; the grid's own build is the caller's to
    /// charge.
    pub fn s_structures_on_grid(grid: Arc<Grid>, config: &SampleConfig) -> BbstSStructures {
        let preprocessing = grid.sort_views(effective_threads(config.build_threads));
        let t1 = Instant::now();
        let ctx = BbstCellCtx {
            cap: bucket_capacity(grid.num_points()),
            cascading: config.use_cascading,
        };
        let store = CellStore::from_grid(grid, ctx, config.build_threads);
        BbstSStructures {
            store: Arc::new(store),
            preprocessing,
            grid_mapping: t1.elapsed(),
        }
    }

    /// Builds only the `S`-side structures (grid + per-cell BBSTs,
    /// behind one patchable [`CellStore`]) and records what phase 1
    /// cost. Hand the result to [`BbstIndex::build_shared`] to build
    /// indexes over several `R`s that hold one copy of the `S`-side; an
    /// epoch engine patches it cell by cell instead of rebuilding.
    ///
    /// `s` is a slice, copied, or an `Arc<PointSet>`, which the grid
    /// shares. The grid buckets `S` by cell ([`Grid::build`]); the sorts
    /// of every cell's members by x and by y are `preprocessing`
    /// ([`Grid::sort_views`]), and each cell's BBST pair is then built
    /// with one allocation per array.
    ///
    /// The per-cell sorts and BBSTs build on `config.build_threads`
    /// threads; each cell depends only on its own members and the
    /// immutable point slice, so the parallel build is bit-identical to
    /// serial.
    pub fn build_s_structures(s: impl IntoPointSet, config: &SampleConfig) -> BbstSStructures {
        let t1 = Instant::now();
        let grid = Arc::new(Grid::build(s, config.half_extent));
        let grid_time = t1.elapsed();
        let trees = Self::s_structures_on_grid(grid, config);
        BbstSStructures {
            grid_mapping: grid_time + trees.grid_mapping,
            ..trees
        }
    }

    /// Like [`BbstIndex::build`], but over already-built `S`-side
    /// structures (from [`BbstIndex::build_s_structures`]). Their build
    /// time is charged to whoever built them, so this index's report
    /// records zero preprocessing / grid-mapping.
    ///
    /// # Panics
    /// Panics if the structures were built for a different
    /// configuration — a grid whose cell side differs from
    /// `config.half_extent` would silently undercount windows (the 3×3
    /// decomposition assumes cell side = `l`), and a cascading
    /// mismatch would bound with the wrong mass mode.
    pub fn build_shared(
        r: impl IntoPointSet,
        config: &SampleConfig,
        s_side: &BbstSStructures,
    ) -> Self {
        let zero = std::time::Duration::ZERO;
        let store = Arc::clone(&s_side.store);
        Self::build_inner(r.into_point_set(), store, config, zero, zero)
    }

    /// Phase 2 over a ready `S`-side store.
    fn build_inner(
        r: Arc<PointSet>,
        store: Arc<CellStore<CellBbsts>>,
        config: &SampleConfig,
        preprocessing: std::time::Duration,
        grid_mapping: std::time::Duration,
    ) -> Self {
        assert!(
            store.grid().cell_side().to_bits() == config.half_extent.to_bits(),
            "shared grid cell side ({}) must equal the window half-extent ({})",
            store.grid().cell_side(),
            config.half_extent
        );
        assert!(
            store.ctx().cascading == config.use_cascading,
            "shared per-cell BBSTs were built with the opposite cascading mode"
        );
        // Phase 2 proper: the cell-major pass over `r`, each corner
        // cell bounded by its BBST pair under the build's mass mode —
        // the mode `resolve` draws under, which is what keeps Theorem 3's
        // `1/µ(r, c)` accounting exact.
        let ub = upper_bounding(
            store.grid(),
            &r,
            config.half_extent,
            config.build_threads,
            |slot, q| store.unit(slot).count_quadrant(q, config.mass_mode),
        );
        BbstIndex {
            r,
            store,
            rows: ub.rows,
            alias: ub.alias,
            config: *config,
            build_report: PhaseReport {
                preprocessing,
                grid_mapping,
                upper_bounding: ub.wall,
                upper_bounding_cpu: ub.cpu,
                ..PhaseReport::default()
            },
        }
    }

    /// Sum of the upper bounds `Σ_r µ(r)`.
    ///
    /// The paper's accuracy metric (§V-B) is `Σµ / |J|`; on the real
    /// datasets it reports 1.04–1.19, far below the `O(log m)` worst
    /// case of Lemma 5.
    pub fn mu_total(&self) -> f64 {
        self.alias.as_ref().map_or(0.0, AliasTable::total_weight)
    }

    /// The `R` the index draws from: the set it was built on, shared.
    pub fn r_set(&self) -> &Arc<PointSet> {
        &self.r
    }

    /// Upper bound `µ(r)` for one query point.
    pub fn mu_of(&self, ridx: usize) -> f64 {
        self.rows[ridx].total() as f64
    }

    /// The bucket capacity `⌈log₂ m⌉` in use.
    pub fn bucket_cap(&self) -> u32 {
        self.store.ctx().cap
    }

    /// The `Arc`-shared `S`-side structures (grid + per-cell BBSTs),
    /// for rebuilding an index over a mutated `R` without re-paying the
    /// `S`-side build, or for patching cell by cell when `S` mutated
    /// (epoch-based rebuilds hand these — or their
    /// [`BbstSStructures::patch`] — straight back to
    /// [`BbstIndex::build_shared`]). The returned structure's phase
    /// durations are zero: the build cost was charged to this index's
    /// report.
    pub fn s_structures(&self) -> BbstSStructures {
        BbstSStructures {
            store: Arc::clone(&self.store),
            preprocessing: std::time::Duration::ZERO,
            grid_mapping: std::time::Duration::ZERO,
        }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SampleConfig {
        &self.config
    }

    /// Build-phase timing (preprocessing + GM + UB).
    pub fn build_report(&self) -> PhaseReport {
        self.build_report
    }

    /// Approximate heap footprint of the retained structures.
    pub fn memory_bytes(&self) -> usize {
        self.index_bytes().total()
    }
}

/// What [`BbstIndex::pick`] hands to [`BbstIndex::resolve`]: the chosen
/// `r`, the chosen neighbour cell, and the position inside that cell's
/// `µ(r, c)` candidate slots.
#[derive(Clone, Copy, Default)]
struct Picked {
    ridx: u32,
    rp: Point,
    /// Store slot of the chosen cell.
    slot: u32,
    /// Neighbour index, in-cell rank and `µ(r, c)` of the chosen cell.
    row: RowPick,
}

impl BbstIndex {
    /// First half of an iteration (Algorithm 1 line 13): the cell
    /// `∼ A_r` with the rank inside it, both from `word`, and **one**
    /// grid probe — for the chosen neighbour only. `rp` and `row` are
    /// `r[ridx]` and `rows[ridx]`, passed in so the block kernel
    /// can gather them for a whole block first.
    #[inline]
    fn pick(&self, ridx: usize, rp: Point, row: &BlockRow, word: u64) -> Picked {
        // Positive weight because the alias only returns r with µ(r) > 0.
        let row = row
            .pick_word(word)
            .expect("alias returned r with zero µ(r)");
        debug_assert!(row.part < NUM_CELLS, "a base row has no extra part");
        let slot = self
            .store
            .grid()
            .neighbor_slot(rp, row.part)
            .expect("positive cell weight for an empty cell");
        Picked {
            ridx: ridx as u32,
            rp,
            slot,
            row,
        }
    }

    /// Second half of an iteration (lines 14–15): the candidate at the
    /// picked rank, by case, and the window test. Everything the
    /// upper-bounding phase computed for `(r, c)` is *read* here, not
    /// recomputed: `row.weight` is `µ(r, c)`, which for a case-1/2 cell
    /// is the length of the exact run — a prefix or suffix of a sorted
    /// member array, so `rank` indexes it directly — and for a corner
    /// cell is the quadrant mass the ranked BBST descent ranks into.
    ///
    /// Owns the per-iteration accounting (`iterations`, `samples`), so
    /// [`SamplerIndex::try_draw`] and the block kernel cannot disagree
    /// on it.
    #[inline]
    fn resolve(&self, p: &Picked, stats: &mut PhaseReport) -> Option<JoinPair> {
        stats.iterations += 1;
        let grid = self.store.grid();
        let cell = grid.cell(p.slot);
        let w = Rect::window(p.rp, self.config.half_extent);
        // Line 14: s from the cell, by case.
        let accepted: Option<PointId> = match case_of(p.row.part) {
            CellCase::Quadrant { x_is_min, y_is_min } => {
                let q = quadrant_query(x_is_min, y_is_min, &w);
                self.store
                    .unit(p.slot)
                    .sample_quadrant_at(&q, self.config.mass_mode, u64::from(p.row.rank))
                    .map(|pos| cell.by_x(grid.points())[pos as usize])
                    // Line 15: accept iff w(r) ∩ s.
                    .filter(|&sid| w.contains(grid.point(sid)))
            }
            // Exact cases never reject.
            case => Some(case12_draw(&self.store, p.slot, case, &p.row, &w)),
        };
        // Rejections happen only in the corner (case-3) cells: a dud
        // virtual slot or a candidate outside the window.
        let sid = accepted?;
        stats.samples += 1;
        Some(JoinPair::new(p.ridx, sid))
    }
}

impl SamplerIndex for BbstIndex {
    type Scratch = ();

    fn algorithm_name(&self) -> &'static str {
        "BBST"
    }

    /// One iteration of Algorithm 1's sampling phase (lines 12–15):
    /// `pick` on two fresh words, then `resolve`.
    fn try_draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        _scratch: &mut (),
        stats: &mut PhaseReport,
    ) -> Result<Option<JoinPair>, SampleError> {
        let alias = self.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
        // Line 12: r ~ A.
        let ridx = alias.sample_word(rng.next_u64());
        let picked = self.pick(ridx, self.r[ridx], &self.rows[ridx], rng.next_u64());
        Ok(self.resolve(&picked, stats))
    }

    /// The block kernel: the same iterations as [`Self::try_draw`], run
    /// up to `BLOCK` (64) at a time and stage by stage — every `r`, then
    /// every row gather, then every pick with its grid probe, then the
    /// resolves in iteration order — so that the cache misses of one
    /// stage (alias column, `R`/`rows` entry, grid bucket) are
    /// those of up to 64 independent samples in flight together rather
    /// than one sample's dependent chain after another's.
    ///
    /// Each iteration spends its own two words and nothing else, so the
    /// outcomes are those of independent [`Self::try_draw`]s (the
    /// [`SamplerIndex::try_many`] condition), and
    /// [`SamplerIndex::draw_many`]'s argument for Theorem 3's `1/Σµ` per
    /// pair per iteration applies unchanged.
    ///
    /// A block takes its `r` words first and its pick words second, so
    /// which word an iteration sees depends on the block it sits in:
    /// the pairs are a function of the seed **and** of the sequence of
    /// `t`s a caller passes.
    fn try_many<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
        _scratch: &mut (),
        stats: &mut PhaseReport,
        out: &mut Vec<Option<JoinPair>>,
    ) -> Result<(), SampleError> {
        let mut ridx = [0usize; BLOCK];
        let mut gathered = [(Point::default(), BlockRow::default()); BLOCK];
        let mut picked = [Picked::default(); BLOCK];
        let mut left = n;
        while left > 0 {
            // Asked only while an iteration is wanted: `n = 0` is `Ok`
            // even on an empty join.
            let alias = self.alias.as_ref().ok_or(SampleError::EmptyJoin)?;
            let b = left.min(BLOCK);
            alias.sample_many(rng, &mut ridx[..b]);
            for (g, &i) in gathered[..b].iter_mut().zip(&ridx[..b]) {
                *g = (self.r[i], self.rows[i]);
            }
            for ((p, &i), (rp, row)) in picked[..b].iter_mut().zip(&ridx[..b]).zip(&gathered[..b]) {
                *p = self.pick(i, *rp, row, rng.next_u64());
            }
            out.extend(picked[..b].iter().map(|p| self.resolve(p, stats)));
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
            r_points: self.r.memory_bytes(),
            rows: self.rows.capacity() * std::mem::size_of::<BlockRow>(),
            alias: self.alias.as_ref().map_or(0, AliasTable::memory_bytes),
            ..self.store.index_bytes()
        }
    }
}

/// Cheap per-thread query state over a shared [`BbstIndex`] (see
/// [`Cursor`]): the sampling-phase statistics.
pub type BbstCursor = Cursor<BbstIndex>;

impl Cursor<BbstIndex> {
    /// Builds the index and a cursor over it.
    pub fn build(r: &[Point], s: &[Point], config: &SampleConfig) -> Self {
        Cursor::new(Arc::new(BbstIndex::build(r, s, config)))
    }

    /// Unbiased estimate of the join cardinality `|J|` from this
    /// cursor's sampling statistics, or `None` before any sampling
    /// iteration ran.
    ///
    /// Each sampling iteration accepts with probability exactly
    /// `|J| / Σµ` (Theorem 3's accounting), so
    /// `|J| ≈ Σµ · accepted / iterations`. The estimator sharpens as
    /// more samples are drawn; the `cardinality_training` example uses
    /// it to label selectivity models without ever running the join.
    pub fn estimate_join_size(&self) -> Option<f64> {
        let stats = self.sampling_stats();
        (stats.iterations > 0)
            .then(|| self.index().mu_total() * stats.samples as f64 / stats.iterations as f64)
    }
}

/// The paper's proposed algorithm as a self-contained single-threaded
/// sampler: a [`BbstCursor`] over an index nobody else holds.
pub type BbstSampler = Cursor<BbstIndex>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{case12_run, case12_stored_run, per_r_weights};
    use crate::JoinSampler;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use srj_bbst::MassMode;

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
    fn samples_are_genuine_join_pairs() {
        let r = pseudo_points(90, 31, 70.0);
        let s = pseudo_points(140, 32, 70.0);
        for mode in [MassMode::Virtual, MassMode::Exact] {
            let cfg = SampleConfig::new(5.0).with_mass_mode(mode);
            let mut sampler = BbstSampler::build(&r, &s, &cfg);
            let mut rng = SmallRng::seed_from_u64(33);
            let samples = sampler.sample(600, &mut rng).unwrap();
            assert_eq!(samples.len(), 600);
            for p in samples {
                let w = Rect::window(r[p.r as usize], 5.0);
                assert!(w.contains(s[p.s as usize]), "{mode:?}");
            }
        }
    }

    #[test]
    fn mu_bounds_sandwich_lemma5() {
        let r = pseudo_points(60, 41, 50.0);
        let s = pseudo_points(400, 42, 50.0);
        let cfg = SampleConfig::new(6.0);
        let sampler = BbstSampler::build(&r, &s, &cfg);
        let cap = sampler.index().bucket_cap() as f64;
        for (i, &rp) in r.iter().enumerate() {
            let w = Rect::window(rp, 6.0);
            let exact = s.iter().filter(|p| w.contains(**p)).count() as f64;
            let mu = sampler.index().mu_of(i);
            assert!(mu >= exact, "r{i}: µ {mu} < exact {exact}");
            // Lemma 5: µ ≤ max{O(log m)·exact, O(log m)} — the constant
            // accounts for the 4 corner cells and their straddlers.
            assert!(
                mu <= (cap * exact).max(cap) + 4.0 * 2.0 * cap,
                "r{i}: µ {mu} too loose vs exact {exact} (cap {cap})"
            );
        }
        let join = srj_join::nested_loop_join(&r, &s, 6.0).len() as f64;
        assert!(sampler.index().mu_total() >= join);
    }

    #[test]
    fn exact_mode_is_tighter_than_virtual() {
        let r = pseudo_points(80, 51, 60.0);
        let s = pseudo_points(600, 52, 60.0);
        let virt = BbstSampler::build(&r, &s, &SampleConfig::new(5.0));
        let tight = BbstSampler::build(
            &r,
            &s,
            &SampleConfig::new(5.0).with_mass_mode(MassMode::Exact),
        );
        assert!(tight.index().mu_total() <= virt.index().mu_total());
        let join = srj_join::nested_loop_join(&r, &s, 5.0).len() as f64;
        assert!(tight.index().mu_total() >= join);
    }

    #[test]
    fn empty_join_is_reported() {
        let r = vec![Point::new(0.0, 0.0)];
        let s = vec![Point::new(500.0, 500.0)];
        let mut sampler = BbstSampler::build(&r, &s, &SampleConfig::new(1.0));
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sampler.sample_one(&mut rng), Err(SampleError::EmptyJoin));
    }

    #[test]
    fn near_miss_join_trips_safety_valve() {
        // a point in a corner cell whose bucket matches but which lies
        // outside every window ⇒ µ > 0, |J| = 0
        let r = vec![Point::new(10.0, 10.0)];
        let s = vec![Point::new(13.0, 13.0)];
        let cfg = SampleConfig::new(2.0).with_rejection_limit(2_000);
        let mut sampler = BbstSampler::build(&r, &s, &cfg);
        let mut rng = SmallRng::seed_from_u64(0);
        if sampler.index().mu_total() > 0.0 {
            assert_eq!(
                sampler.sample_one(&mut rng),
                Err(SampleError::RejectionLimit)
            );
        } else {
            assert_eq!(sampler.sample_one(&mut rng), Err(SampleError::EmptyJoin));
        }
    }

    #[test]
    fn empty_inputs() {
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = SampleConfig::new(1.0);
        let mut a = BbstSampler::build(&[], &pseudo_points(10, 1, 10.0), &cfg);
        assert_eq!(a.sample_one(&mut rng), Err(SampleError::EmptyJoin));
        let mut b = BbstSampler::build(&pseudo_points(10, 1, 10.0), &[], &cfg);
        assert_eq!(b.sample_one(&mut rng), Err(SampleError::EmptyJoin));
    }

    #[test]
    fn iteration_overhead_tracks_mu_ratio() {
        // #iterations / #samples ≈ Σµ / |J| (Table IV's relationship)
        let r = pseudo_points(100, 61, 60.0);
        let s = pseudo_points(800, 62, 60.0);
        let cfg = SampleConfig::new(6.0);
        let mut sampler = BbstSampler::build(&r, &s, &cfg);
        let join = srj_join::nested_loop_join(&r, &s, 6.0).len() as f64;
        let expected_ratio = sampler.index().mu_total() / join;
        let mut rng = SmallRng::seed_from_u64(63);
        let t = 20_000;
        sampler.sample(t, &mut rng).unwrap();
        let rep = sampler.report();
        let observed = rep.iterations as f64 / rep.samples as f64;
        assert!(
            (observed - expected_ratio).abs() / expected_ratio < 0.1,
            "observed {observed:.3} vs expected {expected_ratio:.3}"
        );
    }

    #[test]
    fn report_and_memory_populated() {
        let r = pseudo_points(50, 71, 40.0);
        let s = pseudo_points(50, 72, 40.0);
        let mut sampler = BbstSampler::build(&r, &s, &SampleConfig::new(5.0));
        let mut rng = SmallRng::seed_from_u64(7);
        sampler.sample(50, &mut rng).unwrap();
        let rep = sampler.report();
        assert_eq!(rep.samples, 50);
        assert!(rep.iterations >= 50);
        assert!(rep.grid_mapping > std::time::Duration::ZERO);
        assert!(sampler.memory_bytes() > 0);
    }

    #[test]
    fn many_cursors_one_index_deterministic_streams() {
        let r = pseudo_points(80, 81, 50.0);
        let s = pseudo_points(200, 82, 50.0);
        let index = Arc::new(BbstIndex::build(&r, &s, &SampleConfig::new(5.0)));
        let draws: Vec<Vec<JoinPair>> = (0..3)
            .map(|_| {
                let mut cursor = BbstCursor::new(Arc::clone(&index));
                let mut rng = SmallRng::seed_from_u64(1234);
                cursor.sample(100, &mut rng).unwrap()
            })
            .collect();
        assert_eq!(draws[0], draws[1]);
        assert_eq!(draws[1], draws[2]);
    }

    /// Half-unit lattice points, both coordinates in `span` half-units:
    /// duplicate x and y coordinates are the rule, and with `l` on the
    /// same lattice points sit exactly on window edges and on cell
    /// boundaries.
    fn lattice_points(
        span: std::ops::Range<i32>,
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<Point>> {
        prop::collection::vec((span.clone(), span), len).prop_map(|v| {
            v.into_iter()
                .map(|(x, y)| Point::new(x as f64 * 0.5, y as f64 * 0.5))
                .collect()
        })
    }

    /// Every stored row of `index` against [`per_r_weights`] under the
    /// index's own mass mode: all nine cell weights, not the total.
    fn assert_rows_are_the_per_r_reference(index: &BbstIndex) {
        let grid = index.store.grid();
        let corner = |slot: u32, q: &srj_bbst::QuadrantQuery| {
            index
                .store
                .unit(slot)
                .count_quadrant(q, index.config.mass_mode)
        };
        assert_eq!(index.rows.len(), index.r.len());
        for (ridx, (&rp, row)) in index.r.iter().zip(&index.rows).enumerate() {
            let reference = per_r_weights(grid, rp, index.config.half_extent, &corner);
            let stored: [u64; 9] = std::array::from_fn(|i| u64::from(row.weight(i)));
            assert_eq!(stored, reference, "r{ridx} = {rp:?}");
        }
        let sum: u64 = index.rows.iter().map(|row| u64::from(row.total())).sum();
        assert_eq!(index.mu_total(), sum as f64);
    }

    /// 1000 points crammed into the cell containing `anchor` (so on a
    /// handful of lattice positions, the cell's lower edges among them),
    /// and one `r` on the lower corner of each cell of the block around
    /// it: groups of one next to a cell of a thousand.
    fn crowded_cell(anchor: Point, l_steps: u32) -> (Vec<Point>, Vec<Point>) {
        let l = l_steps as f64 * 0.5;
        let (cx, cy) = ((anchor.x / l).floor(), (anchor.y / l).floor());
        let s = (0..1000u32)
            .map(|k| {
                let (ox, oy) = (
                    k.wrapping_mul(7) % l_steps,
                    (k / 3).wrapping_mul(5) % l_steps,
                );
                Point::new(cx * l + ox as f64 * 0.5, cy * l + oy as f64 * 0.5)
            })
            .collect();
        let r = srj_grid::NEIGHBOR_OFFSETS
            .iter()
            .map(|&(dx, dy)| Point::new((cx + dx as f64) * l, (cy + dy as f64) * l))
            .collect();
        (s, r)
    }

    #[test]
    fn cell_major_rows_on_degenerate_inputs() {
        let some = [
            Point::new(-1.5, 2.0),
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
        ];
        let (crowd, ring) = crowded_cell(Point::new(-3.0, 4.5), 3);
        let twice = [&crowd[..], &crowd[..]].concat();
        for mode in [MassMode::Virtual, MassMode::Exact] {
            let cfg = SampleConfig::new(1.5).with_mass_mode(mode);
            for (r, s) in [
                (&[][..], &some[..]), // empty R
                (&some[..], &[][..]), // empty S
                (&[][..], &[][..]),
                (&ring[..], &crowd[..]), // singletons around one crowded cell
                (&twice[..], &crowd[..]), // one group of two thousand, swept in pieces
                (&some[..], &crowd[..]), // every r outside the populated cell
            ] {
                for threads in [1, 3] {
                    let index = BbstIndex::build(r, s, &cfg.with_build_threads(threads));
                    assert_rows_are_the_per_r_reference(&index);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cell-major pass against the per-`r` reference, cell
        /// weight by cell weight. Everything sits on the half-unit
        /// lattice and so does `l`: coordinates repeat, points lie
        /// exactly on window edges and on cell boundaries. `R` reaches
        /// well beyond `S` (cells of `R` with no `s`, blocks with no
        /// cell at all), both straddle the origin, either may be empty,
        /// and half the cases add a thousand-point cell ringed by
        /// single `r`s.
        #[test]
        fn cell_major_rows_equal_the_per_r_reference(
            s in lattice_points(-24..24, 0..200),
            r in lattice_points(-40..40, 0..160),
            crowd in (any::<bool>(), -24i32..24, -24i32..24),
            l_steps in 1u32..9,
            exact in any::<bool>(),
            threads in 1usize..4,
        ) {
            let (mut s, mut r) = (s, r);
            if crowd.0 {
                let anchor = Point::new(crowd.1 as f64 * 0.5, crowd.2 as f64 * 0.5);
                let (crowd_s, ring_r) = crowded_cell(anchor, l_steps);
                s.extend(crowd_s);
                r.extend(ring_r);
            }
            let mode = if exact { MassMode::Exact } else { MassMode::Virtual };
            let cfg = SampleConfig::new(l_steps as f64 * 0.5)
                .with_mass_mode(mode)
                .with_build_threads(threads);
            assert_rows_are_the_per_r_reference(&BbstIndex::build(&r, &s, &cfg));
        }

        /// What `resolve` reads instead of recomputing: for every
        /// case-1/2 neighbour of every `r`, the prefix/suffix of
        /// length `row.weight(i)` **is** the window's run, and for
        /// every corner the weight **is** the quadrant mass the ranked
        /// descent ranks into — under both mass modes.
        #[test]
        fn stored_row_weights_locate_runs_and_quadrant_mass(
            s in lattice_points(0..48, 1..260),
            r in lattice_points(0..48, 1..40),
            l_steps in 1u32..9,
            exact in any::<bool>(),
        ) {
            let l = l_steps as f64 * 0.5;
            let mode = if exact { MassMode::Exact } else { MassMode::Virtual };
            let index = BbstIndex::build(&r, &s, &SampleConfig::new(l).with_mass_mode(mode));
            let grid = index.store.grid();
            for (ridx, &rp) in r.iter().enumerate() {
                let w = Rect::window(rp, l);
                let row = &index.rows[ridx];
                for (i, slot) in grid.neighborhood_slots(rp).into_iter().enumerate() {
                    let Some(slot) = slot else {
                        prop_assert_eq!(row.weight(i), 0);
                        continue;
                    };
                    let cell = grid.cell(slot);
                    match case_of(i) {
                        CellCase::Quadrant { x_is_min, y_is_min } => {
                            let q = quadrant_query(x_is_min, y_is_min, &w);
                            prop_assert_eq!(
                                u64::from(row.weight(i)),
                                index.store.unit(slot).count_quadrant(&q, mode),
                                "r {:?} corner {}", rp, i
                            );
                        }
                        case => {
                            let stored = case12_stored_run(cell, grid.points(), case, row.weight(i) as usize);
                            let searched = case12_run(cell, grid.points(), case, &w);
                            prop_assert_eq!(stored, searched, "r {:?} neighbour {} {:?}", rp, i, case);
                        }
                    }
                }
            }
        }
    }
}
