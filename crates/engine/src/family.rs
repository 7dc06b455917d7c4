//! The engine's one index shape.
//!
//! The paper's three algorithms are one skeleton — an `S`-side built
//! from `S` alone, a weight pass over it, an alias pick, a draw — so
//! the engine holds all of them the same way: a [`ShardedIndex`] of one
//! or more shards of a [`Family`], optionally under a delta
//! [`OverlayIndex`], behind one object-safe [`EngineIndex`] implemented
//! once for every family. Adding or removing an algorithm is one
//! `impl Family` and one arm of [`build`].
//!
//! [`Algorithm::Bbst`] has two row granularities, each an `impl Family`:
//! per-`r` rows ([`BbstIndex`], the paper's Algorithm 1) and one row per
//! cell of `R` ([`GroupIndex`], the §III-B bound and nothing else).
//! [`build`] decides between them once per full build, from the data
//! alone — see [`build_bbst`].
//!
//! Every full build stands on one grid of `S`: [`build`] maps it, the
//! planner reads it when no algorithm is forced, and the family's
//! `S`-side is built over that same `Arc` ([`Family::build_s`]).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj_core::{
    BbstIndex, BbstSStructures, BufferStats, CellPatchReport, Cursor, DeltaSet, GroupIndex,
    IndexBytes, JoinPair, JoinSampler, KdCellStore, KdsIndex, KdsRejectionIndex, OverlayIndex,
    OverlaySupport, PhaseReport, SampleConfig, SampleError, SamplerIndex,
};
use srj_geom::{Point, PointId};
use srj_grid::{Grid, PointSet};

use crate::engine::Algorithm;
use crate::planner::{self, PlanReport};
use crate::shard::ShardedIndex;

/// `(cell coordinate, unit pointer)` per `S`-cell; see
/// [`crate::Engine::s_cell_tokens`].
pub(crate) type CellTokens = Vec<((i32, i32), usize)>;

/// What one row of an index bounds; see [`crate::Engine::row_granularity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RowGranularity {
    /// One row per `r`: its own counts or bounds over its 3×3 block.
    PerR,
    /// One row per non-empty cell of `R`: the block's nine populations,
    /// shared by every `r` of the cell ([`GroupIndex`]).
    Group,
}

impl RowGranularity {
    /// Every granularity, in declaration order: `ALL[g as usize] == g`.
    pub const ALL: [RowGranularity; 2] = [RowGranularity::PerR, RowGranularity::Group];

    /// The `granularity` label value.
    pub fn label(self) -> &'static str {
        match self {
            RowGranularity::Group => "group",
            RowGranularity::PerR => "per_r",
        }
    }
}

/// What the engine needs of an algorithm beyond drawing
/// ([`SamplerIndex`]): how its index is put together from an `S`-side
/// and an `R`, and how the `S`-side is shared, patched and inspected.
trait Family: SamplerIndex + Sized + 'static {
    const ALGORITHM: Algorithm;

    /// Everything built from `S` alone, `Arc`-held inside: every shard,
    /// and every rebuild over a new `R`, is built on one copy.
    type SSide: Sync;

    /// Builds the `S`-side over the engine's grid of `S` and reports
    /// what it cost beyond the grid.
    fn build_s(grid: Arc<Grid>, config: &SampleConfig) -> (Self::SSide, PhaseReport);

    /// The per-`r` pass over a ready `S`-side.
    fn build_on(r: &[Point], s_side: &Self::SSide, config: &SampleConfig) -> Self;

    /// The `S`-side this index stands on.
    fn s_side(&self) -> Self::SSide;

    /// `s_side` with only the cells touched by the mutations rebuilt.
    fn patch(
        s_side: &Self::SSide,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport);

    fn cell_tokens(s_side: &Self::SSide) -> CellTokens;

    fn point_set(s_side: &Self::SSide) -> Arc<PointSet>;

    /// How many rows the index keeps if it keeps one per group of `R`;
    /// `None` for a row per `r`.
    fn group_rows(&self) -> Option<usize> {
        None
    }
}

impl Family for KdsIndex {
    const ALGORITHM: Algorithm = Algorithm::Kds;
    type SSide = Arc<KdCellStore>;

    /// The per-cell kd-trees, charged to pre-processing.
    fn build_s(grid: Arc<Grid>, config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let t0 = Instant::now();
        let s_cells = Arc::new(KdCellStore::from_grid(grid, config.build_threads));
        let report = PhaseReport {
            preprocessing: t0.elapsed(),
            ..PhaseReport::default()
        };
        (s_cells, report)
    }

    fn build_on(r: &[Point], s_side: &Self::SSide, config: &SampleConfig) -> Self {
        KdsIndex::build_shared(r, Arc::clone(s_side), config)
    }

    fn s_side(&self) -> Self::SSide {
        self.s_cells()
    }

    fn patch(
        s_side: &Self::SSide,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        let (s_cells, report) = s_side.as_ref().patch(inserted, deleted);
        (Arc::new(s_cells), report)
    }

    fn cell_tokens(s_side: &Self::SSide) -> CellTokens {
        s_side.store().cell_tokens()
    }

    fn point_set(s_side: &Self::SSide) -> Arc<PointSet> {
        Arc::clone(s_side.grid().point_set())
    }
}

impl Family for KdsRejectionIndex {
    const ALGORITHM: Algorithm = Algorithm::KdsRejection;
    type SSide = Arc<KdCellStore>;

    fn build_s(grid: Arc<Grid>, config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        <KdsIndex as Family>::build_s(grid, config)
    }

    fn build_on(r: &[Point], s_side: &Self::SSide, config: &SampleConfig) -> Self {
        KdsRejectionIndex::build_shared(r, Arc::clone(s_side), config)
    }

    fn s_side(&self) -> Self::SSide {
        self.s_structures()
    }

    fn patch(
        s_side: &Self::SSide,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        <KdsIndex as Family>::patch(s_side, inserted, deleted)
    }

    fn cell_tokens(s_side: &Self::SSide) -> CellTokens {
        s_side.store().cell_tokens()
    }

    fn point_set(s_side: &Self::SSide) -> Arc<PointSet> {
        Arc::clone(s_side.grid().point_set())
    }
}

impl Family for BbstIndex {
    const ALGORITHM: Algorithm = Algorithm::Bbst;
    type SSide = BbstSStructures;

    /// The per-cell BBSTs, charged to grid mapping (Algorithm 1's
    /// online data-structure phase).
    fn build_s(grid: Arc<Grid>, config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let s_side = BbstIndex::s_structures_on_grid(grid, config);
        let report = PhaseReport {
            grid_mapping: s_side.grid_mapping,
            ..PhaseReport::default()
        };
        (s_side, report)
    }

    fn build_on(r: &[Point], s_side: &Self::SSide, config: &SampleConfig) -> Self {
        BbstIndex::build_shared(r, config, s_side)
    }

    fn s_side(&self) -> Self::SSide {
        self.s_structures()
    }

    fn patch(
        s_side: &Self::SSide,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        s_side.patch(inserted, deleted)
    }

    fn cell_tokens(s_side: &Self::SSide) -> CellTokens {
        s_side.store().cell_tokens()
    }

    fn point_set(s_side: &Self::SSide) -> Arc<PointSet> {
        Arc::clone(s_side.store().grid().point_set())
    }
}

impl Family for GroupIndex {
    const ALGORITHM: Algorithm = Algorithm::Bbst;
    /// The bare grid: a group row reads nothing else of `S`.
    type SSide = Arc<Grid>;

    /// The grid itself, at no further cost.
    fn build_s(grid: Arc<Grid>, _config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        (grid, PhaseReport::default())
    }

    fn build_on(r: &[Point], s_side: &Self::SSide, config: &SampleConfig) -> Self {
        GroupIndex::build_on_grid(r, Arc::clone(s_side), config)
    }

    fn s_side(&self) -> Self::SSide {
        Arc::clone(self.grid())
    }

    fn patch(
        s_side: &Self::SSide,
        inserted: &[Point],
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        let (grid, patched) = s_side.patch(inserted, deleted);
        let report = CellPatchReport {
            cells_total: grid.num_cells(),
            cells_rebuilt: patched.cells_rebuilt,
            cells_shared: patched.cells_shared,
        };
        (Arc::new(grid), report)
    }

    /// A cell's structure is the cell: its `Arc` is the token.
    fn cell_tokens(s_side: &Self::SSide) -> CellTokens {
        let token = |cell: &Arc<srj_grid::Cell>| (cell.coord, Arc::as_ptr(cell) as usize);
        s_side.cells().iter().map(token).collect()
    }

    fn point_set(s_side: &Self::SSide) -> Arc<PointSet> {
        Arc::clone(s_side.point_set())
    }

    fn group_rows(&self) -> Option<usize> {
        Some(self.group_count())
    }
}

/// Builds an engine's index over `shards` shards of `r` (`≤ 1` = one
/// shard), and is the one place its grid of `S` is built: the sorts of
/// `S` (none if the set already holds them) are charged to
/// pre-processing, the grid to grid mapping. With no `algorithm` the
/// planner picks one from that grid, and its report comes back too.
pub(crate) fn build(
    r: &[Point],
    s: Arc<PointSet>,
    config: &SampleConfig,
    shards: usize,
    algorithm: Option<Algorithm>,
) -> (Box<dyn EngineIndex>, Option<PlanReport>) {
    let preprocessing = s.ensure_orders();
    let t0 = Instant::now();
    let grid = Arc::new(Grid::build(s, config.half_extent));
    let base = PhaseReport {
        preprocessing,
        grid_mapping: t0.elapsed(),
        ..PhaseReport::default()
    };
    let (algorithm, plan) = match algorithm {
        Some(algorithm) => (algorithm, None),
        None => {
            let plan = planner::plan(r, &grid, config, shards);
            (plan.algorithm, Some(plan))
        }
    };
    let index = match algorithm {
        Algorithm::Kds => {
            let index = build_family::<KdsIndex>(r, grid, config, shards, base);
            Built::full(index, r.len())
        }
        Algorithm::KdsRejection => {
            let index = build_family::<KdsRejectionIndex>(r, grid, config, shards, base);
            Built::full(index, r.len())
        }
        Algorithm::Bbst => build_bbst(r, grid, config, shards, base),
    };
    (index, plan)
}

/// Iterations of the probe that decides [`Algorithm::Bbst`]'s row
/// granularity, and the generator seed it always starts from.
const PROBE_ITERATIONS: usize = 4096;
const PROBE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Group rows serve when the probe accepts at least this share of its
/// iterations, i.e. needs ≤ 2 iterations a sample. The threshold is the
/// ratio of what an iteration costs at the two granularities:
///
/// * A group iteration (three words, no tree descent, no hash probe)
///   costs at most 0.48 of a per-`r` one. That worst case is
///   `bulk_draw`'s data, where both draws are cache-bound; the other
///   benchmark datasets measure 0.29–0.34.
/// * Per-`r` rows need at least one iteration a sample.
///
/// So admitted group rows never draw slower than per-`r` rows could,
/// and they build 6–8× faster and keep under half the bytes. `cargo
/// bench -p srj-bench --bench row_granularity` prints each dataset's
/// ns per iteration at both granularities and their ratio; re-price
/// this constant from one run of it.
const MIN_PROBE_ACCEPTANCE: f64 = 1.0 / 2.0;

/// [`Algorithm::Bbst`] at the row granularity the data calls for.
///
/// Group rows over the grid cost one `O(n)` pass, so they are built
/// first and probed: [`PROBE_ITERATIONS`] iterations of the index's own
/// kernel from a fixed seed. If the §III-B bound is tight enough — at
/// most two iterations a sample ([`MIN_PROBE_ACCEPTANCE`]); data
/// clustered below the window size — the group rows *are* the index.
/// Otherwise the per-cell BBSTs and per-`r` rows are built over the
/// same grid — the index, `Σµ` and streams of a plain [`BbstIndex`]
/// build, with the group pass and the probe charged to its
/// upper-bounding phase.
///
/// The decision is a function of `(R, S, l, shards)` alone: no traffic,
/// no clock, no configuration enters it, so a forced and a planned
/// build take it identically. Rebuilds over a new `R` or a patched `S`
/// keep the granularity of the full build they derive from.
fn build_bbst(
    r: &[Point],
    grid: Arc<Grid>,
    config: &SampleConfig,
    shards: usize,
    base: PhaseReport,
) -> Box<dyn EngineIndex> {
    let t0 = Instant::now();
    let groups = build_family::<GroupIndex>(r, Arc::clone(&grid), config, shards, base);
    if probe_acceptance(&groups) >= MIN_PROBE_ACCEPTANCE {
        return Built::full(groups, r.len());
    }
    drop(groups);
    let tried = t0.elapsed();
    let report = PhaseReport {
        upper_bounding: tried,
        upper_bounding_cpu: tried,
        ..base
    };
    let index = build_family::<BbstIndex>(r, grid, config, shards, report);
    Built::full(index, r.len())
}

/// Share of [`PROBE_ITERATIONS`] fixed-seed iterations `index` accepts;
/// zero for an empty join.
fn probe_acceptance(index: &ShardedIndex<GroupIndex>) -> f64 {
    let mut rng = SmallRng::seed_from_u64(PROBE_SEED);
    let mut stats = PhaseReport::default();
    let mut outcomes = Vec::with_capacity(PROBE_ITERATIONS);
    let probed = index.try_many(
        PROBE_ITERATIONS,
        &mut rng,
        &mut (),
        &mut stats,
        &mut outcomes,
    );
    match probed {
        Ok(()) => stats.samples as f64 / PROBE_ITERATIONS as f64,
        Err(_) => 0.0,
    }
}

/// `shards` shards of family `F` over `grid`; `base` is what this build
/// spent before the family's `S`-side.
fn build_family<F: Family>(
    r: &[Point],
    grid: Arc<Grid>,
    config: &SampleConfig,
    shards: usize,
    base: PhaseReport,
) -> ShardedIndex<F> {
    // The S-side depends only on `S`, never on a shard's slice of `R`:
    // built once, with the full `build_threads` budget, and shared into
    // every shard (`ShardedIndex::index_memory_bytes` counts it once).
    let (s_side, s_report) = F::build_s(grid, config);
    let report = PhaseReport {
        preprocessing: base.preprocessing + s_report.preprocessing,
        grid_mapping: base.grid_mapping + s_report.grid_mapping,
        ..base
    };
    build_shards::<F>(r, &s_side, config, shards, report)
}

/// `shards` shards of `r` over one `S`-side; `base` is what that side
/// cost, if this build paid for it.
fn build_shards<F: Family>(
    r: &[Point],
    s_side: &F::SSide,
    config: &SampleConfig,
    shards: usize,
    base: PhaseReport,
) -> ShardedIndex<F> {
    // Several shards spend the parallelism budget across themselves
    // (nested parallel builds would oversubscribe the cores); a lone
    // one keeps it.
    let shard_cfg = SampleConfig {
        build_threads: if shards > 1 { 1 } else { config.build_threads },
        ..*config
    };
    ShardedIndex::build_with_base(r, config, shards, base, |chunk| {
        F::build_on(chunk, s_side, &shard_cfg)
    })
}

/// The object-safe face of a built index: what [`crate::Engine`] asks
/// of it, whatever the family. The structural operations answer `None`
/// under an overlay — rebuild from the epoch's full build instead.
pub(crate) trait EngineIndex: Send + Sync {
    fn algorithm(&self) -> Algorithm;
    fn shards(&self) -> usize;
    fn is_overlay(&self) -> bool;
    /// A fresh cursor over the shared index (O(1)).
    fn cursor(&self) -> Box<dyn ServingCursor>;
    fn build_report(&self) -> PhaseReport;
    fn index_bytes(&self) -> IndexBytes;
    fn total_weight(&self) -> f64;
    fn cell_count(&self) -> usize;
    fn row_granularity(&self) -> RowGranularity;
    /// Rows of the full build, whatever stands on it.
    fn row_count(&self) -> usize;
    fn with_overlay(
        &self,
        delta: DeltaSet,
        support: &OverlaySupport,
        config: &SampleConfig,
    ) -> Box<dyn EngineIndex>;
    fn rebuild_r_only(&self, r: &[Point], config: &SampleConfig) -> Option<Box<dyn EngineIndex>>;
    fn rebuild_with_s_patch(
        &self,
        r: &[Point],
        config: &SampleConfig,
        inserted_s: &[Point],
        deleted_s: &HashSet<PointId>,
    ) -> Option<(Box<dyn EngineIndex>, CellPatchReport)>;
    fn s_cell_tokens(&self) -> Option<CellTokens>;
    fn s_point_set(&self) -> Option<Arc<PointSet>>;
}

/// A full build of family `F`, or a delta overlay on one.
struct Built<F: Family> {
    full: Arc<ShardedIndex<F>>,
    /// `|R|` of the full build.
    r_len: usize,
    /// Pending mutations over `full`, when this is an overlay snapshot.
    overlay: Option<Arc<OverlayIndex<ShardedIndex<F>>>>,
}

impl<F: Family> Built<F> {
    fn full(index: ShardedIndex<F>, r_len: usize) -> Box<dyn EngineIndex> {
        Box::new(Built {
            full: Arc::new(index),
            r_len,
            overlay: None,
        })
    }

    /// Every shard's [`Family::group_rows`], summed.
    fn group_rows(&self) -> Option<usize> {
        let shards = 0..self.full.shard_count();
        shards.map(|i| self.full.shard(i).group_rows()).sum()
    }

    /// The full build, unless an overlay stands on it.
    fn structure(&self) -> Option<&ShardedIndex<F>> {
        self.overlay.is_none().then_some(&*self.full)
    }
}

/// Evaluates `$body` with `$index` bound to whichever index serves:
/// the overlay if there is one, the full build otherwise.
macro_rules! serving {
    ($built:expr, $index:ident => $body:expr) => {
        match &$built.overlay {
            Some($index) => $body,
            None => {
                let $index = &$built.full;
                $body
            }
        }
    };
}

impl<F: Family> EngineIndex for Built<F> {
    fn algorithm(&self) -> Algorithm {
        F::ALGORITHM
    }

    fn shards(&self) -> usize {
        self.full.shard_count()
    }

    fn is_overlay(&self) -> bool {
        self.overlay.is_some()
    }

    fn cursor(&self) -> Box<dyn ServingCursor> {
        serving!(self, index => Box::new(Cursor::new(Arc::clone(index))))
    }

    fn build_report(&self) -> PhaseReport {
        serving!(self, index => index.index_build_report())
    }

    fn index_bytes(&self) -> IndexBytes {
        serving!(self, index => index.index_bytes())
    }

    fn total_weight(&self) -> f64 {
        serving!(self, index => index.total_weight())
    }

    fn cell_count(&self) -> usize {
        serving!(self, index => index.cell_count())
    }

    fn row_granularity(&self) -> RowGranularity {
        match self.group_rows() {
            Some(_) => RowGranularity::Group,
            None => RowGranularity::PerR,
        }
    }

    fn row_count(&self) -> usize {
        self.group_rows().unwrap_or(self.r_len)
    }

    fn with_overlay(
        &self,
        delta: DeltaSet,
        support: &OverlaySupport,
        config: &SampleConfig,
    ) -> Box<dyn EngineIndex> {
        assert!(
            self.overlay.is_none(),
            "overlay engines must wrap the epoch's full build, not another overlay"
        );
        let full = Arc::clone(&self.full);
        let overlay = OverlayIndex::new(Arc::clone(&full), delta, support, config);
        Box::new(Built {
            full,
            r_len: self.r_len,
            overlay: Some(Arc::new(overlay)),
        })
    }

    fn rebuild_r_only(&self, r: &[Point], config: &SampleConfig) -> Option<Box<dyn EngineIndex>> {
        let full = self.structure()?;
        let s_side = full.shard(0).s_side();
        let report = PhaseReport::default();
        let index = build_shards::<F>(r, &s_side, config, full.shard_count(), report);
        Some(Built::full(index, r.len()))
    }

    fn rebuild_with_s_patch(
        &self,
        r: &[Point],
        config: &SampleConfig,
        inserted_s: &[Point],
        deleted_s: &HashSet<PointId>,
    ) -> Option<(Box<dyn EngineIndex>, CellPatchReport)> {
        let full = self.structure()?;
        let (s_side, patched) = F::patch(&full.shard(0).s_side(), inserted_s, deleted_s);
        let report = PhaseReport::default();
        let index = build_shards::<F>(r, &s_side, config, full.shard_count(), report);
        Some((Built::full(index, r.len()), patched))
    }

    fn s_cell_tokens(&self) -> Option<CellTokens> {
        Some(F::cell_tokens(&self.structure()?.shard(0).s_side()))
    }

    fn s_point_set(&self) -> Option<Arc<PointSet>> {
        Some(F::point_set(&self.structure()?.shard(0).s_side()))
    }
}

/// What a [`crate::SamplerHandle`] asks of its cursor beyond
/// [`JoinSampler`]: the batch entry over the handle's concrete
/// generator — one virtual call per batch, none per random word, for
/// every family and for the overlay alike — and the buffer switches.
pub(crate) trait ServingCursor: JoinSampler + Send {
    /// [`Cursor::sample_batch`].
    fn sample_batch(
        &mut self,
        t: usize,
        rng: &mut SmallRng,
        out: &mut Vec<JoinPair>,
    ) -> Result<(), SampleError>;
    fn set_buffers(&mut self, on: bool);
    fn seed_buffers(&mut self, seed: u64);
    fn drain_buffer_stats(&mut self) -> BufferStats;
}

impl<I: SamplerIndex> ServingCursor for Cursor<I> {
    fn sample_batch(
        &mut self,
        t: usize,
        rng: &mut SmallRng,
        out: &mut Vec<JoinPair>,
    ) -> Result<(), SampleError> {
        Cursor::sample_batch(self, t, rng, out)
    }

    fn set_buffers(&mut self, on: bool) {
        Cursor::set_buffers(self, on);
    }

    fn seed_buffers(&mut self, seed: u64) {
        Cursor::seed_buffers(self, seed);
    }

    fn drain_buffer_stats(&mut self) -> BufferStats {
        Cursor::drain_buffer_stats(self)
    }
}
