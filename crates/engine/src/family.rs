//! The engine's one index shape.
//!
//! The paper's three algorithms are one skeleton — an `S`-side built
//! from `S` alone, a weight pass over it, an alias pick, a draw — so
//! the engine holds all of them the same way: the index of a [`Family`],
//! optionally under a delta [`OverlayIndex`], behind one object-safe
//! [`EngineIndex`] implemented once for every family. Adding or removing
//! an algorithm is one `impl Family` and one arm of [`build`].
//!
//! [`Algorithm::Bbst`] has two row granularities, each an `impl Family`:
//! per-`r` rows ([`BbstIndex`], the paper's Algorithm 1) and one row per
//! cell of `R` ([`GroupIndex`], the §III-B bound and nothing else).
//! [`build`] decides between them once per full build, from the data
//! alone — see [`build_bbst`].
//!
//! Every full build stands on one grid of `S`: [`build`] maps it and
//! the family's `S`-side is built over that same `Arc`
//! ([`Family::build_s`]). The epoch asks that grid ([`Family::grid`])
//! the rest of what it needs of `S`: the cell count, the cells a patch
//! would dirty, and what an overlay's rows of inserted `R` rank into.
//! The grid's cell side is the window half-extent `l`, except under
//! group rows: those stand on the grid of `l`'s ladder step
//! ([`srj_grid::ladder_side`]), and the rows built on it
//! ([`GroupCore`]) serve every window up to the step that they admit
//! themselves ([`GroupCore::serves`]: one threshold per core, computed
//! once). A full build's rows serve such a window through
//! [`EngineIndex::at`] — the same rows, the same overlay, the window's
//! own test — and the epoch engine of the step asks its full build's
//! core for each window and derives the window's view on each handle.
//! Built for a window below the step, that engine is the step's rows
//! or nothing ([`build_step`]); a window the rows fail is built at its
//! own side (`on_step: false`).
//!
//! `R` is a [`PointSet`] too, held once: every index — one per window
//! size, and every rebuild — stands on the set it is handed
//! ([`Family::r_set`]), so the engines over one epoch of a store share
//! the store's.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use srj_core::{
    BbstIndex, BbstSStructures, CellPatchReport, Cursor, DeltaSet, GroupCore, GroupIndex,
    IndexBytes, JoinPair, JoinSampler, KdCellStore, KdsIndex, KdsRejectionIndex, OverlayIndex,
    OverlaySupport, PhaseReport, SampleConfig, SampleError, SamplerIndex,
};
use srj_geom::PointId;
use srj_grid::{ladder_side, Grid, PointSet};

use crate::engine::Algorithm;

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

    /// Everything built from `S` alone, `Arc`-held inside: every rebuild
    /// over a new `R` is built on one copy.
    type SSide: Sync;

    /// Builds the `S`-side over the engine's grid of `S` and reports
    /// what it cost beyond the grid.
    fn build_s(grid: Arc<Grid>, config: &SampleConfig) -> (Self::SSide, PhaseReport);

    /// The per-`r` pass over a ready `S`-side; the index keeps `r`.
    fn build_on(r: &Arc<PointSet>, s_side: &Self::SSide, config: &SampleConfig) -> Self;

    /// The `R` set this index stands on.
    fn r_set(&self) -> &Arc<PointSet>;

    /// The `S`-side this index stands on.
    fn s_side(&self) -> Self::SSide;

    /// `s_side` with only the cells touched by the mutations rebuilt,
    /// standing on `set`: its set with the inserted points appended.
    fn patch(
        s_side: &Self::SSide,
        set: Arc<PointSet>,
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport);

    fn cell_tokens(s_side: &Self::SSide) -> CellTokens;

    /// The grid of `S` the `S`-side stands on.
    fn grid(s_side: &Self::SSide) -> Arc<Grid>;

    /// The group rows the index stands on; `None` for a row per `r`.
    fn group_core(&self) -> Option<&Arc<GroupCore>> {
        None
    }

    /// This index for the windows of half-extent `l`, on the same rows;
    /// `None` where the rows are the window's own (a row per `r`).
    fn at(&self, _l: f64) -> Option<Self> {
        None
    }
}

impl Family for KdsIndex {
    const ALGORITHM: Algorithm = Algorithm::Kds;
    type SSide = Arc<KdCellStore>;

    /// The per-cell sorts and kd-trees, charged to pre-processing.
    fn build_s(grid: Arc<Grid>, config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let t0 = Instant::now();
        let s_cells = Arc::new(KdCellStore::from_grid(grid, config.build_threads));
        let report = PhaseReport {
            preprocessing: t0.elapsed(),
            ..PhaseReport::default()
        };
        (s_cells, report)
    }

    fn build_on(r: &Arc<PointSet>, s_side: &Self::SSide, config: &SampleConfig) -> Self {
        KdsIndex::build_shared(r, Arc::clone(s_side), config)
    }

    fn r_set(&self) -> &Arc<PointSet> {
        KdsIndex::r_set(self)
    }

    fn s_side(&self) -> Self::SSide {
        self.s_cells()
    }

    fn patch(
        s_side: &Self::SSide,
        set: Arc<PointSet>,
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        let (s_cells, report) = s_side.patch_onto(set, deleted);
        (Arc::new(s_cells), report)
    }

    fn cell_tokens(s_side: &Self::SSide) -> CellTokens {
        s_side.store().cell_tokens()
    }

    fn grid(s_side: &Self::SSide) -> Arc<Grid> {
        Arc::clone(s_side.store().grid_arc())
    }
}

impl Family for KdsRejectionIndex {
    const ALGORITHM: Algorithm = Algorithm::KdsRejection;
    type SSide = Arc<KdCellStore>;

    fn build_s(grid: Arc<Grid>, config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        <KdsIndex as Family>::build_s(grid, config)
    }

    fn build_on(r: &Arc<PointSet>, s_side: &Self::SSide, config: &SampleConfig) -> Self {
        KdsRejectionIndex::build_shared(r, Arc::clone(s_side), config)
    }

    fn r_set(&self) -> &Arc<PointSet> {
        KdsRejectionIndex::r_set(self)
    }

    fn s_side(&self) -> Self::SSide {
        self.s_structures()
    }

    fn patch(
        s_side: &Self::SSide,
        set: Arc<PointSet>,
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        <KdsIndex as Family>::patch(s_side, set, deleted)
    }

    fn cell_tokens(s_side: &Self::SSide) -> CellTokens {
        s_side.store().cell_tokens()
    }

    fn grid(s_side: &Self::SSide) -> Arc<Grid> {
        Arc::clone(s_side.store().grid_arc())
    }
}

impl Family for BbstIndex {
    const ALGORITHM: Algorithm = Algorithm::Bbst;
    type SSide = BbstSStructures;

    /// The per-cell sorts, charged to pre-processing, and the per-cell
    /// BBSTs, charged to grid mapping (Algorithm 1's online
    /// data-structure phase).
    fn build_s(grid: Arc<Grid>, config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let s_side = BbstIndex::s_structures_on_grid(grid, config);
        let report = PhaseReport {
            preprocessing: s_side.preprocessing,
            grid_mapping: s_side.grid_mapping,
            ..PhaseReport::default()
        };
        (s_side, report)
    }

    fn build_on(r: &Arc<PointSet>, s_side: &Self::SSide, config: &SampleConfig) -> Self {
        BbstIndex::build_shared(r, config, s_side)
    }

    fn r_set(&self) -> &Arc<PointSet> {
        BbstIndex::r_set(self)
    }

    fn s_side(&self) -> Self::SSide {
        self.s_structures()
    }

    fn patch(
        s_side: &Self::SSide,
        set: Arc<PointSet>,
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        s_side.patch_onto(set, deleted)
    }

    fn cell_tokens(s_side: &Self::SSide) -> CellTokens {
        s_side.store().cell_tokens()
    }

    fn grid(s_side: &Self::SSide) -> Arc<Grid> {
        Arc::clone(s_side.store().grid_arc())
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

    fn build_on(r: &Arc<PointSet>, s_side: &Self::SSide, config: &SampleConfig) -> Self {
        GroupIndex::build_on_grid(r, Arc::clone(s_side), config)
    }

    fn r_set(&self) -> &Arc<PointSet> {
        GroupIndex::r_set(self)
    }

    fn s_side(&self) -> Self::SSide {
        Arc::clone(self.grid())
    }

    fn patch(
        s_side: &Self::SSide,
        set: Arc<PointSet>,
        deleted: &HashSet<PointId>,
    ) -> (Self::SSide, CellPatchReport) {
        let (grid, patched) = s_side.patch_onto(set, deleted);
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

    fn grid(s_side: &Self::SSide) -> Arc<Grid> {
        Arc::clone(s_side)
    }

    fn group_core(&self) -> Option<&Arc<GroupCore>> {
        Some(self.core())
    }

    fn at(&self, l: f64) -> Option<Self> {
        Some(GroupIndex::at(self, l))
    }
}

/// Builds an engine's index over `r`, which it keeps, and is the one
/// place its grid of `S` is built, charged to grid mapping. Only a
/// family that reads the cells' sorted runs sorts them (per-`r` rows,
/// KDS, KDS-rejection: [`Family::build_s`]), charged to pre-processing;
/// group rows sort nothing. With no `algorithm` the data picks one
/// ([`unforced`]).
/// The grid's cell side is `l`, or — where group rows serve — `l`'s
/// ladder step, which is `≥ l`. `on_step: false` skips the step: the
/// build of a window whose step's rows are known to fail it
/// ([`build_bbst`]).
pub(crate) fn build(
    r: &Arc<PointSet>,
    s: Arc<PointSet>,
    config: &SampleConfig,
    algorithm: Option<Algorithm>,
    on_step: bool,
) -> Box<dyn EngineIndex> {
    let l = config.half_extent;
    match algorithm.unwrap_or_else(|| unforced(r.len(), s.len())) {
        Algorithm::Kds => {
            let (grid, base) = map_s(s, l);
            build_family::<KdsIndex>(r, grid, config, base).boxed()
        }
        Algorithm::KdsRejection => {
            let (grid, base) = map_s(s, l);
            build_family::<KdsRejectionIndex>(r, grid, config, base).boxed()
        }
        Algorithm::Bbst if on_step => build_bbst(r, s, config),
        Algorithm::Bbst => {
            let (grid, base) = map_s(s, l);
            build_bbst_on(r, grid, config, base)
        }
    }
}

/// The grid of `s` at cell side `side`, and what mapping it cost.
fn map_s(s: Arc<PointSet>, side: f64) -> (Arc<Grid>, PhaseReport) {
    let t0 = Instant::now();
    let grid = Arc::new(Grid::build(s, side));
    let report = PhaseReport {
        grid_mapping: t0.elapsed(),
        ..PhaseReport::default()
    };
    (grid, report)
}

/// Below this `n·√m` product, KDS's exact counting (`O(n√m)`, one kd
/// count per corner cell of every `r`) is cheap enough to buy zero
/// rejections and an exact `|J|`.
pub(crate) const KDS_COST_BUDGET: f64 = 2.0e5;

/// The algorithm a build with none forced serves, from `|R|` and `|S|`
/// alone: [`Algorithm::Kds`] within [`KDS_COST_BUDGET`],
/// [`Algorithm::Bbst`] otherwise — whose build probes the §III-B bound
/// itself and serves group rows where it is tight ([`build_bbst`]).
/// Never [`Algorithm::KdsRejection`], the paper's baseline: group rows
/// draw against the same `Σµ` with no kd-tree built or queried.
fn unforced(n: usize, m: usize) -> Algorithm {
    if (n as f64) * (m as f64).sqrt() <= KDS_COST_BUDGET {
        Algorithm::Kds
    } else {
        Algorithm::Bbst
    }
}

/// [`Algorithm::Bbst`] at the row granularity the data calls for.
///
/// Group rows cost one `O(n)` pass over a grid, so they come first and
/// are probed ([`GroupCore::serves`]). They stand on the grid of `l`'s
/// ladder step ([`ladder_side`]), whose rows serve every window up to
/// the step exactly. If the §III-B bound is tight enough — at most two
/// iterations a sample; data clustered below the window size — the
/// group rows *are* the index.
///
/// Otherwise the build runs at `l` itself as a ladder window's does
/// ([`build_bbst_on`]): group rows over a grid of side `l`, probed, and
/// failing that the per-cell BBSTs and per-`r` rows over the same grid —
/// the index, `Σµ` and streams of a plain [`BbstIndex`] build, with the
/// group passes and the probes charged to its upper-bounding phase and
/// both grids to grid mapping. At a ladder value the step's rows already
/// were the ones at `l`, so the per-`r` rows stand on their grid.
///
/// The decision is a function of `(R, S, l)` alone: no traffic, no
/// clock, no configuration — a step's rows are a function of `(R, S)`
/// and the step — so a forced and an unforced build take it
/// identically. Rebuilds over a new `R` or a patched `S` keep the
/// granularity, and the grid, of the full build they derive from.
fn build_bbst(r: &Arc<PointSet>, s: Arc<PointSet>, config: &SampleConfig) -> Box<dyn EngineIndex> {
    let l = config.half_extent;
    let step = ladder_side(l);
    let (core, spent) = group_core(r, s, step);
    let t0 = Instant::now();
    if core.serves(l) {
        return Built::full(GroupIndex::on_core(Arc::new(core), config), spent).boxed();
    }
    let (step_grid, probed) = (Arc::clone(core.grid()), t0.elapsed());
    drop(core);
    let tried = PhaseReport {
        upper_bounding: spent.upper_bounding + probed,
        upper_bounding_cpu: spent.upper_bounding_cpu + probed,
        ..spent
    };
    if step.to_bits() == l.to_bits() {
        return build_family::<BbstIndex>(r, step_grid, config, tried).boxed();
    }
    let s = Arc::clone(step_grid.point_set());
    drop(step_grid);
    let (grid, at_l) = map_s(s, l);
    let base = PhaseReport {
        grid_mapping: tried.grid_mapping + at_l.grid_mapping,
        ..tried
    };
    build_bbst_on(r, grid, config, base)
}

/// The group rows of the ladder step `config.half_extent`, built for
/// the windows below it, where they serve the step's own window;
/// `None` where they fail it, and so every window on the step
/// ([`GroupCore::serves`]): the build stops at the verdict, and no
/// per-`r` rows are built for a window nobody asked for.
pub(crate) fn build_step(
    r: &Arc<PointSet>,
    s: Arc<PointSet>,
    config: &SampleConfig,
) -> Option<Box<dyn EngineIndex>> {
    let step = config.half_extent;
    debug_assert_eq!(ladder_side(step).to_bits(), step.to_bits(), "not a step");
    let (core, spent) = group_core(r, s, step);
    let served = core.serves(step);
    served.then(|| Built::full(GroupIndex::on_core(Arc::new(core), config), spent).boxed())
}

/// [`build_bbst`] over a grid at `l` itself: group rows, probed, and
/// per-`r` rows on the same grid where they fail.
fn build_bbst_on(
    r: &Arc<PointSet>,
    grid: Arc<Grid>,
    config: &SampleConfig,
    base: PhaseReport,
) -> Box<dyn EngineIndex> {
    let t0 = Instant::now();
    let groups = build_family::<GroupIndex>(r, Arc::clone(&grid), config, base);
    if groups.full.core().serves(config.half_extent) {
        return groups.boxed();
    }
    drop(groups);
    let tried = t0.elapsed();
    let report = PhaseReport {
        upper_bounding: base.upper_bounding + tried,
        upper_bounding_cpu: base.upper_bounding_cpu + tried,
        ..base
    };
    build_family::<BbstIndex>(r, grid, config, report).boxed()
}

/// Group rows of `(r, s)` at cell side `step`, built here, and what they
/// cost: the grid and the group pass.
fn group_core(r: &Arc<PointSet>, s: Arc<PointSet>, step: f64) -> (GroupCore, PhaseReport) {
    let (grid, base) = map_s(s, step);
    let core = GroupCore::build(r, grid);
    let own = core.build_report();
    let spent = PhaseReport {
        upper_bounding: own.upper_bounding,
        upper_bounding_cpu: own.upper_bounding_cpu,
        ..base
    };
    (core, spent)
}

/// Family `F` over `grid`; `base` is what this build spent before the
/// family's `S`-side.
fn build_family<F: Family>(
    r: &Arc<PointSet>,
    grid: Arc<Grid>,
    config: &SampleConfig,
    base: PhaseReport,
) -> Built<F> {
    let (s_side, s_report) = F::build_s(grid, config);
    let report = PhaseReport {
        preprocessing: base.preprocessing + s_report.preprocessing,
        grid_mapping: base.grid_mapping + s_report.grid_mapping,
        ..base
    };
    Built::full(F::build_on(r, &s_side, config), report)
}

/// The object-safe face of a built index: what [`crate::Engine`] asks
/// of it, whatever the family. The structural operations answer `None`
/// under an overlay — rebuild from the epoch's full build instead.
pub(crate) trait EngineIndex: Send + Sync {
    fn algorithm(&self) -> Algorithm;
    fn is_overlay(&self) -> bool;
    /// A fresh cursor over the shared index (O(1)).
    fn cursor(&self) -> Box<dyn ServingCursor>;
    fn build_report(&self) -> PhaseReport;
    fn index_bytes(&self) -> IndexBytes;
    /// What an overlay adds to its full build's bytes (zero without).
    fn overlay_bytes(&self) -> IndexBytes;
    fn total_weight(&self) -> f64;
    /// Cells of the full build's grid of `S`, whatever stands on it.
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
    /// The `R` set the full build stands on.
    fn r_set(&self) -> Arc<PointSet>;
    fn rebuild_r_only(
        &self,
        r: &Arc<PointSet>,
        config: &SampleConfig,
    ) -> Option<Box<dyn EngineIndex>>;
    fn rebuild_with_s_patch(
        &self,
        r: &Arc<PointSet>,
        config: &SampleConfig,
        s: Arc<PointSet>,
        deleted_s: &HashSet<PointId>,
    ) -> Option<(Box<dyn EngineIndex>, CellPatchReport)>;
    fn s_cell_tokens(&self) -> Option<CellTokens>;
    fn s_grid(&self) -> Option<Arc<Grid>>;
    /// The group rows the full build stands on, if it has group rows.
    fn group_core(&self) -> Option<Arc<GroupCore>>;
    /// This index — the full build, or the overlay on it — for the
    /// windows of half-extent `l`, standing on the same rows and the
    /// same overlay sources; `None` unless it has group rows. Their
    /// cell side must be `≥ l`.
    fn at(&self, l: f64) -> Option<Box<dyn EngineIndex>>;
}

/// A full build of family `F`, or a delta overlay on one.
struct Built<F: Family> {
    full: Arc<F>,
    /// The full build's phases, with what the caller spent on it before
    /// the per-`r` pass folded in: the grid and the family's `S`-side,
    /// its per-cell sorts included. An overlay reports its base's.
    report: PhaseReport,
    /// Pending mutations over `full`, when this is an overlay snapshot.
    overlay: Option<Arc<OverlayIndex<F>>>,
}

impl<F: Family> Built<F> {
    /// `index` as a full build; `base` is what was spent on it outside
    /// [`Family::build_on`].
    fn full(index: F, base: PhaseReport) -> Self {
        let own = index.index_build_report();
        let report = PhaseReport {
            preprocessing: base.preprocessing + own.preprocessing,
            grid_mapping: base.grid_mapping + own.grid_mapping,
            upper_bounding: base.upper_bounding + own.upper_bounding,
            upper_bounding_cpu: base.upper_bounding_cpu + own.upper_bounding_cpu,
            ..PhaseReport::default()
        };
        Built {
            full: Arc::new(index),
            report,
            overlay: None,
        }
    }

    /// A rebuild of this family over `r` on `s_side`, which this build
    /// did not pay for.
    fn rebuilt(
        r: &Arc<PointSet>,
        s_side: &F::SSide,
        config: &SampleConfig,
    ) -> Box<dyn EngineIndex> {
        let index = F::build_on(r, s_side, config);
        Built::full(index, PhaseReport::default()).boxed()
    }

    fn boxed(self) -> Box<dyn EngineIndex> {
        Box::new(self)
    }

    /// The full build, unless an overlay stands on it.
    fn structure(&self) -> Option<&F> {
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

    fn is_overlay(&self) -> bool {
        self.overlay.is_some()
    }

    fn cursor(&self) -> Box<dyn ServingCursor> {
        serving!(self, index => Box::new(Cursor::new(Arc::clone(index))))
    }

    fn build_report(&self) -> PhaseReport {
        self.report
    }

    fn index_bytes(&self) -> IndexBytes {
        serving!(self, index => index.index_bytes())
    }

    fn overlay_bytes(&self) -> IndexBytes {
        self.overlay
            .as_ref()
            .map_or_else(IndexBytes::default, |overlay| overlay.own_bytes())
    }

    fn total_weight(&self) -> f64 {
        serving!(self, index => index.total_weight())
    }

    fn cell_count(&self) -> usize {
        F::grid(&self.full.s_side()).num_cells()
    }

    fn row_granularity(&self) -> RowGranularity {
        match self.full.group_core() {
            Some(_) => RowGranularity::Group,
            None => RowGranularity::PerR,
        }
    }

    fn row_count(&self) -> usize {
        let per_r = || self.full.r_set().len();
        self.full
            .group_core()
            .map_or_else(per_r, |core| core.group_count())
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
            report: self.report,
            overlay: Some(Arc::new(overlay)),
        })
    }

    fn r_set(&self) -> Arc<PointSet> {
        Arc::clone(self.full.r_set())
    }

    fn rebuild_r_only(
        &self,
        r: &Arc<PointSet>,
        config: &SampleConfig,
    ) -> Option<Box<dyn EngineIndex>> {
        let s_side = self.structure()?.s_side();
        Some(Self::rebuilt(r, &s_side, config))
    }

    fn rebuild_with_s_patch(
        &self,
        r: &Arc<PointSet>,
        config: &SampleConfig,
        s: Arc<PointSet>,
        deleted_s: &HashSet<PointId>,
    ) -> Option<(Box<dyn EngineIndex>, CellPatchReport)> {
        let full = self.structure()?;
        let (s_side, patched) = F::patch(&full.s_side(), s, deleted_s);
        Some((Self::rebuilt(r, &s_side, config), patched))
    }

    fn s_cell_tokens(&self) -> Option<CellTokens> {
        Some(F::cell_tokens(&self.structure()?.s_side()))
    }

    fn s_grid(&self) -> Option<Arc<Grid>> {
        Some(F::grid(&self.structure()?.s_side()))
    }

    fn group_core(&self) -> Option<Arc<GroupCore>> {
        self.full.group_core().cloned()
    }

    fn at(&self, l: f64) -> Option<Box<dyn EngineIndex>> {
        let full = Arc::new(self.full.at(l)?);
        let overlay = self
            .overlay
            .as_ref()
            .map(|overlay| Arc::new(overlay.at(Arc::clone(&full), l)));
        Some(Box::new(Built {
            full,
            report: self.report,
            overlay,
        }))
    }
}

/// What a [`crate::SamplerHandle`] asks of its cursor beyond
/// [`JoinSampler`]: the batch entry over the handle's concrete
/// generator — one virtual call per batch, none per random word, for
/// every family and for the overlay alike.
pub(crate) trait ServingCursor: JoinSampler + Send {
    /// [`Cursor::sample_batch`].
    fn sample_batch(
        &mut self,
        t: usize,
        rng: &mut SmallRng,
        out: &mut Vec<JoinPair>,
    ) -> Result<(), SampleError>;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_input_picks_kds() {
        assert_eq!(unforced(50, 50), Algorithm::Kds);
        // n·√m = 2·10⁵ exactly is still within the budget.
        assert_eq!(unforced(20_000, 100), Algorithm::Kds);
        assert_eq!(unforced(20_001, 100), Algorithm::Bbst);
    }
}
