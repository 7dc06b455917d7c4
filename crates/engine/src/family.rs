//! The engine's one index shape.
//!
//! The paper's three algorithms are one skeleton — an `S`-side built
//! from `S` alone, a per-`r` weight pass over it, an alias pick, a draw
//! — so the engine holds all of them the same way: a
//! [`ShardedIndex`] of one or more shards of a [`Family`], optionally
//! under a delta [`OverlayIndex`], behind one object-safe
//! [`EngineIndex`] implemented once for every family. Adding or
//! removing an algorithm is one `impl Family` and one arm of
//! [`build`].

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::SmallRng;
use srj_core::{
    BbstIndex, BbstSStructures, BufferStats, CellPatchReport, Cursor, DeltaSet, IndexBytes,
    JoinPair, JoinSampler, KdCellStore, KdsIndex, KdsRejectionIndex, OverlayIndex, OverlaySupport,
    PhaseReport, SampleConfig, SampleError, SamplerIndex,
};
use srj_geom::{Point, PointId};
use srj_grid::PointSet;

use crate::engine::Algorithm;
use crate::planner::DonatedGrid;
use crate::shard::ShardedIndex;

/// `(cell coordinate, unit pointer)` per `S`-cell; see
/// [`crate::Engine::s_cell_tokens`].
pub(crate) type CellTokens = Vec<((i32, i32), usize)>;

/// What the engine needs of an algorithm beyond drawing
/// ([`SamplerIndex`]): how its index is put together from an `S`-side
/// and an `R`, and how the `S`-side is shared, patched and inspected.
trait Family: SamplerIndex + Sized + 'static {
    const ALGORITHM: Algorithm;

    /// Everything built from `S` alone, `Arc`-held inside: every shard,
    /// and every rebuild over a new `R`, is built on one copy.
    type SSide: Sync;

    /// Builds the `S`-side and reports what it cost.
    fn build_s(s: Arc<PointSet>, config: &SampleConfig) -> (Self::SSide, PhaseReport);

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

    /// The whole index over the grid the planner built for its
    /// estimate, for the families that stand on a bare grid.
    fn build_with_grid(
        _r: &[Point],
        _s: &PointSet,
        _config: &SampleConfig,
        _donated: DonatedGrid,
    ) -> Option<Self> {
        None
    }
}

impl Family for KdsIndex {
    const ALGORITHM: Algorithm = Algorithm::Kds;
    type SSide = Arc<KdCellStore>;

    fn build_s(s: Arc<PointSet>, config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let (s_cells, preprocessing) = KdsIndex::build_s_structure(s, config);
        let report = PhaseReport {
            preprocessing,
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

    fn build_s(s: Arc<PointSet>, config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let (s_cells, preprocessing, grid_mapping) =
            KdsRejectionIndex::build_s_structures(s, config);
        let report = PhaseReport {
            preprocessing,
            grid_mapping,
            ..PhaseReport::default()
        };
        (s_cells, report)
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

    fn build_with_grid(
        r: &[Point],
        s: &PointSet,
        config: &SampleConfig,
        donated: DonatedGrid,
    ) -> Option<Self> {
        Some(KdsRejectionIndex::build_with_grid(
            r,
            s,
            config,
            donated.grid,
            donated.sort_time,
            donated.build_time,
        ))
    }
}

impl Family for BbstIndex {
    const ALGORITHM: Algorithm = Algorithm::Bbst;
    type SSide = BbstSStructures;

    fn build_s(s: Arc<PointSet>, config: &SampleConfig) -> (Self::SSide, PhaseReport) {
        let s_side = BbstIndex::build_s_structures(s, config);
        let report = PhaseReport {
            preprocessing: s_side.preprocessing,
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

    fn build_with_grid(
        r: &[Point],
        _s: &PointSet,
        config: &SampleConfig,
        donated: DonatedGrid,
    ) -> Option<Self> {
        Some(BbstIndex::build_with_grid(
            r,
            config,
            donated.grid,
            donated.sort_time,
            donated.build_time,
        ))
    }
}

/// Builds the index for `algorithm` over `shards` shards of `r`
/// (`≤ 1` = one shard). A `donated` grid — the planner's, unsharded
/// builds only — is built on instead of a second one where the family
/// can.
pub(crate) fn build(
    algorithm: Algorithm,
    r: &[Point],
    s: Arc<PointSet>,
    config: &SampleConfig,
    shards: usize,
    donated: Option<DonatedGrid>,
) -> Box<dyn EngineIndex> {
    match algorithm {
        Algorithm::Kds => build_family::<KdsIndex>(r, s, config, shards, donated),
        Algorithm::KdsRejection => build_family::<KdsRejectionIndex>(r, s, config, shards, donated),
        Algorithm::Bbst => build_family::<BbstIndex>(r, s, config, shards, donated),
    }
}

fn build_family<F: Family>(
    r: &[Point],
    s: Arc<PointSet>,
    config: &SampleConfig,
    shards: usize,
    donated: Option<DonatedGrid>,
) -> Box<dyn EngineIndex> {
    if let Some(index) = donated.and_then(|grid| F::build_with_grid(r, &s, config, grid)) {
        return Built::full(ShardedIndex::single(index));
    }
    // The S-side depends only on `S`, never on a shard's slice of `R`:
    // built once, with the full `build_threads` budget, and shared into
    // every shard (`ShardedIndex::index_memory_bytes` counts it once).
    let (s_side, s_report) = F::build_s(s, config);
    Built::full(build_shards::<F>(r, &s_side, config, shards, s_report))
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
    /// Pending mutations over `full`, when this is an overlay snapshot.
    overlay: Option<Arc<OverlayIndex<ShardedIndex<F>>>>,
}

impl<F: Family> Built<F> {
    fn full(index: ShardedIndex<F>) -> Box<dyn EngineIndex> {
        Box::new(Built {
            full: Arc::new(index),
            overlay: None,
        })
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
            overlay: Some(Arc::new(overlay)),
        })
    }

    fn rebuild_r_only(&self, r: &[Point], config: &SampleConfig) -> Option<Box<dyn EngineIndex>> {
        let full = self.structure()?;
        let s_side = full.shard(0).s_side();
        let report = PhaseReport::default();
        let index = build_shards::<F>(r, &s_side, config, full.shard_count(), report);
        Some(Built::full(index))
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
        Some((Built::full(index), patched))
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
