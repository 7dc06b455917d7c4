//! The engine proper: one immutable index, many lightweight handles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srj_core::{
    CellPatchReport, DeltaSet, GroupCore, IndexBytes, JoinPair, OverlaySupport, PhaseReport,
    SampleConfig, SampleError,
};
use srj_grid::{Grid, IntoPointSet, PointSet};

use crate::family::{self, EngineIndex, RowGranularity, ServingCursor};
use crate::stats::{EngineStats, StatsSnapshot};

/// Which of the paper's samplers an [`Engine`] serves with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exact counting + spatial independent range sampling (§III-A).
    Kds,
    /// Grid upper bounds + rejection sampling (§III-B).
    KdsRejection,
    /// The proposed BBST pipeline (§IV), at the row granularity the
    /// build found the data to call for ([`Engine::row_granularity`]):
    /// at group granularity the index holds the grid and no BBST.
    Bbst,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Algorithm::Kds => "KDS",
            Algorithm::KdsRejection => "KDS-rejection",
            Algorithm::Bbst => "BBST",
        })
    }
}

/// State shared by an engine and every handle it has issued.
struct EngineShared {
    /// The built index, in the one shape every algorithm takes (see
    /// [`crate::family`]).
    index: Box<dyn EngineIndex>,
    stats: EngineStats,
    /// Sequence number for auto-seeded handles.
    handle_seq: AtomicU64,
}

/// A build-once / serve-many join-sampling service over one `(R, S, l)`
/// workload.
///
/// `Engine::build` (or [`Engine::auto`]) runs the chosen algorithm's
/// build phases exactly once into immutable, `Arc`-shared state; from
/// then on any number of threads obtain [`SamplerHandle`]s — each with
/// its own RNG and its own [`PhaseReport`] — and draw uniform join
/// samples concurrently with zero synchronisation on the hot path
/// (aggregate statistics are relaxed atomics).
///
/// `Engine` is `Clone` (it is a handle to shared state) and `Send +
/// Sync`; clone it into as many threads as needed, or share one
/// `Arc<Engine>`.
///
/// ```
/// use srj_engine::Engine;
/// use srj_core::SampleConfig;
/// use srj_geom::Point;
///
/// let r: Vec<Point> = (0..200).map(|i| Point::new((i % 20) as f64, (i / 20) as f64)).collect();
/// let s = r.clone();
/// let engine = Engine::auto(&r, &s, &SampleConfig::new(2.0));
///
/// let handles: Vec<_> = (0..4).map(|t| engine.handle_seeded(t)).collect();
/// for mut h in handles {
///     let pairs = h.sample_batch(100).unwrap();
///     assert_eq!(pairs.len(), 100);
/// }
/// assert_eq!(engine.stats().samples, 400);
/// ```
#[derive(Clone)]
pub struct Engine {
    shared: Arc<EngineShared>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// Builds the index for `algorithm` once and wraps it for serving.
    ///
    /// Here and in the other build entry points `r` and `s` are each a
    /// slice, which the index copies once, or an `Arc<PointSet>`, which
    /// it shares — with every other engine built on that set, whatever
    /// its window size: one point array.
    pub fn build(
        r: impl IntoPointSet,
        s: impl IntoPointSet,
        config: &SampleConfig,
        algorithm: Algorithm,
    ) -> Engine {
        let r = r.into_point_set();
        let index = family::build(&r, s.into_point_set(), config, Some(algorithm), true);
        Engine::from_index(index)
    }

    /// Builds the algorithm the data calls for — the very index
    /// [`Engine::build`] builds for it: [`Algorithm::Kds`] when
    /// `|R|·√|S| ≤ 2·10⁵`, where exact counting is cheap, and
    /// [`Algorithm::Bbst`] otherwise, at the row granularity its own
    /// probe of the §III-B bound picks ([`Engine::row_granularity`]).
    /// Never [`Algorithm::KdsRejection`], the paper's baseline; force it
    /// with [`Engine::build`].
    pub fn auto(r: impl IntoPointSet, s: impl IntoPointSet, config: &SampleConfig) -> Engine {
        let r = r.into_point_set();
        Engine::from_index(family::build(&r, s.into_point_set(), config, None, true))
    }

    /// Wraps this engine's index in a delta [`srj_core::OverlayIndex`], producing
    /// a new engine that answers uniformly over the **mutated** dataset
    /// (`base ∖ tombstones ∪ inserts`) while sharing the base build.
    ///
    /// The returned engine has fresh statistics and a fresh handle
    /// sequence; the base engine — and every handle it already issued —
    /// keeps serving the pre-mutation epoch untouched. This is the
    /// minor-epoch half of `EpochEngine`'s swap mechanism.
    ///
    /// `support` may be any earlier state of the epoch's support — the
    /// bare grids of [`OverlaySupport::build`] included: what it has not
    /// seen of `delta`'s inserts is chunked here. A caller that takes
    /// one snapshot after another keeps
    /// [`OverlaySupport::extended`]'s result and hands that in, so each
    /// batch of inserts is chunked once.
    ///
    /// # Panics
    /// Panics if `self` is itself an overlay engine: overlay snapshots
    /// always stack on the epoch's *full* build, never on each other
    /// (stacking would re-filter tombstones at every level). Panics if
    /// `support` belongs to another base snapshot or half-extent, or
    /// has seen inserts `delta` does not hold.
    pub fn with_overlay(
        &self,
        delta: DeltaSet,
        support: &OverlaySupport,
        config: &SampleConfig,
    ) -> Engine {
        Engine::from_index(self.shared.index.with_overlay(delta, support, config))
    }

    /// Rebuilds this engine over a new `R` while **reusing** its
    /// `Arc`-shared `S`-side structures (kd-tree / grid / per-cell
    /// BBSTs) — the cheap major-epoch swap when only `R` mutated.
    /// The algorithm and row granularity are preserved; the `S`-side is
    /// neither rebuilt nor copied.
    ///
    /// Returns `None` for overlay engines (rebuild from the epoch base
    /// instead). The caller must guarantee `S` is unchanged and
    /// `config` matches the original build (`build_shared` asserts the
    /// structural parts). `r` is a slice or a shared set, as in
    /// [`Engine::build`].
    pub fn rebuild_r_only(&self, r: impl IntoPointSet, config: &SampleConfig) -> Option<Engine> {
        let index = self
            .shared
            .index
            .rebuild_r_only(&r.into_point_set(), config)?;
        Some(Engine::from_index(index))
    }

    /// Rebuilds this engine over a new `R` while **patching** its
    /// `S`-side cell by cell for the given `S` mutations: `s` is this
    /// engine's set of `S` with the inserted points appended (a slice,
    /// or a shared set that the patched grid then holds, not copies);
    /// only the cells touched by those points and `deleted_s` are
    /// rebuilt; every clean cell's structure is `Arc`-shared with this
    /// engine's (asserted by [`Engine::s_cell_tokens`] in the tests).
    /// Inserted points get appended ids, deleted ids become dead —
    /// id-stable, which is what makes the sharing sound. The algorithm
    /// and row granularity are preserved.
    ///
    /// Returns `None` for overlay engines (patch from the epoch base
    /// instead). This is the cell-granular major-epoch swap: `O(dirty
    /// cells)` S-side work instead of `O(|S|)`.
    pub fn rebuild_with_s_patch(
        &self,
        r: impl IntoPointSet,
        config: &SampleConfig,
        s: impl IntoPointSet,
        deleted_s: &std::collections::HashSet<srj_geom::PointId>,
    ) -> Option<(Engine, CellPatchReport)> {
        let (r, s) = (r.into_point_set(), s.into_point_set());
        let (index, report) = self
            .shared
            .index
            .rebuild_with_s_patch(&r, config, s, deleted_s)?;
        Some((Engine::from_index(index), report))
    }

    /// Wraps a built index with fresh stats and a fresh handle
    /// sequence.
    pub(crate) fn from_index(index: Box<dyn EngineIndex>) -> Engine {
        Engine {
            shared: Arc::new(EngineShared {
                index,
                stats: EngineStats::new(),
                handle_seq: AtomicU64::new(0),
            }),
        }
    }

    /// This engine for the windows of half-extent `l`, standing on the
    /// same rows and the same overlay sources ([`EngineIndex::at`]), with
    /// statistics and a handle sequence of its own; `None` unless it
    /// serves group rows.
    pub(crate) fn at(&self, l: f64) -> Option<Engine> {
        Some(Engine::from_index(self.shared.index.at(l)?))
    }

    /// A handle drawing the window of half-extent `l` from this engine's
    /// rows ([`Engine::at`]), seeded with `seed` or from this engine's
    /// handle sequence, and counted in this engine's statistics: the
    /// windows one engine serves share one sequence and one record of
    /// what a sample costs. `None` unless it serves group rows.
    pub(crate) fn handle_at(&self, l: f64, seed: Option<u64>) -> Option<SamplerHandle> {
        let cursor = self.shared.index.at(l)?.cursor();
        let seed = seed.unwrap_or_else(|| self.next_seed());
        Some(SamplerHandle {
            cursor,
            rng: SmallRng::seed_from_u64(seed),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Whether this engine serves through a delta overlay (pending
    /// mutations present) rather than a full build.
    pub fn is_overlay(&self) -> bool {
        self.shared.index.is_overlay()
    }

    /// The algorithm this engine serves with.
    pub fn algorithm(&self) -> Algorithm {
        self.shared.index.algorithm()
    }

    /// A new serving handle with an automatically derived, per-handle
    /// unique seed. Deterministic: the k-th handle of an engine always
    /// gets the same seed.
    pub fn handle(&self) -> SamplerHandle {
        self.handle_seeded(self.next_seed())
    }

    /// The seed of this engine's next auto-seeded handle.
    fn next_seed(&self) -> u64 {
        let seq = self.shared.handle_seq.fetch_add(1, Ordering::Relaxed);
        // SplitMix64 step keeps consecutive sequence numbers from
        // yielding correlated xoshiro seeds.
        let mut z = seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A new serving handle seeded with `seed`: two handles with the
    /// same seed over the same engine draw identical sample streams.
    pub fn handle_seeded(&self, seed: u64) -> SamplerHandle {
        SamplerHandle {
            cursor: self.shared.index.cursor(),
            rng: SmallRng::seed_from_u64(seed),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Aggregate statistics across every handle this engine has issued.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Mean observed nanoseconds per delivered sample across every
    /// handle (see [`EngineStats::ns_per_sample`]); `None` before the
    /// first delivered sample.
    pub fn ns_per_sample(&self) -> Option<u64> {
        self.shared.stats.ns_per_sample()
    }

    /// Build-phase timing of the full build this engine serves, the
    /// work done before the per-`r` pass included: the per-cell sorts a
    /// family that reads sorted runs forces (none under group rows) and
    /// the KDS family's kd-trees charged to pre-processing, the grid and
    /// the BBST family's `S`-side to grid mapping. An overlay engine reports its base's; a rebuild
    /// over a kept or patched `S`-side reports only its own pass.
    pub fn build_report(&self) -> PhaseReport {
        self.shared.index.build_report()
    }

    /// Approximate heap footprint of the shared index.
    pub fn memory_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }

    /// [`Engine::memory_bytes`] by structure: the `R` set the index
    /// stands on (with a group index's permutation of it), the per-`r`
    /// rows, the alias tables, the grid, the per-cell units, the point
    /// set of `S` and, for an overlay engine, its pending mutations.
    pub fn memory_breakdown(&self) -> IndexBytes {
        self.shared.index.index_bytes()
    }

    /// What an overlay adds to its full build's bytes, not walking it.
    pub(crate) fn overlay_bytes(&self) -> IndexBytes {
        self.shared.index.overlay_bytes()
    }

    /// Total sampling weight `Σµ` the engine draws against (`= |J|` for
    /// exact-counting indexes). This is the quantity a delete-heavy
    /// workload must see **shrink** across rebuilds — the serving stats
    /// export it for exactly that check.
    pub fn total_weight(&self) -> f64 {
        self.shared.index.total_weight()
    }

    /// What one row of the index bounds. [`Algorithm::Bbst`] has two
    /// granularities, decided once per full build from the data alone:
    /// one row per cell of `R` where the §III-B grid bound is already
    /// tight (a probe of the group rows needs ≤ 2 iterations a sample),
    /// per-`r` rows — the paper's Algorithm 1 — elsewhere; rebuilds over
    /// a new `R` or a patched `S`, and overlays, keep their full build's.
    /// The KDS families are per-`r`.
    pub fn row_granularity(&self) -> RowGranularity {
        self.shared.index.row_granularity()
    }

    /// Rows the full build keeps: `|R|` at per-`r` granularity, the
    /// cells of `R` whose block holds a point at group granularity.
    pub fn row_count(&self) -> usize {
        self.shared.index.row_count()
    }

    /// Number of cells of the full build's grid of `S` (an overlay
    /// reports its base's).
    pub fn cell_count(&self) -> usize {
        self.shared.index.cell_count()
    }

    /// Per-cell sharing tokens of the `S`-side — each cell's grid
    /// coordinate paired with the `Arc` pointer of its per-cell
    /// structure. Two engines reporting the same token for a coordinate
    /// share that cell's structure; a patch-based rebuild must keep the
    /// token of every clean cell (asserted in the cell-patching tests).
    /// `None` for overlay engines.
    pub fn s_cell_tokens(&self) -> Option<Vec<((i32, i32), usize)>> {
        self.shared.index.s_cell_tokens()
    }

    /// The grid of `S` the `S`-side stands on: of cell side `l`, or
    /// under group rows of `l`'s ladder step. Engines built over one
    /// base — one per window size — stand on the same point set
    /// ([`Grid::point_set`]): one array, which [`Engine::memory_bytes`]
    /// of each includes, so a sum over engines counts it once per set.
    /// `None` for overlay engines.
    pub fn s_grid(&self) -> Option<Arc<Grid>> {
        self.shared.index.s_grid()
    }

    /// The `R` set the full build stands on (an overlay's base's): the
    /// set it was built or rebuilt on, held, not copied. Engines over
    /// one epoch of a store share it, and [`Engine::memory_bytes`] of
    /// each includes it, so a sum over engines counts it once per set.
    #[doc(hidden)]
    pub fn r_set(&self) -> Arc<PointSet> {
        self.shared.index.r_set()
    }

    /// The group rows the full build stands on (an overlay's base's),
    /// `None` unless [`Engine::row_granularity`] is
    /// [`RowGranularity::Group`]. Their cell side is the window's ladder
    /// step ([`srj_grid::ladder_side`]); the step's epoch engine serves
    /// every window on the step that they pass from them
    /// ([`crate::EpochEngine::handle_at`]), and they live as long as the
    /// last handle on any of those windows.
    #[doc(hidden)]
    pub fn group_core(&self) -> Option<Arc<GroupCore>> {
        self.shared.index.group_core()
    }
}

/// A lightweight per-thread serving handle: its own RNG, its own
/// cursor (scratch + [`PhaseReport`]), a shared immutable index.
///
/// Handles are `Send` (move one into each serving thread) but
/// deliberately not `Sync` — a handle is exactly the state that must
/// not be shared. Creation is O(1); create them freely.
pub struct SamplerHandle {
    cursor: Box<dyn ServingCursor>,
    rng: SmallRng,
    shared: Arc<EngineShared>,
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SamplerHandle>();
};

impl SamplerHandle {
    /// Draws one uniform join sample.
    pub fn sample_one(&mut self) -> Result<JoinPair, SampleError> {
        srj_obs::trace::event("engine_query", "sample_one");
        let before = self.cursor.report().iterations;
        let t = Instant::now();
        let out = self.cursor.sample_one(&mut self.rng);
        let iterations = self.cursor.report().iterations - before;
        match &out {
            Ok(_) => self.shared.stats.record_query(1, iterations, t.elapsed()),
            Err(_) => self.shared.stats.record_error(iterations, t.elapsed()),
        }
        out
    }

    /// Draws `t` uniform join samples with replacement: one
    /// [`Cursor::sample_batch`](srj_core::Cursor::sample_batch),
    /// monomorphised over the handle's concrete [`SmallRng`] — one
    /// virtual call per batch, none per random word, for every algorithm
    /// and for the overlay alike — and timed and recorded as **one**
    /// engine query (a per-item `Instant` pair would cost more than a
    /// draw).
    pub fn sample_batch(&mut self, t: usize) -> Result<Vec<JoinPair>, SampleError> {
        srj_obs::trace::event("engine_query", "sample_batch");
        let before = self.cursor.report().iterations;
        let start = Instant::now();
        let mut out = Vec::new();
        let res = self.cursor.sample_batch(t, &mut self.rng, &mut out);
        let iterations = self.cursor.report().iterations - before;
        match &res {
            Ok(()) => self
                .shared
                .stats
                .record_query(out.len() as u64, iterations, start.elapsed()),
            Err(_) => self.shared.stats.record_error(iterations, start.elapsed()),
        }
        res.map(|()| out)
    }

    /// Progressive sampling: an iterator of uniform join samples that
    /// can be stopped at any point (the paper's `t = ∞` reading of
    /// Definition 2). Ends on the first error, which
    /// [`HandleStream::error`] exposes.
    ///
    /// Statistics: to keep shared atomics off the per-item path, a
    /// stream does **not** record one engine query per item — it
    /// accumulates the time spent **inside the draws** (consumer time
    /// between `next()` calls is excluded, so latency quantiles stay a
    /// serving-side signal) and flushes one aggregate query per
    /// `STREAM_STATS_BATCH` (256) samples, plus the remainder when the
    /// stream is dropped.
    pub fn stream(&mut self) -> HandleStream<'_> {
        HandleStream {
            handle: self,
            error: None,
            batch_draw_time: Duration::ZERO,
            batch_samples: 0,
            batch_iterations: 0,
        }
    }

    /// This handle's phase report: the engine's build phases
    /// ([`Engine::build_report`]) plus this handle's own sampling
    /// statistics.
    pub fn report(&self) -> PhaseReport {
        self.shared
            .index
            .build_report()
            .with_sampling_from(&self.cursor.report())
    }

    /// Observed rejection overhead of this handle so far:
    /// `iterations / samples` (the serving-time measurement of
    /// [`Engine::total_weight`]` / |J|`; `1.0` means no rejections).
    /// `None` before the first accepted sample;
    /// [`StatsSnapshot::rejection_rate`] is the engine-wide form.
    pub fn rejection_rate(&self) -> Option<f64> {
        let rep = self.cursor.report();
        (rep.samples > 0).then(|| rep.iterations as f64 / rep.samples as f64)
    }

    /// The algorithm behind this handle.
    pub fn algorithm(&self) -> Algorithm {
        self.shared.index.algorithm()
    }
}

/// How many stream items are aggregated into one recorded engine
/// query (see [`SamplerHandle::stream`]).
pub const STREAM_STATS_BATCH: u64 = 256;

/// Iterator over a handle's progressive samples; see
/// [`SamplerHandle::stream`].
pub struct HandleStream<'a> {
    handle: &'a mut SamplerHandle,
    error: Option<SampleError>,
    /// Time spent inside draws since the last flush (consumer time
    /// between `next()` calls is deliberately excluded).
    batch_draw_time: Duration,
    batch_samples: u64,
    batch_iterations: u64,
}

impl HandleStream<'_> {
    /// The error that terminated the stream, if any.
    pub fn error(&self) -> Option<SampleError> {
        self.error
    }

    fn flush_stats(&mut self) {
        srj_obs::trace::event("draw_loop", "stats_flush");
        if self.batch_samples > 0 {
            self.handle.shared.stats.record_query(
                self.batch_samples,
                self.batch_iterations,
                self.batch_draw_time,
            );
            self.batch_samples = 0;
            self.batch_iterations = 0;
        }
        self.batch_draw_time = Duration::ZERO;
    }
}

impl Iterator for HandleStream<'_> {
    type Item = JoinPair;

    fn next(&mut self) -> Option<JoinPair> {
        if self.error.is_some() {
            return None;
        }
        let before = self.handle.cursor.report().iterations;
        let t = Instant::now();
        let drawn = self.handle.cursor.sample_one(&mut self.handle.rng);
        let draw_time = t.elapsed();
        let iterations = self.handle.cursor.report().iterations - before;
        match drawn {
            Ok(p) => {
                self.batch_draw_time += draw_time;
                self.batch_samples += 1;
                self.batch_iterations += iterations;
                if self.batch_samples >= STREAM_STATS_BATCH {
                    self.flush_stats();
                }
                Some(p)
            }
            Err(e) => {
                self.flush_stats();
                self.handle.shared.stats.record_error(iterations, draw_time);
                self.error = Some(e);
                None
            }
        }
    }
}

impl Drop for HandleStream<'_> {
    fn drop(&mut self) {
        self.flush_stats();
    }
}
