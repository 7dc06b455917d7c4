//! Epoch-versioned serving over a mutable dataset, with cell-granular
//! incremental rebuilds.
//!
//! An [`EpochEngine`] wraps the immutable-engine machinery in an
//! atomic-swap cell over a [`DatasetStore`]. Maintenance escalates
//! through a fixed ladder, cheapest step first:
//!
//! ```text
//!   DatasetStore (mutable R/S + DeltaSet + epoch/version + s_dead)
//!        │ insert/delete (O(1) buffered)
//!        ▼
//!   EpochEngine ── swap cell ──► Engine (epoch e)
//!        │
//!        │ 1. minor swap      — O(batch) overlay snapshot: the new
//!        │                      inserts become one more source, no
//!        │                      structure is touched
//!        │ 2. cell patch      — compact_incremental(): R-side rebuilt,
//!        │                      S-side patched cell by cell (clean
//!        │                      cells Arc-shared; deletes shrink Σµ)
//!        │ 3. full rebuild    — compact(): purge dead ids, renumber,
//!        │                      rebuild everything (dirty-cell
//!        │                      fraction over the patch budget)
//!        └─ in-flight SamplerHandles pin their epoch via Arc
//! ```
//!
//! Every rung is a function of the **data** — the store's pending
//! delta — and never of who sampled before: serving traffic changes
//! nothing in the cell, so same-seed requests against the same epoch
//! return identical pairs, and an index keeps its build-time `Σµ` for
//! the whole epoch.
//!
//! **Swap semantics.** Handles pin their engine through an `Arc`: a
//! swap never interrupts an in-flight handle — it finishes (and keeps
//! recording stats) against the epoch it started on, while every
//! *new* handle sees the freshly swapped engine. Refresh is **lazy**:
//! mutations only buffer into the store; the first
//! [`EpochEngine::handle`] after a mutation pays the swap.
//!
//! **Rebuild triggers.** A major (patch or full) rebuild fires when the
//! total pending fraction exceeds [`EpochConfig::rebuild_fraction`]
//! **or** the tombstone-only fraction exceeds
//! [`EpochConfig::tombstone_rebuild_fraction`] — tombstones both
//! degrade the overlay's acceptance rate and keep `Σµ` inflated, so
//! delete-heavy deltas rebuild sooner (the rebuild is cell-granular
//! and therefore cheap), and `Σµ` actually shrinks between rebuilds.
//!
//! **One grid of `S`.** The epoch's full build — or the cell patch that
//! made it — holds the epoch's one grid of `S`, and the epoch asks it
//! everything it needs of `S`: the overlay's rows of inserted `R` rank
//! into it ([`OverlaySupport::on_grid`]; dead ids are in no cell), and
//! the patch budget counts its cells and the ones a patch would dirty
//! ([`srj_grid::Grid::dirty_cells`]). Under group rows its cell side is
//! the window's ladder step ([`srj_grid::ladder_side`]).
//!
//! **Windows.** An engine serves its own window `l` and, from the group
//! rows of its full build, every narrower window on `l`'s ladder step
//! that the rows serve ([`EpochEngine::handle_at`]); built at a step
//! ([`EpochEngine::for_step`]), it serves the whole step. A narrower
//! window's handle draws from a view of the serving engine at the
//! window's half-extent — the same rows, the same overlay, its own
//! window test — derived per handle in `O(1)`, so one swap cell serves
//! the step: a mutation batch is folded, and a patch counted, once per
//! step, not once per window. The verdicts are the rows' own: a
//! [`srj_core::GroupCore`] holds one number, the narrowest window it
//! serves, computed the first time any window asks — however many
//! windows ask, and whichever rung (full build, cell patch, `R`-only
//! rebuild) made the rows. A window the rows fail is not this engine's
//! to serve ([`EpochEngine::handle_at`] says `None`); it is served by an
//! engine of its own, built at its half-extent
//! ([`EpochEngine::off_step`]).
//!
//! **Counts.** A swap counts its rung into the cell's
//! [`MaintenanceCounters`] where it commits, under the state write lock,
//! and journals the same rung (an `R`-only rebuild counts, and journals,
//! as a full rebuild). A server hands in its dataset's series
//! ([`EpochEngine::with_counters`]), so what an evicted cell counted
//! stays counted. Under the same lock the cell publishes the change of
//! what it holds into the set's index gauges, and its `Drop` withdraws
//! the rest.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use srj_core::{IndexBytes, OverlaySupport, SampleConfig};
use srj_geom::{Point, PointId};
use srj_grid::{ladder_side, PointSet};
use srj_obs::journal::{event, EventKind};

use crate::dataset::{DatasetSnapshot, DatasetStore, StoreCounters};
use crate::family;
use crate::stats::{MaintenanceCounters, StatsSnapshot};
use crate::{Algorithm, Engine, RowGranularity, SamplerHandle};

/// Knobs for the epoch/patch machinery.
#[derive(Clone, Copy, Debug)]
pub struct EpochConfig {
    /// Major-rebuild threshold: compact and rebuild once pending
    /// mutations exceed this fraction of the base snapshot size.
    /// Default 0.25.
    pub rebuild_fraction: f64,
    /// Tombstone-only rebuild threshold: rebuild once pending
    /// **deletes** alone exceed this fraction of the base, even while
    /// the total pending fraction is below `rebuild_fraction` — the
    /// rebuild is cell-granular, and it is the only way `Σµ` shrinks.
    /// Default 0.125.
    pub tombstone_rebuild_fraction: f64,
    /// Cell-patch budget: an S-mutating rebuild goes through the
    /// cell-granular patch path while the dirty cells are at most this
    /// fraction of the S-side cells, and falls back to a full rebuild
    /// (purging dead ids, renumbering) beyond it. Default 0.5.
    pub max_patch_fraction: f64,
    /// Reserved; must be `≤ 1`. The engine holds one index over all of
    /// `R` and reads nothing here; the field is kept only so that
    /// existing struct literals still compile, and goes in a later
    /// change.
    pub shards: usize,
    /// Pinned algorithm, or `None` for the engine's choice, re-decided
    /// at every full build as [`Engine::auto`] decides it (a patch swap
    /// keeps the epoch's algorithm).
    pub algorithm: Option<Algorithm>,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            rebuild_fraction: 0.25,
            tombstone_rebuild_fraction: 0.125,
            max_patch_fraction: 0.5,
            shards: 1,
            algorithm: None,
        }
    }
}

impl EpochConfig {
    /// Overrides the rebuild threshold.
    pub fn with_rebuild_fraction(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0, "rebuild fraction must be positive");
        self.rebuild_fraction = fraction;
        self
    }

    /// Overrides the tombstone-only rebuild threshold.
    pub fn with_tombstone_rebuild_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0,
            "tombstone rebuild fraction must be positive"
        );
        self.tombstone_rebuild_fraction = fraction;
        self
    }

    /// Overrides the cell-patch budget (dirty-cell fraction above which
    /// a rebuild goes full instead of patching).
    pub fn with_max_patch_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "patch fraction must be in [0, 1]"
        );
        self.max_patch_fraction = fraction;
        self
    }

    /// Pins the serving algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }
}

/// What the swap cell currently serves.
struct EpochState {
    /// The epoch's full (non-overlay) build — overlay snapshots stack
    /// on this, and patch/R-only rebuilds harvest its `S`-side
    /// structures.
    base: Engine,
    /// The exact `S` allocation `base` was built over, and the dead ids
    /// it left out. A rebuild may only reuse or patch `base`'s `S`-side
    /// structures when the store still serves these very two — a
    /// version/flag check is not enough, because a sibling engine
    /// sharing the store may have compacted an `S` mutation in between
    /// (a delete-only patch keeps the allocation and grows the dead set).
    base_s: Arc<PointSet>,
    base_s_dead: Arc<HashSet<PointId>>,
    /// What new handles get: `base`, or an overlay snapshot over it.
    current: Engine,
    /// [`own_bytes`] of `base`, walked once per full build.
    base_bytes: IndexBytes,
    /// What this cell last published into its index gauges.
    published: Share,
    /// Per-epoch overlay support: `base`'s grid of `S` and a grid of
    /// base `R`, built lazily on the first mutation of the epoch, and
    /// the insert sources of every minor swap since — each swap extends
    /// it by its own batch and keeps the result, `Arc`-sharing the rest
    /// with the snapshots.
    support: Option<Arc<OverlaySupport>>,
    built_epoch: u64,
    built_version: u64,
}

impl EpochState {
    /// Publishes the change from what this state published last to its
    /// `share` ([`share`]) into `c`'s index gauges. Whole numbers add
    /// exactly, so the gauges go back to exactly zero.
    fn publish(&mut self, share: Share, c: &MaintenanceCounters) {
        let gauges = c.index_bytes.iter().chain(&c.index_rows);
        for ((gauge, from), to) in gauges.chain([&c.mu_total]).zip(self.published).zip(share) {
            if from != to {
                gauge.add(to as f64 - from as f64);
            }
        }
        self.published = share;
    }
}

/// The bytes of `engine` — `base`, or an overlay on it — without the
/// store's two sets `base` stands on: its `R` set and its grid's set of
/// `S` (a cell patch's grid stands on the store's extended set too).
fn own_bytes(engine: &Engine, base: &Engine) -> IndexBytes {
    let grid = base.s_grid().expect("a full build has a grid of S");
    let sets = IndexBytes {
        r_points: base.r_set().memory_bytes(),
        point_set: grid.point_set().memory_bytes(),
        ..IndexBytes::default()
    };
    engine.memory_breakdown() - sets
}

/// A cell's share of its index gauges, in their order: bytes, rows from
/// [`ROWS`], `Σµ` — a count — at [`MU`].
type Share = [u64; MU + 1];
const ROWS: usize = 7;
const MU: usize = ROWS + RowGranularity::ALL.len();

/// The [`Share`] of a cell serving `current` over the full build `base`,
/// `base_bytes` being [`own_bytes`] of `base` at its commit and `support`
/// the epoch's overlay support: an overlay adds what it holds beside the
/// base, and the views its chunks sorted on the base's grid of `S` since
/// ([`OverlaySupport::lent_views`]), not walking the base.
fn share(
    base: &Engine,
    base_bytes: IndexBytes,
    current: &Engine,
    support: Option<&OverlaySupport>,
) -> Share {
    let sorted = IndexBytes {
        grid: support.map_or(0, OverlaySupport::lent_views),
        ..IndexBytes::default()
    };
    let bytes = (base_bytes + sorted + current.overlay_bytes()).parts();
    let mut share: Share = std::array::from_fn(|i| bytes.get(i).map_or(0, |&(_, b)| b as u64));
    share[ROWS + base.row_granularity() as usize] = base.row_count() as u64;
    let mu = current.total_weight();
    debug_assert_eq!(mu.fract(), 0.0, "Σµ is a count");
    share[MU] = mu as u64;
    share
}

/// Epoch-versioned engine over a [`DatasetStore`]: lazy overlay swaps,
/// cell-granular patch rebuilds and full rebuilds. See the module docs.
///
/// `Send + Sync`; share one behind an `Arc`. Reads (issuing handles)
/// take a short read lock; a needed swap is serialised on a
/// maintenance mutex and paid by the first caller that observes the
/// drift.
pub struct EpochEngine {
    store: Arc<DatasetStore>,
    config: SampleConfig,
    cfg: EpochConfig,
    /// Whether a BBST full build tries the window's ladder step first:
    /// `false` only for [`EpochEngine::off_step`].
    on_step: bool,
    state: RwLock<EpochState>,
    maintain: Mutex<()>,
    /// Where the swaps are counted and the cell's share is published.
    counters: MaintenanceCounters,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EpochEngine>();
};

impl EpochEngine {
    /// Builds the first epoch over a fresh store holding `(r, s)`.
    pub fn new(r: Vec<Point>, s: Vec<Point>, config: &SampleConfig, cfg: EpochConfig) -> Self {
        Self::with_store(Arc::new(DatasetStore::new(r, s)), config, cfg)
    }

    /// Builds the first epoch over an existing (possibly shared and
    /// already mutated) store, counting into fresh counters. Multiple
    /// epoch engines — e.g. one per window size `l` — may share one
    /// store; each maintains its own swap cell and refreshes
    /// independently.
    pub fn with_store(store: Arc<DatasetStore>, config: &SampleConfig, cfg: EpochConfig) -> Self {
        Self::with_counters(store, config, cfg, MaintenanceCounters::default())
    }

    /// [`EpochEngine::with_store`], counting its swaps into `counters`.
    /// Cells handed clones of one set add up in it, and what a cell
    /// counted stays counted after the cell is dropped.
    ///
    /// # Panics
    /// Panics if `cfg.shards > 1` (see [`EpochConfig::shards`]).
    pub fn with_counters(
        store: Arc<DatasetStore>,
        config: &SampleConfig,
        cfg: EpochConfig,
        counters: MaintenanceCounters,
    ) -> Self {
        let build = |snap: &DatasetSnapshot| Some(Self::build_base(snap, config, &cfg, true));
        Self::build(store, config, cfg, counters, true, build).expect("a full build")
    }

    /// [`EpochEngine::with_counters`] for the ladder step
    /// `config.half_extent` ([`ladder_side`]), for serving the windows
    /// below it: the step's group rows where they serve the step's own
    /// window, `None` where they fail it — and so, the probe being
    /// monotone, every window on the step. Nothing beyond the rows and
    /// their probe is built; later full builds are
    /// [`EpochEngine::with_counters`]'s.
    ///
    /// # Panics
    /// Panics unless `cfg` forces [`Algorithm::Bbst`], or as
    /// [`EpochEngine::with_counters`].
    pub fn for_step(
        store: Arc<DatasetStore>,
        config: &SampleConfig,
        cfg: EpochConfig,
        counters: MaintenanceCounters,
    ) -> Option<Self> {
        assert_eq!(
            cfg.algorithm,
            Some(Algorithm::Bbst),
            "a step's rows are BBST's"
        );
        let build = |snap: &DatasetSnapshot| {
            let index = family::build_step(&snap.base_r, Arc::clone(&snap.base_s), config)?;
            Some(Engine::from_index(index))
        };
        Self::build(store, config, cfg, counters, true, build)
    }

    /// [`EpochEngine::with_counters`] for a window whose ladder step's
    /// rows fail it ([`EpochEngine::handle_at`] said `None`): rows at
    /// the window's own side — group rows on a grid of side `l`, probed,
    /// else per-`r` rows — never the step's, in this and every later
    /// full build.
    pub fn off_step(
        store: Arc<DatasetStore>,
        config: &SampleConfig,
        cfg: EpochConfig,
        counters: MaintenanceCounters,
    ) -> Self {
        let build = |snap: &DatasetSnapshot| Some(Self::build_base(snap, config, &cfg, false));
        Self::build(store, config, cfg, counters, false, build).expect("a full build")
    }

    /// The constructors' common part: the first full build is `first`'s,
    /// over a purged snapshot of `store`; `on_step` as [`family::build`]
    /// takes it, for the later ones.
    fn build(
        store: Arc<DatasetStore>,
        config: &SampleConfig,
        cfg: EpochConfig,
        counters: MaintenanceCounters,
        on_step: bool,
        first: impl FnOnce(&DatasetSnapshot) -> Option<Engine>,
    ) -> Option<Self> {
        assert!(
            cfg.shards <= 1,
            "EpochConfig::shards is reserved: R is not sharded"
        );
        // A full build must never run over a base with dead ids (a
        // sibling engine's incremental compaction may have left some):
        // purge first — the compaction is a no-op otherwise.
        if store.s_dead_len() > 0 {
            let _ = store.compact();
        }
        let snap = store.snapshot();
        let base = first(&snap)?;
        let mut state = EpochState {
            current: base.clone(),
            base_bytes: own_bytes(&base, &base),
            published: [0; MU + 1],
            base,
            base_s: Arc::clone(&snap.base_s),
            base_s_dead: Arc::clone(&snap.s_dead),
            support: None,
            built_epoch: snap.epoch,
            built_version: snap.version,
        };
        if !snap.delta.is_empty() {
            // The store already carried mutations: serve them through
            // an overlay from the start.
            let support = Self::support_on(&state.base).extended(&snap.delta);
            state.current = state.base.with_overlay(snap.delta, &support, config);
            state.support = Some(Arc::new(support));
        }
        let support = state.support.as_deref();
        let share = share(&state.base, state.base_bytes, &state.current, support);
        state.publish(share, &counters);
        Some(EpochEngine {
            store,
            config: *config,
            cfg,
            on_step,
            state: RwLock::new(state),
            maintain: Mutex::new(()),
            counters,
        })
    }

    /// A full build over `snap`'s base: the pinned algorithm, or the
    /// engine's choice for this data.
    fn build_base(
        snap: &DatasetSnapshot,
        config: &SampleConfig,
        cfg: &EpochConfig,
        on_step: bool,
    ) -> Engine {
        debug_assert!(
            snap.s_dead.is_empty(),
            "full builds must run over a purged base"
        );
        let s = Arc::clone(&snap.base_s);
        let index = family::build(&snap.base_r, s, config, cfg.algorithm, on_step);
        Engine::from_index(index)
    }

    /// The overlay support of an epoch: the grid of `S` its full build
    /// `base` stands on — dead ids already out of every cell; its cell
    /// side may exceed the window's — and a grid on the `R` set it
    /// stands on, the epoch's.
    fn support_on(base: &Engine) -> OverlaySupport {
        let s_grid = base.s_grid().expect("an epoch's base is a full build");
        OverlaySupport::on_grid(&base.r_set(), s_grid)
    }

    /// The shared mutable dataset.
    pub fn store(&self) -> &Arc<DatasetStore> {
        &self.store
    }

    /// Inserts an `R` point (buffered; served by the next refresh).
    pub fn insert_r(&self, p: Point) -> PointId {
        self.store.insert_r(p)
    }

    /// Inserts an `S` point.
    pub fn insert_s(&self, p: Point) -> PointId {
        self.store.insert_s(p)
    }

    /// Tombstones an `R` point by id.
    pub fn delete_r(&self, id: PointId) -> bool {
        self.store.delete_r(id)
    }

    /// Tombstones an `S` point by id.
    pub fn delete_s(&self, id: PointId) -> bool {
        self.store.delete_s(id)
    }

    /// A serving handle over the **current** dataset state (refreshing
    /// the swap cell first if the store drifted). The handle pins its
    /// epoch: later swaps never interrupt it.
    pub fn handle(&self) -> SamplerHandle {
        self.refresh();
        self.engine().handle()
    }

    /// Like [`EpochEngine::handle`] with a fixed RNG seed.
    pub fn handle_seeded(&self, seed: u64) -> SamplerHandle {
        self.refresh();
        self.engine().handle_seeded(seed)
    }

    /// A serving handle for the window of half-extent `l` — this
    /// engine's own, or a narrower one on its ladder step — seeded with
    /// `seed`, or from the serving engine's handle sequence. Refreshes
    /// the swap cell first, like [`EpochEngine::handle`]. A narrower
    /// window draws from the serving engine's rows where they serve it
    /// ([`srj_core::GroupCore::serves`], computed here the first time
    /// any window asks the rows) and its seeded stream is the one an
    /// engine built for `l` alone draws; where the rows fail it, `None`:
    /// the window is served by an engine of its own
    /// ([`EpochEngine::off_step`]).
    ///
    /// # Panics
    /// Panics if `l` exceeds this engine's window or maps to another
    /// ladder step.
    pub fn handle_at(&self, l: f64, seed: Option<u64>) -> Option<SamplerHandle> {
        self.refresh();
        if self.is_home(l) {
            return Some(handle_of(&self.engine(), seed));
        }
        self.serves(l).then(|| self.engine().handle_at(l, seed))?
    }

    /// [`EpochEngine::handle_at`] for a caller that must never wait:
    /// `None` when maintenance is due (the store drifted), or when a swap
    /// holds the state lock or a writer the store this instant — instead
    /// of running or waiting for it — and for a window whose verdict the
    /// rows have not computed yet ([`EpochEngine::verdict_at`]): nothing
    /// is probed here. Otherwise the very handle
    /// [`EpochEngine::handle_at`] would have issued. The server's event
    /// loop acquires through this and leaves every `None` to a worker,
    /// so no swap ever runs on the thread that owns the sockets.
    pub fn try_handle_at(&self, l: f64, seed: Option<u64>) -> Option<SamplerHandle> {
        let current = self.settled()?;
        if self.is_home(l) {
            return Some(handle_of(&current, seed));
        }
        self.verdict_at(l)?.then(|| current.handle_at(l, seed))?
    }

    /// What this engine knows of the window `l` — its own or a narrower
    /// one on its ladder step, as [`EpochEngine::handle_at`] takes —
    /// without probing or waiting: `Some(true)` for its own window and
    /// one its rows serve, `Some(false)` for one they fail (every one,
    /// where the full build has no group rows), `None` before the rows
    /// have computed their verdict, or while a swap holds the state lock.
    pub fn verdict_at(&self, l: f64) -> Option<bool> {
        if self.is_home(l) {
            return Some(true);
        }
        let core = self.state.try_read().ok()?.base.group_core();
        core.map_or(Some(false), |core| core.verdict(l))
    }

    /// Whether the full build's rows serve the window `l`: its group
    /// core is taken under the read lock and asked outside it, which
    /// computes the core's verdict if no window has yet.
    fn serves(&self, l: f64) -> bool {
        let home = self.config.half_extent;
        assert!(
            l < home && ladder_side(l).to_bits() == ladder_side(home).to_bits(),
            "window {l} is not on the step of the engine's window {home}"
        );
        let core = self
            .state
            .read()
            .expect("epoch state poisoned")
            .base
            .group_core();
        core.is_some_and(|core| core.serves(l))
    }

    /// Whether `l` is this engine's own window.
    fn is_home(&self, l: f64) -> bool {
        l.to_bits() == self.config.half_extent.to_bits()
    }

    /// The serving engine, provided nothing is due. Waits for nothing:
    /// a swap committing or a writer holding the store is reason enough
    /// to decline, and the maintenance mutex is never touched.
    fn settled(&self) -> Option<Engine> {
        let st = self.state.try_read().ok()?;
        (!Self::pending_maintenance(&st, self.store.try_counters()?)).then(|| st.current.clone())
    }

    /// Mean observed nanoseconds per delivered sample of the engine
    /// currently serving (per overlay snapshot, like
    /// [`EpochEngine::stats`]), over the handles of every window it
    /// serves: two relaxed loads. `None` before its first delivered
    /// sample — and, because this never waits either, while a swap is
    /// being committed.
    pub fn observed_ns_per_sample(&self) -> Option<u64> {
        self.state.try_read().ok()?.current.ns_per_sample()
    }

    /// The engine currently in the swap cell (O(1) `Arc` clone; does
    /// **not** refresh first — pair with [`EpochEngine::refresh`] when
    /// pending mutations must be visible).
    pub fn engine(&self) -> Engine {
        self.state
            .read()
            .expect("epoch state poisoned")
            .current
            .clone()
    }

    /// The engine a handle of [`EpochEngine::handle_at`] draws from:
    /// for this engine's own window [`EpochEngine::engine`], for a
    /// narrower one a view of it at `l` (with statistics of its own),
    /// `None` where the rows fail `l`. Does **not** refresh first.
    ///
    /// # Panics
    /// As [`EpochEngine::handle_at`].
    pub fn engine_at(&self, l: f64) -> Option<Engine> {
        if self.is_home(l) {
            return Some(self.engine());
        }
        self.serves(l).then(|| self.engine().at(l))?
    }

    /// The algorithm currently serving.
    pub fn algorithm(&self) -> Algorithm {
        self.state
            .read()
            .expect("epoch state poisoned")
            .current
            .algorithm()
    }

    /// The epoch the swap cell serves (trails
    /// [`DatasetStore::epoch`] until the next refresh).
    pub fn epoch(&self) -> u64 {
        self.state.read().expect("epoch state poisoned").built_epoch
    }

    /// Statistics of the current engine (per overlay snapshot: every
    /// swap installs an engine with fresh counters).
    pub fn stats(&self) -> StatsSnapshot {
        self.state
            .read()
            .expect("epoch state poisoned")
            .current
            .stats()
    }

    /// Does nothing: there is no buffered draw to switch. Reserved for
    /// `benchmark/src/layers.rs`; ROADMAP item 5 (d) deletes it.
    pub fn set_buffers_enabled(&self, _on: bool) {}

    /// `Σµ` of the engine currently serving.
    pub fn total_weight(&self) -> f64 {
        self.state
            .read()
            .expect("epoch state poisoned")
            .current
            .total_weight()
    }

    /// The serving engine's heap bytes by structure
    /// ([`Engine::memory_breakdown`]) without the store's two base sets
    /// its epoch stands on, walked afresh: what this cell published into
    /// its index gauges ([`MaintenanceCounters::index_bytes`]). Engines
    /// over one store — one per window size or ladder step — share those
    /// sets, and the store's own ([`DatasetStore::set_bytes`]) complete
    /// the sum. The views a narrower window's handles draw from hold
    /// nothing of their own beyond a few `Arc`s. Walks the index outside
    /// the state lock.
    pub fn memory_breakdown(&self) -> IndexBytes {
        let (current, base) = {
            let st = self.state.read().expect("epoch state poisoned");
            (st.current.clone(), st.base.clone())
        };
        own_bytes(&current, &base)
    }

    /// Minor swaps so far (overlay snapshot replaced). This and the
    /// next three read the cell's [`MaintenanceCounters`]: per engine
    /// unless [`EpochEngine::with_counters`] handed it a shared set.
    pub fn minor_swaps(&self) -> u64 {
        self.counters.minor_swap.get()
    }

    /// Major swaps so far (epoch rebuilt: threshold or external
    /// compaction; includes patch-based swaps).
    pub fn major_swaps(&self) -> u64 {
        self.counters.cell_patch.get() + self.counters.full_rebuild.get()
    }

    /// Major swaps that went through the cell-granular patch path (a
    /// strict subset of [`EpochEngine::major_swaps`]).
    pub fn patch_swaps(&self) -> u64 {
        self.counters.cell_patch.get()
    }

    /// Total `S`-cells rebuilt by patch-based swaps (clean cells were
    /// `Arc`-shared and cost nothing).
    pub fn cells_patched(&self) -> u64 {
        self.counters.cells_patched.get()
    }

    /// Whether the cell trails the store: the one maintenance trigger.
    fn pending_maintenance(st: &EpochState, store: StoreCounters) -> bool {
        st.built_epoch != store.epoch || st.built_version != store.version
    }

    /// Brings the swap cell up to date with the store. Called
    /// automatically by [`EpochEngine::handle`]; cheap (two counter
    /// comparisons) when nothing is pending.
    pub fn refresh(&self) {
        {
            let st = self.state.read().expect("epoch state poisoned");
            if !Self::pending_maintenance(&st, self.store.counters()) {
                return;
            }
        }
        let _g = self.maintain.lock().expect("maintenance lock poisoned");
        // Re-check under the maintenance lock: another thread may have
        // already performed the swap.
        let built_epoch = {
            let st = self.state.read().expect("epoch state poisoned");
            if !Self::pending_maintenance(&st, self.store.counters()) {
                return;
            }
            st.built_epoch
        };
        let t0 = Instant::now();
        let rebuild = self.store.epoch() != built_epoch
            || self.store.delta_fraction() >= self.cfg.rebuild_fraction
            || self.store.tombstone_fraction() >= self.cfg.tombstone_rebuild_fraction;
        if rebuild {
            self.major_swap();
        } else {
            self.minor_swap();
        }
        let took = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.counters.last_swap_ns.set(took as f64);
    }

    /// Installs a freshly built epoch: base == current, no overlay
    /// support yet, and publishes its share (its bytes walked here,
    /// before the lock). Returns the still-held write guard, so the
    /// caller counts the rung where it commits.
    fn commit_epoch(
        &self,
        engine: Engine,
        snap: &DatasetSnapshot,
    ) -> std::sync::RwLockWriteGuard<'_, EpochState> {
        let base_bytes = own_bytes(&engine, &engine);
        let share = share(&engine, base_bytes, &engine, None);
        let mut st = self.state.write().expect("epoch state poisoned");
        st.base = engine.clone();
        st.base_bytes = base_bytes;
        st.base_s = Arc::clone(&snap.base_s);
        st.base_s_dead = Arc::clone(&snap.s_dead);
        st.current = engine;
        st.support = None;
        st.built_epoch = snap.epoch;
        st.built_version = snap.version;
        st.publish(share, &self.counters);
        st
    }

    /// Major swap. When the dirty-cell fraction fits the patch budget,
    /// the store folds **without renumbering `S`**
    /// ([`DatasetStore::compact_incremental`]) and the previous base's
    /// `S`-side is patched cell by cell (or `Arc`-reused outright when
    /// only `R` changed). Otherwise — or when a sibling engine compacted
    /// the store in between — the store fully compacts (purging dead
    /// ids) and everything rebuilds.
    fn major_swap(&self) {
        let t0 = Instant::now();
        let (prev_base, prev_s, prev_dead) = {
            let st = self.state.read().expect("epoch state poisoned");
            let (s, dead) = (Arc::clone(&st.base_s), Arc::clone(&st.base_s_dead));
            (st.base.clone(), s, dead)
        };
        if self.try_patch_swap(&prev_base, &prev_s, &prev_dead) {
            return;
        }
        // Full path: purge dead ids, renumber, rebuild from scratch.
        let mu_before = prev_base.total_weight();
        let (snap, _) = self.store.compact();
        let engine = Self::build_base(&snap, &self.config, &self.cfg, self.on_step);
        let mu_after = engine.total_weight();
        let st = self.commit_epoch(engine, &snap);
        self.counters.full_rebuild.inc();
        drop(st);
        event(EventKind::FullRebuild)
            .dataset(self.store.obs_label())
            .epoch(snap.epoch)
            .duration_ns(t0.elapsed().as_nanos() as u64)
            .mu(mu_before, mu_after)
            .emit();
    }

    /// The incremental half of [`EpochEngine::major_swap`]: `true` when
    /// the patch (or R-only) rebuild committed, `false` when the caller
    /// must fall back to the full path.
    fn try_patch_swap(
        &self,
        prev_base: &Engine,
        prev_s: &Arc<PointSet>,
        prev_dead: &Arc<HashSet<PointId>>,
    ) -> bool {
        let t0 = Instant::now();
        if prev_base.is_overlay() {
            return false;
        }
        let ours = |s: &Arc<PointSet>, dead: &Arc<HashSet<PointId>>| {
            Arc::ptr_eq(s, prev_s) && Arc::ptr_eq(dead, prev_dead)
        };
        // Budget pre-check against the *current* pending delta.
        {
            let snap = self.store.snapshot();
            if !ours(&snap.base_s, &snap.s_dead) {
                return false; // sibling engine compacted underneath us
            }
            // Dead-id budget: every patch leaves its tombstones behind
            // as dead ids that only a full compaction purges. Without
            // this cap, a sustained churn workload would grow `base_s`
            // and the dead set without bound (and every later patch
            // would re-copy the ever-larger point array). Past the
            // budget, fall through to the full path — it purges.
            if snap.s_dead.len() as f64
                > self.cfg.max_patch_fraction * snap.base_s.len().max(1) as f64
            {
                return false;
            }
            let (inserted, deleted) = (&snap.delta.s_inserted, &snap.delta.s_deleted);
            if !inserted.is_empty() || !deleted.is_empty() {
                let grid = prev_base.s_grid().expect("not an overlay: checked above");
                let total = grid.num_cells();
                if total == 0 {
                    return false;
                }
                let dirty = grid.dirty_cells(inserted, deleted).len();
                if dirty as f64 > self.cfg.max_patch_fraction * total as f64 {
                    return false; // too dirty: a full rebuild is cheaper
                }
            }
        }
        let (snap, spatch) = self.store.compact_incremental();
        if !ours(&spatch.prev_base_s, &spatch.prev_s_dead) {
            // Lost a race to a sibling's compaction between the check
            // and the fold; our S-side is not the patch's valid start.
            return false;
        }
        let built = if !spatch.s_changed() {
            // Only R changed: reuse the S-side allocation outright.
            prev_base
                .rebuild_r_only(&snap.base_r, &self.config)
                .map(|e| (e, None))
        } else {
            // The grid of the patched `S` stands on the store's set.
            prev_base
                .rebuild_with_s_patch(&snap.base_r, &self.config, &snap.base_s, &spatch.deleted)
                .map(|(e, rep)| (e, Some(rep)))
        };
        let Some((engine, patch_report)) = built else {
            return false;
        };
        let mu_before = prev_base.total_weight();
        let mu_after = engine.total_weight();
        let st = self.commit_epoch(engine, &snap);
        // An R-only rebuild patches no cell: it counts, and journals, as
        // a full rebuild.
        let journaled = match patch_report {
            Some(rep) => {
                self.counters.cell_patch.inc();
                self.counters.cells_patched.add(rep.cells_rebuilt as u64);
                event(EventKind::CellPatch).dirty_cells(rep.cells_rebuilt as u64)
            }
            None => {
                self.counters.full_rebuild.inc();
                event(EventKind::FullRebuild)
            }
        };
        drop(st);
        journaled
            .dataset(self.store.obs_label())
            .epoch(snap.epoch)
            .duration_ns(t0.elapsed().as_nanos() as u64)
            .mu(mu_before, mu_after)
            .emit();
        true
    }

    /// Minor swap: the epoch's overlay support extended by the inserts
    /// it has not chunked yet (`O(batch)`), and a fresh overlay snapshot
    /// over the epoch's unchanged base build and the extended support's
    /// sources. The extended support is kept for the next swap.
    fn minor_swap(&self) {
        let t0 = Instant::now();
        let snap = self.store.snapshot();
        let (base, base_bytes, support, built_epoch) = {
            let st = self.state.read().expect("epoch state poisoned");
            (
                st.base.clone(),
                st.base_bytes,
                st.support.clone(),
                st.built_epoch,
            )
        };
        if snap.epoch != built_epoch {
            // The store was compacted between decision and snapshot
            // (e.g. by a sibling engine sharing the store).
            return self.major_swap();
        }
        let support = support
            .unwrap_or_else(|| Arc::new(Self::support_on(&base)))
            .extended(&snap.delta);
        let (epoch, version) = (snap.epoch, snap.version);
        let pending_ops = snap.delta.pending_ops();
        let engine = if snap.delta.is_empty() {
            base.clone()
        } else {
            base.with_overlay(snap.delta, &support, &self.config)
        };
        let sources = support.source_count();
        let share = share(&base, base_bytes, &engine, Some(&support));
        let mut st = self.state.write().expect("epoch state poisoned");
        let mu_before = st.current.total_weight();
        let mu_after = engine.total_weight();
        st.current = engine;
        st.support = Some(Arc::new(support));
        st.built_version = version;
        st.publish(share, &self.counters);
        self.counters.minor_swap.inc();
        drop(st);
        event(EventKind::MinorSwap)
            .dataset(self.store.obs_label())
            .epoch(epoch)
            .duration_ns(t0.elapsed().as_nanos() as u64)
            .mu(mu_before, mu_after)
            .overlay(pending_ops as u64, sources as u64)
            .emit();
    }
}

impl Drop for EpochEngine {
    /// Withdraws this cell's share of its index gauges.
    fn drop(&mut self) {
        let st = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        st.publish([0; MU + 1], &self.counters);
    }
}

/// A handle of `engine`, seeded with `seed` or from its sequence.
fn handle_of(engine: &Engine, seed: Option<u64>) -> SamplerHandle {
    match seed {
        Some(seed) => engine.handle_seeded(seed),
        None => engine.handle(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srj_geom::Rect;

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
    fn inserts_become_sampleable_without_a_rebuild() {
        let r = pseudo_points(60, 1, 50.0);
        let s = pseudo_points(80, 2, 50.0);
        let l = 5.0;
        let engine = EpochEngine::new(r, s, &SampleConfig::new(l), EpochConfig::default());
        assert_eq!(engine.epoch(), 0);

        // A far-away cluster only reachable through the new points.
        let rid = engine.insert_r(Point::new(500.0, 500.0));
        let sid = engine.insert_s(Point::new(501.0, 501.0));
        let mut h = engine.handle_seeded(7);
        assert_eq!(engine.epoch(), 0, "small delta must not rebuild");
        assert!(engine.engine().is_overlay());
        assert_eq!(engine.minor_swaps(), 1);

        let snap = engine.store().snapshot();
        let mut saw_new = false;
        for _ in 0..3_000 {
            let p = h.sample_one().unwrap();
            let rp = snap.r_point(p.r).unwrap();
            let sp = snap.s_point(p.s).unwrap();
            assert!(Rect::window(rp, l).contains(sp));
            saw_new |= p.r == rid && p.s == sid;
        }
        assert!(saw_new, "inserted pair never sampled");
    }

    #[test]
    fn try_handle_never_runs_maintenance() {
        let r = pseudo_points(60, 5, 50.0);
        let s = pseudo_points(80, 6, 50.0);
        let home = 5.0;
        let engine = EpochEngine::new(r, s, &SampleConfig::new(home), EpochConfig::default());
        assert_eq!(engine.observed_ns_per_sample(), None, "nothing drawn yet");

        // Settled: the very handle `handle_at` issues.
        let mut want = engine.handle_at(home, Some(9)).unwrap();
        let mut got = engine.try_handle_at(home, Some(9)).expect("nothing is due");
        assert_eq!(
            got.sample_batch(50).unwrap(),
            want.sample_batch(50).unwrap()
        );
        assert!(engine.try_handle_at(home, None).is_some());
        assert!(engine.observed_ns_per_sample().is_some());

        // Drifted: declined, and the swap is left for a blocking caller.
        engine.insert_s(Point::new(10.0, 10.0));
        assert!(engine.try_handle_at(home, Some(9)).is_none());
        assert!(engine.try_handle_at(home, None).is_none());
        assert_eq!(engine.minor_swaps(), 0, "a try must not swap");
        let _ = engine.handle();
        assert_eq!(engine.minor_swaps(), 1);
        assert!(engine.try_handle_at(home, Some(9)).is_some());
        assert_eq!(
            engine.observed_ns_per_sample(),
            None,
            "the overlay snapshot is a fresh engine: no observation yet"
        );
    }

    #[test]
    fn deletes_stop_being_sampled_immediately() {
        let r = pseudo_points(40, 11, 30.0);
        let s = pseudo_points(60, 12, 30.0);
        let engine = EpochEngine::new(r, s, &SampleConfig::new(4.0), EpochConfig::default());
        assert!(engine.delete_r(0));
        assert!(engine.delete_s(3));
        let mut h = engine.handle_seeded(3);
        for _ in 0..2_000 {
            match h.sample_one() {
                Ok(p) => {
                    assert_ne!(p.r, 0, "tombstoned R point sampled");
                    assert_ne!(p.s, 3, "tombstoned S point sampled");
                }
                Err(_) => break, // join may be sparse; errors are fine here
            }
        }
    }

    #[test]
    fn threshold_triggers_a_major_swap_and_compaction() {
        let r = pseudo_points(40, 21, 30.0);
        let s = pseudo_points(40, 22, 30.0);
        let cfg = EpochConfig::default().with_rebuild_fraction(0.1);
        let engine = EpochEngine::new(r, s, &SampleConfig::new(4.0), cfg);
        for p in pseudo_points(20, 23, 30.0) {
            engine.insert_r(p);
        }
        for id in 0..10 {
            assert!(engine.delete_r(id));
        }
        engine.refresh();
        assert_eq!(engine.epoch(), 1, "threshold crossed: epoch must bump");
        assert_eq!(engine.major_swaps(), 1);
        assert!(!engine.engine().is_overlay(), "delta was folded in");
        assert_eq!(engine.store().pending_ops(), 0);
        let live_r = engine.store().live_r_len();
        assert_eq!(live_r, 50);
        // The compaction renumbered R: the swapped-in engine draws from
        // the compacted id space only, never an id renumbered away.
        let snap = engine.store().snapshot();
        let mut h = engine.handle_seeded(1);
        for _ in 0..2_000 {
            let p = h.sample_one().unwrap();
            assert!((p.r as usize) < live_r, "renumbered-away id {}", p.r);
            let w = Rect::window(snap.r_point(p.r).unwrap(), 4.0);
            assert!(
                w.contains(snap.s_point(p.s).unwrap()),
                "non-join pair {p:?}"
            );
        }
    }

    /// A cell at `l = 4` and a sibling at `l = 5` over one fresh store of
    /// locally uniform points; the sibling rebuilds on any pending
    /// change.
    fn siblings(a: MaintenanceCounters, b: MaintenanceCounters) -> (EpochEngine, EpochEngine) {
        let store = Arc::new(DatasetStore::new(
            pseudo_points(400, 61, 60.0),
            pseudo_points(600, 62, 60.0),
        ));
        let cfg = EpochConfig::default().with_algorithm(Algorithm::Bbst);
        let cell = |l, cfg, counters| {
            EpochEngine::with_counters(Arc::clone(&store), &SampleConfig::new(l), cfg, counters)
        };
        let first = cell(4.0, cfg, a);
        (first, cell(5.0, cfg.with_rebuild_fraction(1e-4), b))
    }

    /// One `S` insert, and each cell swaps: the first takes a minor swap,
    /// the sibling folds the insert with a cell patch, and the first
    /// then follows the compacted store with a full rebuild.
    fn climb(a: &EpochEngine, b: &EpochEngine) {
        a.insert_s(Point::new(30.0, 30.0));
        a.refresh();
        assert!(a.engine().is_overlay(), "a small delta is a minor swap");
        b.refresh();
        assert_eq!(b.epoch(), 1, "the sibling folds the insert");
        a.refresh();
        assert_eq!(a.epoch(), 1, "the first cell follows the store");
        assert!(!a.engine().is_overlay());
    }

    fn rungs(c: &MaintenanceCounters) -> [u64; 4] {
        [
            c.minor_swap.get(),
            c.cell_patch.get(),
            c.full_rebuild.get(),
            c.cells_patched.get(),
        ]
    }

    /// Cells handed one [`MaintenanceCounters`] add up in it: each rung
    /// counts both cells' swaps, and dropping a cell takes nothing back.
    #[test]
    fn sibling_cells_add_up_in_one_set_of_counters() {
        // Apart, each set counts one cell's swaps.
        let (own_a, own_b) = (
            MaintenanceCounters::default(),
            MaintenanceCounters::default(),
        );
        let (a, b) = siblings(own_a.clone(), own_b.clone());
        climb(&a, &b);
        assert_eq!(rungs(&own_a)[..3], [1, 0, 1]);
        assert_eq!(rungs(&own_b)[..3], [0, 1, 0]);
        assert!(own_b.cells_patched.get() > 0);
        drop((a, b));

        let shared = MaintenanceCounters::default();
        let (a, b) = siblings(shared.clone(), shared.clone());
        climb(&a, &b);
        let apart: Vec<u64> = (0..4)
            .map(|i| rungs(&own_a)[i] + rungs(&own_b)[i])
            .collect();
        assert_eq!(rungs(&shared).to_vec(), apart);
        assert_eq!(a.major_swaps(), 2, "the accessors read the shared set");
        assert_eq!(b.minor_swaps(), 1);

        // Dropping a cell changes no counter.
        let before = rungs(&shared);
        drop(b);
        assert_eq!(rungs(&shared), before);
    }

    /// What cells publish is what a fresh walk of them finds, after
    /// their construction and after every rung; a clean cell's engine is
    /// its published bytes and the store's two sets; and dropped cells
    /// leave nothing behind.
    #[test]
    fn cells_publish_what_they_hold_and_withdraw_it_on_drop() {
        let check = |counters: &MaintenanceCounters, cells: &[&EpochEngine]| {
            let bytes = counters.index_bytes.each_ref().map(|g| g.get() as usize);
            let walked = cells
                .iter()
                .fold(IndexBytes::default(), |sum, c| sum + c.memory_breakdown());
            assert_eq!(bytes, walked.parts().map(|(_, b)| b));
            let rows: usize = cells.iter().map(|c| c.engine().row_count()).sum();
            let published = counters.index_rows.iter().map(|g| g.get() as usize);
            assert_eq!(published.sum::<usize>(), rows);
            let mu: f64 = cells.iter().map(|c| c.total_weight()).sum();
            assert_eq!(counters.mu_total.get(), mu);
        };
        let counters = MaintenanceCounters::default();
        let (a, b) = siblings(counters.clone(), counters.clone());
        check(&counters, &[&a, &b]);
        for algorithm in [Algorithm::Bbst, Algorithm::Kds, Algorithm::KdsRejection] {
            let cfg = EpochConfig::default().with_algorithm(algorithm);
            let clean =
                EpochEngine::with_store(Arc::clone(a.store()), &SampleConfig::new(3.0), cfg);
            let whole = clean.memory_breakdown() + a.store().set_bytes();
            assert_eq!(whole, clean.engine().memory_breakdown(), "{algorithm}");
        }
        // A minor swap, a cell patch, a full rebuild, an `R`-only rebuild.
        climb(&a, &b);
        check(&counters, &[&a, &b]);
        a.insert_r(Point::new(10.0, 10.0));
        b.refresh();
        assert_eq!(counters.full_rebuild.get(), 2, "an R-only rebuild");
        check(&counters, &[&a, &b]);
        drop(a);
        check(&counters, &[&b]);
        drop(b);
        check(&counters, &[]);
    }

    /// A delete-only cell patch keeps the `S` allocation and only grows
    /// the dead set. A sibling cell over the same store must not take
    /// that for "only `R` changed" and keep serving its stale `S`-side:
    /// it rebuilds, and never draws a deleted point.
    #[test]
    fn a_sibling_never_serves_s_points_another_cell_patched_away() {
        let s = pseudo_points(100, 72, 30.0);
        let deleted = s[..30].to_vec();
        let store = Arc::new(DatasetStore::new(pseudo_points(100, 71, 30.0), s));
        let cfg = EpochConfig::default()
            .with_algorithm(Algorithm::Bbst)
            .with_rebuild_fraction(1e-4);
        let cell = |l| EpochEngine::with_store(Arc::clone(&store), &SampleConfig::new(l), cfg);
        let (a, b) = (cell(4.0), cell(5.0));
        for id in 0..30 {
            assert!(store.delete_s(id));
        }
        a.refresh();
        assert_eq!(a.patch_swaps(), 1, "the deletes are folded by a patch");
        let mut h = b.handle_seeded(1);
        let snap = store.snapshot();
        for p in h.sample_batch(5_000).unwrap() {
            let sp = snap.s_point(p.s).unwrap();
            assert!(!deleted.contains(&sp), "a deleted S point was drawn: {p:?}");
        }
        assert_eq!(
            b.patch_swaps(),
            0,
            "the sibling cannot patch from a stale start"
        );
    }

    #[test]
    fn r_only_rebuild_reuses_the_s_side_arc() {
        let r = pseudo_points(60, 31, 40.0);
        let s = pseudo_points(2_000, 32, 40.0);
        let cfg = EpochConfig::default()
            .with_rebuild_fraction(1e-4) // one insert over the 2060-point base crosses it
            .with_algorithm(Algorithm::Bbst);
        let engine = EpochEngine::new(r, s.clone(), &SampleConfig::new(5.0), cfg);
        let before = engine.store().snapshot();
        engine.insert_r(Point::new(1.0, 1.0));
        engine.refresh();
        assert_eq!(engine.major_swaps(), 1);
        let after = engine.store().snapshot();
        // S untouched ⇒ the very same allocation crossed the epoch.
        assert!(Arc::ptr_eq(&before.base_s, &after.base_s));
        assert!(engine.handle_seeded(2).sample_batch(50).is_ok());
    }

    #[test]
    fn tombstone_fraction_forces_a_shrinking_rebuild() {
        // Delete-only delta: the total pending fraction stays below the
        // general rebuild threshold, but the tombstone threshold fires
        // — and the rebuild strictly shrinks Σµ.
        let r = pseudo_points(100, 41, 30.0);
        let s = pseudo_points(100, 42, 30.0);
        let cfg = EpochConfig::default()
            .with_rebuild_fraction(0.5)
            .with_tombstone_rebuild_fraction(0.05)
            .with_algorithm(Algorithm::Bbst);
        let engine = EpochEngine::new(r, s, &SampleConfig::new(4.0), cfg);
        let mu_before = engine.total_weight();
        assert!(mu_before > 0.0);
        for id in 0..15u32 {
            assert!(engine.delete_s(id));
        }
        // 15 tombstones / 200 base = 0.075: above the tombstone
        // threshold, far below the 0.5 general one.
        engine.refresh();
        assert_eq!(engine.epoch(), 1, "tombstone threshold must rebuild");
        assert_eq!(engine.major_swaps(), 1);
        let mu_after = engine.total_weight();
        assert!(
            mu_after < mu_before,
            "Σµ must shrink across a delete-only rebuild: {mu_before} -> {mu_after}"
        );
        // The rebuild went through the cell patch path.
        assert_eq!(engine.patch_swaps(), 1);
        assert!(engine.cells_patched() > 0);
    }

    #[test]
    fn sustained_deletes_eventually_purge_dead_ids() {
        // Patch swaps leave dead ids behind; once they exceed the
        // patch budget's share of the base, the next major swap must
        // take the full path and purge them — otherwise churn grows
        // the base without bound.
        let r = pseudo_points(50, 81, 30.0);
        let s = pseudo_points(100, 82, 30.0);
        let cfg = EpochConfig::default()
            .with_tombstone_rebuild_fraction(0.02)
            .with_max_patch_fraction(0.5)
            .with_algorithm(Algorithm::Bbst);
        let engine = EpochEngine::new(r, s, &SampleConfig::new(4.0), cfg);
        let mut purged = false;
        for _round in 0..12 {
            // Tombstone 10 live S ids (skipping dead ones).
            let mut deleted = 0;
            let mut id = 0u32;
            while deleted < 10 && id < 200 {
                if engine.delete_s(id) {
                    deleted += 1;
                }
                id += 1;
            }
            if deleted == 0 {
                break; // S exhausted
            }
            engine.refresh();
            if engine.store().s_dead_len() == 0 && engine.major_swaps() > engine.patch_swaps() {
                purged = true;
                break;
            }
        }
        assert!(purged, "dead ids were never purged by a full swap");
        // The store shrank to the live set.
        assert_eq!(
            engine.store().snapshot().base_s.len(),
            engine.store().live_s_len()
        );
    }

    /// With no algorithm pinned, every full build re-decides from the
    /// data, and no epoch ever serves KDS-rejection: inserts carry
    /// `|R|·√|S|` across the exact-counting budget, the cell patch that
    /// folds them keeps the epoch's KDS, and the next full rebuild —
    /// a minor swap in between — serves BBST.
    #[test]
    fn unpinned_epochs_switch_from_kds_to_bbst_at_a_full_rebuild() {
        use Algorithm::{Bbst, Kds};
        let l = 5.0;
        let engine = EpochEngine::new(
            pseudo_points(500, 91, 100.0),
            pseudo_points(2_500, 92, 100.0),
            &SampleConfig::new(l),
            EpochConfig::default(),
        );
        let cost = || {
            let snap = engine.store().snapshot();
            snap.base_r.len() as f64 * (snap.base_s.len() as f64).sqrt()
        };
        let rungs = || {
            (
                engine.minor_swaps(),
                engine.patch_swaps(),
                engine.major_swaps(),
            )
        };
        assert!(cost() <= family::KDS_COST_BUDGET);
        let mut served = vec![engine.algorithm()];

        // Many `R` inserts and a clump of `S` in one cell: past the
        // rebuild threshold, within the patch budget.
        for p in pseudo_points(4_000, 93, 100.0) {
            engine.insert_r(p);
        }
        for p in pseudo_points(16, 94, 1.0) {
            engine.insert_s(Point::new(50.0 + p.x, 50.0 + p.y));
        }
        engine.refresh();
        assert_eq!(rungs(), (0, 1, 1));
        assert!(cost() > family::KDS_COST_BUDGET);
        served.push(engine.algorithm());

        // A few spread `S` inserts: a minor swap over the patched base.
        for p in pseudo_points(50, 95, 100.0) {
            engine.insert_s(p);
        }
        engine.refresh();
        assert_eq!(rungs(), (1, 1, 1));
        served.push(engine.algorithm());

        // Spread `S` inserts dirty every cell: a full rebuild.
        for p in pseudo_points(2_000, 96, 100.0) {
            engine.insert_s(p);
        }
        engine.refresh();
        assert_eq!(rungs(), (1, 1, 2));
        served.push(engine.algorithm());

        assert_eq!(served, [Kds, Kds, Kds, Bbst]);
        let snap = engine.store().snapshot();
        for p in engine.handle_seeded(3).sample_batch(500).unwrap() {
            let w = Rect::window(snap.r_point(p.r).unwrap(), l);
            assert!(w.contains(snap.s_point(p.s).unwrap()), "{p:?}");
        }
    }

    /// Duplicate coordinates on a half-unit lattice: at `l` = 3.7 the
    /// rows of the step 4 need more than two iterations a sample.
    fn lattice_points(n: usize, seed: u64) -> Vec<Point> {
        pseudo_points(n, seed, 41.0)
            .into_iter()
            .map(|p| Point::new(p.x.floor() * 0.5 - 10.0, p.y.floor() * 0.5 - 10.0))
            .collect()
    }

    fn bbst() -> EpochConfig {
        EpochConfig::default().with_algorithm(Algorithm::Bbst)
    }

    /// Two windows on the step 4 whose rows serve the step itself but
    /// fail both windows: the step is built once, and its core computed
    /// its threshold once, at the build, for the step's own window — read
    /// through the core, both windows' verdicts are known before either
    /// is asked — and declines both. Each window is then served from
    /// rows at its own half-extent by an engine of its own, whose stream
    /// is the one an engine built for the window alone draws.
    #[test]
    fn a_failed_step_is_probed_once_and_its_windows_get_rows_at_l() {
        let (r, s) = (lattice_points(400, 11), lattice_points(2_000, 12));
        let store = Arc::new(DatasetStore::new(r.clone(), s.clone()));
        let counters = MaintenanceCounters::default();
        let step = EpochEngine::for_step(
            Arc::clone(&store),
            &SampleConfig::new(4.0),
            bbst(),
            counters.clone(),
        )
        .expect("the rows serve the step itself");
        let core = step.engine().group_core().unwrap();
        for l in [3.7, 3.5] {
            assert_eq!(core.verdict(l), Some(false), "l = {l}: known at build");
        }
        for l in [3.7, 3.5, 3.7, 3.5] {
            assert!(step.handle_at(l, Some(5)).is_none(), "l = {l}");
            assert_eq!(step.verdict_at(l), Some(false), "l = {l}");
            let own = EpochEngine::off_step(
                Arc::clone(&store),
                &SampleConfig::new(l),
                bbst(),
                counters.clone(),
            );
            let served = own.engine();
            assert_eq!(served.s_grid().unwrap().cell_side(), l, "rows at l = {l}");
            let alone = Engine::build(&r, &s, &SampleConfig::new(l), Algorithm::Bbst);
            assert_eq!(served.row_granularity(), alone.row_granularity());
            let want = alone.handle_seeded(5).sample_batch(300).unwrap();
            let got = own
                .handle_at(l, Some(5))
                .unwrap()
                .sample_batch(300)
                .unwrap();
            assert!(got == want, "l = {l}: not the window's own stream");
        }
        let now = step.engine().group_core().unwrap();
        assert!(Arc::ptr_eq(&now, &core), "the step was built once");
    }

    /// Where a step's rows fail the step's own window they fail every
    /// window on it: a step engine is not built at all.
    #[test]
    fn a_step_whose_rows_fail_it_builds_nothing() {
        let store = Arc::new(DatasetStore::new(
            pseudo_points(400, 21, 41.0),
            pseudo_points(2_000, 22, 41.0),
        ));
        let config = SampleConfig::new(4.0);
        let counters = MaintenanceCounters::default();
        assert!(EpochEngine::for_step(store, &config, bbst(), counters).is_none());
    }

    /// Ten thousand windows on one step, each served from the step's
    /// rows: the core's one threshold, computed at the step's build,
    /// settles them all, and the engine keeps nothing per window — its
    /// bytes are what they were before the first.
    #[test]
    fn ten_thousand_windows_on_one_step_keep_nothing_per_window() {
        let centres = pseudo_points(12, 77, 58.0);
        let clustered = |n, seed| -> Vec<Point> {
            pseudo_points(n, seed, 0.8)
                .into_iter()
                .zip(centres.iter().cycle())
                .map(|(p, c)| Point::new(c.x + p.x, c.y + p.y))
                .collect()
        };
        let store = Arc::new(DatasetStore::new(clustered(120, 31), clustered(180, 32)));
        let counters = MaintenanceCounters::default();
        let step = EpochEngine::for_step(store, &SampleConfig::new(4.0), bbst(), counters)
            .expect("clustered rows serve the step");
        let core = step.engine().group_core().unwrap();
        assert_eq!(core.verdict(3.2), Some(true), "known at build");
        let before = step.memory_breakdown();
        for i in 0..10_000 {
            let l = 3.2 + 0.8 * f64::from(i) / 10_000.0;
            let mut h = step.handle_at(l, Some(1)).expect("the rows serve l");
            assert_eq!(h.sample_batch(4).unwrap().len(), 4);
        }
        let now = step.engine().group_core().unwrap();
        assert!(Arc::ptr_eq(&now, &core), "the windows share one core");
        assert!(
            step.memory_breakdown() == before,
            "a window left bytes behind"
        );
        assert_eq!(
            step.stats().samples,
            40_000,
            "every window counts in the step's stats"
        );
    }

    /// A step's engine serves a narrower window, then a local batch of
    /// `S` in one cluster's block, but outside its windows at `l`, is
    /// folded by a cell patch: the patched rows need more than two
    /// iterations a sample at `l`, and the verdict follows them — it is
    /// the patched core's own, not the one the rows before the patch
    /// gave.
    #[test]
    fn a_patched_core_decides_its_windows_afresh() {
        use rand::{rngs::SmallRng, SeedableRng};
        use srj_core::{Cursor, GroupIndex};

        let centres = pseudo_points(12, 77, 58.0);
        let clustered = |n, seed| -> Vec<Point> {
            pseudo_points(n, seed, 0.8)
                .into_iter()
                .zip(centres.iter().cycle())
                .map(|(p, c)| Point::new(c.x + p.x, c.y + p.y))
                .collect()
        };
        let store = Arc::new(DatasetStore::new(clustered(120, 31), clustered(180, 32)));
        let counters = MaintenanceCounters::default();
        let step = EpochEngine::for_step(store, &SampleConfig::new(4.0), bbst(), counters)
            .expect("clustered rows serve the step");
        let l = 3.2;
        assert!(step.handle_at(l, Some(1)).is_some(), "the rows serve l");
        assert_eq!(step.verdict_at(l), Some(true));
        let before = step.engine().group_core().unwrap();

        // 400 points a column to the right of one cluster: in the block
        // of its cell of `R` (its centre lies well inside a cell), at
        // least 3.4 from each of its `r` along x.
        let c = *centres.iter().find(|c| c.x % 4.0 < 3.0).unwrap();
        for p in pseudo_points(400, 33, 1.0) {
            step.insert_s(Point::new(c.x + 4.2 + 0.2 * p.x, c.y + 0.8 * p.y));
        }
        step.refresh();
        assert_eq!(step.patch_swaps(), 1, "a local S batch is a cell patch");
        let core = step.engine().group_core().unwrap();
        assert!(!Arc::ptr_eq(&core, &before), "the patch built new rows");
        let view = GroupIndex::on_core(Arc::clone(&core), &SampleConfig::new(l));
        let mut cursor = Cursor::new(Arc::new(view));
        let mut rng = SmallRng::seed_from_u64(2);
        cursor
            .sample_batch(2_000, &mut rng, &mut Vec::new())
            .unwrap();
        let stats = cursor.sampling_stats();
        assert!(
            stats.iterations > 2 * stats.samples,
            "the patched rows need {} iterations for {} samples",
            stats.iterations,
            stats.samples
        );

        assert_ne!(step.verdict_at(l), Some(true), "the old rows' verdict");
        assert!(
            step.handle_at(l, Some(1)).is_none(),
            "the patched rows fail l"
        );
        assert_eq!(step.verdict_at(l), Some(false));
        assert!(
            step.handle_at(4.0, Some(1)).is_some(),
            "the step's own window"
        );
    }
}
