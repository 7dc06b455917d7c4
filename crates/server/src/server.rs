//! The TCP serving subsystem: a readiness-driven event loop owning
//! every connection, a fixed worker pool, bounded per-connection
//! response queues — and one execution path for a `SAMPLE`, scheduled
//! on whichever of the two is cheaper for that request.
//!
//! ```text
//!             ┌──────────────────────────────────────────────────────┐
//!             │                     Server                           │
//!  TCP ─────► │ event loop (epoll) ── decode ─┬► exec::advance here  │
//!             │   accept · read · write ·     │  (small, cached,     │
//!             │   timers                      │   quiet connection)  │
//!             │        ▲        ▲             └► JobQueue (global)   │
//!             │        │        │                    │               │
//!             │        │        │              worker × W  (fixed)   │
//!             │        │   bounded OutQueue          │ exec::advance │
//!             │        │        ▲   (frames)         ▼ one batch per │
//!             │        └────────┴──── try_send ──────┘ step, requeue │
//!             └──────────────────────────────────────────────────────┘
//! ```
//!
//! This module holds what every thread shares — configuration, the
//! dataset registry and its engine cache, metrics, the [`Server`]
//! lifecycle. Jobs, the queue and the workers live in `crate::worker`;
//! what a request *does* lives in `crate::exec`.
//!
//! **Threading.** A server runs `workers + 2` threads, in every
//! configuration:
//!
//! * `srj-event-loop` (see `crate::event_loop`) owns the listener and
//!   every connection socket — all nonblocking, driven by `epoll(7)`
//!   readiness and a timer wheel for every deadline;
//! * `srj-worker-{i}` × `workers` do the sampling the loop does not
//!   keep;
//! * `srj-maintainer` does the housekeeping: the profiler sweep and the
//!   HTTP observability listener, on a poller of its own
//!   (`maintainer_loop`).
//!
//! No per-connection threads exist: ten thousand idle keepalive
//! connections cost ten thousand registered fds, not twenty thousand
//! parked stacks.
//!
//! **Two schedulers, one path.** `exec::advance` is the only code that
//! acquires a handle, draws, accounts and encodes `BATCH`/`DONE`. The
//! event loop runs it itself, start to finish, when it can see that
//! doing so is cheaper than the ~20 µs worker hand-off and cannot hurt
//! anyone else — all five must hold, each read off the request or the
//! program's own counters:
//!
//! 1. the engine that serves the request's window is already cached,
//!    and for a window below its ladder step the step's verdict on it
//!    is known (the loop never builds or probes);
//! 2. that engine has no maintenance due — the store has not drifted
//!    — so no swap can run on the loop
//!    (`EpochEngine::try_handle_at`);
//! 3. `t ×` the engine's observed ns/sample fits
//!    `exec::INLINE_BUDGET_NS` (no observation yet ⇒ not eligible),
//!    and the answer fits the connection's response queue;
//! 4. the connection has no job in flight, an empty out-queue and no
//!    unwritten bytes — the loop never overtakes work the connection
//!    has with the pool, and a peer that is not reading gets no loop
//!    time;
//! 5. the current `poller.wait` pass has not already spent the budget
//!    inline — a pipelining client or a crowd of small requesters
//!    overflows to the workers instead of starving the loop.
//!
//! Everything else becomes a job, exactly as before. In front of both,
//! the loop runs one admission step over one table keyed by request
//! kind (`crate::event_loop`: request bucket → mutation bucket →
//! forced `BUSY` → load shedding), identically either way.
//!
//! **Batching.** A `SAMPLE` holds one [`SamplerHandle`] for its whole
//! lifetime — the engine/handle acquisition is paid once per request,
//! not per sample. Each worker step drains one batch
//! ([`ServerConfig::batch_pairs`] samples) into one `BATCH` frame, then
//! requeues the job at the back of the global queue, so concurrent
//! requests interleave fairly regardless of their `t`.
//!
//! **Backpressure.** Each connection owns a *bounded* frame queue
//! ([`ServerConfig::queue_frames`], the `ConnShared` out-queue)
//! drained by the event loop as the socket accepts bytes. Workers only
//! ever `ConnShared::try_send`: when a client stops reading and its
//! queue fills, the job *parks itself on the connection* and the
//! worker moves on — a slow reader stalls its own stream, never the
//! pool. The hand-back is lock-step safe: after parking, the worker
//! kicks the loop (a dirty mark + waker write), and the loop
//! re-queues parked jobs whenever a write frees queue room, so a
//! parked job is re-activated on the very next free slot and cannot
//! be lost to the park/drain race. The loop also stops *reading* (and
//! decoding) a connection whose out-queue is at capacity, so its own
//! answers stay bounded and a flooding client is throttled by its own
//! TCP window; a flush that frees room with frames still buffered
//! brings the loop back to decode them.
//!
//! **Metrics.** Every number the server publishes has one cell, in its
//! [`Registry`]. Every `_total` series is a counter incremented where
//! its event happens — a finished `SAMPLE` into its dataset's
//! [`RequestSeries`], the profiler's sweep into the worker-state
//! series. A dataset's maintenance series are handed to each engine
//! built for it ([`EpochEngine::with_counters`]), which counts into
//! them itself, so an evicted engine's share stays counted, and
//! publishes what it holds into the dataset's index gauges; every other
//! level is read at render ([`Registry::gauge_fn`]) where it is held.
//! `METRICS` only renders, and `STATS` sums the same cells: neither
//! takes an engine lock or walks an index.
//!
//! **Shutdown.** [`Server::shutdown`] (or a client `SHUTDOWN` frame)
//! wakes the event loop (which tears down every connection) and the
//! maintainer, closes the job queue, and joins every thread the server
//! ever spawned — no leaks, asserted by the loopback tests.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use srj_core::{IndexBytes, SampleConfig};
use srj_engine::{
    ladder_side, Algorithm, DatasetStore, EpochConfig, EpochEngine, MaintenanceCounters,
    RowGranularity, SamplerHandle,
};
use srj_geom::Point;
use srj_net::{Interest, Poller, Waker};
use srj_obs::metrics::{quantile_of, BUCKETS};
use srj_obs::profiler::ALL_STATES;
use srj_obs::{Counter, Gauge, Histogram, Profiler, Registry, SlowLog};

use crate::event_loop::{EventLoop, LoopNotify};
use crate::exec::Acquire;
use crate::fault::FaultPlan;
use crate::protocol::{
    EpochInfo, Request, RequestStatus, SampleRequest, ServerStatsFrame, Side, UpdateStats,
    MAX_FRAME_LEN,
};
use crate::worker::{worker_loop, ConnShared, JobQueue};

/// Fault-schedule roles: the decode (reader) and flush (writer) sides
/// of one connection draw from independent deterministic streams —
/// the same streams the old thread-per-connection layer drew, so a
/// chaos seed reproduces the same fault schedule across the rewrite.
pub(crate) const FAULT_ROLE_READER: u64 = 1;
pub(crate) const FAULT_ROLE_WRITER: u64 = 2;

/// Serving knobs. The defaults suit a loopback bench on a small host;
/// production would raise `workers` to the core count.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker-pool threads doing the actual sampling. Default 2.
    pub workers: usize,
    /// Bounded per-connection response-queue depth, in frames — the
    /// backpressure window. Default 8.
    pub queue_frames: usize,
    /// Samples per `BATCH` frame. Default 8192 (64 KiB frames).
    pub batch_pairs: usize,
    /// Retained serving engines per dataset: one per ladder step
    /// ([`ladder_side`]) that forced-BBST requests ask for, one per
    /// window those steps' rows fail, and one per `(l, algorithm)`
    /// shape of every other request — every full build the dataset
    /// keeps. Default 16.
    pub cache_capacity: usize,
    /// `SampleConfig::build_threads` for engine builds triggered by
    /// cache misses. Default 0 (all cores).
    pub build_threads: usize,
    /// Epoch knobs for every served dataset (the rebuild thresholds
    /// and the patch budget; a request's forced algorithm overrides
    /// the `algorithm` field).
    pub epoch: EpochConfig,
    /// Deadline for the mandatory `HELLO` to arrive on a fresh
    /// connection; a peer that sends nothing inside it is dropped
    /// without a handshake answer. Default 10 s. Zero disables.
    pub handshake_timeout: Duration,
    /// Mid-frame read deadline: a peer that stalls *inside* a frame
    /// for this long is disconnected (a connection idle *between*
    /// frames is governed by `idle_timeout` instead). Default 30 s.
    /// Zero disables.
    pub read_timeout: Duration,
    /// Per-`write(2)` deadline on the response socket; a peer whose
    /// receive window stays closed this long is disconnected. Default
    /// 30 s. Zero disables.
    pub write_timeout: Duration,
    /// Idle-connection reap deadline: a connection with no received
    /// frame and no in-flight work for this long is closed by the
    /// event loop's sweep timer (journaled as `ConnReaped`). The
    /// sweep runs at half this interval, so reaping happens within
    /// 1.5× the deadline. Default 300 s. Zero disables.
    pub idle_timeout: Duration,
    /// Per-connection request-frame budget, frames/second (token
    /// bucket, burst = one second's budget); an exceeded budget
    /// answers `BUSY` without executing. `0` (default) = unlimited.
    pub rate_limit_rps: u32,
    /// Per-connection mutation-frame (`INSERT`/`DELETE`) budget,
    /// frames/second, applied on top of `rate_limit_rps`. `0`
    /// (default) = unlimited.
    pub mutation_rate_limit_rps: u32,
    /// Load-shed high-water mark: when the global job queue holds at
    /// least this many jobs — or the connection itself already has a
    /// parked (backpressured) request — new `SAMPLE` requests are
    /// answered `BUSY` instead of queued. `0` disables shedding.
    /// Default 256.
    pub shed_high_water: usize,
    /// Fault-injection plan for the chaos harness. The default is
    /// inert: nothing fires, the sites cost one branch per frame.
    pub fault_plan: FaultPlan,
    /// Loopback HTTP observability port (`/metrics`, `/healthz`,
    /// `/vars` on `127.0.0.1`; `0` = OS-assigned, see
    /// [`Server::http_addr`]). `None` (default) disables the listener.
    pub http_port: Option<u16>,
    /// Slow requests retained for forensics (`SLOWLOG` frame,
    /// `/vars`): each with its context and stage record
    /// ([`srj_obs::Stages`]), which every request carries anyway. `0`
    /// disables tail-based capture entirely. Default 64.
    pub slow_log_capacity: usize,
    /// Latency threshold for slow-request capture, nanoseconds. `0`
    /// (default) derives the threshold from the live request-latency
    /// p99 once at least [`SLOW_AUTO_MIN_REQUESTS`] requests have been
    /// observed (nothing is captured before that).
    pub slow_threshold_ns: u64,
    /// `/healthz` reports `degraded` while the most recent distress
    /// signal (load shed, connection reap, handshake reject) is
    /// younger than this window, milliseconds. Default 5000.
    pub health_degraded_window_ms: u64,
    /// Ignored: every `SAMPLE` batch is one
    /// [`SamplerHandle::sample_batch`], and there is no buffered draw to
    /// arm. Reserved for `benchmark/src/layers.rs`; ROADMAP item 5 (d)
    /// deletes it.
    pub buffers: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_frames: 8,
            batch_pairs: 8192,
            cache_capacity: 16,
            build_threads: 0,
            epoch: EpochConfig::default(),
            handshake_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            rate_limit_rps: 0,
            mutation_rate_limit_rps: 0,
            shed_high_water: 256,
            fault_plan: FaultPlan::inert(),
            http_port: None,
            slow_log_capacity: 64,
            slow_threshold_ns: 0,
            health_degraded_window_ms: 5000,
            buffers: true,
        }
    }
}

/// Requests the latency histograms must have seen before the automatic
/// (`slow_threshold_ns == 0`) p99-derived slow threshold engages — a
/// p99 of three requests is noise, not a baseline.
pub const SLOW_AUTO_MIN_REQUESTS: u64 = 32;

/// Most entries a `SLOWLOG` answer carries, which bounds the response
/// frame well under [`MAX_FRAME_LEN`].
pub(crate) const SLOWLOG_MAX_ENTRIES: usize = 32;

/// Zero means "no deadline" throughout the server and client configs;
/// the event loop arms a timer-wheel entry only for `Some` deadlines,
/// and the std socket setters reject `Some(ZERO)`.
pub(crate) fn timeout_opt(d: Duration) -> Option<Duration> {
    (!d.is_zero()).then_some(d)
}

/// Identity of one serving engine of a dataset: the engine's window,
/// the request's algorithm, and whether it is a window's own engine
/// beside its step's ([`EngineKey::off_step`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct EngineKey {
    l_bits: u64,
    algorithm: Option<Algorithm>,
    off_step: bool,
}

impl EngineKey {
    /// The engine that serves `req` first. A forced-BBST request is
    /// served by the engine of its window's ladder step, which serves
    /// every window on the step its rows pass (`EpochEngine::handle_at`).
    /// Every other request keeps an engine of its own window: an
    /// unforced build may pick KDS, whose grid must have the window's
    /// side.
    fn of(req: &SampleRequest) -> EngineKey {
        let l = match req.algorithm {
            Some(Algorithm::Bbst) => ladder_side(req.l),
            _ => req.l,
        };
        EngineKey {
            l_bits: l.to_bits(),
            algorithm: req.algorithm,
            off_step: false,
        }
    }

    /// The forced-BBST engine of the window `l` alone, for a window its
    /// step's rows fail (`EpochEngine::off_step`).
    fn off_step(l: f64) -> EngineKey {
        EngineKey {
            l_bits: l.to_bits(),
            algorithm: Some(Algorithm::Bbst),
            off_step: true,
        }
    }

    fn l(self) -> f64 {
        f64::from_bits(self.l_bits)
    }
}

/// What the engine map holds under a key: the engine, or — under a
/// ladder step's key — `None` where the step's rows fail its own
/// window, and so every window on it (`EpochEngine::for_step`): the
/// verdict is kept, no index. It stands until evicted; the windows'
/// own engines rebuild and re-probe on their own.
type Entry = Option<Arc<EpochEngine>>;

/// A dataset's engines: the entries in recency order, least recently
/// used first, and the keys whose first build is in flight.
#[derive(Default)]
struct EngineMap {
    entries: Vec<(EngineKey, Entry)>,
    building: Vec<EngineKey>,
}

impl EngineMap {
    /// Moves `key`'s entry to the most-recently-used end and returns
    /// it.
    fn touch(&mut self, key: EngineKey) -> Option<Entry> {
        let i = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(i);
        let engine = entry.1.clone();
        self.entries.push(entry);
        Some(engine)
    }
}

/// One registered workload: the mutable point store plus its serving
/// engines, one [`EpochEngine`] per [`EngineKey`] (or a failed step's
/// verdict, [`Entry`]).
/// Updates mutate the store; every engine of the dataset refreshes
/// lazily on its next handle acquisition — a mutated dataset is never
/// answered from a stale index.
pub(crate) struct ServedDataset {
    store: Arc<DatasetStore>,
    engines: Mutex<EngineMap>,
    /// Rung whenever a build in flight leaves [`EngineMap::building`].
    built: Condvar,
    /// Engines the map holds (verdicts are not engines), set under the
    /// map lock wherever the entries change and read without it.
    engines_cached: AtomicU64,
    metrics: DatasetMetrics,
}

impl ServedDataset {
    /// Serves `store` as dataset `id`, its series registered in `reg`.
    fn register(reg: &Registry, id: u64, store: Arc<DatasetStore>) -> Self {
        ServedDataset {
            metrics: DatasetMetrics::register(reg, id, &store),
            store,
            engines: Mutex::default(),
            built: Condvar::new(),
            engines_cached: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, EngineMap> {
        self.engines.lock().expect("engine map poisoned")
    }

    /// Applies an `INSERT` or `DELETE` to the store as one atomic batch,
    /// so the answered `first_id..first_id+applied` range and epoch are
    /// consistent even while other connections mutate (or a refresh
    /// compacts) concurrently. O(|batch|); the serving engines fold the
    /// delta in on their next handle acquisition. A delete skips unknown
    /// or already-tombstoned ids (not counted in `applied`), so deletes
    /// are idempotent over the wire.
    pub(crate) fn apply(&self, mutation: &Request) -> UpdateStats {
        let store = &self.store;
        let applied = match mutation {
            Request::Insert {
                side: Side::R,
                points,
                ..
            } => store.insert_r_batch(points),
            Request::Insert { points, .. } => store.insert_s_batch(points),
            Request::Delete {
                side: Side::R, ids, ..
            } => store.delete_r_batch(ids),
            Request::Delete { ids, .. } => store.delete_s_batch(ids),
            _ => unreachable!("only INSERT and DELETE mutate a store"),
        };
        UpdateStats {
            first_id: applied.first_id,
            applied: applied.applied,
            epoch: applied.epoch,
            version: applied.version,
        }
    }

    /// The `EPOCH` answer: the store's counters and the latest swap.
    pub(crate) fn epoch_info(&self) -> EpochInfo {
        let store = &self.store;
        EpochInfo {
            epoch: store.epoch(),
            version: store.version(),
            live_r: store.live_r_len() as u64,
            live_s: store.live_s_len() as u64,
            pending_ops: store.pending_ops() as u64,
            last_swap_ns: self.metrics.maintenance.last_swap_ns.get() as u64,
        }
    }

    /// The entry for `key`, building it on a miss, and whether this
    /// call built. Each key builds once: a miss on a key whose build is
    /// in flight waits for that build and takes its entry, as a hit. The
    /// build runs outside the map lock — concurrent misses on different
    /// shapes must not serialise on one mutex for a whole build, and a
    /// lookup never waits on one — and a build that panics wakes its
    /// waiters, the first of which builds in its place. The entries are
    /// kept in recency order — a hit moves its entry to the back — so
    /// eviction at capacity drops the least-recently-used shape, never
    /// a hot one; in-flight handles of an evicted engine keep serving
    /// through their `Arc`s.
    fn entry(
        &self,
        key: EngineKey,
        capacity: usize,
        build: impl FnOnce() -> Option<EpochEngine>,
    ) -> (Entry, bool) {
        let mut map = self.lock();
        loop {
            if let Some(entry) = map.touch(key) {
                return (entry, false);
            }
            if !map.building.contains(&key) {
                break;
            }
            map = self.built.wait(map).expect("engine map poisoned");
        }
        map.building.push(key);
        drop(map);
        let built = panic::catch_unwind(AssertUnwindSafe(|| build().map(Arc::new)));
        let mut map = self.lock();
        map.building.retain(|k| *k != key);
        let evicted = built
            .as_ref()
            .ok()
            .and_then(|e| self.admit(&mut map, key, e.clone(), capacity));
        drop(map);
        self.built.notify_all();
        drop(evicted); // outside the lock, after the waiters are woken
        let engine = built.unwrap_or_else(|panic| panic::resume_unwind(panic));
        (engine, true)
    }

    /// A worker's acquisition of `req`'s handle, building what is
    /// missing: the engine of [`EngineKey::of`], and where that is a
    /// ladder step's whose rows fail the window, the window's own
    /// ([`EngineKey::off_step`]). Counts one cache hit, or one miss if
    /// anything was built, into `sm`'s cache series.
    fn acquire(
        &self,
        req: &SampleRequest,
        config: &ServerConfig,
        sm: &ServerMetrics,
    ) -> SamplerHandle {
        let seed = (req.seed != 0).then_some(req.seed);
        let capacity = config.cache_capacity;
        let epoch_cfg = EpochConfig {
            algorithm: req.algorithm,
            ..config.epoch
        };
        // What every constructor takes for a window of half-extent `l`.
        let parts = |l: f64| {
            let sample_cfg = SampleConfig::new(l).with_build_threads(config.build_threads);
            let counters = self.metrics.maintenance.clone();
            (Arc::clone(&self.store), sample_cfg, epoch_cfg, counters)
        };
        let key = EngineKey::of(req);
        let (engine, mut built) = self.entry(key, capacity, || {
            let (store, at, cfg, counters) = parts(key.l());
            if req.l == key.l() {
                Some(EpochEngine::with_counters(store, &at, cfg, counters))
            } else {
                EpochEngine::for_step(store, &at, cfg, counters)
            }
        });
        let handle = engine.and_then(|e| e.handle_at(req.l, seed));
        let handle = handle.unwrap_or_else(|| {
            // The step's rows fail the window: its own engine serves it.
            let (own, built_own) = self.entry(EngineKey::off_step(req.l), capacity, || {
                let (store, at, cfg, counters) = parts(req.l);
                Some(EpochEngine::off_step(store, &at, cfg, counters))
            });
            built |= built_own;
            let own = own.expect("a window's own engine is never a verdict");
            own.handle_at(req.l, seed).expect("its own window")
        });
        if built {
            sm.cache_misses.inc();
        } else {
            sm.cache_hits.inc();
        }
        handle
    }

    /// The cached engine that serves `req`'s window, found without
    /// building, probing or waiting: its step's engine where the step's
    /// verdict admits the window, the window's own engine where the
    /// step fails it; `None` where neither is known yet.
    fn cached_for(&self, req: &SampleRequest) -> Option<Arc<EpochEngine>> {
        match self.cached_engine(EngineKey::of(req))? {
            Some(engine) if engine.verdict_at(req.l)? => Some(engine),
            _ => self.cached_engine(EngineKey::off_step(req.l))?,
        }
    }

    /// Enters the freshly built `engine` under `key` into the locked
    /// `map` as the most recently used entry, and returns the entry let
    /// go of to make room: the least recently used one when the map was
    /// at `capacity`. Whoever drops it does so after releasing the lock:
    /// an index is hundreds of allocations to free (tens of ms on a large
    /// dataset), and the event loop takes this lock on every request it
    /// considers serving itself ([`ServedDataset::cached_engine`]).
    fn admit(
        &self,
        map: &mut EngineMap,
        key: EngineKey,
        engine: Entry,
        capacity: usize,
    ) -> Option<Entry> {
        let evicted = (map.entries.len() >= capacity.max(1)).then(|| map.entries.remove(0).1);
        map.entries.push((key, engine));
        let cached = map.entries.iter().filter(|(_, e)| e.is_some()).count();
        self.engines_cached.store(cached as u64, Ordering::Relaxed);
        evicted
    }

    /// The entry for `key` if one is cached — the peek that never
    /// builds or waits, which is all the event loop may do: a key whose
    /// build is in flight is a miss here. A hit counts as a use for
    /// eviction, like any other.
    fn cached_engine(&self, key: EngineKey) -> Option<Entry> {
        self.lock().touch(key)
    }
}

/// The datasets a server answers for, keyed by the `u64` ids clients
/// put in their requests. Registration happens before
/// [`Server::start`]; after that, clients mutate the registered
/// datasets over the wire (`INSERT`/`DELETE` frames) — the epoch
/// machinery keeps every serving engine consistent with the store.
#[derive(Default)]
pub struct DatasetRegistry {
    map: HashMap<u64, Arc<DatasetStore>>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `(r, s)` under `id` as a fresh mutable store,
    /// replacing any previous entry.
    pub fn register(&mut self, id: u64, r: Vec<Point>, s: Vec<Point>) -> &mut Self {
        self.register_store(id, Arc::new(DatasetStore::new(r, s)))
    }

    /// Registers an existing store under `id` — e.g. one shared with
    /// in-process [`EpochEngine`]s, so local and remote mutations see
    /// one epoch history.
    pub fn register_store(&mut self, id: u64, store: Arc<DatasetStore>) -> &mut Self {
        self.map.insert(id, store);
        self
    }

    /// Registered ids, unordered.
    pub fn ids(&self) -> Vec<u64> {
        self.map.keys().copied().collect()
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---- metrics --------------------------------------------------------------

/// The three maintenance rungs, in escalation order — the `rung` label
/// values of `srj_maintenance_total`.
const RUNGS: [&str; 3] = ["minor_swap", "cell_patch", "full_rebuild"];

/// The cells of the finished `SAMPLE`s of one dataset — or, under
/// `dataset="unregistered"`, of those naming no registered dataset —
/// counted once per request where it finishes. `STATS`, `METRICS` and
/// the automatic slow-log threshold all read these cells.
struct RequestSeries {
    /// `srj_requests_total` — finished `SAMPLE` requests.
    requests: Counter,
    /// `srj_samples_total` — join samples delivered, by a request that
    /// ended in an error too.
    samples: Counter,
    /// `srj_rejection_iterations_total` — rejection-loop iterations.
    iterations: Counter,
    /// `srj_request_errors_total` — non-`Ok` finishes.
    errors: Counter,
    /// `srj_request_latency_ns` — per-request wall time.
    latency: Histogram,
}

impl RequestSeries {
    /// The series under `dataset`, with the `srj_rejection_rate` gauge
    /// read off two of them.
    fn register(reg: &Registry, dataset: &str) -> Self {
        let labels = [("dataset", dataset)];
        let series = RequestSeries {
            requests: reg.counter("srj_requests_total", &labels),
            samples: reg.counter("srj_samples_total", &labels),
            iterations: reg.counter("srj_rejection_iterations_total", &labels),
            errors: reg.counter("srj_request_errors_total", &labels),
            latency: reg.histogram("srj_request_latency_ns", &labels),
        };
        let (iterations, samples) = (series.iterations.clone(), series.samples.clone());
        reg.gauge_fn("srj_rejection_rate", &labels, move || match samples.get() {
            0 => 0.0,
            delivered => iterations.get() as f64 / delivered as f64,
        });
        series
    }

    /// Counts one finished request (a few relaxed `fetch_add`s).
    fn record(&self, ok: bool, samples: u64, iterations: u64, elapsed: Duration) {
        self.requests.inc();
        self.samples.add(samples);
        self.iterations.add(iterations);
        if !ok {
            self.errors.inc();
        }
        self.latency.observe_duration(elapsed);
    }
}

/// Typed handles into the server's [`Registry`] for one dataset,
/// registered once at startup so recording is lock-free `fetch_add`s
/// where each event happens. Nothing is set at scrape: the engines
/// publish their gauges themselves, and the rest are read at render
/// ([`Registry::gauge_fn`]) from where they are held.
struct DatasetMetrics {
    /// The dataset's finished `SAMPLE`s.
    requests: RequestSeries,
    /// `srj_maintenance_total{rung=...}` (one series per [`RUNGS`]
    /// entry), `srj_cells_patched_total`, `srj_mu_total`,
    /// `srj_index_rows` and the engines' part of `srj_index_bytes`,
    /// handed to every engine of the dataset
    /// ([`EpochEngine::with_counters`]), which counts and publishes into
    /// them itself.
    maintenance: MaintenanceCounters,
}

impl DatasetMetrics {
    fn register(reg: &Registry, dataset: u64, store: &Arc<DatasetStore>) -> Self {
        let id = dataset.to_string();
        let labels: [(&str, &str); 1] = [("dataset", &id)];
        let index_bytes: [Gauge; 7] = Default::default();
        for (i, (structure, _)) in IndexBytes::default().parts().into_iter().enumerate() {
            let (engines, store) = (index_bytes[i].clone(), Arc::clone(store));
            let labels = [("dataset", id.as_str()), ("structure", structure)];
            reg.gauge_fn("srj_index_bytes", &labels, move || {
                engines.get() + store.set_bytes().parts()[i].1 as f64
            });
        }
        let epoch = Arc::clone(store);
        reg.gauge_fn("srj_epoch", &labels, move || epoch.epoch() as f64);
        let [minor_swap, cell_patch, full_rebuild] = RUNGS
            .map(|rung| reg.counter("srj_maintenance_total", &[("dataset", &id), ("rung", rung)]));
        DatasetMetrics {
            requests: RequestSeries::register(reg, &id),
            maintenance: MaintenanceCounters {
                minor_swap,
                cell_patch,
                full_rebuild,
                cells_patched: reg.counter("srj_cells_patched_total", &labels),
                index_bytes,
                index_rows: RowGranularity::ALL.map(|granularity| {
                    let label = ("granularity", granularity.label());
                    reg.gauge("srj_index_rows", &[("dataset", &id), label])
                }),
                mu_total: reg.gauge("srj_mu_total", &labels),
                last_swap_ns: Gauge::new(),
            },
        }
    }
}

/// Server-wide metric handles (no `dataset` label).
pub(crate) struct ServerMetrics {
    /// `srj_connections_accepted_total` — connections the event loop
    /// accepted (counted at accept).
    pub(crate) connections_accepted: Counter,
    /// `srj_engine_cache_hits_total` / `srj_engine_cache_misses_total`
    /// — counted by every dataset's engine acquisitions
    /// ([`ServedDataset::acquire`], [`Shared::acquire_handle`]).
    cache_hits: Counter,
    cache_misses: Counter,
    /// `srj_backpressure_parks_total` — jobs parked on a full
    /// connection queue (hot-path increment, rare event).
    pub(crate) backpressure_parks: Counter,
    /// `srj_requests_shed` — `SAMPLE`s answered `BUSY` because the job
    /// queue was past the high-water mark (hot-path increment).
    pub(crate) requests_shed: Counter,
    /// `srj_rate_limited` — requests answered `BUSY` by a token bucket
    /// (hot-path increment).
    pub(crate) rate_limited: Counter,
    /// `srj_conn_reaped` — idle connections closed by the event
    /// loop's sweep timer.
    pub(crate) conn_reaped: Counter,
    /// `srj_handshake_rejects_total` — connections refused at the
    /// handshake (bad version, or a request before `HELLO`).
    pub(crate) handshake_rejects: Counter,
    /// `srj_requests_inline_total` — `SAMPLE`s the event loop served
    /// itself instead of handing them to a worker (hot-path increment).
    pub(crate) requests_inline: Counter,
    /// `srj_slow_requests_total` — requests captured into the slow log
    /// (hot-path increment, rare by construction).
    pub(crate) slow_captures: Counter,
    /// `srj_event_loop_wakeups_total` — poller returns (events or
    /// timer expiry), one per loop iteration.
    pub(crate) loop_wakeups: Counter,
    /// `srj_event_loop_dispatch_ns` — time spent servicing one wakeup
    /// (accepts + reads + decode + the draws of requests served inline
    /// + writes), excluding the wait itself.
    pub(crate) loop_dispatch: Histogram,
    /// `srj_accept_backoff_total` — accept(2) pauses after
    /// EMFILE/ENFILE fd exhaustion.
    pub(crate) accept_backoffs: Counter,
}

impl ServerMetrics {
    fn register(reg: &Registry) -> Self {
        ServerMetrics {
            connections_accepted: reg.counter("srj_connections_accepted_total", &[]),
            cache_hits: reg.counter("srj_engine_cache_hits_total", &[]),
            cache_misses: reg.counter("srj_engine_cache_misses_total", &[]),
            backpressure_parks: reg.counter("srj_backpressure_parks_total", &[]),
            requests_shed: reg.counter("srj_requests_shed", &[]),
            rate_limited: reg.counter("srj_rate_limited", &[]),
            conn_reaped: reg.counter("srj_conn_reaped", &[]),
            handshake_rejects: reg.counter("srj_handshake_rejects_total", &[]),
            requests_inline: reg.counter("srj_requests_inline_total", &[]),
            slow_captures: reg.counter("srj_slow_requests_total", &[]),
            loop_wakeups: reg.counter("srj_event_loop_wakeups_total", &[]),
            loop_dispatch: reg.histogram("srj_event_loop_dispatch_ns", &[]),
            accept_backoffs: reg.counter("srj_accept_backoff_total", &[]),
        }
    }
}

// ---- shared server state -------------------------------------------------

/// Change detector behind `/healthz`: whenever the aggregate distress
/// signal moves, the incident clock restarts; the endpoint reports
/// `degraded` while the clock is younger than the configured window.
#[derive(Default)]
struct HealthState {
    last_signal: u64,
    last_change: Option<Instant>,
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    registry: HashMap<u64, ServedDataset>,
    pub(crate) queue: JobQueue,
    /// This server's metrics registry (a value, not a global — tests
    /// and embedded servers never share exposition state) plus the
    /// cached typed handles.
    metrics: Registry,
    pub(crate) server_metrics: ServerMetrics,
    /// The finished `SAMPLE`s naming no registered dataset.
    unregistered: RequestSeries,
    /// The automatic slow-request threshold, nanoseconds: the p99 of
    /// every request series, refreshed by the maintainer's sweep; `0`
    /// while warming up ([`Shared::refresh_slow_threshold`]).
    slow_p99_ns: AtomicU64,
    /// Connections registered on the event loop — `srj_conn_open`.
    pub(crate) active: Arc<AtomicU64>,
    pub(crate) conns: Mutex<Vec<Arc<ConnShared>>>,
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
    addr: SocketAddr,
    /// Tail-based slow-request retention (capacity 0 = disabled).
    pub(crate) slow_log: SlowLog,
    /// Worker/event-loop state tags, sampled by the maintainer.
    pub(crate) profiler: Profiler,
    /// The event loop's doorbell — worker kicks and shutdown wakeups
    /// land here.
    pub(crate) notify: Arc<LoopNotify>,
    /// The maintainer's doorbell; only shutdown rings it.
    maintainer_waker: Waker,
    /// `/healthz` change detector.
    health: Mutex<HealthState>,
}

impl Shared {
    pub(crate) fn is_shutting_down(&self) -> bool {
        *self.shutdown_flag.lock().expect("shutdown flag poisoned")
    }

    /// Flips the server into shutdown: idempotent, callable from any
    /// thread (including the event loop serving a `SHUTDOWN` frame).
    /// Thread joining is [`Server::shutdown`]'s half.
    pub(crate) fn begin_shutdown(&self) {
        {
            let mut flag = self.shutdown_flag.lock().expect("shutdown flag poisoned");
            if *flag {
                return;
            }
            *flag = true;
            self.shutdown_cv.notify_all();
        }
        self.queue.close();
        for conn in self.conns.lock().expect("conn list poisoned").iter() {
            conn.closed.store(true, Ordering::Release);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        // Wake the event loop and the maintainer out of their poller
        // waits so they observe the flag and exit.
        self.notify.wake();
        self.maintainer_waker.wake();
    }

    /// Every request series: each dataset's, then the unregistered
    /// one.
    fn request_series(&self) -> impl Iterator<Item = &RequestSeries> {
        let datasets = self.registry.values().map(|d| &d.metrics.requests);
        datasets.chain([&self.unregistered])
    }

    /// The `STATS` answer: sums of the cells `METRICS` renders, so the
    /// two agree by construction, and neither takes an engine lock.
    pub(crate) fn stats_frame(&self) -> ServerStatsFrame {
        let sm = &self.server_metrics;
        let mut frame = ServerStatsFrame {
            cache_hits: sm.cache_hits.get(),
            cache_misses: sm.cache_misses.get(),
            connections_accepted: sm.connections_accepted.get(),
            active_connections: self.active.load(Ordering::Relaxed),
            ..ServerStatsFrame::default()
        };
        let (mut buckets, mut latency_sum, mut latency_count) = ([0; BUCKETS], 0, 0);
        for series in self.request_series() {
            frame.queries += series.requests.get();
            frame.samples += series.samples.get();
            frame.iterations += series.iterations.get();
            frame.errors += series.errors.get();
            series.latency.add_bucket_counts(&mut buckets);
            latency_sum += series.latency.sum();
            latency_count += series.latency.count();
        }
        frame.mean_ns = latency_sum.checked_div(latency_count).unwrap_or(0);
        frame.p50_ns = quantile_of(&buckets, 0.50);
        frame.p99_ns = quantile_of(&buckets, 0.99);
        for d in self.registry.values() {
            let maintenance = &d.metrics.maintenance;
            frame.engines_cached += d.engines_cached.load(Ordering::Relaxed);
            frame.patch_swaps += maintenance.cell_patch.get();
            frame.cells_patched += maintenance.cells_patched.get();
            frame.last_swap_ns = frame
                .last_swap_ns
                .max(maintenance.last_swap_ns.get() as u64);
            frame.mu_total += maintenance.mu_total.get();
        }
        frame
    }

    /// The Prometheus text exposition behind the `METRICS` frame and
    /// `/metrics`.
    pub(crate) fn metrics_text(&self) -> String {
        self.metrics.render()
    }

    /// Engine acquisition via the per-dataset epoch-engine map: the
    /// expensive index build happens at most once per engine
    /// ([`EngineKey::of`]: a ladder step for forced BBST, an
    /// `(l, algorithm)` shape otherwise; a window a step's rows fail has
    /// its own) across all requests and connections; every request then
    /// gets its own serving handle at its window
    /// ([`ServedDataset::acquire`]).
    /// The handle acquisition is also where pending mutations are folded
    /// in — `EpochEngine::handle` refreshes the swap cell first, so a
    /// mutated dataset is never served from a stale index, while requests
    /// already streaming keep their pinned epoch.
    ///
    /// All of that is [`Acquire::Blocking`], a worker's acquisition.
    /// Under [`Acquire::Cheap`] (the event loop's) nothing is built, run
    /// or waited for: `Ok(None)` unless the engine is cached, has served
    /// before, predicts `t` samples within the budget in an answer that
    /// fits the connection's response queue, and has no maintenance due
    /// — the handle is then the very one a worker would have got.
    pub(crate) fn acquire_handle(
        &self,
        req: &SampleRequest,
        how: Acquire,
    ) -> Result<Option<SamplerHandle>, RequestStatus> {
        let config = &self.config;
        let served = self.dataset(req.dataset);
        match how {
            Acquire::Blocking => Ok(Some(served?.acquire(req, config, &self.server_metrics))),
            Acquire::Cheap { budget_ns } => {
                // Cheapest refusal first: no lock is taken for a request
                // whose answer could not fit the response queue anyway.
                let frames = req.t.div_ceil(config.batch_pairs as u64) + 1;
                if frames > config.queue_frames as u64 {
                    return Ok(None);
                }
                let Ok(served) = served else {
                    return Ok(None);
                };
                let Some(engine) = served.cached_for(req) else {
                    return Ok(None);
                };
                let affordable = engine
                    .observed_ns_per_sample()
                    .is_some_and(|ns| req.t.saturating_mul(ns) <= budget_ns);
                if !affordable {
                    return Ok(None);
                }
                let handle = engine.try_handle_at(req.l, (req.seed != 0).then_some(req.seed));
                // Counted where the lookup pays off, so hits + misses
                // stays the number of acquisitions whichever thread
                // made them.
                if handle.is_some() {
                    self.server_metrics.cache_hits.inc();
                }
                Ok(handle)
            }
        }
    }

    /// Charges one finished `SAMPLE` — `ok`, or ended by an error
    /// status or by its client's departure — to its dataset's request
    /// series, or the unregistered one.
    pub(crate) fn record_request(
        &self,
        dataset: u64,
        ok: bool,
        samples: u64,
        iterations: u64,
        elapsed: Duration,
    ) {
        let series = self
            .dataset(dataset)
            .map_or(&self.unregistered, |d| &d.metrics.requests);
        series.record(ok, samples, iterations, elapsed);
    }

    /// The registered dataset `id`, or the status refusing a request
    /// for an unknown one.
    pub(crate) fn dataset(&self, id: u64) -> Result<&ServedDataset, RequestStatus> {
        self.registry.get(&id).ok_or(RequestStatus::UnknownDataset)
    }

    /// The store epoch of `dataset` (0 when unknown) — slow-log context.
    pub(crate) fn dataset_epoch(&self, dataset: u64) -> u64 {
        self.dataset(dataset).map_or(0, |d| d.store.epoch())
    }

    /// The latency threshold slow-request capture compares against
    /// right now — the configured absolute value, or the p99 of every
    /// request series as of the maintainer's last sweep, once enough
    /// requests have been observed. `None` = capture nothing (auto mode
    /// still warming up). Two relaxed loads: a finished request pays no
    /// bucket walk.
    pub(crate) fn slow_threshold_ns(&self) -> Option<u64> {
        if self.config.slow_threshold_ns > 0 {
            return Some(self.config.slow_threshold_ns);
        }
        Some(self.slow_p99_ns.load(Ordering::Relaxed)).filter(|&p99| p99 > 0)
    }

    /// Re-reads the automatic slow threshold off the summed
    /// `srj_request_latency_ns` buckets: their p99 once they hold
    /// [`SLOW_AUTO_MIN_REQUESTS`] requests (a p99 is never 0).
    fn refresh_slow_threshold(&self) {
        let mut buckets = [0; BUCKETS];
        for series in self.request_series() {
            series.latency.add_bucket_counts(&mut buckets);
        }
        let warm = buckets.iter().sum::<u64>() >= SLOW_AUTO_MIN_REQUESTS;
        let p99 = if warm { quantile_of(&buckets, 0.99) } else { 0 };
        self.slow_p99_ns.store(p99, Ordering::Relaxed);
    }

    /// Evaluates `/healthz`: `(ready, body)`. The aggregate distress
    /// signal is the sum of the load-shed, connection-reap and
    /// handshake-reject counters; any movement restarts the incident
    /// clock, and the server reports `degraded` until the clock outgrows
    /// the configured window.
    pub(crate) fn healthz(&self) -> (bool, String) {
        let sm = &self.server_metrics;
        let shed = sm.requests_shed.get();
        let reaped = sm.conn_reaped.get();
        let rejects = sm.handshake_rejects.get();
        let signal = shed + reaped + rejects;
        let now = Instant::now();
        let incident_age_ms = {
            let mut health = self.health.lock().expect("health state poisoned");
            if signal != health.last_signal {
                health.last_signal = signal;
                health.last_change = Some(now);
            }
            health
                .last_change
                .map(|t| now.duration_since(t).as_millis().min(u128::from(u64::MAX)) as u64)
        };
        let window = self.config.health_degraded_window_ms;
        let ready = incident_age_ms.is_none_or(|age| age >= window);
        let body = format!(
            "{{\"status\":{},\"shed\":{shed},\"reaped\":{reaped},\
             \"handshake_rejects\":{rejects},\"window_ms\":{window},\
             \"incident_age_ms\":{}}}",
            if ready { "\"ready\"" } else { "\"degraded\"" },
            match incident_age_ms {
                Some(age) => age.to_string(),
                None => "null".to_string(),
            },
        );
        (ready, body)
    }

    /// The `/vars` body: a JSON snapshot of every registered metric and
    /// the slow-log tail.
    pub(crate) fn vars_json(&self) -> String {
        use srj_obs::json::escape;
        use srj_obs::ValueSnapshot;
        let mut out = String::with_capacity(4096);
        out.push_str("{\"metrics\":[");
        for (i, m) in self.metrics.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"labels\":{},",
                escape(&m.name),
                escape(&m.labels)
            ));
            match m.value {
                ValueSnapshot::Counter(v) => out.push_str(&format!("\"counter\":{v}}}")),
                ValueSnapshot::Gauge(v) => {
                    // Gauges are finite by construction; guard anyway so
                    // a rogue value cannot emit invalid JSON.
                    let v = if v.is_finite() { v } else { 0.0 };
                    out.push_str(&format!("\"gauge\":{v}}}"));
                }
                ValueSnapshot::Histogram { count, sum } => {
                    out.push_str(&format!("\"count\":{count},\"sum\":{sum}}}"));
                }
            }
        }
        out.push_str("],\"slow_log\":[");
        for (i, e) in self.slow_log.recent(8).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }
}

// ---- the server ----------------------------------------------------------

/// A running sampling server. Dropping it shuts it down cleanly (all
/// threads joined).
pub struct Server {
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    maintainer: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The HTTP observability listener's resolved address.
    http_addr: Option<SocketAddr>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
    /// starts serving `registry` with `config`.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        registry: DatasetRegistry,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(config.cache_capacity > 0, "cache capacity must be positive");
        assert!(config.queue_frames > 0, "queue depth must be positive");
        let batch_cap = (MAX_FRAME_LEN - 16) / 8;
        let config = ServerConfig {
            workers: config.workers.max(1),
            batch_pairs: config.batch_pairs.clamp(1, batch_cap),
            ..config
        };
        let listener = TcpListener::bind(addr)?;
        let metrics = Registry::new();
        let server_metrics = ServerMetrics::register(&metrics);
        let unregistered = RequestSeries::register(&metrics, "unregistered");
        let profiler = Profiler::new(ALL_STATES.map(|state| {
            let labels = [("state", state.as_str())];
            metrics.counter("srj_worker_state_samples_total", &labels)
        }));
        let active = Arc::new(AtomicU64::new(0));
        let open = Arc::clone(&active);
        metrics.gauge_fn("srj_conn_open", &[], move || {
            open.load(Ordering::Relaxed) as f64
        });
        let served = registry
            .map
            .into_iter()
            .map(|(id, store)| {
                // Label every store with its wire id so engine-internal
                // lifecycle events (swaps, patches, compactions) carry
                // the dataset id clients know.
                store.set_obs_label(id);
                (id, ServedDataset::register(&metrics, id, store))
            })
            .collect();
        let notify = Arc::new(LoopNotify::new()?);
        // The maintainer's poller holds its waker and, when configured,
        // the HTTP listener; set up here so bind/epoll errors surface
        // from start() before any thread exists.
        let maintainer_waker = Waker::new()?;
        let mut poller = Poller::new()?;
        poller.register(maintainer_waker.fd(), TOKEN_WAKER, Interest::READ)?;
        let http = match config.http_port {
            Some(port) => Some(TcpListener::bind(("127.0.0.1", port))?),
            None => None,
        };
        if let Some(listener) = &http {
            listener.set_nonblocking(true)?;
            poller.register(listener.as_raw_fd(), TOKEN_HTTP, Interest::READ)?;
        }
        let http_addr = http.as_ref().map(TcpListener::local_addr).transpose()?;
        let shared = Arc::new(Shared {
            config,
            registry: served,
            queue: JobQueue::new(),
            metrics,
            server_metrics,
            unregistered,
            slow_p99_ns: AtomicU64::new(0),
            active,
            conns: Mutex::new(Vec::new()),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            addr: listener.local_addr()?,
            slow_log: SlowLog::new(config.slow_log_capacity),
            profiler,
            notify,
            maintainer_waker,
            health: Mutex::new(HealthState::default()),
        });

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("srj-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        // One event-loop thread owns the listener, every connection
        // socket, and all the connection timers. Construction happens
        // here (not on the thread) so bind/epoll errors surface from
        // start() instead of killing a detached thread.
        let event_loop = {
            let mut el = EventLoop::new(listener, Arc::clone(&shared))?;
            std::thread::Builder::new()
                .name("srj-event-loop".into())
                .spawn(move || el.run())
                .expect("spawn event loop")
        };
        let maintainer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("srj-maintainer".into())
                .spawn(move || maintainer_loop(&shared, poller, http))
                .expect("spawn maintainer")
        };

        Ok(Server {
            shared,
            event_loop: Some(event_loop),
            maintainer: Some(maintainer),
            workers,
            http_addr,
        })
    }

    /// The HTTP observability listener's resolved address (with an
    /// OS-assigned port filled in), when one is configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Server-wide aggregate statistics (same numbers a `STATS` request
    /// returns).
    pub fn stats(&self) -> ServerStatsFrame {
        self.shared.stats_frame()
    }

    /// The Prometheus text exposition (same text a `METRICS` request
    /// returns) — for embedded servers, tests and the benchmark.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Blocks until shutdown is requested (by [`Server::shutdown`] or a
    /// client `SHUTDOWN` frame).
    pub fn wait_shutdown(&self) {
        let mut flag = self
            .shared
            .shutdown_flag
            .lock()
            .expect("shutdown flag poisoned");
        while !*flag {
            flag = self
                .shared
                .shutdown_cv
                .wait(flag)
                .expect("shutdown flag poisoned");
        }
    }

    /// Graceful shutdown: stop accepting, close every connection, and
    /// join every thread the server spawned. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        // The event loop and the maintainer observe the shutdown flag
        // on their next wakeup (begin_shutdown rang both wakers); the
        // loop tears every connection down first, so after its join the
        // connection list is final.
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        if let Some(maintainer) = self.maintainer.take() {
            let _ = maintainer.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are gone: drop every job still queued or parked so
        // no response can outlive the server.
        drop(self.shared.queue.drain());
        for conn in self.shared.conns.lock().expect("conn list poisoned").iter() {
            conn.parked.lock().expect("parked list poisoned").clear();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---- maintainer ------------------------------------------------------------

/// Maintainer poller tokens: its waker and the HTTP listener.
const TOKEN_WAKER: u64 = 0;
const TOKEN_HTTP: u64 = 1;

/// Profiler sweep interval; a paused HTTP listener is re-armed on it.
const SWEEP: Duration = Duration::from_millis(50);

/// The server's one housekeeping thread, kept off the event loop so the
/// profiler can observe the loop's own tag and an HTTP probe never
/// delays a request. It waits on its own poller with the next sweep as
/// timeout and
///
/// * every [`SWEEP`] takes one profiler sample and refreshes the
///   automatic slow threshold ([`Shared::refresh_slow_threshold`]);
/// * answers each HTTP probe as it arrives ([`crate::http::accept_one`]).
///   An accept failure other than `WouldBlock` — `EMFILE` with a probe
///   still queued — takes the listener out of the poller until the next
///   sweep, so it cannot spin.
///
/// Returns once shutdown flips; `begin_shutdown` rings the waker.
fn maintainer_loop(shared: &Shared, mut poller: Poller, http: Option<TcpListener>) {
    let mut next_sweep = Instant::now() + SWEEP;
    let mut http_paused = false;
    let mut events = Vec::new();
    while !shared.is_shutting_down() {
        let now = Instant::now();
        if now >= next_sweep {
            shared.profiler.sample();
            shared.refresh_slow_threshold();
            next_sweep = now + SWEEP;
            if let (true, Some(listener)) = (http_paused, &http) {
                http_paused = poller
                    .register(listener.as_raw_fd(), TOKEN_HTTP, Interest::READ)
                    .is_err();
            }
        }
        let timeout = next_sweep.saturating_duration_since(Instant::now());
        if poller.wait(&mut events, Some(timeout)).is_err() {
            return;
        }
        for ev in &events {
            if ev.token == TOKEN_WAKER {
                shared.maintainer_waker.drain();
            } else if let Some(listener) = &http {
                if crate::http::accept_one(listener, shared).is_err() {
                    http_paused = poller.deregister(listener.as_raw_fd()).is_ok();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::sync::Barrier;

    use super::*;
    use crate::client::Client;

    fn key(l: f64) -> EngineKey {
        EngineKey {
            l_bits: l.to_bits(),
            algorithm: None,
            off_step: false,
        }
    }

    /// An 8 × 8 lattice of points, for `R` and `S` alike.
    fn lattice() -> Vec<Point> {
        (0..64)
            .map(|i| Point::new((i % 8) as f64, (i / 8) as f64))
            .collect()
    }

    /// Dataset 1 over a fresh store of `(r, s)`, its series in `reg`.
    fn served(reg: &Registry, r: Vec<Point>, s: Vec<Point>) -> ServedDataset {
        ServedDataset::register(reg, 1, Arc::new(DatasetStore::new(r, s)))
    }

    /// A forced-BBST request for the window `l`.
    fn bbst(l: f64) -> SampleRequest {
        SampleRequest {
            req_id: 0,
            dataset: 1,
            l,
            algorithm: Some(Algorithm::Bbst),
            shards: 1,
            t: 16,
            seed: 1,
        }
    }

    /// The engine the map lets go of at capacity is handed out alive,
    /// with the map lock already free: freeing an index is never done
    /// inside the critical section the event loop's `cached_engine` peek
    /// waits on.
    #[test]
    fn an_unmapped_engine_outlives_the_engine_map_lock() {
        let dataset = served(&Registry::new(), lattice(), lattice());
        let build = |l: f64| {
            Arc::new(EpochEngine::with_store(
                Arc::clone(&dataset.store),
                &SampleConfig::new(l),
                EpochConfig::default(),
            ))
        };

        let first = build(1.0);
        let first_alive = Arc::downgrade(&first);
        let admit = |key, engine| dataset.admit(&mut dataset.lock(), key, Some(engine), 1);
        assert!(admit(key(1.0), first).is_none(), "room for one");
        assert_eq!(first_alive.strong_count(), 1, "held by the map alone");

        // At capacity: the least recently used engine leaves the map.
        let unmapped = admit(key(2.0), build(2.0));
        assert!(dataset.engines.try_lock().is_ok(), "map lock released");
        assert_eq!(first_alive.strong_count(), 1, "evicted, not yet dropped");
        assert!(Arc::ptr_eq(
            &unmapped.flatten().unwrap(),
            &first_alive.upgrade().unwrap()
        ));
        assert_eq!(first_alive.strong_count(), 0);
        assert!(dataset.cached_engine(key(1.0)).is_none());
        assert_eq!(dataset.engines_cached.load(Ordering::Relaxed), 1);
    }

    /// A build runs with the engine map free: a lookup and a scrape go
    /// on beside it and never wait for it, and the peek takes the key in
    /// flight for a miss.
    #[test]
    fn a_build_holds_no_lock_a_scrape_or_a_lookup_takes() {
        let reg = Registry::new();
        let dataset = served(&reg, lattice(), lattice());
        let (entry, built) = dataset.entry(key(1.0), 4, || {
            assert!(dataset.engines.try_lock().is_ok(), "map lock held");
            assert!(dataset.cached_engine(key(2.0)).is_none());
            assert!(dataset.cached_engine(key(1.0)).is_none(), "in flight");
            assert!(reg.render().contains("srj_mu_total{dataset=\"1\"} 0\n"));
            let (store, config) = (Arc::clone(&dataset.store), SampleConfig::new(1.0));
            let counters = dataset.metrics.maintenance.clone();
            Some(EpochEngine::with_counters(
                store,
                &config,
                EpochConfig::default(),
                counters,
            ))
        });
        assert!(built && entry.is_some());
        assert_eq!(dataset.engines_cached.load(Ordering::Relaxed), 1);
        assert!(!reg.render().contains("srj_mu_total{dataset=\"1\"} 0\n"));
    }

    /// `METRICS` and `STATS` are reads: both answer, over the wire, while
    /// another thread holds the dataset's engine map.
    #[test]
    fn metrics_and_stats_answer_while_an_engine_map_is_held() {
        let mut registry = DatasetRegistry::new();
        registry.register(1, lattice(), lattice());
        let server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        let outcome = client.sample(SampleRequest {
            l: 1.0,
            ..bbst(1.0)
        });
        assert_eq!(outcome.unwrap().status, RequestStatus::Ok);

        let held = server.shared.registry[&1].lock();
        let (answered, answers) = mpsc::channel();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let text = client.metrics().unwrap();
            let _ = answered.send((text, client.server_stats().unwrap()));
        });
        let (text, stats) = answers
            .recv_timeout(Duration::from_secs(10))
            .expect("a scrape waited for the engine map");
        drop(held);
        assert!(text.contains("srj_index_rows{dataset=\"1\""), "{text}");
        assert_eq!(stats.engines_cached, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    /// The sum of every series of the counter family `name` in `text`.
    fn family_sum(text: &str, name: &str) -> u64 {
        let of_family = |head: &str| {
            head.strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        };
        let values = text.lines().filter_map(|line| {
            let (head, value) = line.rsplit_once(' ')?;
            of_family(head).then(|| value.parse::<u64>().unwrap())
        });
        values.sum()
    }

    /// Every `srj_request_latency_ns` series in `text`, summed: the
    /// per-bucket counts (taken apart from the cumulative `le` lines),
    /// the `_sum` and the `_count`.
    fn latency_of(text: &str) -> ([u64; BUCKETS], u64, u64) {
        let (mut buckets, mut sum, mut count) = ([0; BUCKETS], 0, 0);
        let mut below = (String::new(), 0); // a series, its count so far
        for line in text.lines() {
            let Some((head, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<u64>() else {
                continue;
            };
            if let Some(rest) = head.strip_prefix("srj_request_latency_ns_bucket{") {
                let (series, le) = rest.trim_end_matches("\"}").rsplit_once(",le=\"").unwrap();
                let Ok(le) = le.parse::<u64>() else {
                    continue; // +Inf: the count, read below
                };
                if below.0 != series {
                    below = (series.to_string(), 0);
                }
                buckets[le.trailing_zeros() as usize - 1] += value - below.1;
                below.1 = value;
            } else if head.starts_with("srj_request_latency_ns_sum{") {
                sum += value;
            } else if head.starts_with("srj_request_latency_ns_count{") {
                count += value;
            }
        }
        (buckets, sum, count)
    }

    /// `STATS` sums the cells `METRICS` renders — through requests that
    /// succeed, one that names no registered dataset and one whose
    /// client leaves after its first `BATCH` — and the automatic
    /// slow-log threshold is the p99 of the same buckets.
    #[test]
    fn stats_and_metrics_read_one_record() {
        use crate::protocol::{
            decode_response, encode_request, read_frame, write_frame, Response, PROTOCOL_VERSION,
        };
        const OK_REQUESTS: u64 = 40;
        let mut registry = DatasetRegistry::new();
        registry.register(1, lattice(), lattice());
        let server = Server::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        for _ in 0..OK_REQUESTS {
            let outcome = client.sample(bbst(1.0)).unwrap();
            assert_eq!(outcome.status, RequestStatus::Ok);
        }
        let unknown = client.sample(SampleRequest {
            dataset: 99,
            ..bbst(1.0)
        });
        assert_eq!(unknown.unwrap().status, RequestStatus::UnknownDataset);

        let mut leaving = std::net::TcpStream::connect(addr).unwrap();
        let mut send = |req: &Request| write_frame(&mut leaving, &encode_request(req)).unwrap();
        send(&Request::Hello {
            version: PROTOCOL_VERSION,
            features: 0,
        });
        send(&Request::Sample(SampleRequest {
            t: 1 << 30,
            ..bbst(1.0)
        }));
        loop {
            let frame = read_frame(&mut leaving).unwrap().expect("a BATCH");
            if let Response::Batch { .. } = decode_response(&frame).unwrap() {
                break;
            }
        }
        drop(leaving);

        let deadline = Instant::now() + Duration::from_secs(20);
        let stats = loop {
            let stats = client.server_stats().unwrap();
            if stats.queries == OK_REQUESTS + 2 {
                break stats;
            }
            assert!(Instant::now() < deadline, "{stats:?}");
            std::thread::sleep(Duration::from_millis(10));
        };
        let text = client.metrics().unwrap();
        assert_eq!(stats.queries, family_sum(&text, "srj_requests_total"));
        assert_eq!(stats.samples, family_sum(&text, "srj_samples_total"));
        assert_eq!(
            stats.iterations,
            family_sum(&text, "srj_rejection_iterations_total")
        );
        assert_eq!(stats.errors, family_sum(&text, "srj_request_errors_total"));
        assert_eq!(stats.errors, 2);
        assert!(stats.samples > OK_REQUESTS * 16, "the departed pairs count");
        assert!(text.contains("srj_requests_total{dataset=\"unregistered\"} 1\n"));

        let (buckets, sum, count) = latency_of(&text);
        assert_eq!(count, stats.queries);
        assert_eq!(stats.p50_ns, quantile_of(&buckets, 0.50));
        assert_eq!(stats.p99_ns, quantile_of(&buckets, 0.99));
        assert_eq!(stats.mean_ns, sum / count);
        while server.shared.slow_threshold_ns() != Some(stats.p99_ns) {
            assert!(Instant::now() < deadline, "no sweep took the p99");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// What `dataset`'s gauges show: bytes in [`IndexBytes::parts`]
    /// order, rows in [`RowGranularity::ALL`] order, and `Σµ`.
    type Gauges = ([usize; 7], [usize; 2], f64);

    /// The gauges as the registry renders them.
    fn published(reg: &Registry) -> Gauges {
        let snapshot = reg.snapshot();
        let value = |name: &str, label: &str| {
            let found = snapshot
                .iter()
                .find(|m| m.name == name && m.labels.contains(label));
            match found.map(|m| m.value) {
                Some(srj_obs::ValueSnapshot::Gauge(v)) => v,
                other => panic!("{name} {{{label}}}: {other:?}"),
            }
        };
        let bytes = IndexBytes::default()
            .parts()
            .map(|(s, _)| value("srj_index_bytes", &format!("structure=\"{s}\"")) as usize);
        let rows = RowGranularity::ALL
            .map(|g| value("srj_index_rows", &format!("granularity=\"{}\"", g.label())) as usize);
        (bytes, rows, value("srj_mu_total", "dataset=\"1\""))
    }

    /// A fresh walk of what `dataset` holds: every engine its map
    /// caches and every one of `pinned`, and the store's two sets.
    fn walked(dataset: &ServedDataset, pinned: &[&Arc<EpochEngine>]) -> Gauges {
        let map = dataset.lock();
        let cached = map.entries.iter().filter_map(|(_, e)| e.as_ref());
        let (mut bytes, mut rows, mut mu) = (dataset.store.set_bytes(), [0; 2], 0.0);
        for e in cached.chain(pinned.iter().copied()) {
            bytes = bytes + e.memory_breakdown();
            let engine = e.engine();
            rows[engine.row_granularity() as usize] += engine.row_count();
            mu += e.total_weight();
        }
        (bytes.parts().map(|(_, b)| b), rows, mu)
    }

    /// Points on a half-unit lattice: the ladder step 4's group rows
    /// serve the window 4 and fail the window 3.7.
    fn half_lattice(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) % 41) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 0.5 - 10.0, next() * 0.5 - 10.0))
            .collect()
    }

    /// The published gauges equal a fresh walk of the engine map and the
    /// store's sets after every step of a script that takes each engine
    /// constructor and each rung, evicts past the capacity, and pins an
    /// engine across its eviction.
    #[test]
    fn the_published_gauges_are_a_fresh_walk_after_every_step() {
        let reg = Registry::new();
        let dataset = served(&reg, half_lattice(400, 11), half_lattice(2_000, 12));
        let config = ServerConfig {
            cache_capacity: 3,
            epoch: EpochConfig::default().with_rebuild_fraction(0.01),
            ..ServerConfig::default()
        };
        let counters = &dataset.metrics.maintenance;
        let rungs = || {
            [
                counters.minor_swap.get(),
                counters.cell_patch.get(),
                counters.full_rebuild.get(),
            ]
        };
        let check = |step: &str, pinned: &[&Arc<EpochEngine>]| {
            assert_eq!(published(&reg), walked(&dataset, pinned), "after {step}");
        };
        let sm = ServerMetrics::register(&reg);
        let acquire = |l| drop(dataset.acquire(&bbst(l), &config, &sm));
        let insert_s = |points: Vec<Point>| {
            let store = &dataset.store;
            store.insert_s_batch(&points);
        };
        check("nothing", &[]);

        acquire(4.0);
        acquire(2.0);
        check("two ladder steps", &[]);
        acquire(3.7);
        assert!(dataset.cached_engine(EngineKey::off_step(3.7)).is_some());
        check("an off-step window", &[]);

        // Group rows leave the step's grid of `S` unsorted; the minor
        // swap's chunk of inserted `R` sorts the cells of its blocks,
        // after the base's bytes were published.
        let step = dataset.cached_engine(EngineKey::of(&bbst(4.0))).flatten();
        let s_grid = step.expect("the step 4 serves").engine().s_grid().unwrap();
        assert!(s_grid.cells().iter().all(|c| !c.has_views()));
        insert_s(vec![Point::new(0.25, 0.25); 5]);
        dataset.store.insert_r_batch(&[Point::new(0.25, 0.25); 3]);
        acquire(4.0);
        assert_eq!(rungs(), [1, 0, 0]);
        assert!(s_grid.cells().iter().any(|c| c.has_views()));
        check("a minor swap that sorts base cells", &[]);
        drop(s_grid);
        insert_s(vec![Point::new(0.25, 0.25); 30]);
        acquire(4.0);
        assert_eq!(rungs(), [1, 1, 0]);
        check("a patch swap", &[]);
        insert_s(half_lattice(2_000, 13));
        acquire(4.0);
        assert_eq!(rungs(), [1, 1, 1]);
        check("a full rebuild", &[]);

        let pinned = dataset.cached_engine(EngineKey::of(&bbst(4.0))).flatten();
        let pinned = pinned.expect("the step 4 serves");
        let mut handle = pinned.handle_at(4.0, Some(1)).unwrap();
        acquire(1.0);
        acquire(5.0);
        acquire(8.0);
        assert!(dataset.cached_engine(EngineKey::of(&bbst(4.0))).is_none());
        check("evictions past the capacity", &[&pinned]);
        drop(pinned);
        check("the pinned engine's drop", &[]);
        assert_eq!(
            handle.sample_batch(8).unwrap().len(),
            8,
            "the handle serves on"
        );
        let store = Arc::clone(&dataset.store);
        drop(dataset);
        let sets = store.set_bytes().parts().map(|(_, b)| b);
        assert_eq!(published(&reg), (sets, [0; 2], 0.0));
    }

    /// A patch swap's grid stands on the store's extended set of `S`:
    /// the set is held once, and the published point-set bytes are the
    /// store's alone.
    #[test]
    fn a_patch_swap_holds_s_once() {
        let reg = Registry::new();
        let dataset = served(&reg, half_lattice(400, 11), half_lattice(2_000, 12));
        let config = ServerConfig {
            epoch: EpochConfig::default().with_rebuild_fraction(0.01),
            ..ServerConfig::default()
        };
        let sm = ServerMetrics::register(&reg);
        drop(dataset.acquire(&bbst(4.0), &config, &sm));
        dataset
            .store
            .insert_s_batch(&[Point::new(0.25, 0.25), Point::new(0.75, 0.25)].repeat(15));
        drop(dataset.acquire(&bbst(4.0), &config, &sm));
        assert_eq!(dataset.metrics.maintenance.cell_patch.get(), 1);

        let engine = dataset.cached_engine(EngineKey::of(&bbst(4.0))).flatten();
        let grid = engine
            .expect("the step 4 serves")
            .engine()
            .s_grid()
            .unwrap();
        assert!(Arc::ptr_eq(
            grid.point_set(),
            &dataset.store.snapshot().base_s
        ));
        let parts = IndexBytes::default().parts();
        let point_set = parts.iter().position(|&(s, _)| s == "point_set").unwrap();
        let store_bytes = dataset.store.set_bytes().point_set;
        assert_eq!(published(&reg).0[point_set], store_bytes);
    }

    /// Threads that make the first acquisition of one key at once build
    /// it once: one miss, and a hit for every other.
    #[test]
    fn concurrent_first_acquisitions_build_once() {
        const THREADS: usize = 4;
        let points: Vec<Point> = (0..20_000)
            .map(|i| Point::new(f64::from(i % 140), f64::from(i / 140)))
            .collect();
        let reg = Registry::new();
        let dataset = served(&reg, points.clone(), points);
        let (config, sm) = (ServerConfig::default(), ServerMetrics::register(&reg));
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    dataset.acquire(
                        &SampleRequest {
                            l: 3.0,
                            ..bbst(3.0)
                        },
                        &config,
                        &sm,
                    )
                });
            }
        });
        assert_eq!(sm.cache_misses.get(), 1);
        assert_eq!(sm.cache_hits.get(), THREADS as u64 - 1);
        assert_eq!(dataset.engines_cached.load(Ordering::Relaxed), 1);
    }

    /// A build that panics wakes whoever waits for it, and the waiter
    /// builds in its place.
    #[test]
    fn a_build_that_panics_strands_no_waiter() {
        let dataset = &served(&Registry::new(), lattice(), lattice());
        let build = || {
            let store = Arc::clone(&dataset.store);
            Some(EpochEngine::with_store(
                store,
                &SampleConfig::new(1.0),
                EpochConfig::default(),
            ))
        };
        let (started, has_started) = mpsc::channel();
        let (fail, must_fail) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let failing = scope.spawn(move || {
                dataset.entry(key(1.0), 4, || {
                    started.send(()).unwrap();
                    must_fail.recv().unwrap();
                    panic!("the build fails");
                })
            });
            has_started.recv().unwrap();
            let waiter = scope.spawn(|| dataset.entry(key(1.0), 4, build));
            std::thread::sleep(Duration::from_millis(50));
            fail.send(()).unwrap();
            assert!(failing.join().is_err());
            let (entry, built) = waiter.join().unwrap();
            assert!(built && entry.is_some());
        });
        assert!(dataset.lock().building.is_empty());
    }
}
