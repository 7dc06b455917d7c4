//! The TCP serving subsystem: a readiness-driven event loop owning
//! every connection, a fixed worker pool, bounded per-connection
//! response queues.
//!
//! ```text
//!             ┌──────────────────────────────────────────────────────┐
//!             │                     Server                           │
//!  TCP ─────► │ event loop (epoll) ── decode ──► JobQueue (global)   │
//!             │   accept · read · write · timers     │               │
//!             │        ▲        ▲              worker × W  (fixed)   │
//!             │        │        │                    │ one batch per │
//!             │        │   bounded OutQueue (frames) │ step, then    │
//!             │        │        ▲                    ▼ requeue       │
//!             │        └────────┴──── try_send ──────┘               │
//!             └──────────────────────────────────────────────────────┘
//! ```
//!
//! **Threading.** One event-loop thread (see `crate::event_loop`)
//! owns the listener and every connection socket — all nonblocking,
//! driven by `epoll(7)` readiness (with a `poll(2)` fallback) and a
//! timer wheel for every deadline; `workers` pool threads do the
//! sampling. No per-connection threads exist: ten thousand idle
//! keepalive connections cost ten thousand registered fds, not twenty
//! thousand parked stacks.
//!
//! **Batching.** A `SAMPLE` request becomes one job holding one
//! [`SamplerHandle`] for its whole lifetime — the engine/handle
//! acquisition is paid once per request, not per sample. Each worker
//! step drains one batch ([`ServerConfig::batch_pairs`] samples)
//! through [`SamplerHandle::stream`] into one `BATCH` frame, then
//! requeues the job at the back of the global queue, so concurrent
//! requests interleave fairly regardless of their `t`.
//!
//! **Backpressure.** Each connection owns a *bounded* frame queue
//! ([`ServerConfig::queue_frames`], the [`ConnShared`] out-queue)
//! drained by the event loop as the socket accepts bytes. Workers only
//! ever [`ConnShared::try_send`]: when a client stops reading and its
//! queue fills, the job *parks itself on the connection* and the
//! worker moves on — a slow reader stalls its own stream, never the
//! pool. The hand-back is lock-step safe: after parking, the worker
//! kicks the loop (a dirty mark + waker write), and the loop
//! re-queues parked jobs whenever a write frees queue room, so a
//! parked job is re-activated on the very next free slot and cannot
//! be lost to the park/drain race. The loop also stops *reading* (and
//! decoding) a connection whose out-queue is at capacity, so control
//! answers stay bounded and a flooding client is throttled by its own
//! TCP window.
//!
//! **Shutdown.** [`Server::shutdown`] (or a client `SHUTDOWN` frame)
//! wakes the event loop (which tears down every connection), closes
//! the job queue, and joins every thread the server ever spawned — no
//! leaks, asserted by the loopback tests.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use srj_core::{JoinPair, SampleConfig, SampleError};
use srj_engine::{DatasetStore, EngineStats, EpochConfig, EpochEngine, SamplerHandle};
use srj_geom::Point;
use srj_obs::journal::EventKind;
use srj_obs::profiler::ALL_STATES;
use srj_obs::timeseries::{Recorder, SeriesStore};
use srj_obs::{
    trace, Counter, Gauge, Histogram, Profiler, Registry, SlowEntry, SlowLog, StateTag, WorkerState,
};

use crate::event_loop::{EventLoop, LoopNotify};
use crate::fault::FaultPlan;
use crate::protocol::{
    encode_response, EpochInfo, RequestStats, RequestStatus, Response, SampleRequest,
    ServerStatsFrame, Side, SlowLogEntry, TraceSpan, UpdateStats, MAX_FRAME_LEN,
};

/// `retry_after_ms` suggested on load-shed `BUSY` answers: long enough
/// for a worker step to drain queue headroom, short enough that a
/// shed client re-offers while the burst is still being absorbed.
pub(crate) const SHED_RETRY_MS: u32 = 50;

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
    /// Retained serving engines per dataset (one per requested
    /// `(l, shards, algorithm)` shape). Default 16.
    pub cache_capacity: usize,
    /// `SampleConfig::build_threads` for engine builds triggered by
    /// cache misses. Default 0 (all cores).
    pub build_threads: usize,
    /// Epoch/re-plan knobs for every served dataset (rebuild
    /// threshold, re-plan divergence factor; the per-request shard
    /// count and forced algorithm override the corresponding fields).
    pub epoch: EpochConfig,
    /// Fraction of `SAMPLE` requests that get a trace id and record
    /// spans ([`srj_obs::trace`]). `0.0` (default) disables tracing —
    /// the instrumented call sites cost one relaxed load each.
    /// Applied process-wide by [`Server::start`].
    pub trace_sample_rate: f64,
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
    /// `/vars`). Nonzero turns on always-record span rings
    /// ([`srj_obs::trace::set_always_record`]) so every request leaves
    /// a span trail the capture can snapshot. `0` disables tail-based
    /// capture entirely. Default 64.
    pub slow_log_capacity: usize,
    /// Latency threshold for slow-request capture, nanoseconds. `0`
    /// (default) derives the threshold from the live request-latency
    /// p99 once at least [`SLOW_AUTO_MIN_REQUESTS`] requests have been
    /// observed (nothing is captured before that).
    pub slow_threshold_ns: u64,
    /// Cadence of the in-process time-series recorder
    /// ([`srj_obs::timeseries`]), milliseconds. `0` disables the
    /// recorder (and `/vars` serves no series). Default 1000.
    pub timeseries_cadence_ms: u64,
    /// Whether the maintainer samples worker/reader/writer state tags
    /// into `srj_worker_state_samples_total{state=...}`. Default true.
    pub profiler: bool,
    /// `/healthz` reports `degraded` while the most recent distress
    /// signal (load shed, connection reap, handshake reject, engine
    /// re-plan) is younger than this window, milliseconds. Default
    /// 5000.
    pub health_degraded_window_ms: u64,
    /// Whether `SAMPLE` batches are drawn through the engines'
    /// buffered fast path ([`SamplerHandle::sample_batch`]:
    /// monomorphised RNG, pre-drawn per-cell sample buffers, one stats
    /// record per batch) instead of the per-item streaming draw.
    /// Default true; turn off to A/B the legacy path.
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
            trace_sample_rate: 0.0,
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
            timeseries_cadence_ms: 1000,
            profiler: true,
            health_degraded_window_ms: 5000,
            buffers: true,
        }
    }
}

/// Requests the latency histogram must have seen before the automatic
/// (`slow_threshold_ns == 0`) p99-derived slow threshold engages — a
/// p99 of three requests is noise, not a baseline.
pub const SLOW_AUTO_MIN_REQUESTS: u64 = 32;

/// Most entries a `SLOWLOG` answer carries, and most spans one entry
/// retains — together they bound the response frame well under
/// [`MAX_FRAME_LEN`].
pub(crate) const SLOWLOG_MAX_ENTRIES: usize = 32;
pub(crate) const SLOWLOG_MAX_SPANS: usize = 512;

/// Zero means "no deadline" throughout the config; the event loop
/// arms a timer-wheel entry only for `Some` deadlines.
pub(crate) fn timeout_opt(d: Duration) -> Option<Duration> {
    (!d.is_zero()).then_some(d)
}

/// Identity of one serving engine of a dataset: the request shape.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct EngineKey {
    l_bits: u64,
    shards: usize,
    algorithm: Option<srj_engine::Algorithm>,
}

/// One registered workload: the mutable point store plus its serving
/// engines, one [`EpochEngine`] per requested `(l, shards, algorithm)`
/// shape. Updates mutate the store; every engine of the dataset
/// refreshes lazily on its next handle acquisition — a mutated dataset
/// is never answered from a stale index.
struct ServedDataset {
    store: Arc<DatasetStore>,
    engines: Mutex<Vec<(EngineKey, Arc<EpochEngine>)>>,
}

impl ServedDataset {
    fn new(store: Arc<DatasetStore>) -> Self {
        ServedDataset {
            store,
            engines: Mutex::new(Vec::new()),
        }
    }

    /// The engine for `key`, building it on a miss (outside the map
    /// lock, as with the engine cache: concurrent misses on different
    /// shapes must not serialise on one mutex for a whole build). The
    /// vector is kept in recency order — a hit moves its entry to the
    /// back — so eviction at capacity drops the least-recently-used
    /// shape, never a hot one; in-flight handles of an evicted engine
    /// keep serving through their `Arc`s.
    fn engine_for(
        &self,
        key: EngineKey,
        capacity: usize,
        build: impl FnOnce() -> EpochEngine,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> Arc<EpochEngine> {
        {
            let mut engines = self.engines.lock().expect("engine map poisoned");
            if let Some(i) = engines.iter().position(|(k, _)| *k == key) {
                hits.fetch_add(1, Ordering::Relaxed);
                let entry = engines.remove(i);
                let engine = Arc::clone(&entry.1);
                engines.push(entry);
                return engine;
            }
        }
        misses.fetch_add(1, Ordering::Relaxed);
        let engine = Arc::new(build());
        let mut engines = self.engines.lock().expect("engine map poisoned");
        if let Some(i) = engines.iter().position(|(k, _)| *k == key) {
            // Another thread built the same shape first; share its
            // engine (and swap cell) so epochs stay consistent.
            let entry = engines.remove(i);
            let shared = Arc::clone(&entry.1);
            engines.push(entry);
            return shared;
        }
        if engines.len() >= capacity.max(1) {
            engines.remove(0);
        }
        engines.push((key, Arc::clone(&engine)));
        engine
    }

    /// Longest recent swap across this dataset's engines.
    fn last_swap_ns(&self) -> u64 {
        self.engines
            .lock()
            .expect("engine map poisoned")
            .iter()
            .map(|(_, e)| e.last_swap().as_nanos().min(u128::from(u64::MAX)) as u64)
            .max()
            .unwrap_or(0)
    }

    fn engine_count(&self) -> usize {
        self.engines.lock().expect("engine map poisoned").len()
    }

    /// Cell-maintenance counters aggregated over this dataset's
    /// engines: `(patch_swaps, cells_patched, repairs, max last_swap_ns,
    /// Σµ)`.
    fn cell_stats(&self) -> (u64, u64, u64, u64, f64) {
        let engines = self.engines.lock().expect("engine map poisoned");
        let mut patch_swaps = 0u64;
        let mut cells_patched = 0u64;
        let mut repairs = 0u64;
        let mut last_swap_ns = 0u64;
        let mut mu_total = 0.0f64;
        for (_, e) in engines.iter() {
            // One consistent snapshot per engine: a request racing a
            // compaction must never pair the post-swap Σµ with the
            // pre-swap counters (or vice versa).
            let s = e.maintenance_snapshot();
            patch_swaps += s.patch_swaps;
            cells_patched += s.cells_patched;
            repairs += s.repairs;
            last_swap_ns = last_swap_ns.max(s.last_swap_ns);
            mu_total += s.mu_total;
        }
        (patch_swaps, cells_patched, repairs, last_swap_ns, mu_total)
    }

    /// Everything the `METRICS` exposition needs from this dataset's
    /// engines in one pass under the map lock, each engine read as one
    /// consistent [`srj_engine::MaintenanceSnapshot`].
    fn maintenance_stats(&self) -> MaintenanceStats {
        let engines = self.engines.lock().expect("engine map poisoned");
        let mut out = MaintenanceStats {
            engines: engines.len(),
            ..MaintenanceStats::default()
        };
        for (_, e) in engines.iter() {
            let s = e.maintenance_snapshot();
            out.minor_swaps += s.minor_swaps;
            out.major_swaps += s.major_swaps;
            out.patch_swaps += s.patch_swaps;
            out.cells_patched += s.cells_patched;
            out.repairs += s.repairs;
            out.replans += s.replans;
            out.mu_total += s.mu_total;
            out.epoch = out.epoch.max(s.epoch);
            out.buffer_hits += s.buffer_hits;
            out.buffer_refills += s.buffer_refills;
            out.buffer_invalidations += s.buffer_invalidations;
            let snap = e.stats();
            out.samples += snap.samples;
            out.iterations += snap.iterations;
        }
        out
    }
}

/// Aggregated per-dataset maintenance/rejection counters, summed over
/// the dataset's serving engines at scrape time.
#[derive(Default)]
struct MaintenanceStats {
    minor_swaps: u64,
    major_swaps: u64,
    patch_swaps: u64,
    cells_patched: u64,
    repairs: u64,
    replans: u64,
    mu_total: f64,
    samples: u64,
    iterations: u64,
    buffer_hits: u64,
    buffer_refills: u64,
    buffer_invalidations: u64,
    /// Serving epoch (max across engines), consistent with `mu_total`.
    epoch: u64,
    /// How many engines were aggregated (0 ⇒ fall back to the store's
    /// epoch for the `srj_epoch` gauge).
    engines: usize,
}

/// The datasets a server answers for, keyed by the `u64` ids clients
/// put in their requests. Registration happens before
/// [`Server::start`]; after that, clients mutate the registered
/// datasets over the wire (`INSERT`/`DELETE` frames) — the epoch
/// machinery keeps every serving engine consistent with the store.
#[derive(Default)]
pub struct DatasetRegistry {
    map: HashMap<u64, Arc<ServedDataset>>,
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
        self.map.insert(id, Arc::new(ServedDataset::new(store)));
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

// ---- jobs ----------------------------------------------------------------

/// What a queued job is doing.
pub(crate) enum JobState {
    /// Engine/handle not yet acquired (first worker step does it).
    Acquire,
    /// Streaming batches through an acquired handle.
    Stream(Box<SamplerHandle>),
    /// Pre-encoded frames only (stats answers, error frames).
    Respond,
}

/// One in-flight request. Lives in the global queue, on a worker, or
/// parked on its connection when the response queue is full.
pub(crate) struct Job {
    req: SampleRequest,
    conn: Arc<ConnShared>,
    state: JobState,
    /// Encoded frames not yet handed to the writer (front = next).
    outbox: VecDeque<Vec<u8>>,
    /// Set when the final `DONE` frame is in (or past) the outbox.
    done: Option<RequestStatus>,
    /// Samples delivered so far.
    sent: u64,
    /// Whether this job counts in the server's request statistics
    /// (stats/error answers don't).
    record: bool,
    /// Nonzero when this request won the trace-sampling coin flip; the
    /// id is echoed in the `DONE` frame so the client can fetch the
    /// spans.
    trace_id: u64,
    /// The id spans are recorded under on whichever worker thread steps
    /// the job: equal to `trace_id` for sampled requests, a forced id
    /// when slow-log capture is on (every request must leave a span
    /// trail the capture can snapshot), `0` otherwise. Never echoed —
    /// `DONE` semantics ride on `trace_id` alone.
    span_id: u64,
    started: Instant,
    /// Decode-to-first-worker-step delay, set on the first step — the
    /// queue-wait component of a slow-log capture.
    queue_wait: Option<Duration>,
}

impl Job {
    pub(crate) fn sample(
        req: SampleRequest,
        trace_id: u64,
        span_id: u64,
        conn: Arc<ConnShared>,
    ) -> Self {
        conn.inflight.fetch_add(1, Ordering::AcqRel);
        Job {
            req,
            conn,
            state: JobState::Acquire,
            outbox: VecDeque::new(),
            done: None,
            sent: 0,
            record: true,
            trace_id,
            span_id,
            started: Instant::now(),
            queue_wait: None,
        }
    }

    /// A job that only delivers pre-encoded frames (stats, errors).
    pub(crate) fn respond(frame: Vec<u8>, status: RequestStatus, conn: Arc<ConnShared>) -> Self {
        conn.inflight.fetch_add(1, Ordering::AcqRel);
        let mut outbox = VecDeque::with_capacity(1);
        outbox.push_back(frame);
        Job {
            req: SampleRequest {
                req_id: 0,
                dataset: 0,
                l: 1.0,
                algorithm: None,
                shards: 1,
                t: 0,
                seed: 0,
            },
            conn,
            state: JobState::Respond,
            outbox,
            done: Some(status),
            sent: 0,
            record: false,
            trace_id: 0,
            span_id: 0,
            started: Instant::now(),
            queue_wait: None,
        }
    }

    fn iterations(&self) -> u64 {
        match &self.state {
            JobState::Stream(handle) => handle.report().iterations,
            _ => 0,
        }
    }
}

impl Drop for Job {
    /// A job is in flight from construction until it is dropped —
    /// finished, abandoned, or drained at shutdown. The balanced
    /// counter is what keeps the reaper away from connections with
    /// pending work. The kick wakes the event loop so a half-closed
    /// connection whose last job just finished is torn down promptly.
    fn drop(&mut self) {
        self.conn.inflight.fetch_sub(1, Ordering::AcqRel);
        self.conn.kick();
    }
}

// ---- per-connection state ------------------------------------------------

/// The bounded response queue of one connection: workers `try_send`
/// into it, the event loop drains it to the socket. Capacity is the
/// backpressure window ([`ServerConfig::queue_frames`]); the loop's
/// control answers may exceed it by a bounded margin because frame
/// decoding pauses while the queue is at (or past) capacity.
struct OutQueue {
    frames: VecDeque<Vec<u8>>,
    capacity: usize,
    /// Set at teardown: the socket can never deliver another frame.
    disconnected: bool,
}

/// Why [`ConnShared::try_send`] refused a frame — mirrors the
/// `std::sync::mpsc::TrySendError` cases the old writer channel had.
pub(crate) enum SendError {
    /// Queue at capacity; the frame comes back for parking.
    Full(Vec<u8>),
    /// Connection torn down; the frame can never be delivered.
    Disconnected,
}

/// State shared by the event loop, the workers, and a connection's
/// jobs.
pub(crate) struct ConnShared {
    /// Accept-order id, unique per server — seeds the connection's
    /// deterministic fault schedules and names it on the event loop.
    pub(crate) id: u64,
    /// Clone of the socket, used only to `shutdown(2)` it.
    pub(crate) stream: TcpStream,
    /// Peer address, resolved once at accept — journal labels.
    pub(crate) peer: String,
    /// When the connection was accepted; the reference point for
    /// `last_activity_ns`.
    t0: Instant,
    /// Nanoseconds since `t0` of the last received frame (updated at
    /// frame dispatch); the sweep timer reaps connections idle past
    /// [`ServerConfig::idle_timeout`].
    last_activity_ns: AtomicU64,
    /// Requests alive on this connection (queued, on a worker, or
    /// parked) — the reaper never touches a connection with work in
    /// flight, and teardown waits for in-flight jobs to drain.
    pub(crate) inflight: AtomicU64,
    /// Jobs waiting for a free slot in the response queue (the
    /// backpressure parking lot).
    pub(crate) parked: Mutex<Vec<Job>>,
    /// Set by teardown and by server shutdown; parked/new frames for
    /// a closed connection are dropped.
    pub(crate) closed: AtomicBool,
    /// The bounded response queue (see [`OutQueue`]).
    out: Mutex<OutQueue>,
    /// The event loop's doorbell: dirty marks + waker writes.
    notify: Arc<LoopNotify>,
}

impl ConnShared {
    pub(crate) fn new(
        id: u64,
        stream: TcpStream,
        peer: String,
        capacity: usize,
        notify: Arc<LoopNotify>,
    ) -> ConnShared {
        ConnShared {
            id,
            stream,
            peer,
            t0: Instant::now(),
            last_activity_ns: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            parked: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            out: Mutex::new(OutQueue {
                frames: VecDeque::new(),
                capacity: capacity.max(1),
                disconnected: false,
            }),
            notify,
        }
    }

    /// Marks the connection active now.
    pub(crate) fn touch(&self) {
        let ns = self.t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.last_activity_ns.store(ns, Ordering::Release);
    }

    /// Nanoseconds the connection has been idle.
    pub(crate) fn idle_ns(&self) -> u64 {
        let now = self.t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        now.saturating_sub(self.last_activity_ns.load(Ordering::Acquire))
    }

    /// Worker-side bounded send: refuses at capacity (the caller
    /// parks) and after teardown (the caller finishes the job). On
    /// success the event loop is kicked to flush.
    pub(crate) fn try_send(&self, frame: Vec<u8>) -> Result<(), SendError> {
        {
            let mut out = self.out.lock().expect("out queue poisoned");
            if out.disconnected {
                return Err(SendError::Disconnected);
            }
            if out.frames.len() >= out.capacity {
                return Err(SendError::Full(frame));
            }
            out.frames.push_back(frame);
        }
        self.kick();
        Ok(())
    }

    /// Loop-side send for control answers (`WELCOME`/`PONG`/`BUSY`/
    /// `ERROR`): never refused at capacity — bounded anyway, because
    /// the loop stops decoding frames while the queue is full, so at
    /// most one control answer per decoded frame can overshoot.
    pub(crate) fn push_direct(&self, frame: Vec<u8>) {
        let mut out = self.out.lock().expect("out queue poisoned");
        if !out.disconnected {
            out.frames.push_back(frame);
        }
    }

    /// Next frame for the socket (event loop only).
    pub(crate) fn pop_out(&self) -> Option<Vec<u8>> {
        self.out
            .lock()
            .expect("out queue poisoned")
            .frames
            .pop_front()
    }

    /// Queued frames not yet handed to the socket.
    pub(crate) fn out_len(&self) -> usize {
        self.out.lock().expect("out queue poisoned").frames.len()
    }

    /// Whether the queue has a free worker-side slot.
    pub(crate) fn out_has_room(&self) -> bool {
        let out = self.out.lock().expect("out queue poisoned");
        !out.disconnected && out.frames.len() < out.capacity
    }

    /// Teardown half: refuse all future sends and drop what is queued.
    pub(crate) fn out_disconnect(&self) {
        let mut out = self.out.lock().expect("out queue poisoned");
        out.disconnected = true;
        out.frames.clear();
    }

    /// Rings the event loop's doorbell for this connection: marks it
    /// dirty (flush writes, re-examine parked jobs, maybe tear down)
    /// and wakes the poller.
    pub(crate) fn kick(&self) {
        self.notify.mark_dirty(self.id);
    }
}

// ---- global job queue ----------------------------------------------------

pub(crate) struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
    closed: AtomicBool,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Enqueues a job; a closed queue (shutdown in progress) refuses
    /// and hands the job back so the caller can answer it.
    fn push(&self, job: Job) -> Option<Job> {
        if self.closed.load(Ordering::Acquire) {
            return Some(job);
        }
        self.jobs.lock().expect("job queue poisoned").push_back(job);
        self.cv.notify_one();
        None
    }

    /// Blocks for the next job; `None` once the queue is closed.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            jobs = self.cv.wait(jobs).expect("job queue poisoned");
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    fn drain(&self) -> Vec<Job> {
        self.jobs
            .lock()
            .expect("job queue poisoned")
            .drain(..)
            .collect()
    }

    /// Queue depth right now — the load-shed signal.
    fn len(&self) -> usize {
        self.jobs.lock().expect("job queue poisoned").len()
    }
}

// ---- per-connection rate limiting -----------------------------------------

/// A token bucket: `rate` tokens/second, burst capacity of one
/// second's budget, starting full.
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// `None` when `rps` is zero (unlimited).
    pub(crate) fn new(rps: u32) -> Option<TokenBucket> {
        (rps > 0).then(|| TokenBucket {
            rate: f64::from(rps),
            burst: f64::from(rps),
            tokens: f64::from(rps),
            last: Instant::now(),
        })
    }

    /// `None` = admitted (one token consumed); `Some(ms)` = declined,
    /// with the time until a token accrues — the `retry_after_ms` for
    /// the `BUSY` answer.
    pub(crate) fn admit(&mut self) -> Option<u32> {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return None;
        }
        let ms = ((1.0 - self.tokens) / self.rate * 1000.0).ceil().max(1.0);
        Some(ms.min(f64::from(u32::MAX)) as u32)
    }
}

// ---- metrics --------------------------------------------------------------

/// The five maintenance rungs, in escalation order — the `rung` label
/// values of `srj_maintenance_total`.
const RUNGS: [&str; 5] = [
    "minor_swap",
    "cell_patch",
    "full_rebuild",
    "repair",
    "replan",
];

/// Typed handles into the server's [`Registry`] for one dataset,
/// registered once at startup so recording is lock-free `fetch_add`s
/// (hot-path handles) or relaxed stores at scrape time (mirrors).
struct DatasetMetrics {
    /// `srj_requests_total` — finished `SAMPLE` requests (hot path).
    requests: Counter,
    /// `srj_samples_total` — join samples delivered (hot path).
    samples: Counter,
    /// `srj_request_errors_total` — non-`Ok` finishes (hot path).
    errors: Counter,
    /// `srj_request_latency_ns` — per-request wall time (hot path).
    latency: Histogram,
    /// `srj_rejection_iterations_total` — engine mirror at scrape.
    rejection_iterations: Counter,
    /// `srj_rejection_rate` — iterations/samples at scrape.
    rejection_rate: Gauge,
    /// `srj_mu_total` — Σµ across serving engines at scrape.
    mu_total: Gauge,
    /// `srj_epoch` — store epoch at scrape.
    epoch: Gauge,
    /// `srj_maintenance_total{rung=...}` in [`RUNGS`] order, mirrored
    /// from the engines at scrape.
    rungs: [Counter; 5],
    /// `srj_cells_patched_total` — cells rebuilt by patch swaps.
    cells_patched: Counter,
    /// `srj_buffer_hits_total` — draws served from pre-drawn sample
    /// buffers, engine mirror at scrape.
    buffer_hits: Counter,
    /// `srj_buffer_refills_total` — bulk buffer refills at scrape.
    buffer_refills: Counter,
    /// `srj_buffer_invalidations_total` — buffers dropped by token
    /// mismatches or retired by epoch swaps, at scrape.
    buffer_invalidations: Counter,
}

impl DatasetMetrics {
    fn register(reg: &Registry, dataset: u64) -> Self {
        let id = dataset.to_string();
        let labels: [(&str, &str); 1] = [("dataset", &id)];
        DatasetMetrics {
            requests: reg.counter("srj_requests_total", &labels),
            samples: reg.counter("srj_samples_total", &labels),
            errors: reg.counter("srj_request_errors_total", &labels),
            latency: reg.histogram("srj_request_latency_ns", &labels),
            rejection_iterations: reg.counter("srj_rejection_iterations_total", &labels),
            rejection_rate: reg.gauge("srj_rejection_rate", &labels),
            mu_total: reg.gauge("srj_mu_total", &labels),
            epoch: reg.gauge("srj_epoch", &labels),
            rungs: std::array::from_fn(|i| {
                reg.counter(
                    "srj_maintenance_total",
                    &[("dataset", &id), ("rung", RUNGS[i])],
                )
            }),
            cells_patched: reg.counter("srj_cells_patched_total", &labels),
            buffer_hits: reg.counter("srj_buffer_hits_total", &labels),
            buffer_refills: reg.counter("srj_buffer_refills_total", &labels),
            buffer_invalidations: reg.counter("srj_buffer_invalidations_total", &labels),
        }
    }
}

/// Server-wide metric handles (no `dataset` label).
pub(crate) struct ServerMetrics {
    /// `srj_connections_accepted_total` — mirror at scrape.
    connections_accepted: Counter,
    /// `srj_active_connections` gauge — mirror at scrape.
    active_connections: Gauge,
    /// `srj_engine_cache_hits_total` / `srj_engine_cache_misses_total`
    /// — mirrors at scrape.
    cache_hits: Counter,
    cache_misses: Counter,
    /// `srj_backpressure_parks_total` — jobs parked on a full
    /// connection queue (hot-path increment, rare event).
    backpressure_parks: Counter,
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
    /// `srj_slow_requests_total` — requests captured into the slow log
    /// (hot-path increment, rare by construction).
    slow_captures: Counter,
    /// `srj_conn_open` gauge — connections registered on the event
    /// loop right now, maintained live by the loop itself.
    pub(crate) conn_open: Gauge,
    /// `srj_event_loop_wakeups_total` — poller returns (events or
    /// timer expiry), one per loop iteration.
    pub(crate) loop_wakeups: Counter,
    /// `srj_event_loop_dispatch_ns` — time spent servicing one wakeup
    /// (accepts + reads + decode + writes), excluding the wait itself.
    pub(crate) loop_dispatch: Histogram,
    /// `srj_accept_backoff_total` — accept(2) pauses after
    /// EMFILE/ENFILE fd exhaustion.
    pub(crate) accept_backoffs: Counter,
    /// `srj_worker_state_samples_total{state=...}` in
    /// [`ALL_STATES`] order — profiler mirror at scrape.
    worker_states: [Counter; 6],
}

impl ServerMetrics {
    fn register(reg: &Registry) -> Self {
        ServerMetrics {
            connections_accepted: reg.counter("srj_connections_accepted_total", &[]),
            active_connections: reg.gauge("srj_active_connections", &[]),
            cache_hits: reg.counter("srj_engine_cache_hits_total", &[]),
            cache_misses: reg.counter("srj_engine_cache_misses_total", &[]),
            backpressure_parks: reg.counter("srj_backpressure_parks_total", &[]),
            requests_shed: reg.counter("srj_requests_shed", &[]),
            rate_limited: reg.counter("srj_rate_limited", &[]),
            conn_reaped: reg.counter("srj_conn_reaped", &[]),
            handshake_rejects: reg.counter("srj_handshake_rejects_total", &[]),
            slow_captures: reg.counter("srj_slow_requests_total", &[]),
            conn_open: reg.gauge("srj_conn_open", &[]),
            loop_wakeups: reg.counter("srj_event_loop_wakeups_total", &[]),
            loop_dispatch: reg.histogram("srj_event_loop_dispatch_ns", &[]),
            accept_backoffs: reg.counter("srj_accept_backoff_total", &[]),
            worker_states: std::array::from_fn(|i| {
                reg.counter(
                    "srj_worker_state_samples_total",
                    &[("state", ALL_STATES[i].as_str())],
                )
            }),
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
    registry: HashMap<u64, Arc<ServedDataset>>,
    /// Serving-engine lookup hits/misses (a miss pays an index build).
    engine_hits: AtomicU64,
    engine_misses: AtomicU64,
    pub(crate) queue: JobQueue,
    /// Per-request serving statistics (latency histogram reused from
    /// the engine crate — one `record_query` per finished request).
    request_stats: EngineStats,
    /// This server's metrics registry (a value, not a global — tests
    /// and embedded servers never share exposition state) plus the
    /// cached typed handles.
    metrics: Registry,
    pub(crate) server_metrics: ServerMetrics,
    dataset_metrics: HashMap<u64, DatasetMetrics>,
    pub(crate) accepted: AtomicU64,
    pub(crate) active: AtomicU64,
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
    /// The time-series store, set once when the recorder starts (the
    /// recorder itself lives on [`Server`] — storing it here would arc-
    /// cycle through its snapshot closure).
    tsdb: OnceLock<Arc<SeriesStore>>,
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
        // Wake the event loop out of its poller wait so it tears the
        // connections down and exits.
        self.notify.wake();
    }

    pub(crate) fn stats_frame(&self) -> ServerStatsFrame {
        let snap = self.request_stats.snapshot();
        let mut patch_swaps = 0u64;
        let mut cells_patched = 0u64;
        let mut repairs = 0u64;
        let mut last_swap_ns = 0u64;
        let mut mu_total = 0.0f64;
        for d in self.registry.values() {
            let (p, c, rep, swap, mu) = d.cell_stats();
            patch_swaps += p;
            cells_patched += c;
            repairs += rep;
            last_swap_ns = last_swap_ns.max(swap);
            mu_total += mu;
        }
        ServerStatsFrame {
            queries: snap.queries,
            samples: snap.samples,
            iterations: snap.iterations,
            errors: snap.errors,
            mean_ns: snap.mean_latency.as_nanos().min(u128::from(u64::MAX)) as u64,
            p50_ns: snap.p50_latency.as_nanos().min(u128::from(u64::MAX)) as u64,
            p99_ns: snap.p99_latency.as_nanos().min(u128::from(u64::MAX)) as u64,
            engines_cached: self
                .registry
                .values()
                .map(|d| d.engine_count() as u64)
                .sum(),
            cache_hits: self.engine_hits.load(Ordering::Relaxed),
            cache_misses: self.engine_misses.load(Ordering::Relaxed),
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            active_connections: self.active.load(Ordering::Relaxed),
            patch_swaps,
            cells_patched,
            repairs,
            last_swap_ns,
            mu_total,
        }
    }

    /// The Prometheus text exposition behind the `METRICS` frame and
    /// `/metrics`: one mirror pass, then a render.
    pub(crate) fn metrics_text(&self) -> String {
        self.mirror_metrics();
        self.metrics.render()
    }

    /// Mirrors the engine-internal counters (maintenance rungs,
    /// rejection feedback, Σµ, epochs, connection counters, profiler
    /// state samples) into the registry so a render — or a time-series
    /// snapshot — observes current values. The hot-path metrics
    /// (requests, samples, errors, latency) are already current — they
    /// are recorded directly at request completion.
    fn mirror_metrics(&self) {
        let sm = &self.server_metrics;
        let counts = self.profiler.counts();
        for (i, c) in sm.worker_states.iter().enumerate() {
            c.store(counts[i]);
        }
        sm.connections_accepted
            .store(self.accepted.load(Ordering::Relaxed));
        sm.active_connections
            .set(self.active.load(Ordering::Relaxed) as f64);
        sm.cache_hits
            .store(self.engine_hits.load(Ordering::Relaxed));
        sm.cache_misses
            .store(self.engine_misses.load(Ordering::Relaxed));
        for (id, served) in self.registry.iter() {
            let Some(m) = self.dataset_metrics.get(id) else {
                continue;
            };
            let agg = served.maintenance_stats();
            m.rungs[0].store(agg.minor_swaps);
            m.rungs[1].store(agg.patch_swaps);
            // Major swaps split into patch swaps and full rebuilds.
            m.rungs[2].store(agg.major_swaps.saturating_sub(agg.patch_swaps));
            m.rungs[3].store(agg.repairs);
            m.rungs[4].store(agg.replans);
            m.cells_patched.store(agg.cells_patched);
            m.buffer_hits.store(agg.buffer_hits);
            m.buffer_refills.store(agg.buffer_refills);
            m.buffer_invalidations.store(agg.buffer_invalidations);
            m.rejection_iterations.store(agg.iterations);
            m.rejection_rate.set(if agg.samples == 0 {
                0.0
            } else {
                agg.iterations as f64 / agg.samples as f64
            });
            m.mu_total.set(agg.mu_total);
            // Prefer the engine-consistent epoch (taken under the same
            // snapshot as mu_total); a dataset no engine serves yet has
            // only the store's epoch to report.
            m.epoch.set(if agg.engines > 0 {
                agg.epoch as f64
            } else {
                served.store.epoch() as f64
            });
        }
    }

    /// The latency threshold slow-request capture compares against
    /// right now — the configured absolute value, or the live p99 once
    /// enough requests have been observed. `None` = capture nothing
    /// (auto mode still warming up).
    fn slow_threshold_ns(&self) -> Option<u64> {
        if self.config.slow_threshold_ns > 0 {
            return Some(self.config.slow_threshold_ns);
        }
        let snap = self.request_stats.snapshot();
        (snap.queries + snap.errors >= SLOW_AUTO_MIN_REQUESTS)
            .then(|| snap.p99_latency.as_nanos().min(u128::from(u64::MAX)) as u64)
    }

    /// Sum over every dataset's engines of re-plan escalations — the
    /// maintenance-ladder input to `/healthz`.
    fn replans_total(&self) -> u64 {
        self.registry
            .values()
            .map(|d| d.maintenance_stats().replans)
            .sum()
    }

    /// Evaluates `/healthz`: `(ready, body)`. The aggregate distress
    /// signal is the sum of the load-shed, connection-reap,
    /// handshake-reject, and engine-re-plan counters; any movement
    /// restarts the incident clock, and the server reports `degraded`
    /// until the clock outgrows the configured window.
    pub(crate) fn healthz(&self) -> (bool, String) {
        let sm = &self.server_metrics;
        let shed = sm.requests_shed.get();
        let reaped = sm.conn_reaped.get();
        let rejects = sm.handshake_rejects.get();
        let replans = self.replans_total();
        let signal = shed + reaped + rejects + replans;
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
             \"handshake_rejects\":{rejects},\"replans\":{replans},\
             \"window_ms\":{window},\"incident_age_ms\":{}}}",
            if ready { "\"ready\"" } else { "\"degraded\"" },
            match incident_age_ms {
                Some(age) => age.to_string(),
                None => "null".to_string(),
            },
        );
        (ready, body)
    }

    /// The `/vars` body: a JSON snapshot of every registered metric,
    /// the recent 1-minute time-series rollups (when the recorder is
    /// on), and the slow-log tail.
    pub(crate) fn vars_json(&self) -> String {
        use srj_obs::json::escape;
        use srj_obs::ValueSnapshot;
        self.mirror_metrics();
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
        out.push_str("],\"series\":[");
        if let Some(store) = self.tsdb.get() {
            let since = srj_obs::clock::now_ns().saturating_sub(srj_obs::timeseries::ROLLUP_5M_NS);
            for (i, (name, labels, kind)) in store.series_names().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":{},\"labels\":{},\"kind\":\"{}\",\"rollup_1m\":[",
                    escape(name),
                    escape(labels),
                    kind.as_str()
                ));
                let rollups = store.rollup(name, labels, srj_obs::timeseries::ROLLUP_1M_NS, since);
                for (j, r) in rollups.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"start_ns\":{},\"min\":{},\"max\":{},\"avg\":{},\
                         \"last\":{},\"count\":{}}}",
                        r.start_ns, r.min, r.max, r.avg, r.last, r.count
                    ));
                }
                out.push_str("]}");
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
    /// The time-series recorder thread (owned here, not on [`Shared`]:
    /// its snapshot closure holds an `Arc<Shared>`).
    recorder: Option<Recorder>,
    /// The HTTP observability listener: resolved address + thread.
    http: Option<(SocketAddr, JoinHandle<()>)>,
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
        // Tracing is a process-wide switch (the engine's instrumented
        // call sites have no server reference); the last-started
        // server's rate wins, which in practice is one server per
        // process. Slow-log capture needs every request to leave span
        // records, so it flips the always-record half of the switch.
        trace::set_sample_rate(config.trace_sample_rate);
        trace::set_always_record(config.slow_log_capacity > 0);
        // Label every store with its wire id so engine-internal
        // lifecycle events (swaps, patches, repairs, re-plans,
        // compactions) carry the dataset id clients know.
        for (id, served) in registry.map.iter() {
            served.store.set_obs_label(*id);
        }
        let metrics = Registry::new();
        let server_metrics = ServerMetrics::register(&metrics);
        let dataset_metrics = registry
            .map
            .keys()
            .map(|&id| (id, DatasetMetrics::register(&metrics, id)))
            .collect();
        let notify = Arc::new(LoopNotify::new()?);
        let shared = Arc::new(Shared {
            config,
            registry: registry.map,
            engine_hits: AtomicU64::new(0),
            engine_misses: AtomicU64::new(0),
            queue: JobQueue::new(),
            request_stats: EngineStats::new(),
            metrics,
            server_metrics,
            dataset_metrics,
            accepted: AtomicU64::new(0),
            active: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            addr: listener.local_addr()?,
            slow_log: SlowLog::new(config.slow_log_capacity),
            profiler: Profiler::new(),
            notify,
            tsdb: OnceLock::new(),
            health: Mutex::new(HealthState::default()),
        });

        let recorder = (config.timeseries_cadence_ms > 0).then(|| {
            let snap_shared = Arc::clone(&shared);
            let recorder = Recorder::start(
                Duration::from_millis(config.timeseries_cadence_ms),
                srj_obs::timeseries::DEFAULT_CAPACITY,
                move || {
                    snap_shared.mirror_metrics();
                    snap_shared.metrics.snapshot()
                },
            );
            let _ = shared.tsdb.set(recorder.store());
            recorder
        });
        let http = match config.http_port {
            Some(port) => Some(crate::http::start(Arc::clone(&shared), port)?),
            None => None,
        };

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
        // The maintainer only samples the profiler now — idle reaping
        // moved onto the event loop's sweep timer.
        let maintainer = config.profiler.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("srj-maintainer".into())
                .spawn(move || maintainer_loop(&shared))
                .expect("spawn maintainer")
        });

        Ok(Server {
            shared,
            event_loop: Some(event_loop),
            maintainer,
            workers,
            recorder,
            http,
        })
    }

    /// The HTTP observability listener's resolved address (with an
    /// OS-assigned port filled in), when one is configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(|(addr, _)| *addr)
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
        if let Some(mut recorder) = self.recorder.take() {
            recorder.stop();
        }
        if let Some((addr, handle)) = self.http.take() {
            // Wake the HTTP listener out of its blocking accept() so it
            // observes the shutdown flag.
            let _ = TcpStream::connect(addr);
            let _ = handle.join();
        }
        // The event loop observes the shutdown flag on its next wakeup
        // (begin_shutdown rang its waker), tears every connection down,
        // and exits; after the join the connection list is final.
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

// ---- admission -----------------------------------------------------------

/// Whether a new `SAMPLE` should be declined with `BUSY` instead of
/// queued: the global queue is past the high-water mark, or this
/// connection already has a request parked on a full response queue
/// (more concurrent streams cannot help a client that isn't reading).
pub(crate) fn should_shed(shared: &Arc<Shared>, conn: &Arc<ConnShared>) -> bool {
    let hw = shared.config.shed_high_water;
    if hw == 0 {
        return false;
    }
    if !conn.parked.lock().expect("parked list poisoned").is_empty() {
        return true;
    }
    shared.queue.len() >= hw
}

// ---- maintainer ------------------------------------------------------------

/// Takes one profiler sample every 50 ms until shutdown flips. Idle
/// reaping — the maintainer's other historic duty — now lives on the
/// event loop's sweep timer, so this thread only exists when the
/// profiler is on.
fn maintainer_loop(shared: &Arc<Shared>) {
    let sweep = Duration::from_millis(50);
    let mut flag = shared.shutdown_flag.lock().expect("shutdown flag poisoned");
    while !*flag {
        let (guard, _) = shared
            .shutdown_cv
            .wait_timeout(flag, sweep)
            .expect("shutdown flag poisoned");
        flag = guard;
        if *flag {
            return;
        }
        drop(flag);
        shared.profiler.sample();
        flag = shared.shutdown_flag.lock().expect("shutdown flag poisoned");
    }
}

/// Enqueues a job; when shutdown has already closed the queue, answers
/// the request with a best-effort `DONE{ShuttingDown}` instead (the
/// connection is being torn down, so a full queue just drops it).
pub(crate) fn enqueue(shared: &Arc<Shared>, job: Job) {
    let Some(mut job) = shared.queue.push(job) else {
        return;
    };
    if job.done.is_none() {
        let frame = encode_response(&Response::Done {
            req_id: job.req.req_id,
            status: RequestStatus::ShuttingDown,
            stats: RequestStats {
                samples: job.sent,
                iterations: job.iterations(),
                elapsed_ns: job.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                trace_id: job.trace_id,
            },
        });
        let _ = job.conn.try_send(frame);
        job.done = Some(RequestStatus::ShuttingDown);
    }
    finish(shared, &job, false);
}

// ---- workers -------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    let tag = shared.profiler.register();
    while let Some(job) = shared.queue.pop() {
        step(shared, job, &tag);
        tag.set(WorkerState::Idle);
    }
}

/// Outcome of flushing a job's outbox.
enum Flushed {
    /// Everything sent; the job continues.
    Clear(Job),
    /// The job parked, finished, or was dropped — it left this worker.
    Gone,
}

/// Sends queued frames until the outbox is empty or the connection's
/// queue is full. Full ⇒ park on the connection (with a kick so the
/// event loop always notices); disconnected ⇒ drop; empty + done ⇒
/// finish.
fn flush_outbox(shared: &Arc<Shared>, mut job: Job, tag: &StateTag) -> Flushed {
    while let Some(frame) = job.outbox.pop_front() {
        match job.conn.try_send(frame) {
            Ok(()) => {}
            Err(SendError::Full(frame)) => {
                job.outbox.push_front(frame);
                if job.conn.closed.load(Ordering::Acquire) {
                    finish(shared, &job, false);
                    return Flushed::Gone;
                }
                // The client stopped reading and its window filled:
                // the request parks on its connection. A rare
                // control-plane condition, so it goes to the journal
                // (and the park counter) rather than the trace ring.
                tag.set(WorkerState::Park);
                let peer = job.conn.peer.clone();
                shared.server_metrics.backpressure_parks.inc();
                srj_obs::journal::event(EventKind::BackpressurePark)
                    .dataset(job.record.then_some(job.req.dataset))
                    .label(peer)
                    .emit();
                trace::event("batch_write", "park");
                let conn = Arc::clone(&job.conn);
                conn.parked.lock().expect("parked list poisoned").push(job);
                // The park happens-before this kick; the event loop
                // re-examines the parking lot on every dirty mark and
                // after every socket write, so either the kick lands
                // (loop will see the job) or the out-queue is still
                // draining (loop will pop a frame and see the job).
                conn.kick();
                if conn.closed.load(Ordering::Acquire) {
                    // The connection tore down (and drained the lot)
                    // between our closed-check above and the park:
                    // nobody will ever re-queue what we just parked —
                    // reclaim it.
                    let stranded: Vec<Job> = conn
                        .parked
                        .lock()
                        .expect("parked list poisoned")
                        .drain(..)
                        .collect();
                    for job in &stranded {
                        finish(shared, job, false);
                    }
                }
                return Flushed::Gone;
            }
            Err(SendError::Disconnected) => {
                finish(shared, &job, false);
                return Flushed::Gone;
            }
        }
    }
    if job.done.is_some() {
        finish(shared, &job, true);
        return Flushed::Gone;
    }
    Flushed::Clear(job)
}

/// Records an *abandoned* request (client gone before its `DONE` was
/// produced) into the server stats. Normally finished requests are
/// recorded in [`push_done`] instead — before their `DONE` frame can
/// reach the client — so a `STATS` request issued right after a `DONE`
/// always observes the request it followed.
pub(crate) fn finish(shared: &Arc<Shared>, job: &Job, _delivered: bool) {
    if !job.record {
        return;
    }
    shared
        .request_stats
        .record_error(job.iterations(), job.started.elapsed());
    if let Some(m) = shared.dataset_metrics.get(&job.req.dataset) {
        m.requests.inc();
        m.errors.inc();
        m.latency.observe_duration(job.started.elapsed());
    }
}

/// One worker step: flush, produce at most one batch, flush, requeue.
fn step(shared: &Arc<Shared>, mut job: Job, tag: &StateTag) {
    // Make the job's span id current for everything this step does —
    // including the engine-internal draw-loop events, which only see
    // the thread-local id.
    let _trace = trace::set_current(job.span_id);
    if job.queue_wait.is_none() {
        job.queue_wait = Some(job.started.elapsed());
    }
    tag.set(WorkerState::Write);
    let mut job = match flush_outbox(shared, job, tag) {
        Flushed::Clear(job) => job,
        Flushed::Gone => return,
    };

    match &mut job.state {
        JobState::Acquire => {
            tag.set(WorkerState::Acquire);
            trace::event("acquire", "begin");
            match acquire_handle(shared, &job.req) {
                Ok(handle) => {
                    trace::event("acquire", "handle_ready");
                    job.state = JobState::Stream(Box::new(handle));
                    tag.set(WorkerState::Draw);
                    produce_batch(shared, &mut job);
                }
                Err(status) => {
                    trace::event("acquire", "failed");
                    push_done(shared, &mut job, status);
                }
            }
        }
        JobState::Stream(_) => {
            tag.set(WorkerState::Draw);
            produce_batch(shared, &mut job);
        }
        // Respond jobs carry only pre-encoded frames; with the outbox
        // clear they are finished by flush_outbox, never reach here.
        JobState::Respond => {}
    }

    tag.set(WorkerState::Write);
    if let Flushed::Clear(job) = flush_outbox(shared, job, tag) {
        enqueue(shared, job);
    }
}

/// Engine acquisition via the per-dataset epoch-engine map: the
/// expensive index build happens at most once per
/// `(dataset, l, shards, algorithm)` shape across all requests and
/// connections; every request then gets its own O(1) serving handle.
/// The handle acquisition is also where pending mutations are folded
/// in — `EpochEngine::handle` refreshes the swap cell first, so a
/// mutated dataset is never served from a stale index, while requests
/// already streaming keep their pinned epoch.
fn acquire_handle(
    shared: &Arc<Shared>,
    req: &SampleRequest,
) -> Result<SamplerHandle, RequestStatus> {
    let served = shared
        .registry
        .get(&req.dataset)
        .ok_or(RequestStatus::UnknownDataset)?;
    let shards = (req.shards.max(1) as usize).min(srj_core::parallel::MAX_THREADS);
    let config = SampleConfig::new(req.l).with_build_threads(shared.config.build_threads);
    let key = EngineKey {
        l_bits: req.l.to_bits(),
        shards,
        algorithm: req.algorithm,
    };
    let engine = served.engine_for(
        key,
        shared.config.cache_capacity,
        || {
            let epoch_cfg = EpochConfig {
                shards,
                algorithm: req.algorithm,
                ..shared.config.epoch
            };
            let engine = EpochEngine::with_store(Arc::clone(&served.store), &config, epoch_cfg);
            engine.set_buffers_enabled(shared.config.buffers);
            engine
        },
        &shared.engine_hits,
        &shared.engine_misses,
    );
    Ok(if req.seed != 0 {
        engine.handle_seeded(req.seed)
    } else {
        engine.handle()
    })
}

/// Applies an `INSERT` to the dataset's store — one atomic batch, so
/// the answered `first_id..first_id+applied` range and epoch are
/// consistent even while other connections mutate (or a refresh
/// compacts) concurrently. O(|points|); the serving engines fold the
/// new delta in on their next handle acquisition.
pub(crate) fn apply_insert(
    shared: &Arc<Shared>,
    dataset: u64,
    side: Side,
    points: &[Point],
) -> Result<UpdateStats, RequestStatus> {
    let served = shared
        .registry
        .get(&dataset)
        .ok_or(RequestStatus::UnknownDataset)?;
    let applied = match side {
        Side::R => served.store.insert_r_batch(points),
        Side::S => served.store.insert_s_batch(points),
    };
    Ok(UpdateStats {
        first_id: applied.first_id,
        applied: applied.applied,
        epoch: applied.epoch,
        version: applied.version,
    })
}

/// Applies a `DELETE` as one atomic batch; unknown or
/// already-tombstoned ids are skipped (not counted in `applied`), so
/// deletes are idempotent over the wire.
pub(crate) fn apply_delete(
    shared: &Arc<Shared>,
    dataset: u64,
    side: Side,
    ids: &[u32],
) -> Result<UpdateStats, RequestStatus> {
    let served = shared
        .registry
        .get(&dataset)
        .ok_or(RequestStatus::UnknownDataset)?;
    let applied = match side {
        Side::R => served.store.delete_r_batch(ids),
        Side::S => served.store.delete_s_batch(ids),
    };
    Ok(UpdateStats {
        first_id: 0,
        applied: applied.applied,
        epoch: applied.epoch,
        version: applied.version,
    })
}

/// Answers an `EPOCH` query from the store's counters.
pub(crate) fn epoch_info(shared: &Arc<Shared>, dataset: u64) -> Result<EpochInfo, RequestStatus> {
    let served = shared
        .registry
        .get(&dataset)
        .ok_or(RequestStatus::UnknownDataset)?;
    let store = &served.store;
    Ok(EpochInfo {
        epoch: store.epoch(),
        version: store.version(),
        live_r: store.live_r_len() as u64,
        live_s: store.live_s_len() as u64,
        pending_ops: store.pending_ops() as u64,
        last_swap_ns: served.last_swap_ns(),
    })
}

/// Draws one batch through the job's handle into a `BATCH` frame, plus
/// the `DONE` frame when the request completes or errors.
fn produce_batch(shared: &Arc<Shared>, job: &mut Job) {
    let JobState::Stream(handle) = &mut job.state else {
        unreachable!("produce_batch on a non-streaming job");
    };
    let remaining = job.req.t.saturating_sub(job.sent);
    let batch = remaining.min(shared.config.batch_pairs as u64) as usize;
    trace::event("draw_loop", "batch_begin");
    let (pairs, error) = if shared.config.buffers {
        // Buffered fast path: the whole batch is drawn with the
        // handle's concrete RNG (no per-draw virtual dispatch), hot
        // cells serve from pre-drawn buffers, and the engine records
        // one query per batch. An error forfeits the batch's partial
        // draws — the DONE status carries the error either way.
        match handle.sample_batch(batch) {
            Ok(pairs) => (pairs, None),
            Err(e) => (Vec::new(), Some(e)),
        }
    } else {
        let mut stream = handle.stream();
        let pairs: Vec<JoinPair> = stream.by_ref().take(batch).collect();
        let error = stream.error();
        drop(stream);
        (pairs, error)
    };
    trace::event("draw_loop", "batch_end");
    job.sent += pairs.len() as u64;
    if !pairs.is_empty() {
        job.outbox.push_back(encode_response(&Response::Batch {
            req_id: job.req.req_id,
            pairs,
        }));
        trace::event("batch_write", "batch_enqueued");
    }
    match error {
        Some(SampleError::EmptyJoin) => push_done(shared, job, RequestStatus::EmptyJoin),
        Some(SampleError::RejectionLimit) => push_done(shared, job, RequestStatus::RejectionLimit),
        None if job.sent >= job.req.t => push_done(shared, job, RequestStatus::Ok),
        None => {} // more batches to come
    }
}

fn push_done(shared: &Arc<Shared>, job: &mut Job, status: RequestStatus) {
    let iterations = job.iterations();
    let elapsed = job.started.elapsed();
    maybe_capture_slow(shared, job, iterations, elapsed);
    if job.record {
        // Record now, not at delivery: the DONE frame below reaches the
        // client strictly after this, so a follow-up STATS request can
        // never miss the request it chases.
        if status == RequestStatus::Ok {
            shared
                .request_stats
                .record_query(job.sent, iterations, elapsed);
        } else {
            shared.request_stats.record_error(iterations, elapsed);
        }
        // The per-dataset exposition counters (cached typed handles —
        // a few relaxed fetch_adds).
        if let Some(m) = shared.dataset_metrics.get(&job.req.dataset) {
            m.requests.inc();
            m.samples.add(job.sent);
            if status != RequestStatus::Ok {
                m.errors.inc();
            }
            m.latency.observe_duration(elapsed);
        }
        job.record = false;
    }
    job.outbox.push_back(encode_response(&Response::Done {
        req_id: job.req.req_id,
        status,
        stats: RequestStats {
            samples: job.sent,
            iterations,
            elapsed_ns: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
            trace_id: job.trace_id,
        },
    }));
    job.done = Some(status);
    trace::event("batch_write", "done_enqueued");
}

/// Tail-based slow-request capture: when a finished request breached
/// the latency threshold, snapshot its span tree (still in the rings —
/// the capture races only ring wraparound, not a sampling decision)
/// plus the request context into the bounded slow log.
fn maybe_capture_slow(shared: &Arc<Shared>, job: &Job, iterations: u64, elapsed: Duration) {
    if !shared.slow_log.enabled() || job.span_id == 0 {
        return;
    }
    let elapsed_ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    let Some(threshold) = shared.slow_threshold_ns() else {
        return;
    };
    if elapsed_ns < threshold {
        return;
    }
    let mut spans = SlowEntry::capture_spans(job.span_id);
    spans.truncate(SLOWLOG_MAX_SPANS);
    let epoch = shared
        .registry
        .get(&job.req.dataset)
        .map(|d| d.store.epoch())
        .unwrap_or(0);
    shared.server_metrics.slow_captures.inc();
    shared.slow_log.record(SlowEntry {
        trace_id: job.span_id,
        finished_ns: srj_obs::clock::now_ns(),
        dataset: job.req.dataset,
        t: job.req.t,
        algorithm: algorithm_name(job.req.algorithm).to_string(),
        epoch,
        iterations,
        queue_wait_ns: job
            .queue_wait
            .unwrap_or_default()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64,
        elapsed_ns,
        spans,
    });
}

/// Stable lower-case algorithm name for slow-log context (`auto` =
/// the planner chose).
fn algorithm_name(a: Option<srj_engine::Algorithm>) -> &'static str {
    match a {
        None => "auto",
        Some(srj_engine::Algorithm::Kds) => "kds",
        Some(srj_engine::Algorithm::KdsRejection) => "kds_rejection",
        Some(srj_engine::Algorithm::Bbst) => "bbst",
    }
}

/// Converts a retained [`SlowEntry`] into its wire form.
pub(crate) fn slow_entry_to_wire(e: SlowEntry) -> SlowLogEntry {
    SlowLogEntry {
        trace_id: e.trace_id,
        finished_ns: e.finished_ns,
        dataset: e.dataset,
        t: e.t,
        algorithm: e.algorithm,
        epoch: e.epoch,
        iterations: e.iterations,
        queue_wait_ns: e.queue_wait_ns,
        elapsed_ns: e.elapsed_ns,
        spans: e
            .spans
            .into_iter()
            .map(|s| TraceSpan {
                ns: s.ns,
                span: s.span,
                event: s.event,
            })
            .collect(),
    }
}
