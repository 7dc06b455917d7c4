//! The readiness-based connection layer: one thread, every socket.
//!
//! This module replaces the thread-per-connection reader/writer pair
//! with a single event-loop thread that owns the listener, every
//! connection socket (all nonblocking), an epoll [`Poller`], and a
//! [`TimerWheel`] carrying every deadline the old layer expressed
//! through blocking-socket timeouts:
//!
//! * **Handshake deadline** — a fresh connection that produces no
//!   `HELLO` inside `handshake_timeout` is dropped silently.
//! * **Read deadline** — a peer that stalls *mid-frame* past
//!   `read_timeout` is disconnected (idleness *between* frames is the
//!   idle sweep's business).
//! * **Write deadline** — a peer whose receive window stays closed
//!   past `write_timeout` while the server has bytes to deliver is
//!   disconnected.
//! * **Idle sweep** — connections quiet past `idle_timeout` with no
//!   in-flight work are reaped (journaled as `ConnReaped`), on a
//!   sweep that runs at half the deadline, clamped to [10 ms, 500 ms].
//! * **Fault timers** — the chaos plan's read delays and split writes
//!   become wheel entries instead of `thread::sleep`s, preserving the
//!   same deterministic per-connection fault schedules.
//!
//! **Decode.** Bytes from a readable socket land in a
//! [`FrameAccumulator`]; every complete frame passes the handshake gate
//! and the chaos plan's frame faults, then one admission step
//! ([`Conn::admit`] over the table in [`admission`]: request bucket →
//! mutation bucket → forced `BUSY` → load shedding), which answers
//! `BUSY` for whatever it declines. What passes is answered where that
//! is cheapest: one `match` builds the answer to every kind but
//! `SAMPLE` — mutations applied, control answers (`UPDATE`, `EPOCH`,
//! `STATS`, `METRICS`, `SLOWLOG`) built — and one [`answer`]
//! delivers it, written by the loop itself unless the connection has
//! work with the workers, in which case it queues behind it as a job.
//! A `SAMPLE` is served here too — [`crate::exec::advance`], the same
//! function a worker steps — when all five conditions listed in
//! `crate::server`'s docs hold: engine cached, no maintenance due,
//! predicted cost within [`INLINE_BUDGET_NS`], a quiet connection, and
//! budget left in this pass. Anything else is a job for the pool.
//! Partial frames simply stay buffered until the next readable event —
//! no thread ever blocks mid-frame, and the loop never builds an
//! index, runs a swap, or waits for a lock a swap holds.
//!
//! **Flush.** Responses land in the connection's bounded out-queue —
//! pushed by the loop for its own answers, by workers through
//! [`ConnShared::try_send`] — and the loop drains it to the socket
//! through a write buffer that survives partial writes. Everything
//! queued leaves in one `write(2)`: small frames are copied together
//! (an inline answer's `BATCH` + `DONE` is one syscall), a frame too
//! large to be worth copying goes out as it is. Only a connection with
//! a writer-side fault schedule is flushed frame by frame, so a chaos
//! seed draws its truncations and split writes in the order it always
//! did; both are a cut in the same write loop — half the frame goes
//! out, then the connection dies or the write gates for 1 ms. Bytes
//! that stop moving either way meet one stall deadline
//! ([`EventLoop::check_stall`]). A full out-queue parks the job on its
//! connection (exactly the old backpressure handshake) *and* pauses
//! frame decode for that connection, so the loop's own answers stay
//! bounded and a flooding client is throttled by its own TCP window.
//!
//! **fd exhaustion.** An `accept(2)` failing with EMFILE/ENFILE
//! pauses accepting (the listener is deregistered so readiness does
//! not spin), journals an `AcceptBackoff`, and retries on an
//! exponential timer (10 ms doubling to 500 ms); a successful accept
//! resets the backoff.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use srj_net::{Event, Interest, Poller, TimerWheel, Waker};
use srj_obs::journal::EventKind;
use srj_obs::{StateTag, WorkerState};

use crate::exec::{advance, Acquire, Progress, SampleRun, INLINE_BUDGET_NS};
use crate::fault::FaultRng;
use crate::protocol::{
    decode_request, encode_response, ErrorCode, FrameAccumulator, ProtocolError, Request,
    RequestStats, RequestStatus, Response, SampleRequest, PROTOCOL_VERSION, SERVER_FEATURES,
};
use crate::server::{
    timeout_opt, ServedDataset, Shared, FAULT_ROLE_READER, FAULT_ROLE_WRITER, SLOWLOG_MAX_ENTRIES,
};
use crate::worker::{enqueue, ConnShared, Job};

/// Poller token of the cross-thread waker pipe.
const TOKEN_WAKER: u64 = u64::MAX;
/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Most bytes read from one socket per service pass, so one firehose
/// connection cannot starve the rest of the loop.
const READ_BURST_LIMIT: usize = 256 * 1024;
/// Bytes asked of the socket per `read(2)`.
const READ_CHUNK: usize = 16 * 1024;

/// First accept-backoff interval after fd exhaustion; doubles per
/// consecutive failure up to [`ACCEPT_BACKOFF_MAX`].
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

// ---- cross-thread doorbell -------------------------------------------------

/// How other threads reach the event loop: a dirty-connection list
/// plus a [`Waker`] pipe that interrupts [`Poller::wait`]. Workers
/// ring it once per step — after the frames they queued, after a park,
/// when a job ends; shutdown rings it with no dirty mark at all.
///
/// The pipe is written only by the mark that finds the list empty:
/// every later mark rides on that wake-up. The list's mutex orders
/// this against the loop — a mark either lands before
/// [`LoopNotify::drain`] takes the list (and is serviced by that pass)
/// or finds the list empty afterwards (and writes the pipe) — provided
/// the loop reads the pipe *before* it takes the list, which
/// [`EventLoop::run`] does: a byte can then be left over for a mark
/// already serviced (one idle pass), never missing for one that was
/// not.
pub(crate) struct LoopNotify {
    dirty: Mutex<Vec<u64>>,
    waker: Waker,
}

impl LoopNotify {
    pub(crate) fn new() -> io::Result<LoopNotify> {
        Ok(LoopNotify {
            dirty: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    /// Marks connection `id` dirty (flush / unpark / teardown checks
    /// pending) and makes sure the loop wakes. A mark equal to the last
    /// one still pending changes nothing and is skipped.
    pub(crate) fn mark_dirty(&self, id: u64) {
        let first = {
            let mut dirty = self.dirty.lock().expect("dirty list poisoned");
            if dirty.last() == Some(&id) {
                return;
            }
            dirty.push(id);
            dirty.len() == 1
        };
        if first {
            self.waker.wake();
        }
    }

    /// Wakes the loop with nothing marked — shutdown's knock.
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    fn drain(&self, into: &mut Vec<u64>) {
        into.append(&mut self.dirty.lock().expect("dirty list poisoned"));
    }

    fn waker_fd(&self) -> RawFd {
        self.waker.fd()
    }

    fn drain_waker(&self) {
        self.waker.drain();
    }
}

// ---- timers ----------------------------------------------------------------

/// Per-connection timer kinds. The wheel has no cancellation; a fired
/// key is validated against current connection state and stale fires
/// are ignored (ids are never reused, so a key can never alias a
/// newer connection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnTimer {
    /// `handshake_timeout` — no HELLO yet.
    Handshake,
    /// `read_timeout` / `write_timeout` — a mid-frame read stall, or a
    /// write stall with bytes pending.
    Stall(Dir),
    /// Chaos `delay_read_ms` elapsed; dispatch the held frame.
    ResumeRead,
    /// Chaos split-write gap elapsed; resume flushing.
    WriteGate,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimerKey {
    Conn(u64, ConnTimer),
    /// Idle-reap / housekeeping sweep, always armed.
    Sweep,
    /// Retry `accept(2)` after fd-exhaustion backoff.
    AcceptResume,
}

/// A direction of a connection's byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Read,
    Write,
}

/// One direction's stall clock (see [`EventLoop::check_stall`]).
#[derive(Clone, Copy)]
struct Stall {
    /// When bytes last moved.
    since: Instant,
    /// A deadline is pending on the wheel.
    armed: bool,
}

// ---- per-connection loop state ---------------------------------------------

/// The loop-local half of one connection: the nonblocking socket, the
/// incremental decoder, the write buffer, and the state-machine flags
/// that replace what used to be implicit in two blocked threads.
struct Conn {
    shared: Arc<ConnShared>,
    sock: TcpStream,
    /// Incremental frame decoder; partial frames persist across
    /// readable events.
    acc: FrameAccumulator,
    /// The frame currently draining to the socket (`wb_pos` bytes
    /// already written).
    wb: Vec<u8>,
    wb_pos: usize,
    /// HELLO/WELCOME completed.
    established: bool,
    /// Stop reading the socket (peer EOF, read error, or a protocol
    /// violation); buffered work still flushes out before teardown.
    eof: bool,
    /// Stop decoding buffered frames (post-reject / post-bad-frame):
    /// whatever is in `acc` is never interpreted.
    discard: bool,
    /// Chaos schedules, deterministic per connection id — same
    /// streams, same draw order as the old reader/writer threads.
    reader_rng: Option<FaultRng>,
    writer_rng: Option<FaultRng>,
    req_bucket: Option<TokenBucket>,
    mut_bucket: Option<TokenBucket>,
    /// A decoded frame held back by an injected read delay, plus the
    /// pre-drawn drop-connection decision that follows it.
    pending: Option<(Vec<u8>, bool)>,
    /// While set, reading and decoding pause (injected read delay).
    resume_at: Option<Instant>,
    /// While set, flushing pauses (injected split write).
    write_gate: Option<Instant>,
    /// Stall clocks, indexed by [`Dir`].
    stalls: [Stall; 2],
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    /// Bytes queued for the socket but not yet written.
    fn write_pending(&self) -> bool {
        self.wb_pos < self.wb.len()
    }

    /// Whether the connection waits on its peer in `dir`: mid-frame on
    /// a live read side, or with bytes left to write.
    fn stalled(&self, dir: Dir) -> bool {
        match dir {
            Dir::Read => self.acc.has_partial() && !self.eof,
            Dir::Write => self.write_pending(),
        }
    }

    /// Bytes moved in `dir`: its stall clock restarts.
    fn moved(&mut self, dir: Dir) {
        self.stalls[dir as usize].since = Instant::now();
    }

    /// The one admission step: `req`'s row of the [`admission`] table,
    /// checked against this connection's buckets and fault schedule and
    /// the server's load. `Some((req_id, retry_after_ms))` is the `BUSY`
    /// that declines it.
    fn admit(&mut self, shared: &Shared, req: &Request) -> Option<(u32, u32)> {
        let (req_id, mutation, fault, shed) = admission(req)?;
        let plan = &shared.config.fault_plan;
        let throttled = |bucket: &mut Option<TokenBucket>| {
            let ms = bucket.as_mut()?.admit()?;
            shared.server_metrics.rate_limited.inc();
            Some(ms)
        };
        let retry_after_ms = throttled(&mut self.req_bucket)
            .or_else(|| mutation.then(|| throttled(&mut self.mut_bucket))?)
            .or_else(|| {
                let rng = self.reader_rng.as_mut().filter(|_| fault)?;
                rng.fires(plan.busy_prob)
                    .then_some(plan.busy_retry_after_ms)
            })
            .or_else(|| {
                let dataset = shed.filter(|_| should_shed(shared, &self.shared))?;
                shared.server_metrics.requests_shed.inc();
                srj_obs::journal::event(EventKind::LoadShed)
                    .dataset(Some(dataset))
                    .label(self.shared.peer.clone())
                    .emit();
                Some(SHED_RETRY_MS)
            })?;
        Some((req_id, retry_after_ms))
    }
}

// ---- admission -------------------------------------------------------------

/// A token bucket: `rate` tokens/second, burst capacity of one
/// second's budget, starting full.
struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// `None` when `rps` is zero (unlimited).
    fn new(rps: u32) -> Option<TokenBucket> {
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
    fn admit(&mut self) -> Option<u32> {
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

/// `retry_after_ms` suggested on load-shed `BUSY` answers: long enough
/// for a worker step to drain queue headroom, short enough that a
/// shed client re-offers while the burst is still being absorbed.
const SHED_RETRY_MS: u32 = 50;

/// The admission table, keyed by request kind. A row is the id a
/// `BUSY` echoes (the request's own, 0 for a kind that carries none)
/// and what the kind pays besides the request bucket: the mutation
/// bucket, the fault plan's forced-`BUSY` draw on the reader stream,
/// and shedding under load (journaled under the dataset). The checks
/// run in that order, after the request bucket. `HELLO`, `PING` and
/// `SHUTDOWN` are exempt: a handshake, a keepalive and the off switch
/// must answer even (especially) under load.
fn admission(req: &Request) -> Option<(u32, bool, bool, Option<u64>)> {
    Some(match *req {
        Request::Hello { .. } | Request::Ping { .. } | Request::Shutdown => return None,
        Request::Stats | Request::Metrics | Request::SlowLog { .. } => (0, false, false, None),
        Request::Epoch { req_id, .. } => (req_id, false, false, None),
        Request::Insert { req_id, .. } | Request::Delete { req_id, .. } => {
            (req_id, true, true, None)
        }
        Request::Sample(s) => (s.req_id, false, true, Some(s.dataset)),
    })
}

/// Whether a new `SAMPLE` should be declined with `BUSY` instead of
/// served: the global queue is past the high-water mark, or this
/// connection already has a request parked on a full response queue
/// (more concurrent streams cannot help a client that isn't reading).
fn should_shed(shared: &Shared, conn: &ConnShared) -> bool {
    let hw = shared.config.shed_high_water;
    hw != 0
        && (!conn.parked.lock().expect("parked list poisoned").is_empty()
            || shared.queue.len() >= hw)
}

/// Delivers an answer the loop built. A handshake answer, a keepalive
/// and a `BUSY` go straight to the out-queue: their job is to answer
/// even (especially) under load. Anything else the loop writes itself
/// when none of the connection's work is with the workers and its queue
/// has room; behind in-flight work it rides a job instead, so it cannot
/// overtake that work and the park/unpark handshake stays the workers'
/// alone.
fn answer(shared: &Shared, cs: &Arc<ConnShared>, response: Response) {
    let direct = matches!(
        response,
        Response::Welcome { .. }
            | Response::Error { .. }
            | Response::Pong { .. }
            | Response::Busy { .. }
    );
    let frame = encode_response(&response);
    if direct || (cs.no_jobs() && cs.out_has_room()) {
        cs.push_direct(frame);
    } else {
        enqueue(shared, Job::respond(frame, Arc::clone(cs)));
    }
}

/// An answer's status and body: `Ok` with the value, or the refusal with
/// an empty body.
fn settle<T: Default>(result: Result<T, RequestStatus>) -> (RequestStatus, T) {
    match result {
        Ok(value) => (RequestStatus::Ok, value),
        Err(status) => (status, T::default()),
    }
}

// ---- the loop --------------------------------------------------------------

pub(crate) struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    /// The next accepted connection's id (its poller token).
    next_conn_id: u64,
    wheel: TimerWheel<TimerKey>,
    sweep_interval: Duration,
    accept_paused: bool,
    accept_backoff: Duration,
    /// This thread's profiler tag: `Decode` while servicing, `Acquire`
    /// / `Draw` while it serves a request inline.
    tag: Arc<StateTag>,
    /// Scratch for socket reads, shared by every connection's pass.
    read_buf: Vec<u8>,
    /// Nanoseconds this pass has spent serving `SAMPLE`s inline, over
    /// all connections; reset each pass, capped by
    /// [`INLINE_BUDGET_NS`].
    inline_spent_ns: u64,
}

impl EventLoop {
    /// Builds the loop: nonblocking listener, poller with the waker
    /// and listener registered, sweep timer armed. Runs on the caller
    /// so setup errors surface from [`Server::start`].
    pub(crate) fn new(listener: TcpListener, shared: Arc<Shared>) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(shared.notify.waker_fd(), TOKEN_WAKER, Interest::READ)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let idle = shared.config.idle_timeout;
        let sweep_interval = if idle.is_zero() {
            Duration::from_millis(500)
        } else {
            (idle / 2).clamp(Duration::from_millis(10), Duration::from_millis(500))
        };
        let mut wheel = TimerWheel::new(Duration::from_millis(1), 512);
        wheel.schedule(Instant::now() + sweep_interval, TimerKey::Sweep);
        let tag = shared.profiler.register();
        Ok(EventLoop {
            shared,
            poller,
            listener,
            conns: HashMap::new(),
            next_conn_id: 0,
            wheel,
            sweep_interval,
            accept_paused: false,
            accept_backoff: Duration::ZERO,
            tag,
            read_buf: vec![0u8; READ_CHUNK],
            inline_spent_ns: 0,
        })
    }

    /// The loop body: fire due timers, wait for readiness, dispatch.
    /// Exits when shutdown flips, tearing every connection down.
    pub(crate) fn run(&mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut fired: Vec<TimerKey> = Vec::new();
        let mut dirty: Vec<u64> = Vec::new();
        loop {
            if self.shared.is_shutting_down() {
                break;
            }
            self.inline_spent_ns = 0;
            let now = Instant::now();
            self.wheel.advance(now, &mut fired);
            for key in fired.drain(..) {
                self.fire_timer(key);
            }
            if self.shared.is_shutting_down() {
                break;
            }
            let timeout = self.wheel.next_timeout(Instant::now());
            self.tag.set(WorkerState::Idle);
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            let t0 = Instant::now();
            self.tag.set(WorkerState::Decode);
            self.shared.server_metrics.loop_wakeups.inc();
            for ev in events.iter().copied() {
                if ev.token == TOKEN_WAKER {
                    self.shared.notify.drain_waker();
                } else if ev.token == TOKEN_LISTENER {
                    self.accept_burst();
                } else {
                    self.service_conn(ev.token);
                }
            }
            // Dirty marks from workers (responses queued, jobs parked
            // or finished) — drained every pass, whether or not the
            // waker event itself was observed this pass, and always
            // after the pipe was read above (see [`LoopNotify`]).
            self.shared.notify.drain(&mut dirty);
            dirty.sort_unstable();
            dirty.dedup();
            for id in dirty.drain(..) {
                self.service_conn(id);
            }
            let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.shared.server_metrics.loop_dispatch.observe(ns);
        }
        self.teardown_all();
    }

    // ---- accept ----------------------------------------------------------

    fn accept_burst(&mut self) {
        if self.accept_paused {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.shared.is_shutting_down() {
                        return;
                    }
                    self.accept_backoff = Duration::ZERO;
                    self.register_conn(stream, peer.to_string());
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE (24) / ENFILE (23): the process or system fd
                // table is full. Accepting again immediately would
                // spin at 100% CPU; stop listening and retry on an
                // exponential backoff instead.
                Err(ref e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                    self.pause_accept(e);
                    return;
                }
                Err(_) => return,
            }
        }
    }

    fn pause_accept(&mut self, err: &io::Error) {
        self.accept_paused = true;
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        self.accept_backoff = if self.accept_backoff.is_zero() {
            ACCEPT_BACKOFF_MIN
        } else {
            (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX)
        };
        self.shared.server_metrics.accept_backoffs.inc();
        srj_obs::journal::event(EventKind::AcceptBackoff)
            .label(err.to_string())
            .duration_ns(self.accept_backoff.as_nanos().min(u128::from(u64::MAX)) as u64)
            .emit();
        self.wheel
            .schedule(Instant::now() + self.accept_backoff, TimerKey::AcceptResume);
    }

    fn resume_accept(&mut self) {
        if !self.accept_paused {
            return;
        }
        self.accept_paused = false;
        if self
            .poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
        {
            // Re-registration itself needs an fd table slot on some
            // backends; treat it as still-exhausted and back off again.
            self.accept_paused = true;
            self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
            self.wheel
                .schedule(Instant::now() + self.accept_backoff, TimerKey::AcceptResume);
            return;
        }
        // Connections may have queued while paused; serve them now
        // rather than waiting for the next readiness edge.
        self.accept_burst();
    }

    fn register_conn(&mut self, stream: TcpStream, peer: String) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let Ok(shutdown_clone) = stream.try_clone() else {
            return; // clone failure: drop the connection
        };
        let config = &self.shared.config;
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.shared.server_metrics.connections_accepted.inc();
        let cs = Arc::new(ConnShared::new(
            id,
            shutdown_clone,
            peer,
            config.queue_frames,
            Arc::clone(&self.shared.notify),
        ));
        if self
            .poller
            .register(stream.as_raw_fd(), id, Interest::READ)
            .is_err()
        {
            return;
        }
        self.shared.active.fetch_add(1, Ordering::Relaxed);
        {
            // Opportunistically forget closed connections so a
            // long-lived server's bookkeeping doesn't grow unbounded.
            let mut conns = self.shared.conns.lock().expect("conn list poisoned");
            conns.retain(|c| !c.closed.load(Ordering::Acquire));
            conns.push(Arc::clone(&cs));
        }
        let plan = config.fault_plan;
        let now = Instant::now();
        let conn = Conn {
            shared: cs,
            sock: stream,
            acc: FrameAccumulator::new(),
            wb: Vec::new(),
            wb_pos: 0,
            established: false,
            eof: false,
            discard: false,
            reader_rng: plan
                .is_active()
                .then(|| plan.rng_for(id, FAULT_ROLE_READER)),
            writer_rng: plan
                .is_active()
                .then(|| plan.rng_for(id, FAULT_ROLE_WRITER)),
            req_bucket: TokenBucket::new(config.rate_limit_rps),
            mut_bucket: TokenBucket::new(config.mutation_rate_limit_rps),
            pending: None,
            resume_at: None,
            write_gate: None,
            stalls: [Stall {
                since: now,
                armed: false,
            }; 2],
            interest: Interest::READ,
        };
        if let Some(d) = timeout_opt(config.handshake_timeout) {
            self.wheel
                .schedule(now + d, TimerKey::Conn(id, ConnTimer::Handshake));
        }
        self.conns.insert(id, conn);
    }

    // ---- the per-connection service pass ---------------------------------

    /// One full service pass: flush what is writable (freeing
    /// out-queue room), read what is readable, decode and dispatch
    /// complete frames, re-activate parked jobs, flush the answers,
    /// then reconcile timers, poller interest, and liveness.
    ///
    /// Decoding stops at a full out-queue. When the last flush then frees
    /// room with frames still buffered, the connection marks itself
    /// dirty: they were read already, so no socket event would bring the
    /// loop back for them. It is serviced again after the connections
    /// already waiting, so one pass decodes at most a queue's worth.
    ///
    /// Order matters for shed determinism: frames decode *before*
    /// parked jobs re-enqueue, so a `SAMPLE` arriving on a
    /// backpressured connection observes the parked job and sheds —
    /// exactly when the old blocking reader would have.
    fn service_conn(&mut self, id: u64) {
        if !self.conns.contains_key(&id) {
            return;
        }
        self.flush_conn(id);
        self.read_conn(id);
        let more = self.process_frames(id);
        self.unpark_if_room(id);
        self.flush_conn(id);
        if more && self.conns.get(&id).is_some_and(|c| c.shared.out_has_room()) {
            self.shared.notify.mark_dirty(id);
        }
        self.check_stall(id, Dir::Read, false);
        self.check_stall(id, Dir::Write, false);
        self.update_interest(id);
        self.maybe_teardown(id);
    }

    /// Reads the socket into the frame accumulator, bounded per pass.
    /// Reading pauses while an injected delay holds a frame or the
    /// out-queue is at capacity (backpressure reaches the peer's TCP
    /// window).
    fn read_conn(&mut self, id: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.eof || conn.resume_at.is_some() || !conn.shared.out_has_room() {
                return;
            }
            let buf = &mut self.read_buf[..];
            let mut total = 0usize;
            loop {
                match (&conn.sock).read(buf) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.acc.extend(&buf[..n]);
                        conn.moved(Dir::Read);
                        total += n;
                        if n < buf.len() || total >= READ_BURST_LIMIT {
                            break;
                        }
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.teardown(id);
        }
    }

    /// Decodes and dispatches every complete buffered frame, stopping
    /// at a partial frame, an injected delay, a full out-queue, or a
    /// dispatch that ends the connection's request stream. Returns
    /// whether it stopped at a full out-queue with bytes still buffered.
    fn process_frames(&mut self, id: u64) -> bool {
        loop {
            if self.shared.is_shutting_down() {
                return false;
            }
            let frame = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return false;
                };
                if conn.discard || conn.resume_at.is_some() {
                    return false;
                }
                if !conn.shared.out_has_room() {
                    return conn.acc.has_partial();
                }
                match conn.acc.next_frame() {
                    Ok(Some(payload)) => payload,
                    Ok(None) => return false,
                    Err(_) => {
                        // A garbage length prefix: same silent close
                        // the blocking reader gave it, before or after
                        // the handshake. Buffered answers still flush.
                        conn.discard = true;
                        conn.eof = true;
                        return false;
                    }
                }
            };
            if !self.dispatch(id, frame) {
                return false;
            }
        }
    }

    /// Frame-level fault draws + handshake gate, then request
    /// dispatch. Returns whether the connection should keep decoding.
    fn dispatch(&mut self, id: u64, payload: Vec<u8>) -> bool {
        let plan = self.shared.config.fault_plan;
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        if !conn.established {
            return self.handshake(id, decode_request(&payload));
        }
        conn.shared.touch();
        if let Some(rng) = conn.reader_rng.as_mut() {
            // Both frame-level decisions are drawn up front, in the order
            // the blocking reader drew them (delay, then drop), so a
            // chaos seed replays identically.
            let delay = rng.fires(plan.delay_read_prob);
            let drop_now = rng.fires(plan.drop_conn_prob);
            if delay {
                let at = Instant::now() + Duration::from_millis(plan.delay_read_ms);
                conn.resume_at = Some(at);
                conn.pending = Some((payload, drop_now));
                self.wheel
                    .schedule(at, TimerKey::Conn(id, ConnTimer::ResumeRead));
                return false;
            }
            if drop_now {
                self.teardown(id);
                return false;
            }
        }
        self.dispatch_decoded(id, decode_request(&payload))
    }

    /// The mandatory `HELLO`/`WELCOME` exchange. A v0 peer — one that
    /// opens with a request frame, or a `HELLO` carrying a version
    /// this server does not speak — gets a well-formed `ERROR` frame
    /// and a close; it never reaches the job queue.
    fn handshake(&mut self, id: u64, decoded: Result<Request, ProtocolError>) -> bool {
        let (code, message) = match decoded {
            Ok(Request::Hello { version, features }) if version == PROTOCOL_VERSION => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return false;
                };
                conn.shared.touch();
                conn.established = true;
                return self.dispatch_decoded(id, Ok(Request::Hello { version, features }));
            }
            Ok(Request::Hello { version, .. }) => (
                ErrorCode::VersionMismatch,
                format!("peer speaks protocol version {version}, server speaks {PROTOCOL_VERSION}"),
            ),
            Ok(_) => (
                ErrorCode::HandshakeRequired,
                "first frame on a connection must be HELLO".to_string(),
            ),
            Err(e) => (ErrorCode::HandshakeRequired, format!("bad handshake: {e}")),
        };
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        self.shared.server_metrics.handshake_rejects.inc();
        answer(
            &self.shared,
            &conn.shared,
            Response::Error { code, message },
        );
        conn.discard = true;
        conn.eof = true;
        false
    }

    /// The post-handshake dispatch: the one admission step, then the
    /// request itself — one `match` builds every answer but a `SAMPLE`'s
    /// (mutations applied, control answers built here) and one [`answer`]
    /// delivers it; a `SAMPLE` goes to [`EventLoop::sample`].
    fn dispatch_decoded(&mut self, id: u64, decoded: Result<Request, ProtocolError>) -> bool {
        let shared = Arc::clone(&self.shared);
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        let cs = Arc::clone(&conn.shared);
        let Ok(req) = decoded else {
            // Can't trust any field of a malformed frame, so the echoed
            // id is 0; close after answering.
            conn.discard = true;
            conn.eof = true;
            let status = RequestStatus::BadRequest;
            let stats = RequestStats::default();
            answer(
                &shared,
                &cs,
                Response::Done {
                    req_id: 0,
                    status,
                    stats,
                },
            );
            return false;
        };
        let response = match conn.admit(&shared, &req) {
            Some((req_id, retry_after_ms)) => Response::Busy {
                req_id,
                retry_after_ms,
            },
            None => match req {
                // A repeated HELLO is harmless; re-answering it lets a
                // client that re-syncs after a partial read converge.
                Request::Hello { .. } => Response::Welcome {
                    version: PROTOCOL_VERSION,
                    features: SERVER_FEATURES,
                },
                Request::Ping { token } => Response::Pong { token },
                Request::Sample(sample) => {
                    let flushed = !conn.write_pending() && conn.write_gate.is_none();
                    self.sample(cs, sample, flushed);
                    return true;
                }
                Request::Shutdown => {
                    shared.begin_shutdown();
                    return false;
                }
                // Observability answers are pure snapshot work, no
                // engine/handle involvement: rendered on the loop. They
                // read only what the engines published, so they never
                // wait for an engine map, as the inline peek may.
                Request::Stats => Response::ServerStats(shared.stats_frame()),
                Request::Metrics => Response::Metrics {
                    text: shared.metrics_text(),
                },
                Request::SlowLog { max } => Response::SlowLog {
                    entries: shared
                        .slow_log
                        .recent((max as usize).min(SLOWLOG_MAX_ENTRIES)),
                },
                Request::Epoch { req_id, dataset } => {
                    let (status, info) =
                        settle(shared.dataset(dataset).map(ServedDataset::epoch_info));
                    Response::Epoch {
                        req_id,
                        status,
                        info,
                    }
                }
                // Mutations are applied here, on the loop: they are
                // O(|frame|) buffer writes against the store (no index
                // work — engines fold the delta in lazily, on a worker:
                // the next SAMPLE finds maintenance due and is not served
                // inline), so they never occupy a sampling worker, and
                // applying before the next frame is decoded gives each
                // connection read-your-writes ordering.
                Request::Insert {
                    req_id, dataset, ..
                }
                | Request::Delete {
                    req_id, dataset, ..
                } => {
                    let (status, stats) = settle(shared.dataset(dataset).map(|d| d.apply(&req)));
                    Response::Update {
                        req_id,
                        status,
                        stats,
                    }
                }
            },
        };
        answer(&shared, &cs, response);
        true
    }

    /// An admitted `SAMPLE`: served here, start to finish, when the
    /// loop can see that is cheap; otherwise a job for the workers.
    /// `flushed`: the connection has no half-written frame and no
    /// chaos write gate.
    fn sample(&mut self, cs: Arc<ConnShared>, req: SampleRequest, flushed: bool) {
        let shared = &self.shared;
        let mut run = SampleRun::new(req);
        // Which thread runs it is decided from what the loop can see for
        // free: a quiet connection (no job alive, nothing queued or
        // half-written — nothing the pool holds is overtaken, and a peer
        // that is not reading gets no loop time), budget left in this
        // pass, and an acquisition that needs no build, no swap and no
        // long draw.
        let quiet = cs.no_jobs() && cs.out_len() == 0 && flushed;
        if quiet && self.inline_spent_ns < INLINE_BUDGET_NS {
            let how = Acquire::Cheap {
                budget_ns: INLINE_BUDGET_NS - self.inline_spent_ns,
            };
            let mut frames = VecDeque::new();
            let served = loop {
                match advance(shared, &mut run, how, &self.tag, &mut frames) {
                    Progress::Declined => break false,
                    Progress::Pending => {}
                    Progress::Done => break true,
                }
            };
            self.tag.set(WorkerState::Decode);
            if served {
                for frame in frames {
                    cs.push_direct(frame);
                }
                shared.server_metrics.requests_inline.inc();
                self.inline_spent_ns += run.elapsed().as_nanos() as u64;
                return;
            }
        }
        enqueue(shared, Job::sample(run, cs));
    }

    // ---- flush -----------------------------------------------------------

    /// Drains the write buffer and the out-queue to the socket until
    /// everything is sent or the socket would block. Writer-side
    /// chaos faults fire here, per popped frame, on the same rng
    /// stream (and draw order) the old writer thread used: a truncation
    /// or a split write cuts the frame at half, and once the write loop
    /// reaches the cut (or the socket blocks first) the connection dies
    /// or the write gates for 1 ms — the nonblocking analogue of the
    /// old write/sleep/write.
    fn flush_conn(&mut self, id: u64) {
        let plan = self.shared.config.fault_plan;
        let mut dead = false;
        // `(at, kill)`: write up to `at`, then die (`kill`) or gate.
        let mut cut: Option<(usize, bool)> = None;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.write_gate.is_some() {
                return;
            }
            loop {
                if !conn.write_pending() {
                    conn.wb.clear();
                    conn.wb_pos = 0;
                    match conn.writer_rng.as_mut() {
                        // No fault schedule to honour: everything
                        // queued goes to the socket together — an
                        // answer's BATCH and DONE are one write.
                        None => {
                            if !conn.shared.pop_out_coalesced(&mut conn.wb) {
                                break;
                            }
                        }
                        // Chaos: frame by frame, so the writer-side
                        // faults fire per frame in the seed's order.
                        // Only frames with room to split meaningfully
                        // are candidates; tiny control frames pass.
                        Some(rng) => {
                            let Some(frame) = conn.shared.pop_out() else {
                                break;
                            };
                            if frame.len() > 8 {
                                if rng.fires(plan.truncate_frame_prob) {
                                    cut = Some((frame.len() / 2, true));
                                } else if rng.fires(plan.partial_write_prob) {
                                    cut = Some((frame.len() / 2, false));
                                }
                            }
                            conn.wb = frame;
                        }
                    }
                }
                let end = cut.map_or(conn.wb.len(), |(at, _)| at);
                if conn.wb_pos >= end {
                    break;
                }
                match (&conn.sock).write(&conn.wb[conn.wb_pos..end]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wb_pos += n;
                        conn.moved(Dir::Write);
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            match cut {
                // Deliberately leave the peer mid-frame.
                Some((_, true)) => dead = true,
                Some((_, false)) if !dead => {
                    let at = Instant::now() + Duration::from_millis(1);
                    conn.write_gate = Some(at);
                    self.wheel
                        .schedule(at, TimerKey::Conn(id, ConnTimer::WriteGate));
                }
                _ => {}
            }
        }
        if dead {
            self.teardown(id);
        }
    }

    /// Re-enqueues parked jobs once the out-queue has room — the other
    /// half of the backpressure handshake. Gated on room (like the old
    /// writer, whose park kicks only landed when the channel had a
    /// slot) so park/unpark cannot livelock.
    fn unpark_if_room(&mut self, id: u64) {
        let jobs: Vec<Job> = {
            let Some(conn) = self.conns.get(&id) else {
                return;
            };
            if !conn.shared.out_has_room() {
                return;
            }
            let mut parked = conn.shared.parked.lock().expect("parked list poisoned");
            if parked.is_empty() {
                return;
            }
            parked.drain(..).collect()
        };
        for job in jobs {
            enqueue(&self.shared, job);
        }
    }

    // ---- timers ----------------------------------------------------------

    /// The one stall deadline, for either direction: while the
    /// connection waits on its peer in `dir`, a wheel entry falls due
    /// `read_timeout` / `write_timeout` after bytes last moved that way.
    /// Arming (`fired` false) schedules it unless one is pending; when it
    /// fires, a passed deadline tears the connection down, and progress
    /// since it was armed re-arms it from the last move.
    fn check_stall(&mut self, id: u64, dir: Dir, fired: bool) {
        let config = &self.shared.config;
        let timeout = match dir {
            Dir::Read => config.read_timeout,
            Dir::Write => config.write_timeout,
        };
        let Some(timeout) = timeout_opt(timeout) else {
            return;
        };
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let stalled = conn.stalled(dir);
        let stall = &mut conn.stalls[dir as usize];
        stall.armed &= !fired;
        if stall.armed || !stalled {
            return;
        }
        let deadline = stall.since + timeout;
        if fired && Instant::now() >= deadline {
            self.teardown(id);
            return;
        }
        stall.armed = true;
        self.wheel
            .schedule(deadline, TimerKey::Conn(id, ConnTimer::Stall(dir)));
    }

    fn fire_timer(&mut self, key: TimerKey) {
        match key {
            TimerKey::Sweep => self.sweep(),
            TimerKey::AcceptResume => self.resume_accept(),
            TimerKey::Conn(id, ConnTimer::Handshake) => {
                let expired = self.conns.get(&id).is_some_and(|c| !c.established);
                if expired {
                    // Silent close, exactly like the blocking
                    // handshake's deadline: no peer worth answering.
                    self.teardown(id);
                }
            }
            TimerKey::Conn(id, ConnTimer::Stall(dir)) => self.check_stall(id, dir, true),
            TimerKey::Conn(id, ConnTimer::ResumeRead) => {
                enum Next {
                    Rearm(Instant),
                    Drop,
                    Dispatch(Vec<u8>),
                    Nothing,
                }
                let next = {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        return;
                    };
                    match conn.resume_at {
                        Some(at) if Instant::now() < at => Next::Rearm(at),
                        Some(_) => {
                            conn.resume_at = None;
                            match conn.pending.take() {
                                Some((_, true)) => Next::Drop,
                                Some((payload, false)) => Next::Dispatch(payload),
                                None => Next::Nothing,
                            }
                        }
                        None => Next::Nothing,
                    }
                };
                match next {
                    Next::Rearm(at) => self
                        .wheel
                        .schedule(at, TimerKey::Conn(id, ConnTimer::ResumeRead)),
                    Next::Drop => self.teardown(id),
                    Next::Dispatch(payload) => {
                        let _ = self.dispatch_decoded(id, decode_request(&payload));
                        self.service_conn(id);
                    }
                    Next::Nothing => {}
                }
            }
            TimerKey::Conn(id, ConnTimer::WriteGate) => {
                let open = {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        return;
                    };
                    match conn.write_gate {
                        Some(at) if Instant::now() < at => Some(at),
                        Some(_) => {
                            conn.write_gate = None;
                            None
                        }
                        None => None,
                    }
                };
                match open {
                    Some(at) => self
                        .wheel
                        .schedule(at, TimerKey::Conn(id, ConnTimer::WriteGate)),
                    None => self.service_conn(id),
                }
            }
        }
    }

    /// The idle sweep: reaps connections quiet past `idle_timeout`
    /// with no in-flight work, then re-arms itself. Runs even with
    /// reaping disabled, as a housekeeping backstop.
    fn sweep(&mut self) {
        if let Some(idle) = timeout_opt(self.shared.config.idle_timeout) {
            let idle_ns = idle.as_nanos().min(u128::from(u64::MAX)) as u64;
            let mut reap: Vec<(u64, u64, String)> = Vec::new();
            for (id, conn) in self.conns.iter() {
                if conn.shared.closed.load(Ordering::Acquire)
                    || conn.shared.inflight.load(Ordering::Acquire) != 0
                {
                    continue;
                }
                let quiet_ns = conn.shared.idle_ns();
                if quiet_ns >= idle_ns {
                    reap.push((*id, quiet_ns, conn.shared.peer.clone()));
                }
            }
            for (id, quiet_ns, peer) in reap {
                self.shared.server_metrics.conn_reaped.inc();
                srj_obs::journal::event(EventKind::ConnReaped)
                    .duration_ns(quiet_ns)
                    .label(peer)
                    .emit();
                self.teardown(id);
            }
        }
        self.wheel
            .schedule(Instant::now() + self.sweep_interval, TimerKey::Sweep);
    }

    // ---- interest & liveness ---------------------------------------------

    /// Reconciles poller interest with connection state: read while
    /// the connection accepts frames, write while bytes are pending
    /// and no chaos gate holds. Level-triggered, so interest must
    /// drop whenever the loop would refuse the corresponding I/O —
    /// otherwise readiness would spin.
    fn update_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let want = Interest {
            read: !conn.eof
                && !conn.discard
                && conn.resume_at.is_none()
                && conn.shared.out_has_room(),
            write: conn.write_gate.is_none() && (conn.write_pending() || conn.shared.out_len() > 0),
        };
        if want != conn.interest {
            conn.interest = want;
            let _ = self.poller.reregister(conn.sock.as_raw_fd(), id, want);
        }
    }

    /// Tears the connection down once its stream is over (EOF or
    /// close) and every owed byte has been delivered: write buffer
    /// drained, out-queue empty, no jobs in flight, no held frame.
    fn maybe_teardown(&mut self, id: u64) {
        let done = {
            let Some(conn) = self.conns.get(&id) else {
                return;
            };
            (conn.eof || conn.shared.closed.load(Ordering::Acquire))
                && !conn.write_pending()
                && conn.shared.out_len() == 0
                && conn.shared.inflight.load(Ordering::Acquire) == 0
                && conn.pending.is_none()
        };
        if done {
            self.teardown(id);
        }
    }

    /// The single teardown path: deregister, mark closed, drop queued
    /// frames, shut the socket down, finish stranded jobs, and update
    /// the connection accounting.
    fn teardown(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        let _ = self.poller.deregister(conn.sock.as_raw_fd());
        conn.shared.closed.store(true, Ordering::Release);
        conn.shared.out_disconnect();
        let _ = conn.sock.shutdown(Shutdown::Both);
        let stranded: Vec<Job> = conn
            .shared
            .parked
            .lock()
            .expect("parked list poisoned")
            .drain(..)
            .collect();
        for mut job in stranded {
            job.abandon(&self.shared);
        }
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
        self.shared
            .conns
            .lock()
            .expect("conn list poisoned")
            .retain(|c| !c.closed.load(Ordering::Acquire));
    }

    fn teardown_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.teardown(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The doorbell's contract under contention: every marked id is
    /// handed to the loop, and no mark is left sitting in the list
    /// with no wake-up on its way — the loop below only ever sleeps in
    /// `wait`, so a lost wake shows as a wait that times out.
    #[test]
    fn concurrent_marks_lose_no_id_and_no_wake() {
        const THREADS: u64 = 4;
        const MARKS: u64 = 10_000;
        let notify = LoopNotify::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(notify.waker_fd(), TOKEN_WAKER, Interest::READ)
            .unwrap();
        let mut seen = vec![false; (THREADS * MARKS) as usize];
        let mut missing = seen.len();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let notify = &notify;
                scope.spawn(move || {
                    for i in 0..MARKS {
                        let id = t * MARKS + i;
                        notify.mark_dirty(id);
                        // A repeat of the pending mark is free, and must
                        // not cost the id its delivery.
                        notify.mark_dirty(id);
                    }
                });
            }
            // The loop's order: sleep, read the pipe, then take the list.
            let mut events = Vec::new();
            let mut dirty = Vec::new();
            while missing > 0 {
                let n = poller
                    .wait(&mut events, Some(Duration::from_secs(20)))
                    .unwrap();
                assert!(n > 0, "{missing} marks pending and nothing woke the loop");
                notify.drain_waker();
                notify.drain(&mut dirty);
                for id in dirty.drain(..) {
                    let slot = &mut seen[id as usize];
                    missing -= usize::from(!*slot);
                    *slot = true;
                }
            }
        });
    }

    #[test]
    fn a_mark_equal_to_the_last_pending_one_is_skipped() {
        let notify = LoopNotify::new().unwrap();
        for id in [5, 5, 6, 6, 5] {
            notify.mark_dirty(id);
        }
        let mut dirty = Vec::new();
        notify.drain(&mut dirty);
        assert_eq!(dirty, [5, 6, 5]);
    }
}
