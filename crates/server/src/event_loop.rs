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
//! [`FrameAccumulator`]; every complete frame dispatches through the
//! same admission chain the old reader ran (handshake gate, token
//! buckets, fault draws, load shedding). What passes is answered where
//! that is cheapest. Mutations are applied and control answers
//! (`UPDATE`, `EPOCH`, `STATS`, `METRICS`, `TRACE`, `SLOWLOG`) built
//! here; the loop also writes them itself unless the connection has
//! work with the workers, in which case they queue behind it as a job.
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
//! did. A full out-queue parks the job on its connection (exactly the
//! old backpressure handshake) *and* pauses frame decode for that
//! connection, so the loop's own answers stay bounded and a flooding
//! client is throttled by its own TCP window.
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
use srj_obs::{trace, SlowEntry, StateTag, WorkerState};

use crate::exec::{advance, Acquire, Progress, SampleRun, INLINE_BUDGET_NS};
use crate::fault::FaultRng;
use crate::protocol::{
    decode_request, encode_response, EpochInfo, ErrorCode, FrameAccumulator, Request, RequestStats,
    RequestStatus, Response, UpdateStats, PROTOCOL_VERSION, SERVER_FEATURES,
};
use crate::server::{
    apply_delete, apply_insert, epoch_info, timeout_opt, Shared, TokenBucket, FAULT_ROLE_READER,
    FAULT_ROLE_WRITER, SHED_RETRY_MS, SLOWLOG_MAX_ENTRIES,
};
use crate::worker::{enqueue, should_shed, ConnShared, Job};

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
    /// `read_timeout` — mid-frame read stall.
    Read,
    /// `write_timeout` — write stall with bytes pending.
    Write,
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
    read_stall_since: Instant,
    read_timer_armed: bool,
    write_stall_since: Instant,
    write_timer_armed: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    /// Bytes queued for the socket but not yet written.
    fn write_pending(&self) -> bool {
        self.wb_pos < self.wb.len()
    }
}

// ---- the loop --------------------------------------------------------------

pub(crate) struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
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
        let id = self.shared.accepted.fetch_add(1, Ordering::Relaxed);
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
            read_stall_since: now,
            read_timer_armed: false,
            write_stall_since: now,
            write_timer_armed: false,
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
        self.process_frames(id);
        self.unpark_if_room(id);
        self.flush_conn(id);
        self.arm_io_timers(id);
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
                        conn.read_stall_since = Instant::now();
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
    /// dispatch that ends the connection's request stream.
    fn process_frames(&mut self, id: u64) {
        loop {
            if self.shared.is_shutting_down() {
                return;
            }
            let frame = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.discard || conn.resume_at.is_some() || !conn.shared.out_has_room() {
                    return;
                }
                match conn.acc.next_frame() {
                    Ok(Some(payload)) => payload,
                    Ok(None) => return,
                    Err(_) => {
                        // A garbage length prefix: same silent close
                        // the blocking reader gave it, before or after
                        // the handshake. Buffered answers still flush.
                        conn.discard = true;
                        conn.eof = true;
                        return;
                    }
                }
            };
            if !self.dispatch(id, frame) {
                return;
            }
        }
    }

    /// Frame-level fault draws + handshake gate, then request
    /// dispatch. Returns whether the connection should keep decoding.
    fn dispatch(&mut self, id: u64, payload: Vec<u8>) -> bool {
        enum Gate {
            Drop,
            Delay(Instant),
            Pass,
        }
        let plan = self.shared.config.fault_plan;
        let mut payload = Some(payload);
        let gate = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            if !conn.established {
                return self.handshake(id, &payload.take().expect("payload taken"));
            }
            conn.shared.touch();
            match conn.reader_rng.as_mut() {
                Some(rng) => {
                    // Both frame-level decisions are drawn up front, in
                    // the order the blocking reader drew them (delay,
                    // then drop), so a chaos seed replays identically.
                    let delay = rng.fires(plan.delay_read_prob);
                    let drop_now = rng.fires(plan.drop_conn_prob);
                    if delay {
                        let at = Instant::now() + Duration::from_millis(plan.delay_read_ms);
                        conn.resume_at = Some(at);
                        conn.pending = Some((payload.take().expect("payload taken"), drop_now));
                        Gate::Delay(at)
                    } else if drop_now {
                        Gate::Drop
                    } else {
                        Gate::Pass
                    }
                }
                None => Gate::Pass,
            }
        };
        match gate {
            Gate::Delay(at) => {
                self.wheel
                    .schedule(at, TimerKey::Conn(id, ConnTimer::ResumeRead));
                false
            }
            Gate::Drop => {
                self.teardown(id);
                false
            }
            Gate::Pass => self.dispatch_decoded(id, payload.take().expect("payload taken")),
        }
    }

    /// The mandatory `HELLO`/`WELCOME` exchange. A v0 peer — one that
    /// opens with a request frame, or a `HELLO` carrying a version
    /// this server does not speak — gets a well-formed `ERROR` frame
    /// and a close; it never reaches the job queue.
    fn handshake(&mut self, id: u64, payload: &[u8]) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        let reject = |conn: &mut Conn, shared: &Shared, code: ErrorCode, message: String| {
            shared.server_metrics.handshake_rejects.inc();
            conn.shared
                .push_direct(encode_response(&Response::Error { code, message }));
            conn.discard = true;
            conn.eof = true;
            false
        };
        match decode_request(payload) {
            Ok(Request::Hello { version, .. }) if version == PROTOCOL_VERSION => {
                conn.shared.touch();
                conn.established = true;
                conn.shared.push_direct(encode_response(&Response::Welcome {
                    version: PROTOCOL_VERSION,
                    features: SERVER_FEATURES,
                }));
                true
            }
            Ok(Request::Hello { version, .. }) => reject(
                conn,
                &self.shared,
                ErrorCode::VersionMismatch,
                format!("peer speaks protocol version {version}, server speaks {PROTOCOL_VERSION}"),
            ),
            Ok(_) => reject(
                conn,
                &self.shared,
                ErrorCode::HandshakeRequired,
                "first frame on a connection must be HELLO".to_string(),
            ),
            Err(e) => reject(
                conn,
                &self.shared,
                ErrorCode::HandshakeRequired,
                format!("bad handshake: {e}"),
            ),
        }
    }

    /// The post-handshake dispatch: admission control (token buckets,
    /// fault busy answers, load shedding), then the request itself —
    /// mutations applied and control answers built here, a `SAMPLE`
    /// served here when [`Acquire::Cheap`] admits it and handed to the
    /// workers otherwise.
    fn dispatch_decoded(&mut self, id: u64, payload: Vec<u8>) -> bool {
        let shared = Arc::clone(&self.shared);
        let plan = shared.config.fault_plan;
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        let cs = Arc::clone(&conn.shared);
        let busy = |req_id: u32, retry_after_ms: u32| {
            cs.push_direct(encode_response(&Response::Busy {
                req_id,
                retry_after_ms,
            }));
        };
        // An answer the loop has already computed. The loop writes it
        // itself when none of this connection's work is with the
        // workers and its queue has room; behind in-flight work it
        // rides a job instead, so it cannot overtake that work and the
        // park/unpark handshake stays the workers' alone.
        let answer = |frame: Vec<u8>| {
            if cs.no_jobs() && cs.out_has_room() {
                cs.push_direct(frame);
            } else {
                enqueue(&shared, Job::respond(frame, Arc::clone(&cs)));
            }
        };
        // Declined by a token bucket? Bumps the metric so the check
        // reads as one expression at each admission point.
        let throttled = |bucket: &mut Option<TokenBucket>| -> Option<u32> {
            let ms = bucket.as_mut()?.admit()?;
            shared.server_metrics.rate_limited.inc();
            Some(ms)
        };
        match decode_request(&payload) {
            Ok(Request::Hello { .. }) => {
                // A repeated HELLO is harmless; re-answer it so a
                // client that re-syncs after a partial read converges.
                cs.push_direct(encode_response(&Response::Welcome {
                    version: PROTOCOL_VERSION,
                    features: SERVER_FEATURES,
                }));
            }
            Ok(Request::Ping { token }) => {
                // Keepalives are never shed, limited, or queued: their
                // job is to answer even (especially) under load.
                cs.push_direct(encode_response(&Response::Pong { token }));
            }
            Ok(Request::Sample(req)) => {
                if let Some(ms) = throttled(&mut conn.req_bucket) {
                    busy(req.req_id, ms);
                    return true;
                }
                if let Some(rng) = conn.reader_rng.as_mut() {
                    if rng.fires(plan.busy_prob) {
                        busy(req.req_id, plan.busy_retry_after_ms);
                        return true;
                    }
                }
                if should_shed(&shared, &cs) {
                    shared.server_metrics.requests_shed.inc();
                    srj_obs::journal::event(EventKind::LoadShed)
                        .dataset(Some(req.dataset))
                        .label(cs.peer.clone())
                        .emit();
                    busy(req.req_id, SHED_RETRY_MS);
                    return true;
                }
                // The sampling decision is made here, at frame decode,
                // so the trace covers the request's whole server-side
                // life; the id rides on the run and comes back to the
                // client in the DONE frame. With slow-log capture on,
                // an unsampled request still gets a forced span id —
                // never echoed, but snapshotted if it finishes slow.
                let trace_id = trace::try_start_trace();
                let span_id = if trace_id != 0 {
                    trace_id
                } else if shared.slow_log.enabled() {
                    trace::start_trace_forced()
                } else {
                    0
                };
                trace::event_for(span_id, "frame_decode", "sample_request");
                let mut run = SampleRun::new(req, trace_id, span_id);
                // Admitted. Which thread runs it is decided from what
                // the loop can see for free: a quiet connection (no job
                // alive, nothing queued or half-written — nothing the
                // pool holds is overtaken, and a peer that is not
                // reading gets no loop time), budget left in this pass,
                // and an acquisition that needs no build, no swap and
                // no long draw.
                let quiet = cs.no_jobs()
                    && cs.out_len() == 0
                    && !conn.write_pending()
                    && conn.write_gate.is_none();
                if quiet && self.inline_spent_ns < INLINE_BUDGET_NS {
                    let _trace = run.trace_scope();
                    let how = Acquire::Cheap {
                        budget_ns: INLINE_BUDGET_NS - self.inline_spent_ns,
                    };
                    let mut frames = VecDeque::new();
                    let served = loop {
                        match advance(&shared, &mut run, how, &self.tag, &mut frames) {
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
                        self.inline_spent_ns += run.age_ns();
                        return true;
                    }
                }
                enqueue(&shared, Job::sample(run, Arc::clone(&cs)));
            }
            Ok(Request::Stats) => {
                if let Some(ms) = throttled(&mut conn.req_bucket) {
                    busy(0, ms);
                    return true;
                }
                answer(encode_response(&Response::ServerStats(
                    shared.stats_frame(),
                )));
            }
            // Observability answers are pure snapshot work, no
            // engine/handle involvement: rendered on the loop.
            Ok(Request::Metrics) => {
                if let Some(ms) = throttled(&mut conn.req_bucket) {
                    busy(0, ms);
                    return true;
                }
                answer(encode_response(&Response::Metrics {
                    text: shared.metrics_text(),
                }));
            }
            Ok(Request::Trace { trace_id }) => {
                if let Some(ms) = throttled(&mut conn.req_bucket) {
                    busy(0, ms);
                    return true;
                }
                let spans = SlowEntry::capture_spans(trace_id);
                answer(encode_response(&Response::Trace { trace_id, spans }));
            }
            Ok(Request::SlowLog { max }) => {
                if let Some(ms) = throttled(&mut conn.req_bucket) {
                    busy(0, ms);
                    return true;
                }
                let cap = (max as usize).min(SLOWLOG_MAX_ENTRIES);
                let entries = shared.slow_log.recent(cap);
                answer(encode_response(&Response::SlowLog { entries }));
            }
            // Mutations are applied here, on the loop: they are
            // O(|frame|) buffer writes against the store (no index
            // work — engines fold the delta in lazily, on a worker:
            // the next SAMPLE finds maintenance due and is not served
            // inline), so they never occupy a sampling worker, and
            // applying before the next frame is decoded gives each
            // connection read-your-writes ordering.
            Ok(Request::Insert {
                req_id,
                dataset,
                side,
                points,
            }) => {
                // Mutations pay both budgets: the shared request bucket
                // and the (usually tighter) mutation bucket.
                if let Some(ms) =
                    throttled(&mut conn.req_bucket).or_else(|| throttled(&mut conn.mut_bucket))
                {
                    busy(req_id, ms);
                    return true;
                }
                if let Some(rng) = conn.reader_rng.as_mut() {
                    if rng.fires(plan.busy_prob) {
                        busy(req_id, plan.busy_retry_after_ms);
                        return true;
                    }
                }
                let (status, stats) = match apply_insert(&shared, dataset, side, &points) {
                    Ok(stats) => (RequestStatus::Ok, stats),
                    Err(status) => (status, UpdateStats::default()),
                };
                answer(encode_response(&Response::Update {
                    req_id,
                    status,
                    stats,
                }));
            }
            Ok(Request::Delete {
                req_id,
                dataset,
                side,
                ids,
            }) => {
                if let Some(ms) =
                    throttled(&mut conn.req_bucket).or_else(|| throttled(&mut conn.mut_bucket))
                {
                    busy(req_id, ms);
                    return true;
                }
                if let Some(rng) = conn.reader_rng.as_mut() {
                    if rng.fires(plan.busy_prob) {
                        busy(req_id, plan.busy_retry_after_ms);
                        return true;
                    }
                }
                let (status, stats) = match apply_delete(&shared, dataset, side, &ids) {
                    Ok(stats) => (RequestStatus::Ok, stats),
                    Err(status) => (status, UpdateStats::default()),
                };
                answer(encode_response(&Response::Update {
                    req_id,
                    status,
                    stats,
                }));
            }
            Ok(Request::Epoch { req_id, dataset }) => {
                if let Some(ms) = throttled(&mut conn.req_bucket) {
                    busy(req_id, ms);
                    return true;
                }
                let (status, info) = match epoch_info(&shared, dataset) {
                    Ok(info) => (RequestStatus::Ok, info),
                    Err(status) => (status, EpochInfo::default()),
                };
                answer(encode_response(&Response::Epoch {
                    req_id,
                    status,
                    info,
                }));
            }
            Ok(Request::Shutdown) => {
                shared.begin_shutdown();
                return false;
            }
            Err(_) => {
                // Can't trust any field of a malformed frame, so the
                // echoed id is 0; close after answering.
                answer(encode_response(&Response::Done {
                    req_id: 0,
                    status: RequestStatus::BadRequest,
                    stats: RequestStats::default(),
                }));
                conn.discard = true;
                conn.eof = true;
                return false;
            }
        }
        true
    }

    // ---- flush -----------------------------------------------------------

    /// Drains the write buffer and the out-queue to the socket until
    /// everything is sent or the socket would block. Writer-side
    /// chaos faults fire here, per popped frame, on the same rng
    /// stream (and draw order) the old writer thread used.
    fn flush_conn(&mut self, id: u64) {
        let mut dead = false;
        let mut gate: Option<Instant> = None;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.write_gate.is_some() {
                return;
            }
            let plan = self.shared.config.fault_plan;
            'flush: loop {
                if !conn.write_pending() {
                    conn.wb.clear();
                    conn.wb_pos = 0;
                    match conn.writer_rng.as_mut() {
                        // No fault schedule to honour: everything
                        // queued goes to the socket together — an
                        // answer's BATCH and DONE are one write.
                        None => {
                            if !conn.shared.pop_out_coalesced(&mut conn.wb) {
                                break 'flush;
                            }
                        }
                        // Chaos: frame by frame, so the writer-side
                        // faults fire per frame in the seed's order.
                        Some(rng) => {
                            let Some(frame) = conn.shared.pop_out() else {
                                break 'flush;
                            };
                            // Only frames with room to split
                            // meaningfully are candidates; tiny control
                            // frames pass.
                            if frame.len() > 8 {
                                if rng.fires(plan.truncate_frame_prob) {
                                    // Deliberately leave the peer
                                    // mid-frame and kill the connection.
                                    let _ = (&conn.sock).write(&frame[..frame.len() / 2]);
                                    dead = true;
                                    break 'flush;
                                }
                                if rng.fires(plan.partial_write_prob) {
                                    // Two temporally separated writes:
                                    // the head half now, the tail after
                                    // a 1 ms gate — the nonblocking
                                    // analogue of the old
                                    // write/sleep/write.
                                    let half = frame.len() / 2;
                                    conn.wb = frame;
                                    while conn.wb_pos < half {
                                        match (&conn.sock).write(&conn.wb[conn.wb_pos..half]) {
                                            Ok(0) => {
                                                dead = true;
                                                break;
                                            }
                                            Ok(n) => {
                                                conn.wb_pos += n;
                                                conn.write_stall_since = Instant::now();
                                            }
                                            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                                                break
                                            }
                                            Err(ref e)
                                                if e.kind() == io::ErrorKind::Interrupted => {}
                                            Err(_) => {
                                                dead = true;
                                                break;
                                            }
                                        }
                                    }
                                    if !dead {
                                        let at = Instant::now() + Duration::from_millis(1);
                                        conn.write_gate = Some(at);
                                        gate = Some(at);
                                    }
                                    break 'flush;
                                }
                            }
                            conn.wb = frame;
                        }
                    }
                }
                match (&conn.sock).write(&conn.wb[conn.wb_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break 'flush;
                    }
                    Ok(n) => {
                        conn.wb_pos += n;
                        conn.write_stall_since = Instant::now();
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break 'flush,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break 'flush;
                    }
                }
            }
        }
        if let Some(at) = gate {
            self.wheel
                .schedule(at, TimerKey::Conn(id, ConnTimer::WriteGate));
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

    /// Arms the mid-frame read stall and write stall timers when the
    /// respective condition holds and no timer is already pending.
    fn arm_io_timers(&mut self, id: u64) {
        let config = &self.shared.config;
        let (read_at, write_at) = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let mut read_at = None;
            if conn.acc.has_partial() && !conn.read_timer_armed && !conn.eof {
                if let Some(rt) = timeout_opt(config.read_timeout) {
                    conn.read_timer_armed = true;
                    read_at = Some(conn.read_stall_since + rt);
                }
            }
            let mut write_at = None;
            if conn.write_pending() && !conn.write_timer_armed {
                if let Some(wt) = timeout_opt(config.write_timeout) {
                    conn.write_timer_armed = true;
                    write_at = Some(conn.write_stall_since + wt);
                }
            }
            (read_at, write_at)
        };
        if let Some(at) = read_at {
            self.wheel.schedule(at, TimerKey::Conn(id, ConnTimer::Read));
        }
        if let Some(at) = write_at {
            self.wheel
                .schedule(at, TimerKey::Conn(id, ConnTimer::Write));
        }
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
            TimerKey::Conn(id, ConnTimer::Read) => {
                let rearm = {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        return;
                    };
                    conn.read_timer_armed = false;
                    if !conn.acc.has_partial() || conn.eof {
                        None
                    } else {
                        let rt = self.shared.config.read_timeout;
                        let deadline = conn.read_stall_since + rt;
                        if Instant::now() >= deadline {
                            Some(None) // expired
                        } else {
                            conn.read_timer_armed = true;
                            Some(Some(deadline)) // progressed; re-arm
                        }
                    }
                };
                match rearm {
                    Some(None) => self.teardown(id),
                    Some(Some(at)) => self.wheel.schedule(at, TimerKey::Conn(id, ConnTimer::Read)),
                    None => {}
                }
            }
            TimerKey::Conn(id, ConnTimer::Write) => {
                let rearm = {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        return;
                    };
                    conn.write_timer_armed = false;
                    if !conn.write_pending() {
                        None
                    } else {
                        let wt = self.shared.config.write_timeout;
                        let deadline = conn.write_stall_since + wt;
                        if Instant::now() >= deadline {
                            Some(None)
                        } else {
                            conn.write_timer_armed = true;
                            Some(Some(deadline))
                        }
                    }
                };
                match rearm {
                    Some(None) => self.teardown(id),
                    Some(Some(at)) => self
                        .wheel
                        .schedule(at, TimerKey::Conn(id, ConnTimer::Write)),
                    None => {}
                }
            }
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
                        let _ = self.dispatch_decoded(id, payload);
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
