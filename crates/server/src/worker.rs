//! The worker-pool scheduler: jobs, the global queue, the seam each
//! connection shares with the event loop, and the backpressure
//! handshake.
//!
//! A request the event loop does not serve itself (see
//! [`crate::exec`] for the one execution path and
//! [`crate::exec::INLINE_BUDGET_NS`] for when it does) becomes a
//! [`Job`]: it lives in the global [`JobQueue`], on a worker, or parked
//! on its connection while the response queue is full. Each worker step
//! drains one batch through [`crate::exec::advance`] and requeues the
//! job at the back, so concurrent requests interleave fairly whatever
//! their `t`.
//!
//! **Doorbell.** A worker rings the event loop once per step, not once
//! per frame: [`ConnShared::try_send`] only queues, and the step's one
//! [`ConnShared::kick`] follows its last frame — for a finished job
//! that kick is [`Job`]'s `Drop`, after the in-flight count fell, so
//! the same ring also lets a half-closed connection be torn down.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use srj_obs::journal::EventKind;
use srj_obs::{trace, StateTag, WorkerState};

use crate::event_loop::LoopNotify;
use crate::exec::{advance, Acquire, Progress, SampleRun};
use crate::protocol::RequestStatus;
use crate::server::Shared;

/// Most bytes the event loop copies together into one `write(2)`: an
/// answer's small frames (a short `BATCH` and its `DONE`, a burst of
/// control answers) leave in one syscall, while a frame larger than
/// this — a full 64 KiB `BATCH` — is handed to the socket as it is,
/// never re-copied.
const COALESCE_BYTES: usize = 16 * 1024;

// ---- jobs ----------------------------------------------------------------

/// One request in the worker pool's hands. Lives in the global queue,
/// on a worker, or parked on its connection when the response queue is
/// full.
pub(crate) struct Job {
    conn: Arc<ConnShared>,
    /// The `SAMPLE` being executed; `None` for a job that only delivers
    /// a frame the loop already built behind in-flight work.
    run: Option<SampleRun>,
    /// Encoded frames not yet handed to the connection (front = next).
    outbox: VecDeque<Vec<u8>>,
    /// Set when the answer's last frame is in (or past) the outbox.
    done: bool,
}

impl Job {
    pub(crate) fn sample(run: SampleRun, conn: Arc<ConnShared>) -> Self {
        conn.inflight.fetch_add(1, Ordering::AcqRel);
        Job {
            conn,
            run: Some(run),
            outbox: VecDeque::new(),
            done: false,
        }
    }

    /// A job that only delivers one pre-encoded frame (stats, update
    /// and error answers queued behind in-flight work).
    pub(crate) fn respond(frame: Vec<u8>, conn: Arc<ConnShared>) -> Self {
        conn.inflight.fetch_add(1, Ordering::AcqRel);
        Job {
            conn,
            run: None,
            outbox: VecDeque::from([frame]),
            done: true,
        }
    }

    /// The client is gone (or the server is) before the answer was
    /// complete: charge what ran to the statistics.
    pub(crate) fn abandon(&mut self, shared: &Shared) {
        if let Some(run) = &mut self.run {
            run.abandon(shared);
        }
    }
}

impl Drop for Job {
    /// A job is in flight from construction until it is dropped —
    /// finished, abandoned, or drained at shutdown. The balanced
    /// counter is what keeps the reaper away from connections with
    /// pending work. The kick tells the event loop about the frames the
    /// job's last step queued, and wakes it so a half-closed connection
    /// whose last job just finished is torn down promptly.
    fn drop(&mut self) {
        self.conn.inflight.fetch_sub(1, Ordering::AcqRel);
        self.conn.kick();
    }
}

// ---- per-connection state ------------------------------------------------

/// The bounded response queue of one connection: workers `try_send`
/// into it, the event loop drains it to the socket. Capacity is the
/// backpressure window ([`crate::ServerConfig::queue_frames`]); the
/// loop's own answers may exceed it by a bounded margin because frame
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
    /// [`crate::ServerConfig::idle_timeout`].
    last_activity_ns: AtomicU64,
    /// Jobs alive on this connection (queued, on a worker, or parked)
    /// — the reaper never touches a connection with work in flight,
    /// teardown waits for in-flight jobs to drain, and the loop answers
    /// directly only at zero: every earlier answer is then already in
    /// the out-queue, so nothing is overtaken.
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
    /// parks) and after teardown (the caller finishes the job). Queues
    /// only — the caller owes the loop one [`ConnShared::kick`] after
    /// its last frame.
    pub(crate) fn try_send(&self, frame: Vec<u8>) -> Result<(), SendError> {
        let mut out = self.out.lock().expect("out queue poisoned");
        if out.disconnected {
            return Err(SendError::Disconnected);
        }
        if out.frames.len() >= out.capacity {
            return Err(SendError::Full(frame));
        }
        out.frames.push_back(frame);
        Ok(())
    }

    /// Loop-side send for answers the loop built itself: never refused
    /// at capacity — bounded anyway, because the loop stops decoding
    /// frames while the queue is full, so at most one answer per
    /// decoded frame can overshoot.
    pub(crate) fn push_direct(&self, frame: Vec<u8>) {
        let mut out = self.out.lock().expect("out queue poisoned");
        if !out.disconnected {
            out.frames.push_back(frame);
        }
    }

    /// Whether no job of this connection is alive. Only the event loop
    /// creates jobs, so once it reads `true` here every earlier answer
    /// is in the out-queue or on the wire, and stays so until the loop
    /// itself queues more work: it may answer directly without
    /// reordering anything.
    pub(crate) fn no_jobs(&self) -> bool {
        self.inflight.load(Ordering::Acquire) == 0
    }

    /// Next frame for the socket (event loop only) — the per-frame
    /// path a connection with a writer-side fault schedule keeps.
    pub(crate) fn pop_out(&self) -> Option<Vec<u8>> {
        self.out
            .lock()
            .expect("out queue poisoned")
            .frames
            .pop_front()
    }

    /// Refills the (fully written) write buffer `wb` with the next
    /// stretch of queued frames for one `write(2)` (event loop only):
    /// frames are copied together while they fit [`COALESCE_BYTES`]; a
    /// frame larger than that replaces `wb` outright. `false` when
    /// nothing is queued.
    pub(crate) fn pop_out_coalesced(&self, wb: &mut Vec<u8>) -> bool {
        let mut out = self.out.lock().expect("out queue poisoned");
        let Some(first) = out.frames.pop_front() else {
            return false;
        };
        if first.len() > COALESCE_BYTES {
            *wb = first;
            return true;
        }
        wb.clear();
        wb.extend_from_slice(&first);
        while let Some(next) = out.frames.front() {
            if wb.len() + next.len() > COALESCE_BYTES {
                break;
            }
            wb.extend_from_slice(next);
            out.frames.pop_front();
        }
        true
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
    pub(crate) fn new() -> Self {
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

    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    pub(crate) fn drain(&self) -> Vec<Job> {
        self.jobs
            .lock()
            .expect("job queue poisoned")
            .drain(..)
            .collect()
    }

    /// Queue depth right now — the load-shed signal.
    pub(crate) fn len(&self) -> usize {
        self.jobs.lock().expect("job queue poisoned").len()
    }
}

/// Enqueues a job; when shutdown has already closed the queue, answers
/// the request with a best-effort `DONE{ShuttingDown}` instead (the
/// connection is being torn down, so a full queue just drops it).
pub(crate) fn enqueue(shared: &Shared, job: Job) {
    let Some(mut job) = shared.queue.push(job) else {
        return;
    };
    if !job.done {
        if let Some(run) = &mut job.run {
            let _ = job
                .conn
                .try_send(run.conclude(shared, RequestStatus::ShuttingDown));
        }
    }
}

// ---- workers -------------------------------------------------------------

pub(crate) fn worker_loop(shared: &Shared) {
    let tag = shared.profiler.register();
    while let Some(job) = shared.queue.pop() {
        step(shared, job, &tag);
        tag.set(WorkerState::Idle);
    }
}

/// Sends queued frames until the outbox is empty or the connection's
/// queue is full, then rings the loop once. Full ⇒ park on the
/// connection (with a kick so the event loop always notices);
/// disconnected ⇒ drop; empty + done ⇒ finished, and the drop of the
/// job is the ring. Returns the job when everything was sent and it
/// continues; `None` when it parked, finished, or was dropped — it left
/// this worker.
fn flush_outbox(shared: &Shared, mut job: Job, tag: &StateTag) -> Option<Job> {
    let mut queued = false;
    while let Some(frame) = job.outbox.pop_front() {
        match job.conn.try_send(frame) {
            Ok(()) => queued = true,
            Err(SendError::Full(frame)) => {
                job.outbox.push_front(frame);
                if job.conn.closed.load(Ordering::Acquire) {
                    job.abandon(shared);
                    return None;
                }
                // The client stopped reading and its window filled:
                // the request parks on its connection. A rare
                // control-plane condition, so it goes to the journal
                // (and the park counter) rather than the trace ring.
                tag.set(WorkerState::Park);
                let peer = job.conn.peer.clone();
                shared.server_metrics.backpressure_parks.inc();
                srj_obs::journal::event(EventKind::BackpressurePark)
                    .dataset(job.run.as_ref().map(|run| run.req.dataset))
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
                    for mut job in stranded {
                        job.abandon(shared);
                    }
                }
                return None;
            }
            Err(SendError::Disconnected) => {
                job.abandon(shared);
                return None;
            }
        }
    }
    if job.done {
        return None;
    }
    if queued {
        job.conn.kick();
    }
    Some(job)
}

/// One worker step: flush, produce at most one batch, flush, requeue.
fn step(shared: &Shared, job: Job, tag: &StateTag) {
    // The request's span id is current for everything this step does,
    // the park event of a flush included.
    let _trace = job.run.as_ref().map(SampleRun::trace_scope);
    tag.set(WorkerState::Write);
    let Some(mut job) = flush_outbox(shared, job, tag) else {
        return;
    };
    // Respond jobs carry only a pre-encoded frame; with the outbox
    // clear they are finished by flush_outbox, never reach here.
    if let Some(run) = &mut job.run {
        run.mark_scheduled();
        let progress = advance(shared, run, Acquire::Blocking, tag, &mut job.outbox);
        job.done = matches!(progress, Progress::Done);
    }
    tag.set(WorkerState::Write);
    if let Some(job) = flush_outbox(shared, job, tag) {
        enqueue(shared, job);
    }
}
