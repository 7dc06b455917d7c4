//! The one execution path of a `SAMPLE`, shared by its two schedulers.
//!
//! A request is a [`SampleRun`]; [`advance`] takes it one step —
//! acquire the handle on the first, draw one batch, encode the `BATCH`
//! frame, and on the last step account for the request and encode its
//! `DONE`. *Where* that step runs is the only thing the schedulers
//! decide:
//!
//! * the **worker pool** ([`crate::worker`]) calls it with
//!   [`Acquire::Blocking`] — build the engine on a cache miss, run any
//!   due swap — one batch per step, requeueing in between;
//! * the **event loop** calls it with [`Acquire::Cheap`] for a request
//!   on a quiet connection, and serves it there and then unless the
//!   acquisition declines ([`Progress::Declined`]), in which case the
//!   untouched run goes to the workers.
//!
//! The request's one record (its dataset's request series, which
//! `STATS` and `METRICS` both read), slow-log capture, trace spans and
//! the `DONE` frame are produced here and nowhere else, so the two
//! paths cannot drift: same seed, same pairs, same counters, on either
//! thread.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use srj_core::SampleError;
use srj_engine::SamplerHandle;
use srj_obs::trace::{self, TraceGuard};
use srj_obs::{SlowEntry, StateTag, WorkerState};

use crate::protocol::{encode_response, RequestStats, RequestStatus, Response, SampleRequest};
use crate::server::{Shared, SLOWLOG_MAX_SPANS};

/// The loop-thread time one wake-up may spend drawing, nanoseconds —
/// at once the most a single request may be *predicted* to cost
/// (`t ×` its engine's observed ns/sample) to be served on the event
/// loop, and the most one `poller.wait` pass serves inline across all
/// its connections before the rest overflow to the workers.
///
/// Derivation: handing a request to a worker and getting its frames
/// back costs ~20 µs on the reference host (`server.sample1_rtt_us` −
/// `server.ping_rtt_us` at PR 16: queue push, condvar wake, two context
/// switches, doorbell, a second loop pass). Below that, a hand-off
/// costs more than the work it moves; the budget is ~2× it, so a
/// request is kept only while the loop — which every other connection
/// waits on — is held for about as long as the hand-off would have
/// taken anyway, and never for the hundreds of microseconds a
/// `t = 2048` draw takes. A constant, not a knob: both sides of the
/// choice are measured by the benchmark (`small_requests` one side,
/// the other three workloads the other), and the inputs to it are the
/// request and the engine's own counters.
pub(crate) const INLINE_BUDGET_NS: u64 = 50_000;

/// How [`advance`] may obtain the request's handle.
#[derive(Clone, Copy)]
pub(crate) enum Acquire {
    /// A worker's way: build the engine on a cache miss and run any
    /// maintenance that is due.
    Blocking,
    /// The event loop's way: only an engine that is already cached, has
    /// nothing due, and whose observed ns/sample predicts the whole
    /// request within `budget_ns` — anything else is declined, never
    /// waited for.
    Cheap { budget_ns: u64 },
}

/// What one [`advance`] did.
pub(crate) enum Progress {
    /// [`Acquire::Cheap`] could not be met; nothing was drawn, recorded
    /// or encoded. The run belongs to a worker.
    Declined,
    /// A batch was produced; more remain.
    Pending,
    /// The `DONE` frame is in the outbox and the request is accounted
    /// for.
    Done,
}

/// One `SAMPLE` request on its way through the server: everything the
/// execution path needs, and nothing about which thread runs it.
pub(crate) struct SampleRun {
    pub(crate) req: SampleRequest,
    /// Nonzero when this request won the trace-sampling coin flip; the
    /// id is echoed in the `DONE` frame so the client can fetch the
    /// spans.
    trace_id: u64,
    /// The id spans are recorded under on whichever thread runs the
    /// request: equal to `trace_id` for sampled requests, a forced id
    /// when slow-log capture is on (every request must leave a span
    /// trail the capture can snapshot), `0` otherwise. Never echoed —
    /// `DONE` semantics ride on `trace_id` alone.
    span_id: u64,
    started: Instant,
    /// Decode-to-first-worker-step delay — the queue-wait component of
    /// a slow-log capture. Stays unset (zero) for a request served
    /// inline: it never waited in a queue.
    queue_wait: Option<Duration>,
    /// The serving handle, held from acquisition to the end of the
    /// request: engine and handle are paid for once, not per batch.
    handle: Option<SamplerHandle>,
    /// Samples encoded into `BATCH` frames so far.
    sent: u64,
    /// Whether the request has been charged to the statistics.
    recorded: bool,
}

impl SampleRun {
    /// Starts the clock: call at frame decode, once admission passed.
    pub(crate) fn new(req: SampleRequest, trace_id: u64, span_id: u64) -> Self {
        SampleRun {
            req,
            trace_id,
            span_id,
            started: Instant::now(),
            queue_wait: None,
            handle: None,
            sent: 0,
            recorded: false,
        }
    }

    /// Makes the request's span id current on this thread while the
    /// guard lives — everything a scheduler does for the request,
    /// including the engine-internal draw-loop events that only see the
    /// thread-local id, must happen inside it.
    pub(crate) fn trace_scope(&self) -> TraceGuard {
        trace::set_current(self.span_id)
    }

    /// A worker picked the request up: the first call fixes its queue
    /// wait.
    pub(crate) fn mark_scheduled(&mut self) {
        let started = self.started;
        self.queue_wait.get_or_insert_with(|| started.elapsed());
    }

    /// Nanoseconds since the request was decoded.
    pub(crate) fn age_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    fn iterations(&self) -> u64 {
        self.handle.as_ref().map_or(0, |h| h.report().iterations)
    }

    /// Charges the request to its dataset's request series — once,
    /// however many ways it could end.
    fn settle(&mut self, shared: &Shared, ok: bool, iterations: u64, elapsed: Duration) {
        if !std::mem::replace(&mut self.recorded, true) {
            shared.record_request(self.req.dataset, ok, self.sent, iterations, elapsed);
        }
    }

    /// Ends the request with `status`: slow-log capture, statistics,
    /// and the `DONE` frame, which the caller delivers. Recording
    /// happens here, not at delivery: the `DONE` reaches the client
    /// strictly after this, so a follow-up `STATS` request can never
    /// miss the request it chases.
    pub(crate) fn conclude(&mut self, shared: &Shared, status: RequestStatus) -> Vec<u8> {
        let iterations = self.iterations();
        let elapsed = self.started.elapsed();
        self.maybe_capture_slow(shared, iterations, elapsed);
        self.settle(shared, status == RequestStatus::Ok, iterations, elapsed);
        trace::event("batch_write", "done_enqueued");
        encode_response(&Response::Done {
            req_id: self.req.req_id,
            status,
            stats: RequestStats {
                samples: self.sent,
                iterations,
                elapsed_ns: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                trace_id: self.trace_id,
            },
        })
    }

    /// Records a request whose client went away before its `DONE` was
    /// produced (a no-op once [`SampleRun::conclude`] ran).
    pub(crate) fn abandon(&mut self, shared: &Shared) {
        let (iterations, elapsed) = (self.iterations(), self.started.elapsed());
        self.settle(shared, false, iterations, elapsed);
    }

    /// Tail-based slow-request capture: when a finished request
    /// breached the latency threshold, snapshot its span tree (still in
    /// the rings — the capture races only ring wraparound, not a
    /// sampling decision) plus the request context into the bounded
    /// slow log.
    fn maybe_capture_slow(&self, shared: &Shared, iterations: u64, elapsed: Duration) {
        if !shared.slow_log.enabled() || self.span_id == 0 {
            return;
        }
        let elapsed_ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let Some(threshold) = shared.slow_threshold_ns() else {
            return;
        };
        if elapsed_ns < threshold {
            return;
        }
        let mut spans = SlowEntry::capture_spans(self.span_id);
        spans.truncate(SLOWLOG_MAX_SPANS);
        shared.server_metrics.slow_captures.inc();
        shared.slow_log.record(SlowEntry {
            trace_id: self.span_id,
            finished_ns: srj_obs::clock::now_ns(),
            dataset: self.req.dataset,
            t: self.req.t,
            algorithm: algorithm_name(self.req.algorithm).to_string(),
            epoch: shared.dataset_epoch(self.req.dataset),
            iterations,
            queue_wait_ns: self
                .queue_wait
                .unwrap_or_default()
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64,
            elapsed_ns,
            spans,
        });
    }
}

/// Stable lower-case algorithm name for slow-log context (`auto` =
/// none forced: the engine chose).
fn algorithm_name(a: Option<srj_engine::Algorithm>) -> &'static str {
    match a {
        None => "auto",
        Some(srj_engine::Algorithm::Kds) => "kds",
        Some(srj_engine::Algorithm::KdsRejection) => "kds_rejection",
        Some(srj_engine::Algorithm::Bbst) => "bbst",
    }
}

/// One step of a request, on the calling thread: acquire the handle if
/// this is the first step, draw one batch through it into a `BATCH`
/// frame, and — when the request completes or errors — account for it
/// and append its `DONE`. Frames go to the back of `outbox`; delivering
/// them is the scheduler's business. `tag` is the calling thread's
/// profiler tag, so the state samples say `Acquire`/`Draw` wherever the
/// CPU actually went.
pub(crate) fn advance(
    shared: &Shared,
    run: &mut SampleRun,
    how: Acquire,
    tag: &StateTag,
    outbox: &mut VecDeque<Vec<u8>>,
) -> Progress {
    if run.handle.is_none() {
        tag.set(WorkerState::Acquire);
        trace::event("acquire", "begin");
        match shared.acquire_handle(&run.req, how) {
            Ok(Some(handle)) => {
                trace::event("acquire", "handle_ready");
                run.handle = Some(handle);
            }
            Ok(None) => {
                trace::event("acquire", "handed_off");
                return Progress::Declined;
            }
            Err(status) => {
                trace::event("acquire", "failed");
                outbox.push_back(run.conclude(shared, status));
                return Progress::Done;
            }
        }
    }
    tag.set(WorkerState::Draw);
    let handle = run.handle.as_mut().expect("handle acquired above");
    let remaining = run.req.t.saturating_sub(run.sent);
    let batch = remaining.min(shared.config.batch_pairs as u64) as usize;
    trace::event("draw_loop", "batch_begin");
    // One query per batch, drawn with the handle's concrete RNG. An
    // error forfeits the batch's partial draws — the DONE status
    // carries the error either way.
    let (pairs, error) = match handle.sample_batch(batch) {
        Ok(pairs) => (pairs, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    trace::event("draw_loop", "batch_end");
    run.sent += pairs.len() as u64;
    if !pairs.is_empty() {
        outbox.push_back(encode_response(&Response::Batch {
            req_id: run.req.req_id,
            pairs,
        }));
        trace::event("batch_write", "batch_enqueued");
    }
    let status = match error {
        Some(SampleError::EmptyJoin) => RequestStatus::EmptyJoin,
        Some(SampleError::RejectionLimit) => RequestStatus::RejectionLimit,
        None if run.sent >= run.req.t => RequestStatus::Ok,
        None => return Progress::Pending,
    };
    outbox.push_back(run.conclude(shared, status));
    Progress::Done
}
