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
//! `STATS` and `METRICS` both read), slow-log capture and the `DONE`
//! frame are produced here and nowhere else, so the two paths cannot
//! drift: same seed, same pairs, same counters, on either thread.
//!
//! A run also carries its stage record ([`Stages`]). Each stage
//! boundary is one clock read that charges the time since the previous
//! read to the stage just ended: the gap before a step (`queued` on a
//! worker's first step, `waiting` otherwise), `acquire`, `draw`, and
//! `encode` for the `BATCH` frame. The reads telescope from the decode
//! stamp, so the stages sum to the request's `elapsed_ns` exactly — the
//! one elapsed time that `DONE`, the latency histogram and the slow log
//! all carry. A one-batch request reads the clock five times.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use srj_core::SampleError;
use srj_engine::SamplerHandle;
use srj_obs::{SlowEntry, Stages, StateTag, WorkerState};

use crate::protocol::{encode_response, RequestStats, RequestStatus, Response, SampleRequest};
use crate::server::Shared;

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
    /// The decode stamp: the request's clock starts here.
    started: Instant,
    /// The last stage boundary's clock read.
    last: Instant,
    /// Where the time from `started` to `last` went.
    stages: Stages,
    /// The serving handle, held from acquisition to the end of the
    /// request: engine and handle are paid for once, not per batch.
    handle: Option<SamplerHandle>,
    /// Whether the handle was acquired on the event loop.
    inline: bool,
    /// Batches drawn so far.
    batches: u64,
    /// Samples encoded into `BATCH` frames so far.
    sent: u64,
    /// Whether the request has been charged to the statistics.
    recorded: bool,
}

/// A field of [`Stages`], named where a clock read charges it.
#[derive(Clone, Copy)]
pub(crate) enum Stage {
    Queued,
    Acquire,
    Draw,
    Encode,
    Waiting,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl SampleRun {
    /// Starts the clock: call at frame decode, once admission passed.
    pub(crate) fn new(req: SampleRequest) -> Self {
        let started = Instant::now();
        SampleRun {
            req,
            started,
            last: started,
            stages: Stages::default(),
            handle: None,
            inline: false,
            batches: 0,
            sent: 0,
            recorded: false,
        }
    }

    /// One stage boundary: a clock read that charges the time since the
    /// previous one to `stage`.
    fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        let ns = nanos(now - self.last);
        self.last = now;
        let s = &mut self.stages;
        *match stage {
            Stage::Queued => &mut s.queued_ns,
            Stage::Acquire => &mut s.acquire_ns,
            Stage::Draw => &mut s.draw_ns,
            Stage::Encode => &mut s.encode_ns,
            Stage::Waiting => &mut s.waiting_ns,
        } += ns;
    }

    /// The stage the time before a step belongs to: a request's queueing
    /// ends at its first worker step (`worker`, no handle yet); any
    /// other gap is waiting.
    pub(crate) fn gap(&self, worker: bool) -> Stage {
        if worker && self.handle.is_none() {
            Stage::Queued
        } else {
            Stage::Waiting
        }
    }

    /// Wall time from decode to the last stage boundary.
    pub(crate) fn elapsed(&self) -> Duration {
        self.last - self.started
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

    /// Ends the request with `status`, charging the time since the last
    /// boundary to `stage`: slow-log capture, statistics, and the `DONE`
    /// frame, which the caller delivers. Recording happens here, not at
    /// delivery: the `DONE` reaches the client strictly after this, so a
    /// follow-up `STATS` request can never miss the request it chases.
    pub(crate) fn conclude(
        &mut self,
        shared: &Shared,
        status: RequestStatus,
        stage: Stage,
    ) -> Vec<u8> {
        self.lap(stage);
        let iterations = self.iterations();
        let elapsed = self.elapsed();
        let slow_id = self.maybe_capture_slow(shared, iterations, elapsed);
        self.settle(shared, status == RequestStatus::Ok, iterations, elapsed);
        encode_response(&Response::Done {
            req_id: self.req.req_id,
            status,
            stats: RequestStats {
                samples: self.sent,
                iterations,
                elapsed_ns: nanos(elapsed),
                trace_id: slow_id,
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
    /// breached the latency threshold, its stage record and context go
    /// into the bounded slow log. Returns the entry's id, 0 when the
    /// request was not captured.
    fn maybe_capture_slow(&self, shared: &Shared, iterations: u64, elapsed: Duration) -> u64 {
        let elapsed_ns = nanos(elapsed);
        let slow = shared
            .slow_threshold_ns()
            .is_some_and(|threshold| elapsed_ns >= threshold);
        if !shared.slow_log.enabled() || !slow {
            return 0;
        }
        shared.server_metrics.slow_captures.inc();
        shared.slow_log.record(SlowEntry {
            id: 0,
            finished_ns: srj_obs::clock::now_ns(),
            dataset: self.req.dataset,
            t: self.req.t,
            algorithm: algorithm_name(self.req.algorithm).to_string(),
            served: self
                .handle
                .as_ref()
                .map_or("", |h| algorithm_name(Some(h.algorithm())))
                .to_string(),
            epoch: shared.dataset_epoch(self.req.dataset),
            iterations,
            batches: self.batches,
            inline: self.inline,
            elapsed_ns,
            stages: self.stages,
        })
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
    run.lap(run.gap(matches!(how, Acquire::Blocking)));
    if run.handle.is_none() {
        tag.set(WorkerState::Acquire);
        match shared.acquire_handle(&run.req, how) {
            Ok(Some(handle)) => {
                run.handle = Some(handle);
                run.inline = matches!(how, Acquire::Cheap { .. });
                run.lap(Stage::Acquire);
            }
            Ok(None) => {
                // Untouched, as the workers must find it: its clock
                // still reads from decode.
                run.stages = Stages::default();
                run.last = run.started;
                return Progress::Declined;
            }
            Err(status) => {
                outbox.push_back(run.conclude(shared, status, Stage::Acquire));
                return Progress::Done;
            }
        }
    }
    tag.set(WorkerState::Draw);
    let handle = run.handle.as_mut().expect("handle acquired above");
    let remaining = run.req.t.saturating_sub(run.sent);
    let batch = remaining.min(shared.config.batch_pairs as u64) as usize;
    // One query per batch, drawn with the handle's concrete RNG. An
    // error forfeits the batch's partial draws — the DONE status
    // carries the error either way.
    let (pairs, error) = match handle.sample_batch(batch) {
        Ok(pairs) => (pairs, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    run.batches += 1;
    run.lap(Stage::Draw);
    run.sent += pairs.len() as u64;
    if !pairs.is_empty() {
        outbox.push_back(encode_response(&Response::Batch {
            req_id: run.req.req_id,
            pairs,
        }));
    }
    let status = match error {
        Some(SampleError::EmptyJoin) => RequestStatus::EmptyJoin,
        Some(SampleError::RejectionLimit) => RequestStatus::RejectionLimit,
        None if run.sent >= run.req.t => RequestStatus::Ok,
        None => {
            run.lap(Stage::Encode);
            return Progress::Pending;
        }
    };
    outbox.push_back(run.conclude(shared, status, Stage::Encode));
    Progress::Done
}
