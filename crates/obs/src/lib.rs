//! # `srj-obs` — observability substrate for the sampling engine
//!
//! A dependency-free (std-only) observability layer shared by every
//! crate in the workspace, built from three independent pieces:
//!
//! * [`metrics`] — a **registry** of named counters, gauges, and
//!   log₂-bucketed histograms. Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are cheap `Arc` clones cached at call sites, so
//!   the hot path is a single relaxed atomic add; the registry itself
//!   is only locked to register a metric or to render the
//!   Prometheus-style text exposition ([`Registry::render`]).
//! * [`trace`] — **sampled span tracing**. A request that wins the
//!   sampling coin-flip ([`trace::try_start_trace`]) gets a nonzero
//!   trace id; every layer it passes through appends
//!   `(trace_id, span, event, ns)` records into per-thread lock-free
//!   ring buffers. When tracing is disabled (the default) the
//!   per-event cost is one relaxed load and a branch.
//! * [`mod@journal`] — a bounded in-memory **lifecycle event log**. Epoch
//!   swaps, cell patches, compactions, and backpressure parks emit a
//!   structured [`LifecycleEvent`] (dataset, epoch, rung, dirty cells,
//!   duration, Σµ before/after) with process-monotone sequence numbers
//!   and timestamps.
//!
//! On top of the live layer sit the analysis pieces:
//!
//! * [`slowlog`] — tail-based slow-request capture: always-on span
//!   rings (see [`trace::set_always_record`]) plus a bounded
//!   [`SlowLog`] that retains full span trees and request context
//!   only for requests that finished over a latency threshold.
//! * [`profiler`] — a sampling worker-state profiler: threads publish
//!   a relaxed [`WorkerState`] tag, a sampler turns the tags into
//!   per-state counters.
//! * [`json`] — the shared JSON string-escaping helper every
//!   JSON-producing surface uses for untrusted labels.
//!
//! The trace sink and the journal are process-global singletons —
//! engine-internal code cannot be plumbed an instance — while the
//! metrics [`Registry`] is a value the embedding layer (the server)
//! owns, so tests and multiple servers in one process do not share
//! counters.

pub mod clock;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profiler;
pub mod slowlog;
pub mod trace;

pub use journal::{journal, EventBuilder, EventKind, Journal, LifecycleEvent};
pub use metrics::{Counter, Gauge, Histogram, MetricSnapshot, Registry, ValueSnapshot};
pub use profiler::{Profiler, StateTag, WorkerState};
pub use slowlog::{SlowEntry, SlowLog, SlowSpan};
pub use trace::{SpanRecord, TraceGuard};
