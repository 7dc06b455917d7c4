//! Tail-based slow-request capture.
//!
//! The cheap half is in [`crate::trace`]: with always-on recording
//! ([`crate::trace::set_always_record`]) every request gets a forced
//! trace id and leaves its span records in the lock-free rings — a
//! few relaxed atomics per stage, paid unconditionally. The rings
//! wrap, so fast requests evaporate on their own.
//!
//! The expensive half happens only for requests that *finish slow*:
//! the server compares the request's wall time against a threshold
//! (absolute, or derived from the live latency histogram's p99) and,
//! on breach, snapshots the full span tree plus request context into
//! this bounded [`SlowLog`]. Retention is newest-first FIFO: the log
//! keeps the most recent `capacity` slow requests and drops the
//! oldest. Entries are fetched over the wire (`SLOWLOG` frame) or
//! rendered into `/vars`.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json;
use crate::trace;

/// One captured span, owned (the ring records resolve to
/// `&'static str`, but an entry must outlive ring wraparound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowSpan {
    /// [`crate::clock::now_ns`] at record time.
    pub ns: u64,
    /// Instrumented stage (e.g. `draw_loop`).
    pub span: String,
    /// What happened in the stage (e.g. `begin`).
    pub event: String,
}

/// One retained slow request: full request context plus the span tree
/// snapshotted at completion.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowEntry {
    /// The request's (forced or sampled) trace id.
    pub trace_id: u64,
    /// [`crate::clock::now_ns`] when the request finished.
    pub finished_ns: u64,
    /// Served dataset id.
    pub dataset: u64,
    /// Requested sample count.
    pub t: u64,
    /// Serving algorithm name (`auto` when none was forced).
    pub algorithm: String,
    /// Dataset epoch the request was served against.
    pub epoch: u64,
    /// Rejection-loop iterations the request burned.
    pub iterations: u64,
    /// Time between frame decode and the first worker step.
    pub queue_wait_ns: u64,
    /// End-to-end wall time.
    pub elapsed_ns: u64,
    /// The span tree, oldest first (what the rings still held).
    pub spans: Vec<SlowSpan>,
}

impl SlowEntry {
    /// Snapshots whatever the rings still hold for `trace_id` into an
    /// owned span list, oldest first.
    pub fn capture_spans(trace_id: u64) -> Vec<SlowSpan> {
        trace::spans_for(trace_id)
            .into_iter()
            .map(|r| SlowSpan {
                ns: r.ns,
                span: r.span.to_string(),
                event: r.event.to_string(),
            })
            .collect()
    }

    /// One-line JSON rendering for `/vars` (algorithm is the only
    /// string field; it is fixed-vocabulary today but escaped anyway).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160 + self.spans.len() * 48);
        out.push_str(&format!(
            "{{\"trace_id\":{},\"finished_ns\":{},\"dataset\":{},\"t\":{},\
             \"algorithm\":{},\"epoch\":{},\"iterations\":{},\
             \"queue_wait_ns\":{},\"elapsed_ns\":{},\"spans\":[",
            self.trace_id,
            self.finished_ns,
            self.dataset,
            self.t,
            json::escape(&self.algorithm),
            self.epoch,
            self.iterations,
            self.queue_wait_ns,
            self.elapsed_ns,
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"ns\":{},\"span\":{},\"event\":{}}}",
                s.ns,
                json::escape(&s.span),
                json::escape(&s.event)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Bounded retention of the most recent slow requests. `capacity` 0
/// disables retention entirely (`record` is a no-op).
pub struct SlowLog {
    capacity: usize,
    inner: Mutex<VecDeque<SlowEntry>>,
}

impl SlowLog {
    /// A log retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            capacity,
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether recording is enabled at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Retains `entry`, dropping the oldest past capacity.
    pub fn record(&self, entry: SlowEntry) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.len() >= self.capacity {
            inner.pop_front();
        }
        inner.push_back(entry);
    }

    /// The most recent `n` entries, newest first (a tail view).
    pub fn recent(&self, n: usize) -> Vec<SlowEntry> {
        let inner = self.inner.lock().unwrap();
        inner.iter().rev().take(n).cloned().collect()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the log holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace_id: u64, elapsed_ns: u64) -> SlowEntry {
        SlowEntry {
            trace_id,
            finished_ns: trace_id * 10,
            dataset: 1,
            t: 1000,
            algorithm: "bbst".to_string(),
            epoch: 2,
            iterations: 5,
            queue_wait_ns: 100,
            elapsed_ns,
            spans: vec![SlowSpan {
                ns: 1,
                span: "draw_loop".into(),
                event: "begin".into(),
            }],
        }
    }

    #[test]
    fn retention_is_bounded_and_newest_first() {
        let log = SlowLog::new(3);
        for i in 1..=5 {
            log.record(entry(i, i * 1000));
        }
        assert_eq!(log.len(), 3);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].trace_id, 5); // newest first
        assert_eq!(recent[2].trace_id, 3); // 1 and 2 dropped
        assert_eq!(log.recent(1).len(), 1);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let log = SlowLog::new(0);
        assert!(!log.enabled());
        log.record(entry(1, 1));
        assert!(log.is_empty());
    }

    #[test]
    fn capture_spans_snapshots_the_rings() {
        // event_for bypasses the sampling switch, so this test does
        // not toggle process-global trace state.
        let id = trace::start_trace_forced();
        trace::event_for(id, "acquire", "begin");
        trace::event_for(id, "draw_loop", "begin");
        let spans = SlowEntry::capture_spans(id);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].span, "acquire");
        assert_eq!(spans[1].span, "draw_loop");
        assert!(spans[0].ns <= spans[1].ns);
        assert!(SlowEntry::capture_spans(0).is_empty());
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let e = entry(7, 9000);
        let json = e.to_json();
        assert!(json.starts_with("{\"trace_id\":7,"), "{json}");
        assert!(json.contains("\"algorithm\":\"bbst\""), "{json}");
        assert!(
            json.contains("\"spans\":[{\"ns\":1,\"span\":\"draw_loop\",\"event\":\"begin\"}]"),
            "{json}"
        );
    }
}
