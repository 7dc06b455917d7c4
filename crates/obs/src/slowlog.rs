//! Tail-based slow-request capture.
//!
//! Every request carries one [`Stages`] record, stamped at its stage
//! boundaries — one clock read each, charging the time since the
//! previous one — so the stages sum to its wall time exactly. Nothing
//! else is recorded while it runs.
//!
//! Only a request that *finishes slow* costs more: the server compares
//! its wall time against a threshold (absolute, or derived from the
//! live latency histogram's p99) and, on breach, copies the record
//! plus the request context into this bounded [`SlowLog`]. Retention
//! is newest-first FIFO: the log keeps the most recent `capacity` slow
//! requests and drops the oldest. Entries are fetched over the wire
//! (`SLOWLOG` frame) or rendered into `/vars`.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json;

/// Where one request's server-side time went, nanoseconds. The five
/// telescope on one clock, so they sum to the request's `elapsed_ns`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stages {
    /// Decode to the first worker step; 0 for a request served inline.
    pub queued_ns: u64,
    /// Obtaining the serving handle (a build on a cache miss, a due
    /// swap).
    pub acquire_ns: u64,
    /// Drawing the samples, summed over batches.
    pub draw_ns: u64,
    /// Encoding the `BATCH` frames, summed.
    pub encode_ns: u64,
    /// A worker's gaps between steps, and an inline request's gap from
    /// decode to its first step.
    pub waiting_ns: u64,
}

impl Stages {
    /// The sum of the five stages: the request's wall time.
    pub fn total(&self) -> u64 {
        self.queued_ns + self.acquire_ns + self.draw_ns + self.encode_ns + self.waiting_ns
    }
}

/// One retained slow request: its context and stage record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowEntry {
    /// Assigned by [`SlowLog::record`], counting from 1; the request's
    /// `DONE` frame carries it.
    pub id: u64,
    /// [`crate::clock::now_ns`] when the request finished.
    pub finished_ns: u64,
    /// Served dataset id.
    pub dataset: u64,
    /// Requested sample count.
    pub t: u64,
    /// The algorithm the request forced (`auto` when none was).
    pub algorithm: String,
    /// The algorithm that served it (empty when no handle was
    /// acquired).
    pub served: String,
    /// Dataset epoch the request was served against.
    pub epoch: u64,
    /// Rejection-loop iterations the request burned.
    pub iterations: u64,
    /// Batches drawn.
    pub batches: u64,
    /// Whether the event loop served it; otherwise a worker did.
    pub inline: bool,
    /// End-to-end wall time, decode to the last stamp.
    pub elapsed_ns: u64,
    /// Where `elapsed_ns` went.
    pub stages: Stages,
}

impl SlowEntry {
    /// One-line JSON rendering for `/vars` (the algorithm names are
    /// fixed-vocabulary today but escaped anyway).
    pub fn to_json(&self) -> String {
        let s = &self.stages;
        format!(
            "{{\"id\":{},\"finished_ns\":{},\"dataset\":{},\"t\":{},\
             \"algorithm\":{},\"served\":{},\"epoch\":{},\"iterations\":{},\
             \"batches\":{},\"inline\":{},\"elapsed_ns\":{},\"queued_ns\":{},\
             \"acquire_ns\":{},\"draw_ns\":{},\"encode_ns\":{},\"waiting_ns\":{}}}",
            self.id,
            self.finished_ns,
            self.dataset,
            self.t,
            json::escape(&self.algorithm),
            json::escape(&self.served),
            self.epoch,
            self.iterations,
            self.batches,
            self.inline,
            self.elapsed_ns,
            s.queued_ns,
            s.acquire_ns,
            s.draw_ns,
            s.encode_ns,
            s.waiting_ns,
        )
    }
}

/// Bounded retention of the most recent slow requests. `capacity` 0
/// disables retention entirely (`record` is a no-op).
pub struct SlowLog {
    capacity: usize,
    inner: Mutex<Retained>,
}

#[derive(Default)]
struct Retained {
    /// Entries recorded so far: the last id assigned.
    recorded: u64,
    entries: VecDeque<SlowEntry>,
}

impl SlowLog {
    /// A log retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            capacity,
            inner: Mutex::new(Retained::default()),
        }
    }

    /// Whether recording is enabled at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Retains `entry` under the next id, dropping the oldest entry
    /// past capacity, and returns the id (0 when the log is disabled).
    pub fn record(&self, mut entry: SlowEntry) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.recorded += 1;
        entry.id = inner.recorded;
        if inner.entries.len() >= self.capacity {
            inner.entries.pop_front();
        }
        inner.entries.push_back(entry);
        inner.recorded
    }

    /// The most recent `n` entries, newest first (a tail view).
    pub fn recent(&self, n: usize) -> Vec<SlowEntry> {
        let inner = self.inner.lock().unwrap();
        inner.entries.iter().rev().take(n).cloned().collect()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Whether the log holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(elapsed_ns: u64) -> SlowEntry {
        SlowEntry {
            finished_ns: elapsed_ns * 10,
            dataset: 1,
            t: 1000,
            algorithm: "auto".to_string(),
            served: "bbst".to_string(),
            epoch: 2,
            iterations: 5,
            batches: 1,
            elapsed_ns,
            stages: Stages {
                queued_ns: 100,
                draw_ns: elapsed_ns - 100,
                ..Stages::default()
            },
            ..SlowEntry::default()
        }
    }

    #[test]
    fn retention_is_bounded_and_newest_first() {
        let log = SlowLog::new(3);
        for i in 1..=5 {
            assert_eq!(log.record(entry(i * 1000)), i, "ids count from 1");
        }
        assert_eq!(log.len(), 3);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].id, 5); // newest first
        assert_eq!(recent[0].elapsed_ns, 5000);
        assert_eq!(recent[2].id, 3); // 1 and 2 dropped
        assert_eq!(log.recent(1).len(), 1);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let log = SlowLog::new(0);
        assert!(!log.enabled());
        assert_eq!(log.record(entry(1000)), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let log = SlowLog::new(1);
        log.record(entry(9000));
        let json = log.recent(1)[0].to_json();
        assert!(json.starts_with("{\"id\":1,"), "{json}");
        assert!(
            json.contains("\"algorithm\":\"auto\",\"served\":\"bbst\""),
            "{json}"
        );
        assert!(json.contains("\"inline\":false"), "{json}");
        assert!(
            json.ends_with("\"queued_ns\":100,\"acquire_ns\":0,\"draw_ns\":8900,\"encode_ns\":0,\"waiting_ns\":0}"),
            "{json}"
        );
    }
}
