//! A bounded in-memory lifecycle event log.
//!
//! Every maintenance action in the serving stack — epoch swaps, cell
//! patches, dataset compactions, and backpressure parks — emits one
//! structured [`LifecycleEvent`] into the process-global [`journal`].
//! Sequence numbers and timestamps are assigned under the journal
//! lock, so within the journal both are strictly monotone: event order
//! *is* causal order as observed at emission.
//!
//! The journal is bounded (oldest events drop first) and these are
//! rare control-plane actions, so a `Mutex` is fine — nothing here
//! is on a sampling hot path. Listeners (e.g. `srj-serve --log-json`)
//! are invoked synchronously on the emitting thread, outside the
//! buffer lock.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock, RwLock};

use crate::clock;
use crate::json;

/// Events the journal retains before dropping the oldest.
const CAPACITY: usize = 4096;

/// Which maintenance rung (or serving condition) fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Rung 1: overlay refresh over an unchanged base.
    MinorSwap,
    /// Rung 2: major swap that rebuilt only dirty `S`-cells.
    CellPatch,
    /// Rung 3: major swap that rebuilt the whole index.
    FullRebuild,
    /// A dataset store folded its delta into a fresh base snapshot.
    Compaction,
    /// A connection's send queue filled and parked its in-flight
    /// request.
    BackpressurePark,
    /// The server declined a request with `BUSY` because the worker
    /// queue (or the connection itself) was saturated past the shed
    /// high-water mark.
    LoadShed,
    /// The event loop's sweep timer closed a connection that sat idle
    /// past its deadline with no in-flight work.
    ConnReaped,
    /// `accept(2)` hit fd exhaustion (`EMFILE`/`ENFILE`); the server
    /// paused accepting and backed off instead of spinning. `label`
    /// carries the errno text, `duration_ns` the backoff applied.
    AcceptBackoff,
}

impl EventKind {
    /// Stable lower-snake name, used in JSON and log output.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::MinorSwap => "minor_swap",
            EventKind::CellPatch => "cell_patch",
            EventKind::FullRebuild => "full_rebuild",
            EventKind::Compaction => "compaction",
            EventKind::BackpressurePark => "backpressure_park",
            EventKind::LoadShed => "load_shed",
            EventKind::ConnReaped => "conn_reaped",
            EventKind::AcceptBackoff => "accept_backoff",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured lifecycle event.
#[derive(Clone, Debug, PartialEq)]
pub struct LifecycleEvent {
    /// Journal-assigned sequence number, strictly monotone.
    pub seq: u64,
    /// [`clock::now_ns`] at emission, monotone within the journal.
    pub ns: u64,
    /// What fired.
    pub kind: EventKind,
    /// The dataset's registered id, when the emitter knows it (engine
    /// internals see only the store, which carries an optional label).
    pub dataset: Option<u64>,
    /// Free-form context string (peer address, dataset display label).
    /// Untrusted: JSON rendering escapes it.
    pub label: Option<String>,
    /// Dataset/store epoch after the action.
    pub epoch: u64,
    /// Cells rebuilt (0 when not applicable).
    pub dirty_cells: u64,
    /// Wall time the action took, nanoseconds.
    pub duration_ns: u64,
    /// `Σµ` (total sampling weight) before the action, when known.
    pub mu_before: f64,
    /// `Σµ` after the action, when known.
    pub mu_after: f64,
    /// Mutations pending behind the overlay a minor swap installed
    /// (0 when not applicable).
    pub pending_ops: u64,
    /// Sources that overlay draws from — the base index plus one per
    /// chunk of inserts (0 when not applicable).
    pub sources: u64,
}

impl LifecycleEvent {
    /// One-line JSON rendering (stable key order). Every field is
    /// numeric or a fixed identifier except `label`, which is
    /// untrusted and therefore escaped.
    pub fn to_json(&self) -> String {
        let dataset = match self.dataset {
            Some(d) => d.to_string(),
            None => "null".to_string(),
        };
        let label = match &self.label {
            Some(l) => json::escape(l),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"seq\":{},\"ns\":{},\"kind\":\"{}\",\"dataset\":{},",
                "\"label\":{},\"epoch\":{},\"dirty_cells\":{},",
                "\"duration_ns\":{},\"mu_before\":{},\"mu_after\":{},",
                "\"pending_ops\":{},\"sources\":{}}}"
            ),
            self.seq,
            self.ns,
            self.kind.as_str(),
            dataset,
            label,
            self.epoch,
            self.dirty_cells,
            self.duration_ns,
            fmt_f64(self.mu_before),
            fmt_f64(self.mu_after),
            self.pending_ops,
            self.sources,
        )
    }
}

/// JSON-safe f64: non-finite values have no JSON literal, so they
/// render as null.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Builder for a [`LifecycleEvent`]; emitters fill in what they know
/// and [`EventBuilder::emit`] assigns `seq`/`ns` and publishes.
#[derive(Debug)]
#[must_use = "the event is only published by emit()"]
pub struct EventBuilder {
    kind: EventKind,
    dataset: Option<u64>,
    label: Option<String>,
    epoch: u64,
    dirty_cells: u64,
    duration_ns: u64,
    mu_before: f64,
    mu_after: f64,
    pending_ops: u64,
    sources: u64,
}

impl EventBuilder {
    /// The dataset label, if the emitter knows one.
    pub fn dataset(mut self, dataset: Option<u64>) -> Self {
        self.dataset = dataset;
        self
    }

    /// Free-form context string (peer address, display label). Stored
    /// verbatim; JSON rendering escapes it.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Store epoch after the action.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Cells rebuilt.
    pub fn dirty_cells(mut self, cells: u64) -> Self {
        self.dirty_cells = cells;
        self
    }

    /// Wall time of the action, nanoseconds.
    pub fn duration_ns(mut self, ns: u64) -> Self {
        self.duration_ns = ns;
        self
    }

    /// `Σµ` before and after the action.
    pub fn mu(mut self, before: f64, after: f64) -> Self {
        self.mu_before = before;
        self.mu_after = after;
        self
    }

    /// What a minor swap installed: the mutations pending behind the
    /// overlay and the sources it draws from.
    pub fn overlay(mut self, pending_ops: u64, sources: u64) -> Self {
        self.pending_ops = pending_ops;
        self.sources = sources;
        self
    }

    /// Publishes into the global [`journal`].
    pub fn emit(self) {
        journal().publish(self);
    }
}

/// Starts building an event of `kind` (publish with
/// [`EventBuilder::emit`]).
pub fn event(kind: EventKind) -> EventBuilder {
    EventBuilder {
        kind,
        dataset: None,
        label: None,
        epoch: 0,
        dirty_cells: 0,
        duration_ns: 0,
        mu_before: 0.0,
        mu_after: 0.0,
        pending_ops: 0,
        sources: 0,
    }
}

type Listener = Box<dyn Fn(&LifecycleEvent) + Send + Sync>;

/// The bounded event log; see the module docs. Obtain the process
/// singleton with [`journal`].
pub struct Journal {
    inner: Mutex<Inner>,
    listeners: RwLock<Vec<Listener>>,
}

struct Inner {
    buf: VecDeque<LifecycleEvent>,
    next_seq: u64,
}

impl Journal {
    fn new() -> Self {
        Journal {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(CAPACITY),
                next_seq: 1,
            }),
            listeners: RwLock::new(Vec::new()),
        }
    }

    fn publish(&self, b: EventBuilder) {
        let event = {
            let mut inner = self.inner.lock().unwrap();
            let event = LifecycleEvent {
                seq: inner.next_seq,
                // Stamped under the lock: seq and ns are monotone
                // together, so journal order is timestamp order.
                ns: clock::now_ns(),
                kind: b.kind,
                dataset: b.dataset,
                label: b.label,
                epoch: b.epoch,
                dirty_cells: b.dirty_cells,
                duration_ns: b.duration_ns,
                mu_before: b.mu_before,
                mu_after: b.mu_after,
                pending_ops: b.pending_ops,
                sources: b.sources,
            };
            inner.next_seq += 1;
            if inner.buf.len() == CAPACITY {
                inner.buf.pop_front();
            }
            inner.buf.push_back(event.clone());
            event
        };
        for listener in self.listeners.read().unwrap().iter() {
            listener(&event);
        }
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<LifecycleEvent> {
        let inner = self.inner.lock().unwrap();
        let skip = inner.buf.len().saturating_sub(n);
        inner.buf.iter().skip(skip).cloned().collect()
    }

    /// Every retained event labelled with `dataset`, oldest first.
    pub fn for_dataset(&self, dataset: u64) -> Vec<LifecycleEvent> {
        let inner = self.inner.lock().unwrap();
        inner
            .buf
            .iter()
            .filter(|e| e.dataset == Some(dataset))
            .cloned()
            .collect()
    }

    /// Registers a callback invoked synchronously for every event
    /// published after this call (e.g. `--log-json` stderr logging).
    pub fn add_listener(&self, f: impl Fn(&LifecycleEvent) + Send + Sync + 'static) {
        self.listeners.write().unwrap().push(Box::new(f));
    }
}

/// The process-global journal.
pub fn journal() -> &'static Journal {
    static JOURNAL: OnceLock<Journal> = OnceLock::new();
    JOURNAL.get_or_init(Journal::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    // The journal is a process global shared with concurrently running
    // tests, so assertions filter by dataset labels unique to each
    // test.

    #[test]
    fn events_are_ordered_and_filtered_by_dataset() {
        event(EventKind::MinorSwap).dataset(Some(901)).emit();
        event(EventKind::CellPatch)
            .dataset(Some(901))
            .epoch(2)
            .dirty_cells(3)
            .emit();
        event(EventKind::FullRebuild).dataset(Some(902)).emit();
        let events = journal().for_dataset(901);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::MinorSwap);
        assert_eq!(events[1].kind, EventKind::CellPatch);
        assert_eq!(events[1].dirty_cells, 3);
        assert!(events[0].seq < events[1].seq);
        assert!(events[0].ns <= events[1].ns);
        assert_eq!(journal().for_dataset(902).len(), 1);
    }

    #[test]
    fn json_rendering_is_stable() {
        let e = LifecycleEvent {
            seq: 5,
            ns: 123,
            kind: EventKind::FullRebuild,
            dataset: Some(7),
            label: None,
            epoch: 2,
            dirty_cells: 0,
            duration_ns: 456,
            mu_before: 10.5,
            mu_after: 9.0,
            pending_ops: 768,
            sources: 4,
        };
        assert_eq!(
            e.to_json(),
            "{\"seq\":5,\"ns\":123,\"kind\":\"full_rebuild\",\"dataset\":7,\
             \"label\":null,\"epoch\":2,\"dirty_cells\":0,\
             \"duration_ns\":456,\"mu_before\":10.5,\"mu_after\":9,\
             \"pending_ops\":768,\"sources\":4}"
        );
        let unlabelled = LifecycleEvent {
            dataset: None,
            mu_before: f64::NAN,
            ..e
        };
        let json = unlabelled.to_json();
        assert!(json.contains("\"dataset\":null"), "{json}");
        assert!(json.contains("\"mu_before\":null"), "{json}");
    }

    #[test]
    fn hostile_labels_are_json_escaped() {
        // Regression: a label with quotes, backslashes, and control
        // characters must not be interpolated raw — it would break out
        // of the JSON string and corrupt the `--log-json` stream.
        let e = LifecycleEvent {
            seq: 1,
            ns: 1,
            kind: EventKind::LoadShed,
            dataset: Some(1),
            label: Some("evil\"},{\"seq\":999\\\n\u{1}".to_string()),
            epoch: 0,
            dirty_cells: 0,
            duration_ns: 0,
            mu_before: 0.0,
            mu_after: 0.0,
            pending_ops: 0,
            sources: 0,
        };
        let json = e.to_json();
        assert!(
            json.contains("\"label\":\"evil\\\"},{\\\"seq\\\":999\\\\\\n\\u0001\""),
            "{json}"
        );
        // The breakout sequence the raw interpolation would have
        // produced (an unescaped quote closing the string) is absent.
        assert!(!json.contains("\"},{\""), "{json}");
    }

    #[test]
    fn listeners_see_every_event() {
        let count = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&count);
        journal().add_listener(move |e| {
            if e.dataset == Some(903) {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        });
        event(EventKind::Compaction).dataset(Some(903)).emit();
        event(EventKind::FullRebuild).dataset(Some(903)).emit();
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn recent_is_bounded_and_oldest_first() {
        for _ in 0..10 {
            event(EventKind::BackpressurePark).dataset(Some(904)).emit();
        }
        let recent = journal().recent(3);
        assert_eq!(recent.len(), 3);
        // Other tests may interleave events, so only order is asserted.
        assert!(recent
            .windows(2)
            .all(|w| w[0].seq < w[1].seq && w[0].ns <= w[1].ns));
    }
}
