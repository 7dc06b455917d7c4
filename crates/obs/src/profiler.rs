//! A sampling worker-state profiler.
//!
//! Each participating thread (a worker, the event loop) registers a
//! [`StateTag`] and publishes its current [`WorkerState`] with one
//! relaxed store at each stage transition — the publishing side never
//! blocks and never allocates. A sampler thread (the server's
//! maintainer) calls [`Profiler::sample`] on every sweep: each
//! live tag contributes one observation to the per-state counters,
//! yielding a statistical "where does worker time go" breakdown
//! without per-stage timers on the hot path.
//!
//! **Bias caveats** (documented, not corrected): states shorter than
//! the sampling interval are under-represented; the sampler observes
//! wall states, so a `Draw` tag covers both CPU work and involuntary
//! preemption; and tags are sampled at sweep boundaries, which can
//! alias with periodic work. The breakdown is for *ratios between
//! states over time*, not absolute microsecond accounting.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// What a serving thread is doing right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WorkerState {
    /// Blocked waiting for work (queue pop, socket read idle).
    Idle = 0,
    /// Reading and decoding request frames (the event loop).
    Decode = 1,
    /// Acquiring an engine/handle (cache lookup, possibly a build).
    Acquire = 2,
    /// In the sampling draw loop.
    Draw = 3,
    /// Encoding/queueing response frames.
    Write = 4,
    /// Parked on a full response queue (backpressure).
    Park = 5,
}

/// Every state, in tag-value order.
pub const ALL_STATES: [WorkerState; 6] = [
    WorkerState::Idle,
    WorkerState::Decode,
    WorkerState::Acquire,
    WorkerState::Draw,
    WorkerState::Write,
    WorkerState::Park,
];

impl WorkerState {
    /// Stable lower-case name, used as the `state` metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerState::Idle => "idle",
            WorkerState::Decode => "decode",
            WorkerState::Acquire => "acquire",
            WorkerState::Draw => "draw",
            WorkerState::Write => "write",
            WorkerState::Park => "park",
        }
    }

    fn from_u8(v: u8) -> WorkerState {
        ALL_STATES
            .get(v as usize)
            .copied()
            .unwrap_or(WorkerState::Idle)
    }
}

/// A thread's published state cell. Threads keep the `Arc` and call
/// [`StateTag::set`] at stage transitions; the profiler holds only a
/// `Weak`, so a finished thread's tag disappears from sampling on its
/// own.
#[derive(Debug)]
pub struct StateTag(AtomicU8);

impl StateTag {
    /// Publishes the thread's current state (one relaxed store).
    #[inline]
    pub fn set(&self, state: WorkerState) {
        self.0.store(state as u8, Ordering::Relaxed);
    }

    /// The last published state.
    pub fn get(&self) -> WorkerState {
        WorkerState::from_u8(self.0.load(Ordering::Relaxed))
    }
}

/// The registry of live tags plus the accumulated per-state sample
/// counters.
#[derive(Debug, Default)]
pub struct Profiler {
    tags: Mutex<Vec<Weak<StateTag>>>,
    counts: [AtomicU64; 6],
    samples: AtomicU64,
}

impl Profiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new participating thread, initially `Idle`.
    pub fn register(&self) -> Arc<StateTag> {
        let tag = Arc::new(StateTag(AtomicU8::new(WorkerState::Idle as u8)));
        self.tags.lock().unwrap().push(Arc::downgrade(&tag));
        tag
    }

    /// Takes one sample: every live tag contributes one observation
    /// to its current state's counter; dead tags are pruned. Returns
    /// the number of live tags observed.
    pub fn sample(&self) -> usize {
        let mut tags = self.tags.lock().unwrap();
        let mut live = 0;
        tags.retain(|weak| match weak.upgrade() {
            Some(tag) => {
                self.counts[tag.get() as u8 as usize].fetch_add(1, Ordering::Relaxed);
                live += 1;
                true
            }
            None => false,
        });
        if live > 0 {
            self.samples.fetch_add(1, Ordering::Relaxed);
        }
        live
    }

    /// Accumulated observations per state, in [`ALL_STATES`] order.
    pub fn counts(&self) -> [u64; 6] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Sampling sweeps taken so far (those that saw ≥ 1 live tag).
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Currently registered live tags.
    pub fn live_tags(&self) -> usize {
        self.tags
            .lock()
            .unwrap()
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_accumulate_into_state_counters() {
        let p = Profiler::new();
        let a = p.register();
        let b = p.register();
        a.set(WorkerState::Draw);
        b.set(WorkerState::Idle);
        assert_eq!(p.sample(), 2);
        a.set(WorkerState::Write);
        assert_eq!(p.sample(), 2);
        let counts = p.counts();
        assert_eq!(counts[WorkerState::Draw as usize], 1);
        assert_eq!(counts[WorkerState::Write as usize], 1);
        assert_eq!(counts[WorkerState::Idle as usize], 2);
        assert_eq!(p.samples(), 2);
    }

    #[test]
    fn dropped_tags_leave_the_sample_set() {
        let p = Profiler::new();
        let a = p.register();
        let b = p.register();
        b.set(WorkerState::Park);
        assert_eq!(p.live_tags(), 2);
        drop(b);
        assert_eq!(p.sample(), 1);
        assert_eq!(p.live_tags(), 1);
        a.set(WorkerState::Idle);
        // Only `a` contributes now.
        let before = p.counts()[WorkerState::Park as usize];
        p.sample();
        assert_eq!(p.counts()[WorkerState::Park as usize], before);
    }

    #[test]
    fn state_names_are_stable() {
        let names: Vec<&str> = ALL_STATES.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            ["idle", "decode", "acquire", "draw", "write", "park"]
        );
        // Round-trip through the u8 representation.
        for s in ALL_STATES {
            assert_eq!(WorkerState::from_u8(s as u8), s);
        }
        assert_eq!(WorkerState::from_u8(200), WorkerState::Idle);
    }
}
