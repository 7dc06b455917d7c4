//! Lock-free aggregate query statistics for an [`crate::Engine`].
//!
//! Every handle records each query (one `sample_one` or one batched
//! `sample_batch(t)` call) into the engine's shared [`EngineStats`]:
//! a query counter, a sample counter, an error counter, and a
//! log₂-bucketed latency histogram. The primitives are the
//! [`srj_obs`] metrics cells — plain relaxed atomics, so recording is
//! a handful of `fetch_add`s and the serving hot path never takes a
//! lock — and quantiles are answered from the histogram
//! (bucket-resolution accurate, i.e. within a factor of 2, which is
//! the standard trade-off for serving-side p99 tracking). What must
//! outlive an engine is counted in [`MaintenanceCounters`] instead.

use std::time::Duration;

use srj_obs::{Counter, Gauge, Histogram};

use crate::RowGranularity;

/// The counts of an epoch cell's history, recorded where each event
/// happens: a swap counts its rung where it commits. And the index
/// gauges, levels of what the cells hold: a cell publishes the change
/// of its share at every commit and withdraws the rest when it drops,
/// so a read is a relaxed load and they return to zero once the cells
/// are gone. `Clone` shares the cells, so a server hands in its registry's
/// series; cells sharing a set add up.
#[derive(Clone, Debug, Default)]
pub struct MaintenanceCounters {
    /// Minor swaps: an overlay snapshot replaced.
    pub minor_swap: Counter,
    /// Major swaps through the cell-granular patch path.
    pub cell_patch: Counter,
    /// The other major swaps: full rebuilds and `R`-only rebuilds.
    pub full_rebuild: Counter,
    /// `S`-cells rebuilt by patch swaps.
    pub cells_patched: Counter,
    /// Heap bytes in [`srj_core::IndexBytes::parts`] order, without the
    /// store's two base sets: a reader adds the store's own
    /// ([`crate::DatasetStore::set_bytes`]).
    pub index_bytes: [Gauge; 7],
    /// Rows of the full builds, in [`RowGranularity::ALL`] order.
    pub index_rows: [Gauge; RowGranularity::ALL.len()],
    /// `Σµ` of the engines served.
    pub mu_total: Gauge,
    /// The latest swap's duration, nanoseconds.
    pub last_swap_ns: Gauge,
}

/// Shared, lock-free statistics aggregated across every handle of an
/// engine.
#[derive(Debug, Default)]
pub struct EngineStats {
    queries: Counter,
    samples: Counter,
    iterations: Counter,
    errors: Counter,
    latency: Histogram,
}

impl EngineStats {
    /// Fresh zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query that produced `samples` accepted samples in
    /// `iterations` sampling-loop iterations (`≥ samples`; the excess
    /// is rejections) taking `latency`.
    pub fn record_query(&self, samples: u64, iterations: u64, latency: Duration) {
        self.queries.inc();
        self.samples.add(samples);
        self.iterations.add(iterations);
        self.latency.observe_duration(latency);
    }

    /// Records one failed query (latency and any iterations spent are
    /// still charged).
    pub fn record_error(&self, iterations: u64, latency: Duration) {
        self.errors.inc();
        self.record_query(0, iterations, latency);
    }

    /// Mean observed cost of one delivered sample, nanoseconds: the
    /// latency histogram's sum over the sample counter, two relaxed
    /// loads. `None` until a sample has been delivered — a caller
    /// predicting a request's cost from this has nothing to go on yet.
    pub fn ns_per_sample(&self) -> Option<u64> {
        self.latency.sum().checked_div(self.samples.get())
    }

    /// A point-in-time copy of every counter and derived quantile.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queries: self.queries.get(),
            samples: self.samples.get(),
            iterations: self.iterations.get(),
            errors: self.errors.get(),
            mean_latency: Duration::from_nanos(self.latency.mean()),
            p50_latency: Duration::from_nanos(self.latency.quantile(0.50)),
            p99_latency: Duration::from_nanos(self.latency.quantile(0.99)),
        }
    }
}

/// A point-in-time view of an engine's aggregate statistics.
#[derive(Clone, Copy, Debug)]
pub struct StatsSnapshot {
    /// Queries served (each `sample_one` / `sample_batch` call).
    pub queries: u64,
    /// Join samples drawn across all queries.
    pub samples: u64,
    /// Sampling-loop iterations across all queries, rejections
    /// included (`≥ samples`).
    pub iterations: u64,
    /// Queries that returned a [`srj_core::SampleError`].
    pub errors: u64,
    /// Mean per-query latency.
    pub mean_latency: Duration,
    /// Median per-query latency (bucket resolution).
    pub p50_latency: Duration,
    /// 99th-percentile per-query latency (bucket resolution).
    pub p99_latency: Duration,
}

impl StatsSnapshot {
    /// Observed rejection overhead across every handle:
    /// `iterations / samples` — the serving-time measurement of
    /// [`crate::Engine::total_weight`]` / |J|` (`1.0` = no rejections).
    /// `0.0` on a freshly built engine (no division by a zero sample
    /// count — never NaN); [`crate::SamplerHandle::rejection_rate`] is
    /// the `Option`-valued per-handle form.
    pub fn rejection_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.iterations as f64 / self.samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = EngineStats::new();
        stats.record_query(10, 15, Duration::from_micros(5));
        stats.record_query(20, 28, Duration::from_micros(50));
        stats.record_error(7, Duration::from_micros(1));
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.samples, 30);
        assert_eq!(snap.iterations, 50);
        assert_eq!(snap.errors, 1);
        assert!(snap.mean_latency > Duration::ZERO);
    }

    #[test]
    fn ns_per_sample_needs_an_observation() {
        let stats = EngineStats::new();
        assert_eq!(stats.ns_per_sample(), None);
        // An error delivers nothing: still no basis for a prediction.
        stats.record_error(3, Duration::from_micros(1));
        assert_eq!(stats.ns_per_sample(), None);
        stats.record_query(10, 10, Duration::from_micros(9));
        assert_eq!(stats.ns_per_sample(), Some(1_000));
    }

    #[test]
    fn rejection_rate_is_iterations_over_samples() {
        let stats = EngineStats::new();
        // 100 accepted samples over 250 iterations ⇒ overhead 2.5
        stats.record_query(40, 100, Duration::from_micros(5));
        stats.record_query(60, 150, Duration::from_micros(5));
        let rate = stats.snapshot().rejection_rate();
        assert!((rate - 2.5).abs() < 1e-12, "rate = {rate}");
        // an error that burned iterations still counts toward overhead
        stats.record_error(50, Duration::from_micros(1));
        let rate = stats.snapshot().rejection_rate();
        assert!((rate - 3.0).abs() < 1e-12, "rate = {rate}");
    }

    #[test]
    fn zero_sample_rejection_rate_is_zero_not_nan() {
        // Regression: a freshly built engine has samples == 0; the
        // rate must come back exactly 0.0, not NaN from 0/0.
        let snap = EngineStats::new().snapshot();
        assert_eq!(snap.samples, 0);
        let rate = snap.rejection_rate();
        assert!(!rate.is_nan());
        assert_eq!(rate, 0.0);
        // Iterations with zero samples (every query errored before
        // accepting) must also stay finite.
        let stats = EngineStats::new();
        stats.record_error(25, Duration::from_micros(1));
        assert_eq!(stats.snapshot().rejection_rate(), 0.0);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let stats = EngineStats::new();
        // 99 fast queries at ~1µs, one slow at ~1ms.
        for _ in 0..99 {
            stats.record_query(1, 1, Duration::from_micros(1));
        }
        stats.record_query(1, 1, Duration::from_millis(1));
        let snap = stats.snapshot();
        // p50 must sit in the microsecond bucket (within 2x).
        assert!(snap.p50_latency < Duration::from_micros(4), "{snap:?}");
        // p99 lands in one of the two top buckets depending on rank
        // rounding; it must be far above p50.
        assert!(snap.p99_latency > snap.p50_latency * 50, "{snap:?}");
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = EngineStats::new().snapshot();
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.p50_latency, Duration::ZERO);
        assert_eq!(snap.p99_latency, Duration::ZERO);
    }
}
