//! A metrics registry: named counters, gauges, and log₂-bucketed
//! histograms behind relaxed atomics.
//!
//! The intended shape: the embedding layer registers each metric
//! **once** and caches the returned typed handle ([`Counter`],
//! [`Gauge`], [`Histogram`]) at the call site — handles are `Arc`
//! clones, so recording is a single relaxed `fetch_add` with no lock
//! and no name lookup on the hot path. The [`Registry`] itself is a
//! value (not a global): the server owns one, tests own their own,
//! and nothing leaks between them.
//!
//! [`Registry::render`] produces the Prometheus text exposition
//! format, which is what the `METRICS` wire frame and `srj-top`
//! consume.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of log₂ histogram buckets: bucket `i` holds observations in
/// `[2^i, 2^(i+1))`; bucket 63 is the overflow bucket. Matches the
/// engine's historical latency histogram resolution.
pub const BUCKETS: usize = 64;

/// Bucket index for an observation: `floor(log2(v))`, clamped.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (63 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// A monotone counter. `Clone` shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh standalone counter (usable outside any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for copying a monotone count kept outside
    /// the registry into it at scrape time. Its one caller is the
    /// server's copy of the profiler's per-state counts; every other
    /// counter is incremented where its event happens. Not for hot-path
    /// use.
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An `f64` gauge (stored as bits). `Clone` shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh standalone gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta`: for a level moved where it changes. Whole numbers
    /// below 2⁵³ add exactly.
    pub fn add(&self, delta: f64) {
        let add = |bits| Some((f64::from_bits(bits) + delta).to_bits());
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂-bucketed histogram. `Clone` shares the underlying cells.
///
/// Quantiles are bucket-resolution accurate (within a factor of 2) —
/// the standard trade-off for lock-free serving-side p99 tracking.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh standalone histogram (usable outside any registry).
    pub fn new() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation (three relaxed adds).
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// A point-in-time copy of the bucket counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Bucket-resolution quantile: the geometric midpoint of the
    /// bucket containing the q-th ranked observation (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_of(&self.bucket_counts(), q)
    }
}

/// Bucket-resolution quantile over raw log₂ bucket counts. The rank
/// covers the slowest `(1−q)` fraction: with 100 observations, p99 is
/// the 100th-ranked (max), p50 the 51st.
pub fn quantile_of(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 * q).floor() as u64 + 1).clamp(1, total);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            // Bucket i spans [2^i, 2^(i+1)); report its geometric mean.
            let lo = 1u64 << i.min(63);
            return (lo as f64 * std::f64::consts::SQRT_2) as u64;
        }
    }
    0
}

/// One metric's value at snapshot time (see [`Registry::snapshot`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueSnapshot {
    /// Monotone counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(f64),
    /// Histogram totals; the recorder derives rate and recent mean
    /// from consecutive `count`/`sum` deltas.
    Histogram {
        /// Observations so far.
        count: u64,
        /// Sum of observed values so far.
        sum: u64,
    },
}

/// One `(name, labels, value)` triple from [`Registry::snapshot`].
/// `labels` is the canonical sorted label key (`dataset="7"`), the
/// same string the text exposition renders.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// Family name (e.g. `srj_requests_total`).
    pub name: String,
    /// Canonical rendered label key; empty for unlabelled metrics.
    pub labels: String,
    /// The value at snapshot time.
    pub value: ValueSnapshot,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    /// A gauge read at render ([`Registry::gauge_fn`]).
    Read(ReadGauge),
    Histogram(Histogram),
}

/// The reader behind a [`Registry::gauge_fn`] series.
#[derive(Clone)]
struct ReadGauge(Arc<dyn Fn() -> f64 + Send + Sync>);

impl std::fmt::Debug for ReadGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReadGauge")
    }
}

#[derive(Debug)]
struct Family {
    kind: Kind,
    // Keyed by the rendered label string (`dataset="7"`), so render
    // output is deterministic and get-or-create is one BTreeMap probe.
    entries: BTreeMap<String, Metric>,
}

/// A registry of named metrics with Prometheus text exposition.
///
/// Registration (`counter` / `gauge` / `histogram`) is get-or-create:
/// the same `(name, labels)` always yields a handle to the same
/// underlying cells. Registering one name with two different metric
/// kinds is a programming error and panics.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn label_key(labels: &[(&str, &str)]) -> String {
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    parts.sort();
    parts.join(",")
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries of family `name`, created as `kind` if new.
    fn entries<'a>(
        families: &'a mut BTreeMap<String, Family>,
        name: &str,
        kind: Kind,
    ) -> &'a mut BTreeMap<String, Metric> {
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            entries: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} registered as {} and {}",
            family.kind.as_str(),
            kind.as_str()
        );
        &mut family.entries
    }

    fn get_or_create(&self, name: &str, labels: &[(&str, &str)], kind: Kind) -> Metric {
        let mut families = self.families.lock().unwrap();
        Self::entries(&mut families, name, kind)
            .entry(label_key(labels))
            .or_insert_with(|| match kind {
                Kind::Counter => Metric::Counter(Counter::new()),
                Kind::Gauge => Metric::Gauge(Gauge::new()),
                Kind::Histogram => Metric::Histogram(Histogram::new()),
            })
            .clone()
    }

    /// Get-or-create a counter for `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_create(name, labels, Kind::Counter) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get-or-create a gauge for `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_create(name, labels, Kind::Gauge) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers a gauge for `(name, labels)` whose value is `read()` at
    /// every render and snapshot: the exposition of a level that is
    /// kept, and changed, where it is held, so that a scrape sets
    /// nothing. Replaces what `(name, labels)` held. `read` runs under
    /// the registry's lock, so it must not register metrics.
    pub fn gauge_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        let mut families = self.families.lock().unwrap();
        Self::entries(&mut families, name, Kind::Gauge)
            .insert(label_key(labels), Metric::Read(ReadGauge(Arc::new(read))));
    }

    /// Get-or-create a histogram for `(name, labels)`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_create(name, labels, Kind::Histogram) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// A point-in-time snapshot of every registered metric, in render
    /// order (family name, then label key). This is the enumeration
    /// surface `/vars` renders from.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let families = self.families.lock().unwrap();
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, metric) in family.entries.iter() {
                let value = match metric {
                    Metric::Counter(c) => ValueSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => ValueSnapshot::Gauge(g.get()),
                    Metric::Read(read) => ValueSnapshot::Gauge(read.0()),
                    Metric::Histogram(h) => ValueSnapshot::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                    },
                };
                out.push(MetricSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value,
                });
            }
        }
        out
    }

    /// Renders the Prometheus text exposition format: a `# TYPE` line
    /// per family, one sample line per metric, histograms expanded
    /// into cumulative `_bucket{le=...}` lines (up to the highest
    /// non-empty bucket, then `+Inf`) plus `_sum` and `_count`.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for (labels, metric) in family.entries.iter() {
                match metric {
                    Metric::Counter(c) => {
                        sample_line(&mut out, name, "", labels, None, &c.get().to_string());
                    }
                    Metric::Gauge(g) => {
                        sample_line(&mut out, name, "", labels, None, &format!("{}", g.get()));
                    }
                    Metric::Read(read) => {
                        sample_line(&mut out, name, "", labels, None, &format!("{}", read.0()));
                    }
                    Metric::Histogram(h) => {
                        let buckets = h.bucket_counts();
                        let last = buckets.iter().rposition(|&c| c != 0);
                        let mut cumulative = 0u64;
                        if let Some(last) = last {
                            for (i, &count) in buckets.iter().enumerate().take(last + 1) {
                                cumulative += count;
                                // Bucket i upper bound is 2^(i+1); the
                                // overflow bucket folds into +Inf below.
                                if i >= BUCKETS - 1 {
                                    break;
                                }
                                let le = (1u128 << (i + 1)).to_string();
                                sample_line(
                                    &mut out,
                                    name,
                                    "_bucket",
                                    labels,
                                    Some(&le),
                                    &cumulative.to_string(),
                                );
                            }
                        }
                        let count = h.count();
                        sample_line(
                            &mut out,
                            name,
                            "_bucket",
                            labels,
                            Some("+Inf"),
                            &count.to_string(),
                        );
                        sample_line(&mut out, name, "_sum", labels, None, &h.sum().to_string());
                        sample_line(&mut out, name, "_count", labels, None, &count.to_string());
                    }
                }
            }
        }
        out
    }
}

fn sample_line(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &str,
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    out.push_str(suffix);
    let le_part = le.map(|le| format!("le=\"{le}\""));
    match (labels.is_empty(), le_part) {
        (true, None) => {}
        (true, Some(le)) => {
            out.push('{');
            out.push_str(&le);
            out.push('}');
        }
        (false, None) => {
            out.push('{');
            out.push_str(labels);
            out.push('}');
        }
        (false, Some(le)) => {
            out.push('{');
            out.push_str(labels);
            out.push(',');
            out.push_str(&le);
            out.push('}');
        }
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name_and_labels() {
        let reg = Registry::new();
        let a = reg.counter("srj_requests_total", &[("dataset", "7")]);
        let b = reg.counter("srj_requests_total", &[("dataset", "7")]);
        let other = reg.counter("srj_requests_total", &[("dataset", "8")]);
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(other.get(), 1);
    }

    #[test]
    fn gauge_roundtrips_f64() {
        let reg = Registry::new();
        let g = reg.gauge("srj_mu_total", &[]);
        g.set(1234.5);
        assert_eq!(g.get(), 1234.5);
        g.add(-1234.5);
        g.add(7.0);
        assert_eq!(g.get(), 7.0);
    }

    /// A read gauge renders, and snapshots, whatever its reader says at
    /// that moment; nothing sets it.
    #[test]
    fn a_read_gauge_is_read_at_every_render() {
        let reg = Registry::new();
        let level = Arc::new(AtomicU64::new(3));
        let cell = Arc::clone(&level);
        reg.gauge_fn("srj_index_rows", &[("dataset", "1")], move || {
            cell.load(Ordering::Relaxed) as f64
        });
        assert!(reg.render().contains("srj_index_rows{dataset=\"1\"} 3\n"));
        level.store(40, Ordering::Relaxed);
        assert!(reg
            .render()
            .contains("# TYPE srj_index_rows gauge\nsrj_index_rows{dataset=\"1\"} 40\n"));
        assert_eq!(reg.snapshot()[0].value, ValueSnapshot::Gauge(40.0));
    }

    #[test]
    fn histogram_quantiles_match_engine_semantics() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(1_000); // ~1µs
        }
        h.observe(1_000_000); // ~1ms
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 99 * 1_000 + 1_000_000);
        // p50 sits in the microsecond bucket (within 2x).
        assert!(h.quantile(0.50) < 4_000, "p50 = {}", h.quantile(0.50));
        // p99 is the max-ranked observation here: the millisecond bucket.
        assert!(h.quantile(0.99) > 50 * h.quantile(0.50));
        // empty histogram answers zero
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn zero_observation_lands_in_bucket_zero() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        assert_eq!(h.bucket_counts()[0], 2);
    }

    #[test]
    fn render_emits_prometheus_text() {
        let reg = Registry::new();
        reg.counter("srj_requests_total", &[("dataset", "7")])
            .add(5);
        reg.gauge("srj_rejection_rate", &[]).set(1.5);
        let h = reg.histogram("srj_request_latency_ns", &[("dataset", "7")]);
        h.observe(3); // bucket 1: [2,4)
        h.observe(1000);
        let text = reg.render();
        assert!(text.contains("# TYPE srj_requests_total counter"), "{text}");
        assert!(
            text.contains("srj_requests_total{dataset=\"7\"} 5"),
            "{text}"
        );
        assert!(text.contains("# TYPE srj_rejection_rate gauge"), "{text}");
        assert!(text.contains("srj_rejection_rate 1.5"), "{text}");
        assert!(
            text.contains("# TYPE srj_request_latency_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("srj_request_latency_ns_bucket{dataset=\"7\",le=\"4\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("srj_request_latency_ns_bucket{dataset=\"7\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("srj_request_latency_ns_sum{dataset=\"7\"} 1003"),
            "{text}"
        );
        assert!(
            text.contains("srj_request_latency_ns_count{dataset=\"7\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn bucket_lines_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[]);
        h.observe(2); // bucket 1, le 4
        h.observe(3); // bucket 1
        h.observe(5); // bucket 2, le 8
        let text = reg.render();
        assert!(text.contains("h_bucket{le=\"4\"} 2"), "{text}");
        assert!(text.contains("h_bucket{le=\"8\"} 3"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3"), "{text}");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("srj_x", &[]);
        reg.gauge("srj_x", &[]);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn histogram_counter_conflict_panics() {
        let reg = Registry::new();
        reg.histogram("srj_y", &[("dataset", "1")]);
        reg.counter("srj_y", &[("dataset", "1")]);
    }

    #[test]
    fn label_order_is_canonicalized() {
        // The same label set in a different declaration order must
        // resolve to the same series — otherwise two call sites would
        // silently double-register and split their counts.
        let reg = Registry::new();
        let a = reg.counter("srj_m", &[("dataset", "7"), ("rung", "cell_patch")]);
        let b = reg.counter("srj_m", &[("rung", "cell_patch"), ("dataset", "7")]);
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
        // Exactly one rendered sample line carries the merged total.
        let text = reg.render();
        assert!(
            text.contains("srj_m{dataset=\"7\",rung=\"cell_patch\"} 5"),
            "{text}"
        );
        assert_eq!(text.matches("srj_m{").count(), 1, "{text}");
        // Different label *values* stay distinct series.
        let c = reg.counter("srj_m", &[("rung", "full_rebuild"), ("dataset", "7")]);
        c.inc();
        assert_eq!(a.get(), 5);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn bucket_boundaries_at_exact_powers_of_two() {
        // Bucket i spans [2^i, 2^(i+1)): an observation of exactly 2^k
        // is the *lower* edge of bucket k, and 2^k - 1 belongs to
        // bucket k-1.
        for k in 1..=62usize {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k, "2^{k}");
            assert_eq!(bucket_index(v - 1), k - 1, "2^{k} - 1");
            assert_eq!(bucket_index(v + 1), k, "2^{k} + 1");
        }
        // Degenerate edges: 0 and 1 share bucket 0; the top bucket
        // clamps.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), BUCKETS - 1);
        // And the cumulative render reflects the same edges: exactly
        // the observations < 2^k fall under le="2^k".
        let h = Histogram::new();
        h.observe(4095); // bucket 11, le 4096
        h.observe(4096); // bucket 12, le 8192
        h.observe(4097); // bucket 12
        let buckets = h.bucket_counts();
        assert_eq!(buckets[11], 1);
        assert_eq!(buckets[12], 2);
    }

    #[test]
    fn snapshot_enumerates_every_metric() {
        let reg = Registry::new();
        reg.counter("srj_a_total", &[("dataset", "1")]).add(4);
        reg.gauge("srj_b", &[]).set(2.5);
        let h = reg.histogram("srj_c_ns", &[("dataset", "1")]);
        h.observe(10);
        h.observe(30);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].name, "srj_a_total");
        assert_eq!(snap[0].labels, "dataset=\"1\"");
        assert_eq!(snap[0].value, ValueSnapshot::Counter(4));
        assert_eq!(snap[1].value, ValueSnapshot::Gauge(2.5));
        assert_eq!(
            snap[2].value,
            ValueSnapshot::Histogram { count: 2, sum: 40 }
        );
    }
}
