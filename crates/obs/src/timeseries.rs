//! A dependency-free in-process time-series database over the metrics
//! registry.
//!
//! Each [`SeriesStore::ingest`] takes one snapshot of every registered
//! metric ([`crate::Registry::snapshot`]) — the embedder calls it on its
//! own cadence; the server's maintainer thread does — and appends one
//! point per series into a bounded per-series ring:
//!
//! * **counters** become **rates** (delta / elapsed seconds, clamped
//!   at 0 across resets), because a monotone total is useless on a
//!   sparkline;
//! * **gauges** are stored as levels;
//! * **histograms** become two derived series — `<name>_count` as a
//!   rate (observations/sec) and `<name>_mean_recent` as a level (the
//!   mean of *this interval's* observations, `Δsum/Δcount`).
//!
//! Queries are windowed: [`SeriesStore::window`] returns raw points,
//! [`SeriesStore::rollup`] aggregates them into fixed buckets
//! (min/max/avg/last per bucket — 1 m and 5 m are the conventional
//! widths, see [`ROLLUP_1M_NS`]/[`ROLLUP_5M_NS`]) so a dashboard can
//! draw sparklines and rate-of-change without external tooling.
//!
//! Everything is bounded: each series keeps the newest
//! `capacity` points (512 by default — ~8.5 minutes of raw history at
//! a 1 s cadence), and series whose metric disappears simply stop
//! growing.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Mutex;

use crate::metrics::{MetricSnapshot, ValueSnapshot};

/// Default points retained per series.
pub const DEFAULT_CAPACITY: usize = 512;

/// One-minute rollup bucket width in nanoseconds.
pub const ROLLUP_1M_NS: u64 = 60_000_000_000;

/// Five-minute rollup bucket width in nanoseconds.
pub const ROLLUP_5M_NS: u64 = 300_000_000_000;

/// One recorded point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// [`crate::clock::now_ns`] at snapshot time.
    pub ns: u64,
    /// Rate (counters, histogram counts) or level (gauges, means).
    pub value: f64,
}

/// How a series' points were derived — consumers render rates and
/// levels differently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Per-second rate derived from a monotone counter.
    Rate,
    /// Instantaneous level (gauge or derived mean).
    Level,
}

impl SeriesKind {
    /// Stable lower-case name for JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Rate => "rate",
            SeriesKind::Level => "level",
        }
    }
}

/// One rollup bucket: the aggregate of every raw point whose
/// timestamp falls in `[start_ns, start_ns + width)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rollup {
    /// Bucket start (aligned down to the bucket width).
    pub start_ns: u64,
    /// Minimum raw value in the bucket.
    pub min: f64,
    /// Maximum raw value in the bucket.
    pub max: f64,
    /// Mean of the raw values in the bucket.
    pub avg: f64,
    /// The newest raw value in the bucket.
    pub last: f64,
    /// Raw points aggregated.
    pub count: u64,
}

struct Series {
    kind: SeriesKind,
    points: VecDeque<Point>,
    /// Previous raw counter/count/sum values, for delta conversion.
    prev_counter: u64,
    prev_sum: u64,
    prev_ns: u64,
    seen: bool,
}

impl Series {
    fn new(kind: SeriesKind) -> Self {
        Series {
            kind,
            points: VecDeque::new(),
            prev_counter: 0,
            prev_sum: 0,
            prev_ns: 0,
            seen: false,
        }
    }

    fn push(&mut self, p: Point, capacity: usize) {
        if self.points.len() >= capacity {
            self.points.pop_front();
        }
        self.points.push_back(p);
    }
}

/// The bounded per-series storage; shared between the thread that
/// ingests and the query surfaces (`/vars`, dashboards).
pub struct SeriesStore {
    capacity: usize,
    series: Mutex<BTreeMap<(String, String), Series>>,
}

impl SeriesStore {
    /// A store retaining `capacity` raw points per series.
    pub fn new(capacity: usize) -> Self {
        SeriesStore {
            capacity: capacity.max(2),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// Ingests one registry snapshot taken at `ns`. Counter deltas are
    /// divided by the elapsed time since the series' previous point;
    /// a counter that went backwards (process restart, `store()`
    /// mirror glitch) records a 0 rate rather than a negative spike.
    pub fn ingest(&self, ns: u64, snapshot: &[MetricSnapshot]) {
        let mut series = self.series.lock().unwrap();
        for m in snapshot {
            match m.value {
                ValueSnapshot::Counter(v) => {
                    let s = series
                        .entry((m.name.clone(), m.labels.clone()))
                        .or_insert_with(|| Series::new(SeriesKind::Rate));
                    if s.seen {
                        let rate = rate_of(s.prev_counter, v, s.prev_ns, ns);
                        s.push(Point { ns, value: rate }, self.capacity);
                    }
                    s.prev_counter = v;
                    s.prev_ns = ns;
                    s.seen = true;
                }
                ValueSnapshot::Gauge(v) => {
                    let s = series
                        .entry((m.name.clone(), m.labels.clone()))
                        .or_insert_with(|| Series::new(SeriesKind::Level));
                    s.push(Point { ns, value: v }, self.capacity);
                    s.prev_ns = ns;
                    s.seen = true;
                }
                ValueSnapshot::Histogram { count, sum } => {
                    let rate_name = format!("{}_count", m.name);
                    let mean_name = format!("{}_mean_recent", m.name);
                    let (d_count, d_sum, interval_rate) = {
                        let s = series
                            .entry((rate_name, m.labels.clone()))
                            .or_insert_with(|| Series::new(SeriesKind::Rate));
                        let (dc, dsum, rate) = if s.seen {
                            let rate = rate_of(s.prev_counter, count, s.prev_ns, ns);
                            (
                                count.saturating_sub(s.prev_counter),
                                sum.saturating_sub(s.prev_sum),
                                Some(rate),
                            )
                        } else {
                            (0, 0, None)
                        };
                        if let Some(rate) = rate {
                            s.push(Point { ns, value: rate }, self.capacity);
                        }
                        s.prev_counter = count;
                        s.prev_sum = sum;
                        s.prev_ns = ns;
                        s.seen = true;
                        (dc, dsum, rate)
                    };
                    // Mean of this interval's observations; an idle
                    // interval repeats the previous mean (0 if none)
                    // so the series stays dense for sparklines.
                    if interval_rate.is_some() {
                        let s = series
                            .entry((mean_name, m.labels.clone()))
                            .or_insert_with(|| Series::new(SeriesKind::Level));
                        let mean = if d_count > 0 {
                            d_sum as f64 / d_count as f64
                        } else {
                            s.points.back().map_or(0.0, |p| p.value)
                        };
                        s.push(Point { ns, value: mean }, self.capacity);
                        s.seen = true;
                    }
                }
            }
        }
    }

    /// Every series name currently held, with its labels and kind.
    pub fn series_names(&self) -> Vec<(String, String, SeriesKind)> {
        let series = self.series.lock().unwrap();
        series
            .iter()
            .map(|((name, labels), s)| (name.clone(), labels.clone(), s.kind))
            .collect()
    }

    /// Raw points for `(name, labels)` newer than `since_ns`, oldest
    /// first (empty for an unknown series).
    pub fn window(&self, name: &str, labels: &str, since_ns: u64) -> Vec<Point> {
        let series = self.series.lock().unwrap();
        match series.get(&(name.to_string(), labels.to_string())) {
            Some(s) => s
                .points
                .iter()
                .filter(|p| p.ns >= since_ns)
                .copied()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Fixed-width rollups (min/max/avg/last per bucket) over the raw
    /// window, oldest bucket first. `bucket_ns` of [`ROLLUP_1M_NS`] or
    /// [`ROLLUP_5M_NS`] gives the conventional 1 m / 5 m views.
    pub fn rollup(&self, name: &str, labels: &str, bucket_ns: u64, since_ns: u64) -> Vec<Rollup> {
        let bucket_ns = bucket_ns.max(1);
        let raw = self.window(name, labels, since_ns);
        let mut out: Vec<Rollup> = Vec::new();
        for p in raw {
            let start_ns = p.ns - (p.ns % bucket_ns);
            match out.last_mut() {
                Some(b) if b.start_ns == start_ns => {
                    b.min = b.min.min(p.value);
                    b.max = b.max.max(p.value);
                    // Incremental mean keeps one pass.
                    b.avg += (p.value - b.avg) / (b.count + 1) as f64;
                    b.last = p.value;
                    b.count += 1;
                }
                _ => out.push(Rollup {
                    start_ns,
                    min: p.value,
                    max: p.value,
                    avg: p.value,
                    last: p.value,
                    count: 1,
                }),
            }
        }
        out
    }
}

fn rate_of(prev: u64, cur: u64, prev_ns: u64, ns: u64) -> f64 {
    let dt = ns.saturating_sub(prev_ns) as f64 / 1e9;
    if dt <= 0.0 || cur < prev {
        return 0.0;
    }
    (cur - prev) as f64 / dt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn snap(reg: &Registry) -> Vec<MetricSnapshot> {
        reg.snapshot()
    }

    #[test]
    fn counters_become_rates() {
        let reg = Registry::new();
        let c = reg.counter("reqs_total", &[("dataset", "1")]);
        let store = SeriesStore::new(16);
        c.add(100);
        store.ingest(1_000_000_000, &snap(&reg)); // seed: no point yet
        c.add(50);
        store.ingest(2_000_000_000, &snap(&reg)); // +50 in 1s
        c.add(200);
        store.ingest(4_000_000_000, &snap(&reg)); // +200 in 2s
        let pts = store.window("reqs_total", "dataset=\"1\"", 0);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].value, 50.0);
        assert_eq!(pts[1].value, 100.0);
    }

    #[test]
    fn counter_resets_clamp_to_zero_rate() {
        let reg = Registry::new();
        let c = reg.counter("x_total", &[]);
        let store = SeriesStore::new(16);
        c.store(100);
        store.ingest(1_000_000_000, &snap(&reg));
        c.store(10); // went backwards
        store.ingest(2_000_000_000, &snap(&reg));
        let pts = store.window("x_total", "", 0);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].value, 0.0);
    }

    #[test]
    fn gauges_are_levels_and_windows_filter_by_time() {
        let reg = Registry::new();
        let g = reg.gauge("mu", &[]);
        let store = SeriesStore::new(16);
        for (ns, v) in [(1u64, 5.0), (2, 7.0), (3, 6.0)] {
            g.set(v);
            store.ingest(ns * 1_000_000_000, &snap(&reg));
        }
        assert_eq!(store.window("mu", "", 0).len(), 3);
        let late = store.window("mu", "", 2_000_000_000);
        assert_eq!(late.len(), 2);
        assert_eq!(late[0].value, 7.0);
    }

    #[test]
    fn histograms_derive_count_rate_and_recent_mean() {
        let reg = Registry::new();
        let h = reg.histogram("lat_ns", &[]);
        let store = SeriesStore::new(16);
        h.observe(100);
        store.ingest(1_000_000_000, &snap(&reg));
        h.observe(200);
        h.observe(400);
        store.ingest(2_000_000_000, &snap(&reg));
        let rate = store.window("lat_ns_count", "", 0);
        assert_eq!(rate.len(), 1);
        assert_eq!(rate[0].value, 2.0); // 2 observations in 1s
        let mean = store.window("lat_ns_mean_recent", "", 0);
        assert_eq!(mean.len(), 1);
        assert_eq!(mean[0].value, 300.0); // (200+400)/2, not the lifetime mean
                                          // An idle interval repeats the previous mean.
        store.ingest(3_000_000_000, &snap(&reg));
        let mean = store.window("lat_ns_mean_recent", "", 0);
        assert_eq!(mean.len(), 2);
        assert_eq!(mean[1].value, 300.0);
    }

    #[test]
    fn rings_are_bounded() {
        let reg = Registry::new();
        let g = reg.gauge("g", &[]);
        let store = SeriesStore::new(4);
        for i in 0..20u64 {
            g.set(i as f64);
            store.ingest(i * 1_000_000_000, &snap(&reg));
        }
        let pts = store.window("g", "", 0);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[3].value, 19.0); // newest retained
        assert_eq!(pts[0].value, 16.0); // oldest dropped
    }

    #[test]
    fn rollups_aggregate_min_max_avg_last() {
        let reg = Registry::new();
        let g = reg.gauge("g", &[]);
        let store = SeriesStore::new(64);
        // Two 1-minute buckets: values 1..=3 in minute 0, 10 in minute 1.
        for (sec, v) in [(10u64, 1.0), (20, 3.0), (30, 2.0), (70, 10.0)] {
            g.set(v);
            store.ingest(sec * 1_000_000_000, &snap(&reg));
        }
        let buckets = store.rollup("g", "", ROLLUP_1M_NS, 0);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].min, 1.0);
        assert_eq!(buckets[0].max, 3.0);
        assert_eq!(buckets[0].avg, 2.0);
        assert_eq!(buckets[0].last, 2.0);
        assert_eq!(buckets[0].count, 3);
        assert_eq!(buckets[1].count, 1);
        assert_eq!(buckets[1].start_ns, ROLLUP_1M_NS);
    }
}
