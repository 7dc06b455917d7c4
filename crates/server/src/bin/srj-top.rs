//! `srj-top` — a live terminal dashboard over a server's `METRICS`
//! exposition.
//!
//! ```sh
//! srj-top --addr 127.0.0.1:7878 --interval-ms 1000
//! ```
//!
//! Polls the `METRICS` frame on an interval and renders a server
//! health line (connections accepted and currently open, event-loop
//! wakeups/second, load sheds, rate limits, reaped idle connections,
//! handshake rejects), a worker-utilization bar (sampled
//! state deltas between polls), plus, per dataset: request/sample
//! throughput (rates are deltas between polls), error counts, the
//! exact mean latency (`_sum`/`_count`), latency p50/p99 estimated
//! from the histogram buckets, the observed rejection rate, and the
//! five maintenance-rung counters; the `SLOWLOG` tail is shown
//! underneath when the server retains slow requests. `--once` prints
//! a single snapshot and exits; `--raw` dumps the exposition text
//! verbatim (what `tests/serve_binary.rs` greps).
//!
//! **Quantile error bound.** The histogram buckets are log₂-spaced,
//! so a quantile is only known to lie inside one bucket `[le/2, le)`.
//! The dashboard takes the buckets apart from the cumulative lines and
//! reports [`quantile_of`] of them — the bucket's *geometric midpoint*
//! `le/√2`, at most a factor √2 ≈ 1.41 away from the true quantile in
//! either direction, and the number `STATS` reports for the same
//! buckets. The mean column has no such error: it is computed exactly
//! from the histogram's `_sum` and `_count` series.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use srj_obs::metrics::{quantile_of, BUCKETS};
use srj_server::{Client, ClientConfig, SlowLogEntry};

const USAGE: &str = "usage: srj-top [--addr HOST:PORT] [--interval-ms N]
               [--connect-timeout-ms N] [--once] [--raw] [--slow N]
  --once: print one snapshot and exit
  --raw:  print the raw Prometheus exposition instead of the dashboard
  --slow: tail the newest N slow-log entries under the table
          (default 4; 0 hides the panel)
  --connect-timeout-ms: dial deadline (0 blocks indefinitely)
  Default: --addr 127.0.0.1:7878 --interval-ms 1000
           --connect-timeout-ms 5000";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// One parsed exposition sample: metric name, sorted labels, value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses the Prometheus text format subset the server emits
/// (`name{k="v",...} value`; `# TYPE` comments skipped).
fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => continue,
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match head.split_once('{') {
            Some((name, rest)) => {
                let rest = rest.trim_end_matches('}');
                let mut labels = Vec::new();
                for part in rest.split(',') {
                    if let Some((k, v)) = part.split_once('=') {
                        labels.push((k.to_string(), v.trim_matches('"').to_string()));
                    }
                }
                (name.to_string(), labels)
            }
            None => (head.to_string(), Vec::new()),
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "inf".to_string()
    } else if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Everything the dashboard shows for one dataset, pulled out of one
/// exposition snapshot.
#[derive(Default, Clone)]
struct DatasetRow {
    requests: f64,
    samples: f64,
    errors: f64,
    rejection_rate: f64,
    mu_total: f64,
    epoch: f64,
    rungs: BTreeMap<String, f64>,
    /// Per-bucket counts, taken apart from the cumulative `_bucket`
    /// lines (in `le` order, `+Inf` last), and the count below the next.
    latency_buckets: Vec<u64>,
    latency_below: u64,
    latency_sum: f64,
    latency_count: f64,
}

/// What a dataset row is keyed by: a registered id, in numeric order,
/// then any other `dataset` label value — `unregistered`, the series of
/// the requests that named no registered dataset.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum DatasetKey {
    Id(u64),
    Named(String),
}

impl DatasetKey {
    fn of(label: &str) -> Self {
        label
            .parse()
            .map_or_else(|_| DatasetKey::Named(label.to_string()), DatasetKey::Id)
    }
}

impl std::fmt::Display for DatasetKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetKey::Id(id) => id.fmt(f),
            DatasetKey::Named(name) => name.fmt(f),
        }
    }
}

fn snapshot_rows(samples: &[Sample]) -> BTreeMap<DatasetKey, DatasetRow> {
    let mut rows: BTreeMap<DatasetKey, DatasetRow> = BTreeMap::new();
    for s in samples {
        let Some(dataset) = s.label("dataset").map(DatasetKey::of) else {
            continue;
        };
        let row = rows.entry(dataset).or_default();
        match s.name.as_str() {
            "srj_requests_total" => row.requests = s.value,
            "srj_samples_total" => row.samples = s.value,
            "srj_request_errors_total" => row.errors = s.value,
            "srj_rejection_rate" => row.rejection_rate = s.value,
            "srj_mu_total" => row.mu_total = s.value,
            "srj_epoch" => row.epoch = s.value,
            "srj_maintenance_total" => {
                if let Some(rung) = s.label("rung") {
                    row.rungs.insert(rung.to_string(), s.value);
                }
            }
            "srj_request_latency_ns_bucket" => {
                // `le="2^(i+1)"` closes bucket i; the overflow bucket
                // shows only in `+Inf`.
                let i = match s.label("le").map(str::parse::<u64>) {
                    Some(Ok(le)) => le.trailing_zeros() as usize - 1,
                    _ => BUCKETS - 1,
                };
                let cumulative = s.value as u64;
                row.latency_buckets.resize(BUCKETS, 0);
                row.latency_buckets[i] += cumulative - row.latency_below;
                row.latency_below = cumulative;
            }
            "srj_request_latency_ns_sum" => row.latency_sum = s.value,
            "srj_request_latency_ns_count" => row.latency_count = s.value,
            _ => {}
        }
    }
    rows
}

/// Unlabeled server-wide series the health line shows, plus the
/// per-state worker-profiler sample counters the utilization bar is
/// built from.
#[derive(Default, Clone, Copy)]
struct HealthRow {
    connections: f64,
    /// `srj_conn_open` — sockets registered on the event loop now.
    open: f64,
    /// `srj_event_loop_wakeups_total` — loop iterations; rendered as
    /// wakeups/second from the delta between polls.
    loop_wakeups: f64,
    shed: f64,
    rate_limited: f64,
    reaped: f64,
    handshake_rejects: f64,
    parks: f64,
    /// `srj_worker_state_samples_total` in [`WORKER_STATES`] order.
    worker_states: [f64; 6],
}

/// Label values of `srj_worker_state_samples_total`, in display order.
const WORKER_STATES: [&str; 6] = ["idle", "decode", "acquire", "draw", "write", "park"];

/// One glyph per state for the utilization bar, same order.
const STATE_GLYPHS: [char; 6] = ['.', 'd', 'a', 'D', 'w', 'P'];

fn snapshot_health(samples: &[Sample]) -> HealthRow {
    let mut h = HealthRow::default();
    for s in samples {
        match s.name.as_str() {
            "srj_connections_accepted_total" => h.connections = s.value,
            "srj_conn_open" => h.open = s.value,
            "srj_event_loop_wakeups_total" => h.loop_wakeups = s.value,
            "srj_requests_shed" => h.shed = s.value,
            "srj_rate_limited" => h.rate_limited = s.value,
            "srj_conn_reaped" => h.reaped = s.value,
            "srj_handshake_rejects_total" => h.handshake_rejects = s.value,
            "srj_backpressure_parks_total" => h.parks = s.value,
            "srj_worker_state_samples_total" => {
                if let Some(i) = s
                    .label("state")
                    .and_then(|v| WORKER_STATES.iter().position(|w| *w == v))
                {
                    h.worker_states[i] = s.value;
                }
            }
            _ => {}
        }
    }
    h
}

/// Renders the worker-utilization line from the per-state sample
/// deltas since the previous poll: a 30-cell proportional bar (one
/// glyph per state) plus the busiest non-idle percentages. Empty when
/// no sweep landed between polls.
fn render_util(current: &HealthRow, prev: &HealthRow) -> String {
    let deltas: Vec<f64> = (0..6)
        .map(|i| (current.worker_states[i] - prev.worker_states[i]).max(0.0))
        .collect();
    let total: f64 = deltas.iter().sum();
    if total <= 0.0 {
        return String::new();
    }
    const WIDTH: usize = 30;
    let mut bar = String::with_capacity(WIDTH);
    for (i, d) in deltas.iter().enumerate() {
        let cells = (d / total * WIDTH as f64).round() as usize;
        for _ in 0..cells {
            if bar.len() < WIDTH {
                bar.push(STATE_GLYPHS[i]);
            }
        }
    }
    while bar.len() < WIDTH {
        bar.push('.');
    }
    let mut parts = Vec::new();
    for (i, d) in deltas.iter().enumerate() {
        if i != 0 && *d > 0.0 {
            parts.push(format!("{} {:.0}%", WORKER_STATES[i], d / total * 100.0));
        }
    }
    format!("util [{bar}] {}", parts.join("  "))
}

fn render(
    rows: &BTreeMap<DatasetKey, DatasetRow>,
    prev: &BTreeMap<DatasetKey, DatasetRow>,
    health: HealthRow,
    prev_health: &HealthRow,
    slow: &[SlowLogEntry],
    dt: Duration,
    clear: bool,
) {
    if clear {
        // ANSI clear + home, so the dashboard repaints in place.
        print!("\x1b[2J\x1b[H");
    }
    let wakeups_per_s = if dt.as_secs_f64() > 0.0 {
        ((health.loop_wakeups - prev_health.loop_wakeups).max(0.0)) / dt.as_secs_f64()
    } else {
        0.0
    };
    println!(
        "conns {:.0} ({:.0} open)  loop {:.0}/s  shed {:.0}  rate-limited {:.0}  \
         reaped {:.0}  handshake-rejects {:.0}  parks {:.0}",
        health.connections,
        health.open,
        wakeups_per_s,
        health.shed,
        health.rate_limited,
        health.reaped,
        health.handshake_rejects,
        health.parks,
    );
    let util = render_util(&health, prev_health);
    if !util.is_empty() {
        println!("{util}");
    }
    println!(
        "{:>8} {:>9} {:>11} {:>7} {:>9} {:>9} {:>9} {:>7} {:>14}",
        "dataset", "req/s", "samples/s", "errors", "mean", "~p50", "~p99", "rej", "rungs m/c/f"
    );
    let dt_s = dt.as_secs_f64().max(1e-9);
    for (id, row) in rows {
        let prev_row = prev.get(id).cloned().unwrap_or_default();
        let req_rate = (row.requests - prev_row.requests).max(0.0) / dt_s;
        let sample_rate = (row.samples - prev_row.samples).max(0.0) / dt_s;
        let mean = if row.latency_count > 0.0 {
            row.latency_sum / row.latency_count
        } else {
            0.0
        };
        let p50 = quantile_of(&row.latency_buckets, 0.50) as f64;
        let p99 = quantile_of(&row.latency_buckets, 0.99) as f64;
        let rung = |name: &str| row.rungs.get(name).copied().unwrap_or(0.0) as u64;
        println!(
            "{:>8} {:>9.1} {:>11.0} {:>7.0} {:>9} {:>9} {:>9} {:>7.2} {:>14}",
            id,
            req_rate,
            sample_rate,
            row.errors,
            fmt_ns(mean),
            fmt_ns(p50),
            fmt_ns(p99),
            row.rejection_rate,
            format!(
                "{}/{}/{}",
                rung("minor_swap"),
                rung("cell_patch"),
                rung("full_rebuild")
            ),
        );
    }
    if !slow.is_empty() {
        println!("slow requests (newest first):");
        for e in slow {
            let s = &e.stages;
            println!(
                "  #{:<5} ds {:>3}  t {:>8}  {:<13}  {:<6}  elapsed {:>9} = \
                 queued {:>9}  acquire {:>9}  draw {:>9}  encode {:>9}  \
                 waiting {:>9}  iters {:>8}",
                e.id,
                e.dataset,
                e.t,
                e.served,
                if e.inline { "inline" } else { "worker" },
                fmt_ns(e.elapsed_ns as f64),
                fmt_ns(s.queued_ns as f64),
                fmt_ns(s.acquire_ns as f64),
                fmt_ns(s.draw_ns as f64),
                fmt_ns(s.encode_ns as f64),
                fmt_ns(s.waiting_ns as f64),
                e.iterations,
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    let mut raw = false;
    let mut slow_tail: u32 = 4;
    let mut connect_timeout = Duration::from_millis(5_000);

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                let Some(v) = args.get(i + 1) else {
                    fail("--addr requires a value");
                };
                addr = v.clone();
                i += 2;
            }
            "--interval-ms" => {
                let Some(v) = args.get(i + 1) else {
                    fail("--interval-ms requires a value");
                };
                let ms: u64 = v
                    .parse()
                    .unwrap_or_else(|_| fail("--interval-ms takes an integer"));
                interval = Duration::from_millis(ms.max(1));
                i += 2;
            }
            "--connect-timeout-ms" => {
                let Some(v) = args.get(i + 1) else {
                    fail("--connect-timeout-ms requires a value");
                };
                let ms: u64 = v
                    .parse()
                    .unwrap_or_else(|_| fail("--connect-timeout-ms takes an integer"));
                connect_timeout = Duration::from_millis(ms);
                i += 2;
            }
            "--once" => {
                once = true;
                i += 1;
            }
            "--raw" => {
                raw = true;
                i += 1;
            }
            "--slow" => {
                let Some(v) = args.get(i + 1) else {
                    fail("--slow requires a value");
                };
                slow_tail = v
                    .parse()
                    .unwrap_or_else(|_| fail("--slow takes an integer"));
                i += 2;
            }
            "--help" | "-h" => fail("srj-top"),
            other => fail(&format!("unknown flag {other}")),
        }
    }

    let config = ClientConfig {
        connect_timeout,
        ..ClientConfig::default()
    };
    let mut client = match Client::connect_with(addr.as_str(), config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    let mut prev: BTreeMap<DatasetKey, DatasetRow> = BTreeMap::new();
    let mut prev_health = HealthRow::default();
    let mut last_poll = Instant::now();
    loop {
        let text = match client.metrics() {
            Ok(text) => text,
            Err(e) => {
                eprintln!("metrics fetch failed: {e}");
                std::process::exit(1);
            }
        };
        if raw {
            print!("{text}");
        } else {
            let samples = parse_exposition(&text);
            let rows = snapshot_rows(&samples);
            let health = snapshot_health(&samples);
            // An older server answers SLOWLOG with an ERROR frame;
            // show the panel only when the fetch works.
            let slow = if slow_tail > 0 {
                client.slow_log(slow_tail).unwrap_or_default()
            } else {
                Vec::new()
            };
            let dt = last_poll.elapsed().max(interval);
            render(&rows, &prev, health, &prev_health, &slow, dt, !once);
            prev = rows;
            prev_health = health;
        }
        if once {
            return;
        }
        last_poll = Instant::now();
        std::thread::sleep(interval);
    }
}
