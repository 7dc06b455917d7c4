//! `srj-serve` — stand up a sampling server.
//!
//! ```sh
//! srj-serve --addr 127.0.0.1:7878 --workers 2 \
//!           --dataset 1=uniform:0.05 --dataset 2=taxi:0.02 \
//!           --dataset-file 9=r_points.txt,s_points.txt
//! ```
//!
//! Generated datasets use the `srj-bench` scaled stand-ins for the
//! paper's evaluation data (`kind:scale[:seed]`, kinds: uniform, road,
//! poi, trajectory, taxi); file datasets load the plain-text point
//! format of `srj-datagen` (`x<sep>y` per line) and are split into
//! `R`/`S` halves unless two paths are given. The server runs until it
//! receives a `SHUTDOWN` frame (`Client::shutdown_server`) or the
//! process is killed.

use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;
use std::time::Duration;

use srj_bench::datasets::base_size;
use srj_bench::scaled_spec;
use srj_datagen::{read_points_file, split_rs, DatasetKind};
use srj_geom::PointId;
use srj_server::{DatasetRegistry, Server, ServerConfig};

const USAGE: &str = "usage: srj-serve [--addr HOST:PORT] [--workers N] [--queue-frames N]
                 [--batch-pairs N] [--cache N]
                 [--rebuild-fraction F] [--tombstone-rebuild-fraction F]
                 [--max-patch-fraction F] [--trace-sample-rate F] [--log-json]
                 [--handshake-timeout-ms N] [--read-timeout-ms N]
                 [--write-timeout-ms N] [--idle-timeout-ms N]
                 [--rate-limit-rps N] [--mutation-rate-limit-rps N]
                 [--shed-high-water N]
                 [--http-port N] [--slow-log N] [--slow-threshold-ms N]
                 [--health-window-ms N]
                 [--dataset ID=KIND:SCALE[:SEED]]... [--dataset-file ID=R_PATH[,S_PATH]]...
  KIND: uniform | road | poi | trajectory | taxi
  --trace-sample-rate: fraction of SAMPLE requests recording trace
                       spans (0 disables tracing; fetch with TRACE)
  --http-port: also serve GET /metrics, /healthz, /vars over HTTP/1.1
               on 127.0.0.1:N (0 picks a free port; off by default)
  --slow-log: slow-request log capacity (0 disables capture; default 64)
  --slow-threshold-ms: absolute slow threshold; 0 = auto (live p99,
               after a warm-up of 32 requests; default 0)
  --health-window-ms: how long /healthz stays degraded after the last
               shed/reap/reject signal (default 5000)
  --log-json: print every lifecycle event (swaps, patches, compactions,
              backpressure parks, load sheds, reaped connections) to
              stderr as one JSON object per line
  --handshake/read/write/idle-timeout-ms: connection deadlines
              (0 disables; defaults 10000/30000/30000/300000)
  --rate-limit-rps / --mutation-rate-limit-rps: per-connection token
              buckets, frames/second (0 = unlimited); exceeded budgets
              answer BUSY{retry_after_ms}
  --shed-high-water: job-queue depth past which SAMPLEs are answered
              BUSY instead of queued (0 disables; default 256)
  Default: --addr 127.0.0.1:7878 --dataset 1=uniform:0.05";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// `text`, the value of `what`, as a number within `range`; anything
/// else is a usage error.
fn number<T>(what: &str, text: &str, range: impl RangeBounds<T>) -> T
where
    T: FromStr + PartialOrd + Display,
{
    match text.parse() {
        Ok(v) if range.contains(&v) => v,
        _ => {
            let low = match range.start_bound() {
                Bound::Included(v) => format!("[{v}"),
                Bound::Excluded(v) => format!("({v}"),
                Bound::Unbounded => "(-inf".to_string(),
            };
            let high = match range.end_bound() {
                Bound::Included(v) => format!("{v}]"),
                Bound::Excluded(v) => format!("{v})"),
                Bound::Unbounded => "inf)".to_string(),
            };
            fail(&format!(
                "{what}: expected a number in {low}, {high}, got {text:?}"
            ))
        }
    }
}

fn parse_kind(s: &str) -> DatasetKind {
    match s {
        "uniform" => DatasetKind::Uniform,
        "road" => DatasetKind::RoadLike,
        "poi" => DatasetKind::PoiClusters,
        "trajectory" => DatasetKind::TrajectoryLike,
        "taxi" => DatasetKind::TaxiHotspots,
        other => fail(&format!("unknown dataset kind {other:?}")),
    }
}

/// `ID=KIND:SCALE[:SEED]` → a generated-and-split dataset.
fn register_generated(registry: &mut DatasetRegistry, spec: &str) {
    let Some((id, rest)) = spec.split_once('=') else {
        fail("--dataset takes ID=KIND:SCALE[:SEED]");
    };
    let id: u64 = number("dataset id", id, 0..);
    let mut parts = rest.split(':');
    let kind = parse_kind(parts.next().unwrap_or(""));
    let positive = (Bound::Excluded(0.0), Bound::Unbounded);
    let scale: f64 = number("dataset scale", parts.next().unwrap_or("0.05"), positive);
    // `parse` accepts "inf"; ids on the wire are `PointId`s.
    if base_size(kind) as f64 * scale > f64::from(PointId::MAX) {
        fail("dataset scale must be finite, and the dataset must fit u32 point ids");
    }
    let seed: u64 = parts.next().map_or(42, |s| number("dataset seed", s, 0..));
    let d = scaled_spec(kind, scale, 0.5, seed);
    eprintln!(
        "# dataset {id}: {} scale {scale} -> |R| = {}, |S| = {}",
        kind.label(),
        d.r.len(),
        d.s.len()
    );
    registry.register(id, d.r, d.s);
}

/// `ID=R_PATH[,S_PATH]` → points loaded from files (one file is split
/// 50/50 into `R` and `S`, the paper's assignment).
fn register_file(registry: &mut DatasetRegistry, spec: &str) {
    let Some((id, paths)) = spec.split_once('=') else {
        fail("--dataset-file takes ID=R_PATH[,S_PATH]");
    };
    let id: u64 = number("dataset id", id, 0..);
    let (r, s) = match paths.split_once(',') {
        Some((rp, sp)) => {
            let r = read_points_file(rp).unwrap_or_else(|e| fail(&format!("{rp}: {e}")));
            let s = read_points_file(sp).unwrap_or_else(|e| fail(&format!("{sp}: {e}")));
            (r, s)
        }
        None => {
            let all = read_points_file(paths).unwrap_or_else(|e| fail(&format!("{paths}: {e}")));
            split_rs(&all, 0.5, id ^ 0xD15C)
        }
    };
    eprintln!(
        "# dataset {id}: |R| = {}, |S| = {} (from files)",
        r.len(),
        s.len()
    );
    registry.register(id, r, s);
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut registry = DatasetRegistry::new();
    let mut log_json = false;

    let positive = (Bound::Excluded(0.0), Bound::Unbounded);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
        };
        let ms = |text: String| Duration::from_millis(number(&flag, &text, 0..));
        match flag.as_str() {
            "--addr" => addr = value(),
            "--workers" => config.workers = number(&flag, &value(), 0..),
            "--queue-frames" => config.queue_frames = number(&flag, &value(), 1..),
            "--batch-pairs" => config.batch_pairs = number(&flag, &value(), 0..),
            "--cache" => config.cache_capacity = number(&flag, &value(), 1..),
            "--rebuild-fraction" => {
                let f = number(&flag, &value(), positive);
                config.epoch = config.epoch.with_rebuild_fraction(f);
            }
            "--tombstone-rebuild-fraction" => {
                let f = number(&flag, &value(), positive);
                config.epoch = config.epoch.with_tombstone_rebuild_fraction(f);
            }
            "--max-patch-fraction" => {
                let f = number(&flag, &value(), 0.0..=1.0);
                config.epoch = config.epoch.with_max_patch_fraction(f);
            }
            "--trace-sample-rate" => config.trace_sample_rate = number(&flag, &value(), 0.0..=1.0),
            "--handshake-timeout-ms" => config.handshake_timeout = ms(value()),
            "--read-timeout-ms" => config.read_timeout = ms(value()),
            "--write-timeout-ms" => config.write_timeout = ms(value()),
            "--idle-timeout-ms" => config.idle_timeout = ms(value()),
            "--rate-limit-rps" => config.rate_limit_rps = number(&flag, &value(), 0..),
            "--mutation-rate-limit-rps" => {
                config.mutation_rate_limit_rps = number(&flag, &value(), 0..);
            }
            "--shed-high-water" => config.shed_high_water = number(&flag, &value(), 0..),
            "--http-port" => config.http_port = Some(number(&flag, &value(), 0..)),
            "--slow-log" => config.slow_log_capacity = number(&flag, &value(), 0..),
            "--slow-threshold-ms" => {
                let ms: u64 = number(&flag, &value(), 0..);
                config.slow_threshold_ns = ms.saturating_mul(1_000_000);
            }
            "--health-window-ms" => {
                config.health_degraded_window_ms = number(&flag, &value(), 0..);
            }
            "--log-json" => log_json = true,
            "--dataset" => register_generated(&mut registry, &value()),
            "--dataset-file" => register_file(&mut registry, &value()),
            "--help" | "-h" => fail("srj-serve"),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if registry.is_empty() {
        register_generated(&mut registry, "1=uniform:0.05");
    }
    if log_json {
        // One JSON object per line on stderr, so stdout stays pure
        // protocol chatter ("listening on ...") for scripts.
        srj_obs::journal::journal().add_listener(|e| {
            eprintln!("{}", e.to_json());
        });
    }

    let mut server = match Server::start(addr.as_str(), registry, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // Parsed by tests/serve_binary.rs and by scripts; keep stable.
    println!("listening on {}", server.local_addr());
    if let Some(http) = server.http_addr() {
        println!("http on {http}");
    }
    server.wait_shutdown();
    eprintln!("# shutdown requested");
    server.shutdown();
    let stats = server.stats();
    eprintln!(
        "# served {} requests / {} samples ({} errors)",
        stats.queries, stats.samples, stats.errors
    );
}
