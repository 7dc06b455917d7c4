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
                 [--timeseries-cadence-ms N]
                 [--health-window-ms N] [--buffers on|off]
                 [--dataset ID=KIND:SCALE[:SEED]]... [--dataset-file ID=R_PATH[,S_PATH]]...
  KIND: uniform | road | poi | trajectory | taxi
  --trace-sample-rate: fraction of SAMPLE requests recording trace
                       spans (0 disables tracing; fetch with TRACE)
  --http-port: also serve GET /metrics, /healthz, /vars over HTTP/1.1
               on 127.0.0.1:N (0 picks a free port; off by default)
  --slow-log: slow-request log capacity (0 disables capture; default 64)
  --slow-threshold-ms: absolute slow threshold; 0 = auto (live p99,
               after a warm-up of 32 requests; default 0)
  --timeseries-cadence-ms: metric history snapshot cadence
               (0 disables the recorder; default 1000)
  --buffers: arm the engines' pre-drawn per-cell sample buffers
      (default on)
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
    let id: u64 = id
        .parse()
        .unwrap_or_else(|_| fail("dataset id must be a u64"));
    let mut parts = rest.split(':');
    let kind = parse_kind(parts.next().unwrap_or(""));
    let scale: f64 = parts
        .next()
        .unwrap_or("0.05")
        .parse()
        .unwrap_or_else(|_| fail("dataset scale must be a float"));
    // `parse` accepts "nan", "inf" and "0"; ids on the wire are `PointId`s.
    let points = base_size(kind) as f64 * scale;
    if !(scale > 0.0 && points <= f64::from(PointId::MAX)) {
        fail("dataset scale must be positive and finite, and the dataset must fit u32 point ids");
    }
    let seed: u64 = parts.next().map_or(42, |s| {
        s.parse()
            .unwrap_or_else(|_| fail("dataset seed must be a u64"))
    });
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
    let id: u64 = id
        .parse()
        .unwrap_or_else(|_| fail("dataset id must be a u64"));
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut registry = DatasetRegistry::new();
    let mut log_json = false;

    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        let Some(v) = args.get(*i + 1) else {
            fail(&format!("{flag} requires a value"));
        };
        *i += 2;
        v.clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = value(&args, &mut i, "--addr"),
            "--workers" => {
                config.workers = value(&args, &mut i, "--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers takes an integer"));
            }
            "--queue-frames" => {
                config.queue_frames = value(&args, &mut i, "--queue-frames")
                    .parse()
                    .unwrap_or_else(|_| fail("--queue-frames takes an integer"));
            }
            "--batch-pairs" => {
                config.batch_pairs = value(&args, &mut i, "--batch-pairs")
                    .parse()
                    .unwrap_or_else(|_| fail("--batch-pairs takes an integer"));
            }
            "--cache" => {
                config.cache_capacity = value(&args, &mut i, "--cache")
                    .parse()
                    .unwrap_or_else(|_| fail("--cache takes an integer"));
            }
            "--rebuild-fraction" => {
                let f: f64 = value(&args, &mut i, "--rebuild-fraction")
                    .parse()
                    .unwrap_or_else(|_| fail("--rebuild-fraction takes a float"));
                if f.is_nan() || f <= 0.0 {
                    fail("--rebuild-fraction must be a positive fraction");
                }
                config.epoch = config.epoch.with_rebuild_fraction(f);
            }
            "--tombstone-rebuild-fraction" => {
                let f: f64 = value(&args, &mut i, "--tombstone-rebuild-fraction")
                    .parse()
                    .unwrap_or_else(|_| fail("--tombstone-rebuild-fraction takes a float"));
                if f.is_nan() || f <= 0.0 {
                    fail("--tombstone-rebuild-fraction must be a positive fraction");
                }
                config.epoch = config.epoch.with_tombstone_rebuild_fraction(f);
            }
            "--max-patch-fraction" => {
                let f: f64 = value(&args, &mut i, "--max-patch-fraction")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-patch-fraction takes a float"));
                if f.is_nan() || !(0.0..=1.0).contains(&f) {
                    fail("--max-patch-fraction must be in [0, 1]");
                }
                config.epoch = config.epoch.with_max_patch_fraction(f);
            }
            "--trace-sample-rate" => {
                let f: f64 = value(&args, &mut i, "--trace-sample-rate")
                    .parse()
                    .unwrap_or_else(|_| fail("--trace-sample-rate takes a float"));
                if f.is_nan() || !(0.0..=1.0).contains(&f) {
                    fail("--trace-sample-rate must be in [0, 1]");
                }
                config.trace_sample_rate = f;
            }
            "--handshake-timeout-ms" => {
                let ms: u64 = value(&args, &mut i, "--handshake-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--handshake-timeout-ms takes an integer"));
                config.handshake_timeout = std::time::Duration::from_millis(ms);
            }
            "--read-timeout-ms" => {
                let ms: u64 = value(&args, &mut i, "--read-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--read-timeout-ms takes an integer"));
                config.read_timeout = std::time::Duration::from_millis(ms);
            }
            "--write-timeout-ms" => {
                let ms: u64 = value(&args, &mut i, "--write-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--write-timeout-ms takes an integer"));
                config.write_timeout = std::time::Duration::from_millis(ms);
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value(&args, &mut i, "--idle-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--idle-timeout-ms takes an integer"));
                config.idle_timeout = std::time::Duration::from_millis(ms);
            }
            "--rate-limit-rps" => {
                config.rate_limit_rps = value(&args, &mut i, "--rate-limit-rps")
                    .parse()
                    .unwrap_or_else(|_| fail("--rate-limit-rps takes an integer"));
            }
            "--mutation-rate-limit-rps" => {
                config.mutation_rate_limit_rps = value(&args, &mut i, "--mutation-rate-limit-rps")
                    .parse()
                    .unwrap_or_else(|_| fail("--mutation-rate-limit-rps takes an integer"));
            }
            "--shed-high-water" => {
                config.shed_high_water = value(&args, &mut i, "--shed-high-water")
                    .parse()
                    .unwrap_or_else(|_| fail("--shed-high-water takes an integer"));
            }
            "--http-port" => {
                let port: u16 = value(&args, &mut i, "--http-port")
                    .parse()
                    .unwrap_or_else(|_| fail("--http-port takes a port number"));
                config.http_port = Some(port);
            }
            "--slow-log" => {
                config.slow_log_capacity = value(&args, &mut i, "--slow-log")
                    .parse()
                    .unwrap_or_else(|_| fail("--slow-log takes an integer"));
            }
            "--slow-threshold-ms" => {
                let ms: u64 = value(&args, &mut i, "--slow-threshold-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--slow-threshold-ms takes an integer"));
                config.slow_threshold_ns = ms.saturating_mul(1_000_000);
            }
            "--timeseries-cadence-ms" => {
                config.timeseries_cadence_ms = value(&args, &mut i, "--timeseries-cadence-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--timeseries-cadence-ms takes an integer"));
            }
            "--buffers" => match value(&args, &mut i, "--buffers").as_str() {
                "on" => config.buffers = true,
                "off" => config.buffers = false,
                _ => fail("--buffers takes on|off"),
            },
            "--health-window-ms" => {
                config.health_degraded_window_ms = value(&args, &mut i, "--health-window-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--health-window-ms takes an integer"));
            }
            "--log-json" => {
                log_json = true;
                i += 1;
            }
            "--dataset" => {
                let spec = value(&args, &mut i, "--dataset");
                register_generated(&mut registry, &spec);
            }
            "--dataset-file" => {
                let spec = value(&args, &mut i, "--dataset-file");
                register_file(&mut registry, &spec);
            }
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
