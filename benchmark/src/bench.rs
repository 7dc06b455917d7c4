//! Orchestration: the full `run`, and the driver's one-workload mode.
//! Both spawn every round — and every traced layer run — as a fresh
//! child process of this same binary.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{self, publish, round_layers};
use crate::round::RoundReport;
use crate::stats;
use crate::verify::{self, Check};
use crate::workload::{self, Scale, Workload};

/// Driver mode keeps adding rounds until it has measured for the
/// requested seconds, within these limits.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 21;
/// ... and stops early once the run has taken this many times the
/// requested seconds of wall time, so that a slow stretch of the host
/// lengthens a run by a bounded amount.
const WALL_FACTOR: f64 = 1.5;

pub struct RunOptions {
    pub seed: u64,
    pub rounds: usize,
    pub only: Option<String>,
    pub scale: Scale,
}

/// `benchmark/out` when run from the repository root (the documented
/// way), `out` when run from inside `benchmark/`.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Runs this binary with `args` and parses the last line of its
/// standard output as JSON.
fn child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {args:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{args:?} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{args:?} printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{args:?} printed bad JSON: {e}"))
}

fn child_args(phase: &str, w: &Workload, seed: u64, scale: Scale) -> Vec<String> {
    vec![
        phase.to_string(),
        "--workload".into(),
        w.name.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--scale".into(),
        scale.label().to_string(),
    ]
}

fn round_child(w: &Workload, seed: u64, scale: Scale, probes: bool) -> Result<RoundReport, String> {
    let mut args = child_args("round", w, seed, scale);
    if probes {
        args.extend(["--probes".into(), "1".into()]);
    }
    let json = child(&args)?;
    RoundReport::from_json(&json).ok_or_else(|| format!("{}: malformed round report", w.name))
}

/// What a traced layer run hands the parent.
struct Traced {
    metrics: Vec<(String, f64)>,
    ladder: Json,
    /// The workload's entry in `trace.json`: the ladder and the spans.
    trace: Json,
}

/// The traced layer run, plus the two rungs that need a loopback
/// number beside the replayed one.
fn layers_for(
    w: &Workload,
    seed: u64,
    scale: Scale,
    loopback_p50_us: f64,
) -> Result<Traced, String> {
    let json = child(&child_args("layers", w, seed, scale))?;
    let mut metrics: Vec<(String, f64)> = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("layers child printed no metrics")?
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
        .collect();
    let replayed = metrics
        .iter()
        .find(|(k, _)| k == "bench.replay_request_us")
        .map_or(f64::NAN, |(_, v)| *v);
    // What the socket adds to a request: queueing, wake-ups, syscalls,
    // TCP — everything the in-process replay does not do.
    let residual = loopback_p50_us - replayed;
    metrics.push(("server.residual_us".into(), residual));
    metrics.push((
        "server.wire_ns_per_sample".into(),
        residual * 1e3 / w.t as f64,
    ));
    let ladder = json.get("ladder").cloned().unwrap_or(Json::Null);
    let spans = json.get("trace").cloned().unwrap_or(Json::Null);
    Ok(Traced {
        metrics,
        trace: Json::obj([("ladder", ladder.clone()), ("spans", spans)]),
        ladder,
    })
}

fn print_checks(checks: &[Check]) {
    for c in checks {
        println!(
            "   verify {:<32} {} ({} join pairs, {} samples, {} foreign, chi2 {:.1} vs critical {:.1})",
            c.name,
            if c.passed() { "ok" } else { "FAILED" },
            c.join_pairs,
            c.samples,
            c.foreign,
            c.chi2,
            c.critical,
        );
    }
}

fn write_file(name: &str, contents: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, format!("{contents}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// `verify`, the end-to-end rounds, the traced layer run; prints every
/// metric and writes `out/result.json` and `out/trace.json`. `Ok(false)`
/// on any correctness failure.
pub fn run(opts: &RunOptions) -> Result<bool, String> {
    let selected: Vec<Workload> = workload::workloads(opts.scale)
        .into_iter()
        .filter(|w| opts.only.as_deref().is_none_or(|only| only == w.name))
        .collect();
    if selected.is_empty() {
        return Err(format!("no workload named {:?}", opts.only));
    }
    let started = Instant::now();
    let host = host::describe();
    println!(
        "srj-benchmark: seed {}, {} rounds, scale {}",
        opts.seed,
        opts.rounds,
        opts.scale.label()
    );
    println!("host: {host}");

    println!("\n== verify ==");
    let checks = verify::verify(&verify::FAMILIES)?;
    print_checks(&checks);
    let mut ok = checks.iter().all(Check::passed);

    // Round-robin, so that every workload's rounds spread over the same
    // stretch of time: the reference host's speed drifts over minutes.
    let mut rounds: Vec<Vec<RoundReport>> = selected.iter().map(|_| Vec::new()).collect();
    for round in 0..opts.rounds {
        for (i, w) in selected.iter().enumerate() {
            eprintln!("round {}/{}: {}", round + 1, opts.rounds, w.name);
            rounds[i].push(round_child(w, opts.seed, opts.scale, round == 0)?);
        }
    }

    let mut workloads_json = Vec::new();
    let mut traces = Vec::new();
    for (w, rounds) in selected.iter().zip(&rounds) {
        eprintln!("layers: {}", w.name);
        let p50 = stats::median(
            &rounds
                .iter()
                .map(|r| r.metric("request_p50_us"))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN);
        let Traced {
            metrics: mut layers,
            ladder,
            trace,
        } = layers_for(w, opts.seed, opts.scale, p50)?;
        // The loopback probes ran in the first round only; the median
        // over rounds skips the rounds that have none.
        layers.extend(round_layers(rounds));
        ok &= rounds.iter().all(|r| r.failed == 0);
        ok &= rounds.windows(2).all(|p| p[0].op_hash == p[1].op_hash);
        workloads_json.push((
            w.name.to_string(),
            report::workload_json(w.why, rounds, &layers, &ladder),
        ));
        traces.push((w.name.to_string(), trace));
    }

    let result = Json::obj([
        ("schema", Json::Num(1.0)),
        ("host", host),
        ("seed", Json::Num(opts.seed as f64)),
        ("rounds", Json::Num(opts.rounds as f64)),
        ("scale", Json::str(opts.scale.label())),
        ("correct", Json::Bool(ok)),
        (
            "verify",
            Json::Arr(checks.iter().map(Check::to_json).collect()),
        ),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    report::print_result(&result);
    let trace_path = write_file("trace.json", &Json::Obj(traces))?;
    let result_path = write_file("result.json", &result)?;
    println!(
        "\nwrote {} and {} in {:.1} s; correct: {ok}",
        result_path.display(),
        trace_path.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The driver's mode: one workload, `--seconds` of measuring, one JSON
/// object as the last line of standard output. With `--trace 0` the
/// metrics are the gated end-to-end ones; with `--trace 1` the ungated
/// ones and every per-layer one, where 0 reads "not applicable on this
/// workload".
pub fn driver(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let w =
        workload::find(name, Scale::Full).ok_or_else(|| format!("no workload named {name:?}"))?;
    let started = Instant::now();
    let checks = verify::verify(&[w.algorithm])?;
    print_checks(&checks);
    let mut correct = checks.iter().all(Check::passed);

    let mut rounds: Vec<RoundReport> = Vec::new();
    let mut metrics = Vec::new();
    if trace {
        rounds.push(round_child(&w, seed, Scale::Full, true)?);
        let p50 = rounds[0].metric("request_p50_us");
        let Traced {
            metrics: mut layers,
            trace,
            ..
        } = layers_for(&w, seed, Scale::Full, p50)?;
        layers.extend(round_layers(&rounds));
        let published = publish(&rounds);
        for def in END_TO_END.iter().filter(|d| !d.gated) {
            let value = published
                .iter()
                .find(|p| p.name == def.name)
                .map_or(0.0, |p| def.better.reported(&p.summary));
            metrics.push((def.name.to_string(), metric_json(value, def.unit)));
        }
        for def in &PER_LAYER {
            let value = layers
                .iter()
                .find(|(k, v)| k == def.name && v.is_finite())
                .map_or(0.0, |(_, v)| *v);
            metrics.push((def.name.to_string(), metric_json(value, def.unit)));
        }
        write_file("trace.json", &Json::obj([(w.name, trace)]))?;
    } else {
        let mut measured = 0.0;
        while rounds.len() < MIN_ROUNDS
            || (measured < seconds
                && rounds.len() < MAX_ROUNDS
                && started.elapsed().as_secs_f64() < WALL_FACTOR * seconds)
        {
            let round = round_child(&w, seed, Scale::Full, false)?;
            measured += round.measured_s;
            rounds.push(round);
        }
        let published = publish(&rounds);
        for def in END_TO_END.iter().filter(|d| d.gated) {
            let p = published
                .iter()
                .find(|p| p.name == def.name)
                .ok_or_else(|| format!("{}: no round reported {}", w.name, def.name))?;
            metrics.push((
                def.name.to_string(),
                metric_json(def.better.reported(&p.summary), def.unit),
            ));
        }
    }
    correct &= rounds.windows(2).all(|p| p[0].op_hash == p[1].op_hash);
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    correct &= failed == 0;
    eprintln!(
        "{}: {} rounds in {:.1} s",
        w.name,
        rounds.len(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(())
}
