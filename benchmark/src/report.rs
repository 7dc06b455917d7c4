//! Result files: per-round values reduced to medians and quartiles, the
//! printed table, and `compare`, which judges two result files against
//! the bounds.

use crate::json::Json;
use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::round::RoundReport;
use crate::stats::{self, Summary};

/// One workload's published end-to-end metric.
#[derive(Clone, Debug)]
pub struct Published {
    pub name: &'static str,
    pub summary: Summary,
    pub values: Vec<f64>,
}

/// Per end-to-end metric, the median and quartiles of the per-round
/// values. A metric no round could report (an `update_*` on a read-only
/// workload, a percentile with too few samples beyond it) is absent.
pub fn publish(rounds: &[RoundReport]) -> Vec<Published> {
    END_TO_END
        .iter()
        .filter_map(|m| {
            let values: Vec<f64> = rounds
                .iter()
                .map(|r| r.metric(m.name))
                .filter(|v| v.is_finite())
                .collect();
            stats::summarize(&values).map(|summary| Published {
                name: m.name,
                summary,
                values,
            })
        })
        .collect()
}

/// The per-layer values a set of rounds contributes: the server-side
/// counts (median over rounds; they repeat exactly for one seed) and the
/// p99 pooled over every round's requests, if the pool supports one.
pub fn round_layers(rounds: &[RoundReport]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    if let Some(first) = rounds.first() {
        for (name, _) in &first.counts {
            let values: Vec<f64> = rounds.iter().map(|r| r.metric(name)).collect();
            if let Some(v) = stats::median(&values) {
                out.push((name.clone(), v));
            }
        }
    }
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.request_us.iter().copied())
        .collect();
    if let Some(p99) = stats::percentile(&pooled, 0.99) {
        out.push(("server.request_p99_us".to_string(), p99));
    }
    out
}

/// Whether the server-side counts were the same in every round.
pub fn counts_repeat(rounds: &[RoundReport]) -> bool {
    const EXACT: [&str; 4] = [
        "server.iterations_per_sample",
        "server.cache_misses",
        "server.patch_swaps",
        "server.cells_patched",
    ];
    rounds.windows(2).all(|w| {
        EXACT
            .iter()
            .all(|name| w[0].metric(name).to_bits() == w[1].metric(name).to_bits())
    })
}

pub fn workload_json(
    why: &str,
    rounds: &[RoundReport],
    layers: &[(String, f64)],
    ladder: &Json,
) -> Json {
    let end_to_end = publish(rounds)
        .into_iter()
        .map(|p| {
            let def = metrics::end_to_end(p.name).expect("published from END_TO_END");
            (
                p.name.to_string(),
                Json::obj([
                    ("unit", Json::str(def.unit)),
                    ("better", Json::str(def.better.label())),
                    ("bound", Json::Num(def.bound)),
                    ("value", Json::Num(def.better.reported(&p.summary))),
                    ("median", Json::Num(p.summary.median)),
                    ("q1", Json::Num(p.summary.q1)),
                    ("q3", Json::Num(p.summary.q3)),
                    ("rounds", Json::Num(p.summary.rounds as f64)),
                    ("values", Json::nums(p.values)),
                ]),
            )
        })
        .collect();
    let per_layer = layers
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(name, v)| {
            let unit = metrics::per_layer(name).map_or("", |m| m.unit);
            (
                name.clone(),
                Json::obj([("unit", Json::str(unit)), ("value", Json::Num(*v))]),
            )
        })
        .collect();
    let pooled: usize = rounds.iter().map(|r| r.request_us.len()).sum();
    Json::obj([
        ("why", Json::str(why)),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
        ("ladder", ladder.clone()),
        (
            "attempted",
            Json::Num(rounds.iter().map(|r| r.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(rounds.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        ("requests_pooled", Json::Num(pooled as f64)),
        ("counts_repeat", Json::Bool(counts_repeat(rounds))),
        (
            "op_hash",
            Json::str(
                rounds
                    .first()
                    .map_or_else(String::new, |r| format!("{:016x}", r.op_hash)),
            ),
        ),
    ])
}

/// Prints every metric of a result file by name, with its unit.
pub fn print_result(result: &Json) {
    let Some(workloads) = result.get("workloads").and_then(Json::as_obj) else {
        return;
    };
    for (name, w) in workloads {
        println!("\n== {name} ==");
        println!(
            "   {} attempted, {} failed, counts repeat across rounds: {}",
            w.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
            w.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            matches!(w.get("counts_repeat"), Some(Json::Bool(true))),
        );
        for (metric, v) in w.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]) {
            let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "   {metric:<34} {:>14.4} {:<6} [median {:.4}, q1 {:.4}, q3 {:.4}, {} rounds, bound {}]",
                num("value"),
                v.get("unit").and_then(Json::as_str).unwrap_or(""),
                num("median"),
                num("q1"),
                num("q3"),
                num("rounds"),
                num("bound"),
            );
        }
        for (metric, v) in w.get("per_layer").and_then(Json::as_obj).unwrap_or(&[]) {
            println!(
                "   {metric:<34} {:>14.4} {}",
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or(""),
            );
        }
        if let Some(ladder) = w.get("ladder").filter(|l| **l != Json::Null) {
            let num = |k: &str| ladder.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "   ladder: the self times of a typical request sum to {:.3} us; replayed request p50 {:.3} us untraced (x{:.4}), {:.3} us traced",
                num("self_sum_us"),
                num("untraced_request_p50_us"),
                num("self_sum_over_untraced"),
                num("traced_request_p50_us"),
            );
            for row in ladder.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
                let num = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                println!(
                    "      {:<16} {:>12.3} us self (median; mean {:.3})   {}",
                    row.get("span").and_then(Json::as_str).unwrap_or(""),
                    num("median_self_us"),
                    num("mean_self_us"),
                    match num("share_of_request") {
                        share if share.is_finite() =>
                            format!("{:>5.1}% of a request", 100.0 * share),
                        _ => "(per mutation)".to_string(),
                    },
                );
            }
        }
    }
}

// ---- compare --------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound: neither "changed"
    /// nor "unchanged" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for a metric with direction `better` and
/// regression bound `bound` (choosing-metrics §6.5 and §8).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (sa, sb) = (stats::summarize(a)?, stats::summarize(b)?);
    let (a_med, b_med) = (sa.median, sb.median);
    let iqr = (sa.q3 - sa.q1).max(sb.q3 - sb.q1);
    // Signed so that positive is always "b is worse".
    let worse_by = |from: f64, to: f64| match better {
        Better::Lower => to - from,
        Better::Higher => from - to,
    };
    let scale = a_med.abs();
    if scale == 0.0 {
        // A metric that reads 0 on the parent (failed_share): any
        // increase is a regression, equal is unchanged.
        return Some(match worse_by(a_med, b_med) {
            d if d > 0.0 => Verdict::Worse,
            d if d < 0.0 => Verdict::Better,
            _ => Verdict::WithinBound,
        });
    }
    let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| worse_by(x, y) < 0.0));
    if iqr / scale > bound && !every_b_beats_every_a {
        return Some(Verdict::Unresolved);
    }
    let delta = worse_by(a_med, b_med);
    Some(if delta / scale > bound {
        Verdict::Worse
    } else if every_b_beats_every_a || -delta > iqr {
        // Medians apart, the good way, by more than either side's own
        // interquartile distance.
        Verdict::Better
    } else {
        Verdict::WithinBound
    })
}

/// Prints the comparison table; `true` if any row is `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("the first file has no workloads")?;
    let mut any_worse = false;
    println!(
        "{:<16} {:<20} {:>13} {:>13} {:>13} {:>13} {:>6}  verdict",
        "workload", "metric", "A median", "A q3-q1", "B median", "B q3-q1", "bound"
    );
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<16} (absent from the second file)");
            continue;
        };
        for def in &END_TO_END {
            let side = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .map(|m| m.f64s("values"))
                    .unwrap_or_default()
            };
            let (va, vb) = (side(wa), side(wb));
            let Some(verdict) = judge(&va, &vb, def.better, def.bound) else {
                continue;
            };
            any_worse |= verdict == Verdict::Worse;
            let iqr = |v: &[f64]| stats::summarize(v).map_or(0.0, |s| s.q3 - s.q1);
            println!(
                "{name:<16} {:<20} {:>13.4} {:>13.4} {:>13.4} {:>13.4} {:>6}  {}",
                def.name,
                stats::median(&va).unwrap_or(f64::NAN),
                iqr(&va),
                stats::median(&vb).unwrap_or(f64::NAN),
                iqr(&vb),
                def.bound,
                verdict.label(),
            );
        }
    }
    Ok(any_worse)
}

/// The names a full result must carry for every workload; `None` if it
/// does, else what is missing. `smoke.sh` fails on this, never on a
/// threshold.
pub fn schema_drift(result: &Json) -> Option<String> {
    // A smoke run's rounds are too short to pool a p99.
    let scale_is_smoke = result.get("scale").and_then(Json::as_str) == Some("smoke");
    let workloads = result.get("workloads").and_then(Json::as_obj)?;
    for (name, w) in workloads {
        for def in END_TO_END.iter().filter(|d| d.gated) {
            if w.get("end_to_end").and_then(|e| e.get(def.name)).is_none() {
                return Some(format!("{name}: end-to-end metric {} is missing", def.name));
            }
        }
        let layers = w.get("per_layer").and_then(Json::as_obj).unwrap_or(&[]);
        for (metric, _) in layers {
            if metrics::per_layer(metric).is_none() {
                return Some(format!("{name}: {metric} is not a declared metric"));
            }
        }
        let reported = |m: &str| layers.iter().any(|(k, _)| k == m);
        for def in &PER_LAYER {
            let optional = scale_is_smoke && def.name == "server.request_p99_us";
            if !optional && !reported(def.name) {
                return Some(format!("{name}: per-layer metric {} is missing", def.name));
            }
        }
    }
    None
}
