//! CLI regenerating every table and figure of the paper.
//!
//! ```sh
//! cargo run -p srj-bench --release --bin experiments -- all --scale 0.5
//! cargo run -p srj-bench --release --bin experiments -- table3 --threads 4
//! cargo run -p srj-bench --release --bin experiments -- fig5 --t 100000
//! cargo run -p srj-bench --release --bin experiments -- row-granularity
//! ```

use std::str::FromStr;

use srj_bench::datasets::base_size;
use srj_bench::experiments::{
    ablation_cascading, ablation_mass, accuracy, default_runs, fig4, fig5, fig6, fig7, fig8, fig9,
    footnote4, row_granularity, table2, table3, table4, ExpConfig,
};
use srj_datagen::DatasetKind;
use srj_geom::PointId;

const USAGE: &str =
    "usage: experiments <exp> [--scale F] [--t N] [--l F] [--seed N] [--threads N]
  exp: table2 | table3 | table4 | accuracy | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | ablation | footnote4 | all
       | row-granularity (per-r vs group rows on the benchmark's datasets × --scale)
  --scale F    dataset scale, > 0 (the largest dataset must fit u32 point ids)
  --l F        window half-extent, > 0
  --threads N  index-build threads (0 = all cores; default 1, the paper's serial build)";

/// Prints `msg` and the usage text and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// `value` parsed as `flag`'s type, or a usage error.
fn parse<T: FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: cannot parse {value:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(exp) = args.first() else {
        usage_error("no experiment given");
    };
    let mut cfg = ExpConfig::default();
    // Each flag takes one value; a missing, unparsable or out-of-range
    // value is a clean usage error, not a panic.
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            usage_error(&format!("{flag} requires a value"));
        };
        match flag.as_str() {
            "--scale" => cfg.scale = parse(flag, value),
            "--t" => cfg.t = parse(flag, value),
            "--l" => cfg.l = parse(flag, value),
            "--seed" => cfg.seed = parse(flag, value),
            "--threads" => cfg.threads = parse(flag, value),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    // `parse` accepts "inf" and "NaN"; point ids are `PointId`s.
    let largest = [DatasetKind::Uniform]
        .into_iter()
        .chain(DatasetKind::PAPER_ORDER)
        .map(base_size)
        .max()
        .unwrap_or(0) as f64;
    if !(cfg.scale > 0.0 && largest * cfg.scale <= f64::from(PointId::MAX)) {
        usage_error("--scale must be positive, and the largest dataset must fit u32 point ids");
    }
    if !(cfg.l > 0.0 && cfg.l.is_finite()) {
        usage_error("--l must be positive and finite");
    }
    eprintln!(
        "# config: scale = {}, t = {}, l = {}, seed = {}, threads = {}",
        cfg.scale, cfg.t, cfg.l, cfg.seed, cfg.threads
    );

    let run_default_tables = || {
        let runs = default_runs(&cfg);
        format!(
            "{}\n{}\n{}\n{}",
            table2(&runs),
            table3(&runs),
            table4(&runs, cfg.t),
            accuracy(&runs)
        )
    };

    let out = match exp.as_str() {
        "table2" | "table3" | "table4" | "accuracy" => {
            let runs = default_runs(&cfg);
            match exp.as_str() {
                "table2" => table2(&runs),
                "table3" => table3(&runs),
                "table4" => table4(&runs, cfg.t),
                _ => accuracy(&runs),
            }
        }
        "fig4" => fig4(&cfg),
        "fig5" => fig5(&cfg),
        "fig6" => fig6(&cfg),
        "fig7" => fig7(&cfg),
        "fig8" => fig8(&cfg),
        "fig9" => fig9(&cfg),
        "ablation" => {
            let mut s = ablation_mass(&cfg);
            s.push('\n');
            s.push_str(&ablation_cascading(&cfg));
            s
        }
        "footnote4" => footnote4(&cfg),
        "row-granularity" => row_granularity(&cfg),
        "all" => {
            let mut s = run_default_tables();
            for part in [
                fig4(&cfg),
                fig5(&cfg),
                fig6(&cfg),
                fig7(&cfg),
                fig8(&cfg),
                fig9(&cfg),
                ablation_mass(&cfg),
                ablation_cascading(&cfg),
                footnote4(&cfg),
            ] {
                s.push('\n');
                s.push_str(&part);
            }
            s
        }
        other => usage_error(&format!("unknown experiment {other}")),
    };
    println!("{out}");
}
