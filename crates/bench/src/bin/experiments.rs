//! CLI regenerating every table and figure of the paper.
//!
//! ```sh
//! cargo run -p srj-bench --release --bin experiments -- all --scale 0.5
//! cargo run -p srj-bench --release --bin experiments -- table3 --threads 4
//! cargo run -p srj-bench --release --bin experiments -- fig5 --t 100000
//! ```

use srj_bench::experiments::{
    ablation_cascading, ablation_mass, accuracy, default_runs, fig4, fig5, fig6, fig7, fig8, fig9,
    footnote4, table2, table3, table4, ExpConfig,
};

const USAGE: &str =
    "usage: experiments <exp> [--scale F] [--t N] [--l F] [--seed N] [--threads N]
  exp: table2 | table3 | table4 | accuracy | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | ablation | footnote4 | all
  --threads N  index-build threads (0 = all cores; default 1, the paper's serial build)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(exp) = args.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let mut cfg = ExpConfig::default();
    let mut i = 1;
    // Each flag takes one value; a missing or unparsable value is a
    // clean usage error, not a panic.
    let flag_value = |i: &mut usize, flag: &str| -> String {
        let Some(v) = args.get(*i + 1) else {
            eprintln!("{flag} requires a value\n{USAGE}");
            std::process::exit(2);
        };
        *i += 2;
        v.clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = flag_value(&mut i, "--scale").parse().unwrap_or_else(|_| {
                    eprintln!("--scale takes a float\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--t" => {
                cfg.t = flag_value(&mut i, "--t").parse().unwrap_or_else(|_| {
                    eprintln!("--t takes an integer\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--l" => {
                cfg.l = flag_value(&mut i, "--l").parse().unwrap_or_else(|_| {
                    eprintln!("--l takes a float\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                cfg.seed = flag_value(&mut i, "--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed takes an integer\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                cfg.threads = flag_value(&mut i, "--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads takes an integer\n{USAGE}");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
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
        other => {
            eprintln!("unknown experiment {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{out}");
}
