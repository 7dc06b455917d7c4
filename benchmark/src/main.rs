//! Command line of the benchmark. `run` is the one command; the driver
//! calls the binary with `--workload … --seed … --seconds … --trace …`
//! and no subcommand; `round` and `layers` are the child processes the
//! other modes spawn.

use std::process::ExitCode;

use srj_benchmark::bench::{self, RunOptions};
use srj_benchmark::json::Json;
use srj_benchmark::workload::{self, Scale};
use srj_benchmark::{layers, report, round, verify};

const USAGE: &str = "\
usage:
  srj-benchmark run [--seed N] [--rounds N] [--only WORKLOAD] [--scale full|smoke]
  srj-benchmark verify
  srj-benchmark layers --workload W [--seed N] [--scale full|smoke]
  srj-benchmark compare A.json B.json
  srj-benchmark check-schema RESULT.json
  srj-benchmark --workload W --seed N --seconds S --trace 0|1     (driver mode)";

/// `--name value` pairs plus positionals.
struct Args {
    options: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                args.options.push((name.to_string(), value.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: {v:?} is not a valid number")),
        }
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.get("scale") {
            None => Ok(Scale::Full),
            Some(s) => {
                Scale::parse(s).ok_or_else(|| format!("--scale: {s:?} is not full or smoke"))
            }
        }
    }

    fn workload(&self) -> Result<workload::Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        workload::find(name, self.scale()?).ok_or_else(|| format!("no workload named {name:?}"))
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let (command, rest) = match raw.first().map(String::as_str) {
        None => return Err(USAGE.to_string()),
        Some(first) if first.starts_with("--") => ("driver", raw),
        Some(first) => (first, &raw[1..]),
    };
    let args = Args::parse(rest)?;
    match command {
        "run" => bench::run(&RunOptions {
            seed: args.number("seed", 42)?,
            rounds: args.number("rounds", 5usize)?.max(1),
            only: args.get("only").map(str::to_string),
            scale: args.scale()?,
        }),
        "verify" => {
            let checks = verify::verify(&verify::FAMILIES)?;
            for c in &checks {
                println!("{}", c.to_json());
            }
            Ok(checks.iter().all(verify::Check::passed))
        }
        "round" => {
            let _ = srj_benchmark::host::pin_to_one_cpu();
            let w = args.workload()?;
            let probes = args.get("probes") == Some("1");
            let (report, server) = round::run_round(&w, args.number("seed", 42)?, probes)?;
            println!("{}", report.to_json());
            // Nothing left to do: exit without the up-to-a-second wait
            // for the server's recorder thread that a shutdown costs.
            std::mem::forget(server);
            let _ = std::io::Write::flush(&mut std::io::stdout());
            std::process::exit(0)
        }
        "layers" => {
            let _ = srj_benchmark::host::pin_to_one_cpu();
            let report = layers::run_layers(&args.workload()?, args.number("seed", 42)?)?;
            println!("{}", report.to_json());
            Ok(true)
        }
        "compare" => match args.positional.as_slice() {
            [a, b] => report::compare(&read_json(a)?, &read_json(b)?).map(|worse| !worse),
            _ => Err(USAGE.to_string()),
        },
        "check-schema" => match args.positional.as_slice() {
            [path] => match report::schema_drift(&read_json(path)?) {
                None => Ok(true),
                Some(what) => Err(format!("schema drift: {what}")),
            },
            _ => Err(USAGE.to_string()),
        },
        "driver" => {
            let name = args.get("workload").ok_or("--workload is required")?;
            let trace = match args.get("trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace: {other:?} is not 0 or 1")),
            };
            bench::driver(
                name,
                args.number("seed", 42)?,
                args.number("seconds", 10.0)?,
                trace,
            )?;
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
