//! `perf` — the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! perf [run]  --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! perf trace  --workload <name> …        (same as --trace 1)
//! perf probes                            (every probe metric as JSON)
//! perf compare <a.jsonl> <b.jsonl>
//! perf manifest                          (prints BENCHMARK.json)
//! ```
//!
//! The last line of standard output of a run is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the process exits
//! non-zero, naming the reason on standard error, when an output check
//! fails.

mod campaign;
mod catalog;
mod compare;
mod fileops;
mod json;
mod probes;
mod recovery;
mod run;
mod server;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

const DEFAULT_SEED: u64 = 1996;

fn parse_run_args(mut rest: std::slice::Iter<String>, trace: bool) -> Result<run::Args, String> {
    let mut args = run::Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace,
        quick: false,
        out: None,
    };
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(value()?.clone()),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.quick {
        args.seconds = 0.0;
    }
    Ok(args)
}

fn main_inner(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "probes" | "compare" | "manifest")) => (c, &argv[1..]),
        _ => ("run", argv),
    };
    match command {
        "run" | "trace" => {
            run::run(&parse_run_args(rest.iter(), command == "trace")?).map(|()| true)
        }
        "probes" => {
            let mut doc = json::Value::obj();
            for (name, value) in probes::run_all() {
                let unit = catalog::PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .map_or("", |m| m.unit);
                let mut v = json::Value::obj();
                v.set("value", value).set("unit", unit);
                println!("{name:<36} {value:>14.2} {unit}");
                doc.set(&name, v);
            }
            println!("{}", doc.render());
            Ok(true)
        }
        "compare" => match rest {
            [a, b] => compare::compare(a, b),
            _ => Err("usage: perf compare <a.jsonl> <b.jsonl>".into()),
        },
        "manifest" => {
            print!("{}", catalog::manifest());
            Ok(true)
        }
        _ => unreachable!("matched above"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perf: {why}");
            ExitCode::FAILURE
        }
    }
}
