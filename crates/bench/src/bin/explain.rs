//! Crash forensics for one campaign trial — see DESIGN.md §5 and the
//! EXPERIMENTS.md index.
//!
//! ```text
//! cargo run --release -p rio-bench --bin explain -- \
//!     --fault copy_overrun --system rio_prot --attempt 0
//! ```
//!
//! Replays the trial at `(RIO_SEED, fault, system, attempt)` — the same
//! coordinate addressing the Table 1 campaign uses — with event tracing
//! enabled, prints the causal timeline to stdout, and writes the JSON
//! record to `BENCH_obs.json` (override with `RIO_OBS_JSON`; empty
//! disables the write). Output is deterministic: byte-identical across
//! hosts, runs, and `RIO_THREADS` settings. Exits non-zero if the record
//! cannot be written, or if the event ring wrapped — a timeline with its
//! oldest events missing explains nothing.

use rio_bench::env_u64;
use rio_faults::{FaultType, SystemKind};
use rio_harness::{explain_json, explain_trial, render_timeline, ExplainConfig};

fn usage() -> ! {
    eprintln!(
        "usage: explain --fault <slug> --system <slug> [--attempt <n>]\n\
         \n\
         faults : {}\n\
         systems: {}\n\
         \n\
         env: RIO_SEED (default 1996), RIO_WARMUP (60), RIO_WATCHDOG (800),\n\
         RIO_OBS_JSON (output path; empty string disables)",
        FaultType::ALL
            .iter()
            .map(|f| f.slug())
            .collect::<Vec<_>>()
            .join(" "),
        SystemKind::ALL
            .iter()
            .map(|s| s.slug())
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut fault = None;
    let mut system = None;
    let mut attempt = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fault" => {
                let v = args.next().unwrap_or_else(|| usage());
                fault = Some(FaultType::from_slug(&v).unwrap_or_else(|| {
                    eprintln!("unknown fault slug: {v}");
                    usage()
                }));
            }
            "--system" => {
                let v = args.next().unwrap_or_else(|| usage());
                system = Some(SystemKind::from_slug(&v).unwrap_or_else(|| {
                    eprintln!("unknown system slug: {v}");
                    usage()
                }));
            }
            "--attempt" => {
                let v = args.next().unwrap_or_else(|| usage());
                attempt = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad attempt index: {v}");
                    usage()
                });
            }
            _ => usage(),
        }
    }
    let (Some(fault), Some(system)) = (fault, system) else {
        usage()
    };

    let seed = env_u64("RIO_SEED", 1996);
    let mut cfg = ExplainConfig::paper(seed, fault, system, attempt);
    cfg.warmup_ops = env_u64("RIO_WARMUP", cfg.warmup_ops);
    cfg.watchdog_ops = env_u64("RIO_WATCHDOG", cfg.watchdog_ops);

    eprintln!(
        "replaying trial fault={} system={} attempt={attempt} (seed {seed})...",
        fault.slug(),
        system.slug()
    );
    let report = explain_trial(&cfg);
    print!("{}", render_timeline(&report));

    let json_path = std::env::var("RIO_OBS_JSON").unwrap_or_else(|_| {
        format!("{}/../../BENCH_obs.json", env!("CARGO_MANIFEST_DIR"))
    });
    if !json_path.is_empty() {
        std::fs::write(&json_path, explain_json(&report))
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        eprintln!("wrote {json_path}");
    }
    if report.trace.dropped > 0 {
        eprintln!(
            "the event ring dropped {} events: the trial does not fit",
            report.trace.dropped
        );
        std::process::exit(1);
    }
}
