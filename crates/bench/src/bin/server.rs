//! Regenerates the open-loop tail-latency study — see EXPERIMENTS.md.
//!
//! ```text
//! RIO_SEED=1996 RIO_THREADS=8 cargo run --release -p rio-bench --bin server
//! ```
//!
//! Emits the human table on stdout (committed as `results_server.txt`)
//! and machine-readable JSON to `BENCH_server.json` at the repository
//! root — override with `RIO_BENCH_JSON`. Output is byte-identical at
//! any `RIO_THREADS`: cells are deterministic in `(seed, cell)` and
//! merged by index. `RIO_CLIENTS` (comma-separated, e.g.
//! `RIO_CLIENTS=8,32`) and `RIO_REQUESTS` shrink the sweep for CI
//! smoke runs.
//!
//! Before running the grid the bin self-checks the measuring instrument:
//! a [`rio_obs::Histogram`] is fed a known distribution and every probed
//! percentile must come back within the log-linear design bound of 1/16
//! relative error. A tail-latency table is only as honest as its
//! histogram.

use rio_bench::{env_threads, env_u64, env_usize_list};
use rio_harness::server::ServerGrid;
use rio_harness::{render_server, run_server, server_json};
use rio_obs::Histogram;

/// Records 1..=100_000 and probes p50/p90/p99/p999/p9999 against the
/// exact order statistics. Panics (before any grid work) if the
/// histogram's relative error exceeds 1/16 anywhere.
fn histogram_self_check() -> f64 {
    let mut h = Histogram::default();
    let n: u64 = 100_000;
    for v in 1..=n {
        h.record(v);
    }
    let mut worst = 0.0f64;
    for frac in [0.50, 0.90, 0.99, 0.999, 0.9999] {
        let exact = ((n - 1) as f64 * frac).floor() as u64 + 1;
        let got = h.percentile(frac);
        let err = (exact as f64 - got as f64).abs() / exact as f64;
        assert!(
            err <= 1.0 / 16.0,
            "histogram p{frac} error {err:.4} exceeds 1/16 (got {got}, exact {exact})"
        );
        worst = worst.max(err);
    }
    worst
}

fn main() {
    let seed = env_u64("RIO_SEED", 1996);
    let threads = env_threads();
    let worst = histogram_self_check();
    let mut grid = ServerGrid::small(seed);
    // CI smoke override: RIO_CLIENTS=8,32 shrinks the sweep.
    if let Some(counts) = env_usize_list("RIO_CLIENTS") {
        grid.clients = counts;
    }
    grid.requests_per_client = env_u64("RIO_REQUESTS", grid.requests_per_client as u64) as usize;
    eprintln!(
        "open-loop server grid: clients x systems, tail latency per op class (seed {seed}, {threads} threads)..."
    );
    let started = std::time::Instant::now();
    let report = run_server(&grid, threads);
    report.assert_rio_tail_wins();
    eprintln!("done in {:.1}s\n", started.elapsed().as_secs_f64());
    println!("{}", render_server(&report));
    println!(
        "histogram self-check: worst percentile error {:.4} (bound 0.0625) OK",
        worst
    );
    let path = std::env::var("RIO_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_server.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, server_json(&report)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");
}
