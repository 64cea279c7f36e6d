//! Regenerates the multi-client scale-out study — see EXPERIMENTS.md.
//!
//! ```text
//! RIO_SEED=1996 RIO_THREADS=8 cargo run --release -p rio-bench --bin scale
//! ```
//!
//! Emits the human table on stdout (committed as `results_scale.txt`)
//! and machine-readable JSON to `BENCH_scale.json` at the repository
//! root — override with `RIO_BENCH_JSON`. Output is byte-identical at
//! any `RIO_THREADS`: cells are deterministic in `(seed, cell)` and
//! merged by index.

use rio_bench::{env_threads, env_u64};
use rio_harness::scale::ScaleGrid;
use rio_harness::{render_scale, run_scale, scale_json};

fn main() {
    let seed = env_u64("RIO_SEED", 1996);
    let threads = env_threads();
    eprintln!(
        "scale-out grid: clients x devices, Rio vs write-through (seed {seed}, {threads} threads)..."
    );
    let started = std::time::Instant::now();
    let report = run_scale(&ScaleGrid::small(seed), threads);
    report.assert_rio_wins();
    eprintln!("done in {:.1}s\n", started.elapsed().as_secs_f64());
    println!("{}", render_scale(&report));
    let path = std::env::var("RIO_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, scale_json(&report)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");
}
