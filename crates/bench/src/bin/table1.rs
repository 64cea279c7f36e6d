//! Regenerates Table 1 (reliability) — see DESIGN.md experiment index.
//!
//! ```text
//! RIO_TRIALS=1000 RIO_SEED=1996 RIO_THREADS=8 cargo run --release -p rio-bench --bin table1
//! ```

use rio_bench::{env_threads, env_u64};
use rio_faults::CampaignConfig;
use rio_harness::{render_table1, run_table1};

fn main() {
    let trials = env_u64("RIO_TRIALS", 1000);
    let seed = env_u64("RIO_SEED", 1996);
    let threads = env_threads();

    let cfg = CampaignConfig {
        trials_per_cell: trials,
        ..CampaignConfig::paper(seed)
    };
    eprintln!(
        "running crash campaign: 13 fault types x 3 systems x {trials} crashes \
         (seed {seed}, {threads} threads)..."
    );
    let started = std::time::Instant::now();
    let report = run_table1(&cfg, threads);
    eprintln!("campaign finished in {:.1}s\n", started.elapsed().as_secs_f64());
    println!("{}", render_table1(&report));
}
