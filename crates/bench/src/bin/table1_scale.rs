//! Regenerates Table 1 under multi-client load — see DESIGN.md
//! experiment index.
//!
//! ```text
//! RIO_TRIALS=10 RIO_SEED=1996 RIO_THREADS=8 cargo run --release -p rio-bench --bin table1_scale
//! ```
//!
//! `RIO_CLIENTS` overrides the client-count sweep (comma-separated, e.g.
//! `RIO_CLIENTS=1,4` for a CI smoke run).

use rio_bench::{env_threads, env_u64, env_usize_list};
use rio_faults::ScaleCampaignConfig;
use rio_harness::{render_table1_scale, run_table1_scale};

fn main() {
    let trials = env_u64("RIO_TRIALS", 10);
    let seed = env_u64("RIO_SEED", 1996);
    let threads = env_threads();

    let mut cfg = ScaleCampaignConfig {
        trials_per_cell: trials,
        ..ScaleCampaignConfig::paper(seed)
    };
    if let Some(counts) = env_usize_list("RIO_CLIENTS") {
        cfg.client_counts = counts;
    }
    eprintln!(
        "running scaled crash campaign: 13 fault types x 3 systems x {:?} clients x \
         {trials} crashes (seed {seed}, {threads} threads)...",
        cfg.client_counts
    );
    let started = std::time::Instant::now();
    let report = run_table1_scale(&cfg, threads);
    eprintln!(
        "campaign finished in {:.1}s\n",
        started.elapsed().as_secs_f64()
    );
    println!("{}", render_table1_scale(&report));
}
