//! Regenerates the warm-reboot re-crash table — see DESIGN.md experiment
//! index.
//!
//! ```text
//! RIO_TRIALS=8 RIO_SEED=1996 RIO_THREADS=8 cargo run --release -p rio-bench --bin recovery
//! ```

use rio_bench::{env_threads, env_u64};
use rio_faults::RecoveryCampaignConfig;
use rio_harness::{render_recovery, run_recovery};

fn main() {
    let seed = env_u64("RIO_SEED", 1996);
    let paper = RecoveryCampaignConfig::paper(seed);
    let trials = env_u64("RIO_TRIALS", paper.trials_per_cell);
    let threads = env_threads();

    let cfg = RecoveryCampaignConfig {
        trials_per_cell: trials,
        ..paper
    };
    eprintln!(
        "running recovery re-crash campaign: 4 scenarios x depths 1..={} x {trials} \
         trials (seed {seed}, {threads} threads)...",
        cfg.max_depth
    );
    let started = std::time::Instant::now();
    let report = run_recovery(&cfg, threads);
    eprintln!("campaign finished in {:.1}s\n", started.elapsed().as_secs_f64());
    println!("{}", render_recovery(&report));
}
