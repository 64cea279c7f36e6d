//! The fault-propagation study (§3.3 footnote 2 future work, implemented).
//!
//! ```text
//! RIO_TRIALS=10 RIO_THREADS=8 cargo run --release -p rio-bench --bin propagation
//! ```
//!
//! Each system's trials fork one warmed-up machine and draw their faults
//! from the Table 1 injection stream; output is identical at any
//! `RIO_THREADS`.

use rio_bench::{env_threads, env_u64};
use rio_faults::SystemKind;
use rio_harness::{render_propagation, run_propagation};

fn main() {
    let trials = env_u64("RIO_TRIALS", 10);
    let seed = env_u64("RIO_SEED", 1996);
    let threads = env_threads();
    for system in SystemKind::ALL {
        let rows = run_propagation(system, trials, seed, threads);
        println!("{}", render_propagation(system, &rows));
    }
}
