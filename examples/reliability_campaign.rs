//! A scaled-down Table 1 campaign: a few crashes per (fault × system) cell.
//!
//! The committed campaign (`results_table1.txt`, 1000 crashes per cell) is
//! `cargo run --release --bin exhibit -- table1`; this example runs a
//! small grid quickly and prints the same table.
//!
//! ```text
//! cargo run --release --example reliability_campaign [trials-per-cell]
//! ```

use rio::faults::{run_campaign, CampaignConfig};
use rio::harness::render_table1;

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let cfg = CampaignConfig {
        trials_per_cell: trials,
        ..CampaignConfig::quick(1996)
    };
    eprintln!(
        "running {} fault types x 3 systems x {trials} crashes on {threads} threads...",
        13
    );
    println!("{}", render_table1(&run_campaign(&cfg, threads)));
}
