//! Campaign throughput benchmark: the checkpoint-fork engine vs booting
//! every trial from scratch — see EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p rio-bench --bin campaign_bench
//! ```
//!
//! Two measurements, written to `BENCH_campaign.json` at the repository
//! root (override with `RIO_BENCH_JSON`):
//!
//! * **Trial preparation** — the work the engine actually eliminates.
//!   Scratch preparation is mkfs + memTest setup + warmup to the paper's
//!   steady point; a fork is a COW clone of the frozen checkpoint. The
//!   ratio is the headline speedup, and the run fails below 20×. What
//!   that bar protects is the fork: a fork that degenerated into a deep
//!   copy of the image (~2.5 ms for the 5 MB small machine, against a
//!   ~2 ms prepare) reads under 1×, a pointer-table fork (~46 µs) reads
//!   40× and up. It is deliberately not tied to how slow a scratch
//!   prepare is: the bar stood at 50× while a prepare took 3.7 ms, and a
//!   PR that made the *prepare* 1.8× faster (the routine summaries,
//!   DESIGN.md §4.5) with the fork untouched would have tripped it. Raise
//!   the ratio by making the fork cheaper, never by slowing the prepare.
//! * **End-to-end campaign throughput** — a small Table 1 campaign run
//!   both ways (the engine's `use_checkpoint` argument). The
//!   post-injection tail (watchdog, reboot, verify) is irreducible and
//!   identical on both paths, so this ratio is smaller than the
//!   preparation ratio; both are reported honestly.
//!
//! Knobs: `RIO_SEED`, `RIO_THREADS`, `RIO_BENCH_TRIALS` (per-cell trials
//! for the end-to-end leg, default 4), `RIO_BENCH_FORKS` (fork
//! iterations, default 2000).

use rio_bench::{env_threads, env_u64};
use rio_bench::runner::fmt_ns;
use rio_faults::{run_campaign, workload_seed, CampaignConfig, PreparedTrial, SystemKind};
use std::hint::black_box;
use std::time::Instant;

fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let seed = env_u64("RIO_SEED", 1996);
    let threads = env_threads();
    let paper = CampaignConfig::paper(seed);

    // --- Leg 1: trial preparation, scratch vs fork ------------------------
    let system = SystemKind::RioWithProtection;
    let wl = workload_seed(seed, system);
    eprintln!("measuring trial preparation (scratch boot+warmup vs checkpoint fork)...");

    let scratch_iters = env_u64("RIO_BENCH_PREPARES", 30).max(3);
    let mut scratch = Vec::new();
    for _ in 0..scratch_iters {
        let t = Instant::now();
        black_box(PreparedTrial::prepare(system, wl, paper.warmup_ops));
        scratch.push(t.elapsed().as_nanos() as u64);
    }
    let scratch_ns = median_ns(scratch);

    let checkpoint = PreparedTrial::prepare(system, wl, paper.warmup_ops);
    let fork_iters = env_u64("RIO_BENCH_FORKS", 2000).max(10);
    let mut forks = Vec::new();
    for _ in 0..fork_iters {
        let t = Instant::now();
        black_box(checkpoint.fork());
        forks.push(t.elapsed().as_nanos() as u64);
    }
    let fork_ns = median_ns(forks);
    let prep_speedup = scratch_ns as f64 / fork_ns.max(1) as f64;
    eprintln!(
        "  scratch prepare: {} median ({scratch_iters} iters)",
        fmt_ns(scratch_ns)
    );
    eprintln!("  fork:            {} median ({fork_iters} iters)", fmt_ns(fork_ns));
    eprintln!("  preparation speedup: {prep_speedup:.0}x");

    // --- Leg 2: end-to-end campaign, checkpoint on vs off -----------------
    let trials = env_u64("RIO_BENCH_TRIALS", 4);
    let cfg = CampaignConfig {
        trials_per_cell: trials,
        ..paper.clone()
    };
    eprintln!(
        "running end-to-end campaigns: 13 faults x 3 systems x {trials} crashes, \
         {threads} threads..."
    );
    let t = Instant::now();
    let on = run_campaign(&cfg, threads, true);
    let on_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let off = run_campaign(&cfg, threads, false);
    let off_secs = t.elapsed().as_secs_f64();

    let attempts =
        |r: &rio_faults::CampaignResult| r.cells.iter().map(|c| c.crashes + c.discarded).sum::<u64>();
    let (a_on, a_off) = (attempts(&on), attempts(&off));
    assert_eq!(a_on, a_off, "checkpoint changed the campaign's attempt schedule");
    assert_eq!(on.cells, off.cells, "checkpoint changed the campaign's cells");
    let tps_on = a_on as f64 / on_secs;
    let tps_off = a_off as f64 / off_secs;
    eprintln!("  checkpoint on:  {a_on} trials in {on_secs:.2}s = {tps_on:.0} trials/s");
    eprintln!("  checkpoint off: {a_off} trials in {off_secs:.2}s = {tps_off:.0} trials/s");
    eprintln!("  end-to-end speedup: {:.1}x (results byte-identical)", tps_on / tps_off);

    let json = format!(
        "{{\n  \"schema\": \"rio-campaign-bench-v1\",\n  \"seed\": {seed},\n  \
         \"threads\": {threads},\n  \"preparation\": {{\n    \
         \"scratch_ns_median\": {scratch_ns},\n    \"fork_ns_median\": {fork_ns},\n    \
         \"speedup\": {prep_speedup:.1},\n    \"scratch_iters\": {scratch_iters},\n    \
         \"fork_iters\": {fork_iters},\n    \"warmup_ops\": {warmup}\n  }},\n  \
         \"end_to_end\": {{\n    \"trials_per_cell\": {trials},\n    \
         \"trials\": {a_on},\n    \"checkpoint_secs\": {on_secs:.3},\n    \
         \"scratch_secs\": {off_secs:.3},\n    \
         \"checkpoint_trials_per_sec\": {tps_on:.1},\n    \
         \"scratch_trials_per_sec\": {tps_off:.1},\n    \
         \"speedup\": {e2e:.2},\n    \"results_identical\": true\n  }}\n}}\n",
        warmup = paper.warmup_ops,
        e2e = tps_on / tps_off,
    );
    let path = std::env::var("RIO_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_campaign.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");

    assert!(
        prep_speedup >= 20.0,
        "a fork costs more than 1/20 of a scratch prepare ({prep_speedup:.0}x): \
         is it still a copy-on-write clone of a sealed image?"
    );
}
