//! Property test for the checkpoint-fork trial engine: a trial forked from
//! a cell's shared steady-state checkpoint is observationally identical to
//! one whose machine was booted and warmed up from scratch — across random
//! campaign coordinates, for Table 1's one memTest stepped op by op and for
//! a scheduled checkpoint of 1–4 clients parked mid-syscall, and no matter
//! how many forks the checkpoint has already served.
//!
//! This is the invariant that lets the engine fork every trial and never
//! boot one: `engine.rs`'s `Scratch` adaptor checks it on whole grids,
//! this property on single trials at coordinates no grid test visits.

use rio_det::proptest_lite::{check, Config, Gen};
use rio_faults::campaign::trial_seed;
use rio_faults::{
    drive_attributed, scale_checkpoint, scale_trial_seed, workload_seed, FaultType, PreparedTrial,
    ScaleCampaignConfig, SystemKind,
};

#[test]
fn forked_trials_match_scratch_at_random_coordinates() {
    check(
        "checkpoint fork == scratch boot",
        Config::with_cases(12),
        |g: &mut Gen| {
            let fault = FaultType::ALL[g.in_range(0..FaultType::ALL.len())];
            let system = SystemKind::ALL[g.in_range(0..SystemKind::ALL.len())];
            let attempt: u64 = g.in_range(0..8u64);
            let campaign_seed = g.u64();
            // 0: one memTest between ops; 1–4: that many scheduled clients.
            let clients: usize = g.in_range(0..5usize);

            let scale = ScaleCampaignConfig {
                seed: campaign_seed,
                warmup_ops: 4,
                watchdog_quanta: 1_500,
                ..ScaleCampaignConfig::quick(campaign_seed)
            };
            let capture = || match clients {
                0 => PreparedTrial::prepare(system, workload_seed(campaign_seed, system), 20),
                n => scale_checkpoint(&scale, system, n),
            };
            let (inj, watchdog) = match clients {
                0 => (trial_seed(campaign_seed, fault, system, attempt), 150),
                n => (
                    scale_trial_seed(campaign_seed, fault, system, n, attempt),
                    scale.watchdog_quanta,
                ),
            };

            // The machine states themselves: fresh boot vs fork.
            let scratch = drive_attributed(capture(), fault, inj, watchdog);
            let shared = capture();
            let forked = drive_attributed(shared.fork(), fault, inj, watchdog);
            rio_det::pt_assert_eq!(scratch, forked);

            // The checkpoint is reusable: a second fork after the first
            // trial ran (and crashed its copy) sees untouched state.
            let again = drive_attributed(shared.fork(), fault, inj, watchdog);
            rio_det::pt_assert_eq!(again, scratch);
            Ok(())
        },
    );
}
