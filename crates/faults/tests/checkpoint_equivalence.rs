//! Property test for the checkpoint-fork trial engine: a trial forked from
//! a cell's shared steady-state checkpoint is observationally identical to
//! one whose machine was booted and warmed up from scratch — across random
//! campaign coordinates, and no matter how many forks the checkpoint has
//! already served.
//!
//! This is the invariant that lets the engine fork every trial and never
//! boot one: `engine.rs`'s `Scratch` adaptor checks it on whole grids,
//! this property on single trials at coordinates no grid test visits.

use rio_det::proptest_lite::{check, Config, Gen};
use rio_faults::campaign::trial_seed;
use rio_faults::{drive, workload_seed, FaultType, PreparedTrial, SystemKind};

#[test]
fn forked_trials_match_scratch_at_random_coordinates() {
    check(
        "checkpoint fork == scratch boot",
        Config::with_cases(10),
        |g: &mut Gen| {
            let fault = FaultType::ALL[g.in_range(0..FaultType::ALL.len())];
            let system = SystemKind::ALL[g.in_range(0..SystemKind::ALL.len())];
            let attempt: u64 = g.in_range(0..8u64);
            let campaign_seed = g.u64();
            let (warmup, watchdog) = (20, 150);

            let wl = workload_seed(campaign_seed, system);
            let inj = trial_seed(campaign_seed, fault, system, attempt);

            // The machine states themselves: fresh boot vs fork.
            let scratch = drive(PreparedTrial::prepare(system, wl, warmup), fault, inj, watchdog);
            let shared = PreparedTrial::prepare(system, wl, warmup);
            let forked = drive(shared.fork(), fault, inj, watchdog);
            rio_det::pt_assert_eq!(scratch, forked);

            // The checkpoint is reusable: a second fork after the first
            // trial ran (and crashed its copy) sees untouched state.
            let again = drive(shared.fork(), fault, inj, watchdog);
            rio_det::pt_assert_eq!(again, scratch);
            Ok(())
        },
    );
}
