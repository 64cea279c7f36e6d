//! `explain` *is* the campaign's trial, and an open trace session does not
//! perturb it (DESIGN.md §5.2, on a whole trial): at random campaign
//! coordinates, the observation inside [`explain_trial`]'s report — taken
//! with a session open from before the boot — equals what
//! [`rio_faults::drive`] returns for the same coordinate with no session
//! open, field for field. Both go through `rio_faults::driver`'s phases;
//! this property fails the day one of them stops doing so.

use rio_det::proptest_lite::{check, Config, Gen};
use rio_faults::campaign::trial_seed;
use rio_faults::{drive, workload_seed, FaultType, PreparedTrial, SystemKind};
use rio_harness::{explain_trial, ExplainConfig};

#[test]
fn explained_trial_observes_what_the_campaign_trial_observes() {
    check(
        "explain_trial == drive, traced or not",
        Config::with_cases(10),
        |g: &mut Gen| {
            let fault = FaultType::ALL[g.in_range(0..FaultType::ALL.len())];
            let system = SystemKind::ALL[g.in_range(0..SystemKind::ALL.len())];
            let cfg = ExplainConfig {
                attempt: g.in_range(0..8u64),
                campaign_seed: g.u64(),
                warmup_ops: 20,
                watchdog_ops: 150,
                ..ExplainConfig::paper(0, fault, system, 0)
            };

            let untraced = drive(
                PreparedTrial::prepare(
                    system,
                    workload_seed(cfg.campaign_seed, system),
                    cfg.warmup_ops,
                ),
                fault,
                trial_seed(cfg.campaign_seed, fault, system, cfg.attempt),
                cfg.watchdog_ops,
            );
            let report = explain_trial(&cfg);
            rio_det::pt_assert_eq!(report.observation, untraced);
            rio_det::pt_assert!(!report.trace.events.is_empty());
            rio_det::pt_assert_eq!(report.trace.dropped, 0);
            Ok(())
        },
    );
}
