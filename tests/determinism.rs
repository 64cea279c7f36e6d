//! The parallel campaign must be bit-for-bit deterministic: the same
//! campaign seed must produce the same Table 1 — same corruption counts,
//! same trap counts, same rendered text — whether trials run on one
//! worker thread or eight. This is what makes `RIO_THREADS` a pure
//! speed knob rather than an experiment parameter.

use rio::faults::{run_campaign, CampaignConfig, RecoveryCampaignConfig};
use rio::harness::{render_recovery, render_table1, run_recovery};

fn quick_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        trials_per_cell: 2,
        warmup_ops: 10,
        watchdog_ops: 90,
        max_attempts_factor: 4,
        ..CampaignConfig::quick(seed)
    }
}

#[test]
fn table1_is_identical_across_thread_counts() {
    let serial = run_campaign(&quick_config(0xD57E_2026), 1);
    let wide = run_campaign(&quick_config(0xD57E_2026), 8);

    // Every field of every cell, in the same order: counts, messages,
    // and each crash's latency in attempt order.
    assert_eq!(serial.cells.len(), wide.cells.len());
    for (a, b) in serial.cells.iter().zip(wide.cells.iter()) {
        assert_eq!(
            a, b,
            "cell {:?}/{:?} diverged between 1 and 8 threads",
            a.fault, a.system
        );
    }

    // The rendered table — what lands in results_table1.txt, interval
    // footer included — must be byte-identical too.
    let rendered = render_table1(&serial);
    assert_eq!(rendered, render_table1(&wide));
    assert!(rendered.contains("95% confidence intervals (Wilson)"));

    // And the seed knob is live: a different campaign seed produces a
    // different table.
    let other = run_campaign(&quick_config(0xD57E_2027), 4);
    assert_ne!(
        rendered,
        render_table1(&other),
        "campaign seed must actually steer the experiment"
    );
}

#[test]
fn recovery_table_is_identical_across_thread_counts() {
    let cfg = RecoveryCampaignConfig {
        trials_per_cell: 2,
        warmup_ops: 25,
        max_depth: 2,
        ..RecoveryCampaignConfig::quick(0x5EC0_2026)
    };
    let serial = run_recovery(&cfg, 1);
    let wide = run_recovery(&cfg, 8);

    assert_eq!(serial.campaign.cells.len(), wide.campaign.cells.len());
    for (a, b) in serial.campaign.cells.iter().zip(wide.campaign.cells.iter()) {
        assert_eq!(
            (a.scenario, a.depth),
            (b.scenario, b.depth),
            "cell order diverged"
        );
        assert_eq!(
            (a.converged, a.diverged, a.fatal_losses, a.interrupts),
            (b.converged, b.diverged, b.fatal_losses, b.interrupts),
            "cell {}/{} diverged between 1 and 8 threads",
            a.scenario,
            a.depth,
        );
        assert_eq!(
            (
                a.quarantined,
                a.torn,
                a.retries,
                a.degraded,
                a.committed_skips,
                a.replayed
            ),
            (
                b.quarantined,
                b.torn,
                b.retries,
                b.degraded,
                b.committed_skips,
                b.replayed
            ),
        );
    }

    // What lands in results_recovery.txt must be byte-identical too.
    assert_eq!(render_recovery(&serial), render_recovery(&wide));

    // The acceptance criterion itself: no interrupted recovery may diverge
    // from its single-shot twin, even at this quick scale.
    assert_eq!(serial.campaign.total_diverged(), 0);
}
