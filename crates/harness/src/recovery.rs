//! The warm-reboot re-crash table: does recovery survive crashing *again*?
//!
//! Runs the rio-faults recovery campaign — scenario × re-crash depth cells,
//! each trial crashing the warm reboot at a sampled pipeline point `depth`
//! times before letting it finish — and renders a table asserting the
//! paper's §2.2 claim extended to nested failures: an interrupted-and-
//! resumed recovery must leave the file system byte-for-byte identical to
//! a recovery that was never interrupted.

use crate::ascii;
use rio_faults::{run_recovery_campaign, RecoveryCampaignConfig, RecoveryCampaignResult};

/// The full recovery-table report.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Raw campaign results.
    pub campaign: RecoveryCampaignResult,
}

/// Runs the re-crash campaign at the given configuration.
pub fn run_recovery(cfg: &RecoveryCampaignConfig, threads: usize) -> RecoveryReport {
    RecoveryReport {
        campaign: run_recovery_campaign(cfg, threads),
    }
}

/// Renders the report as an aligned ASCII table plus acceptance footer.
pub fn render_recovery(report: &RecoveryReport) -> String {
    let c = &report.campaign;
    let mut rows = vec![vec![
        "Scenario".to_owned(),
        "Depth".to_owned(),
        "Trials".to_owned(),
        "Converged".to_owned(),
        "Diverged".to_owned(),
        "Fatal".to_owned(),
        "Interrupts".to_owned(),
        "Quarantined".to_owned(),
        "Torn".to_owned(),
        "Retries".to_owned(),
        "Degraded".to_owned(),
        "Skips".to_owned(),
        "Replayed".to_owned(),
    ]];
    for cell in &c.cells {
        rows.push(vec![
            cell.scenario.label().to_owned(),
            cell.depth.to_string(),
            cell.trials.to_string(),
            cell.converged.to_string(),
            if cell.diverged == 0 {
                String::new()
            } else {
                cell.diverged.to_string()
            },
            cell.fatal_losses.to_string(),
            cell.interrupts.to_string(),
            cell.quarantined.to_string(),
            cell.torn.to_string(),
            cell.retries.to_string(),
            cell.degraded.to_string(),
            cell.committed_skips.to_string(),
            cell.replayed.to_string(),
        ]);
    }

    let mut out = String::new();
    out.push_str("Recovery re-crash campaign: interrupted warm reboot vs. single-shot\n");
    out.push_str(&format!(
        "({} trials per cell; each trial re-crashes the recovery `depth` times \
         at sampled pipeline points, then compares every disk block against an \
         uninterrupted recovery of the same crash)\n\n",
        c.trials_per_cell
    ));
    out.push_str(&ascii::render(&rows));
    out.push('\n');

    out.push_str(
        "Columns: Diverged = final disk differs from single-shot recovery (must be 0); \
         Fatal = unmountable on both paths (counted, not hidden); Interrupts = injected \
         second crashes; Quarantined = decayed pages dropped by the CRC scan; Torn = \
         torn blocks fsck repaired; Retries = transient disk I/O retries; Degraded = \
         permanently dead blocks skipped-and-counted; Skips = registry entries already \
         RESTORED/REPLAYED and skipped on resume; Replayed = pages replayed on the \
         final attempt.\n\n",
    );
    let diverged = c.total_diverged();
    out.push_str(&format!(
        "Acceptance: {} diverged trials across {} cells — {}\n",
        diverged,
        c.cells.len(),
        if diverged == 0 {
            "every interrupted recovery converged to the single-shot image"
        } else {
            "FAILED: interrupted recovery is not idempotent"
        }
    ));
    out.push_str(&format!(
        "Outage-window decay quarantined {} pages in total; none were silently restored.\n",
        c.total_quarantined()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_faults::RecoveryScenario;

    #[test]
    fn tiny_recovery_campaign_renders_full_table() {
        let cfg = RecoveryCampaignConfig {
            trials_per_cell: 1,
            seed: 9,
            warmup_ops: 25,
            max_depth: 2,
        };
        let report = run_recovery(&cfg, 2);
        let text = render_recovery(&report);
        for scenario in RecoveryScenario::ALL {
            assert!(text.contains(scenario.label()), "{text}");
        }
        assert!(text.contains("Acceptance"));
        assert_eq!(report.campaign.cells.len(), 8);
    }
}
