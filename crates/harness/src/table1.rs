//! Table 1: "Comparing Disk and Memory Reliability".
//!
//! Runs the §3 crash campaign and renders the paper's table — corruptions
//! per N crashes for 13 fault types × {disk-based, Rio without protection,
//! Rio with protection} — plus the derived §3.3 statistics: the MTTF
//! illustration (one crash every two months → years between data-loss
//! events), the protection-trap saves, and the unique-crash-message count.

use crate::ascii;
use rio_det::stats::{wilson_interval, Z_95};
use rio_faults::{run_campaign, CampaignConfig, CampaignResult, CellResult, FaultType, SystemKind};

/// The §3.3 MTTF illustration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttfEstimate {
    /// Corruption probability per crash.
    pub corruption_rate: f64,
    /// Years between corruptions, assuming one crash every two months.
    pub mttf_years: f64,
}

impl MttfEstimate {
    /// Computes the estimate from campaign totals.
    pub fn from_counts(corruptions: u64, crashes: u64) -> MttfEstimate {
        let rate = if crashes == 0 {
            0.0
        } else {
            corruptions as f64 / crashes as f64
        };
        let mttf_years = if rate == 0.0 {
            f64::INFINITY
        } else {
            // One crash per two months: 6 crashes/year.
            1.0 / (rate * 6.0)
        };
        MttfEstimate {
            corruption_rate: rate,
            mttf_years,
        }
    }
}

/// The full Table 1 report.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// Raw campaign results.
    pub campaign: CampaignResult,
    /// MTTF per system, in [`SystemKind::ALL`] order.
    pub mttf: Vec<MttfEstimate>,
    /// Protection-trap saves per system.
    pub protection_traps: Vec<u64>,
    /// Distinct crash messages seen across the campaign.
    pub unique_messages: usize,
}

/// Runs the Table 1 campaign at the given configuration; `threads` is the
/// engine's worker count ([`rio_faults::engine::run`]) and cannot change
/// the report.
pub fn run_table1(cfg: &CampaignConfig, threads: usize) -> Table1Report {
    let campaign = run_campaign(cfg, threads);
    let total = |s, field| campaign.total(s, 1, field);
    let mttf = SystemKind::ALL
        .iter()
        .map(|&s| MttfEstimate::from_counts(total(s, |c| c.corruptions), total(s, |c| c.crashes)))
        .collect();
    let protection_traps = SystemKind::ALL
        .iter()
        .map(|&s| total(s, |c| c.protection_traps))
        .collect();
    let unique_messages = campaign.unique_messages().len();
    Table1Report {
        campaign,
        mttf,
        protection_traps,
        unique_messages,
    }
}

/// Percentage of `num` in `den`; 0 when `den` is.
fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// The fault × system grid of `c` at `clients` with its Total row, in the
/// paper's layout: a cell without corruptions is blank, any other is
/// `cell`'s string for it.
pub(crate) fn render_grid(
    c: &CampaignResult,
    clients: usize,
    cell: fn(&CellResult) -> String,
) -> String {
    let mut rows = vec![vec![
        "Fault Type".to_owned(),
        "Disk-Based".to_owned(),
        "Rio without Protection".to_owned(),
        "Rio with Protection".to_owned(),
    ]];
    for &fault in &FaultType::ALL {
        let mut row = vec![fault.label().to_owned()];
        for &system in &SystemKind::ALL {
            let x = c
                .cells
                .iter()
                .find(|x| x.fault == fault && x.system == system && x.clients == clients)
                .expect("full grid");
            row.push(if x.corruptions == 0 { String::new() } else { cell(x) });
        }
        rows.push(row);
    }
    let mut total_row = vec!["Total".to_owned()];
    for &system in &SystemKind::ALL {
        let crashes = c.total(system, clients, |x| x.crashes);
        let corr = c.total(system, clients, |x| x.corruptions);
        total_row.push(format!("{corr} of {crashes} ({:.1}%)", pct(corr, crashes)));
    }
    rows.push(total_row);
    ascii::render(&rows)
}

/// Renders the report in the paper's layout.
pub fn render_table1(report: &Table1Report) -> String {
    let c = &report.campaign;
    let total = |s, field| c.total(s, 1, field);
    let mut out = String::new();
    out.push_str("Table 1: Comparing Disk and Memory Reliability\n");
    out.push_str(&format!(
        "(corruptions among {} crashes per fault type per system)\n\n",
        c.trials_per_cell
    ));
    out.push_str(&render_grid(c, 1, |x| x.corruptions.to_string()));
    out.push('\n');

    for (i, &system) in SystemKind::ALL.iter().enumerate() {
        let m = report.mttf[i];
        out.push_str(&format!(
            "{}: corruption rate {:.2}% per crash; at one crash every two months, \
             MTTF of file data = {} years\n",
            system.label(),
            m.corruption_rate * 100.0,
            if m.mttf_years.is_infinite() {
                "inf".to_owned()
            } else {
                format!("{:.0}", m.mttf_years)
            }
        ));
    }
    out.push_str(&format!(
        "\nProtection-trap saves (wild store halted before corrupting the file cache): \
         {} on Rio with protection\n",
        report.protection_traps[2]
    ));
    out.push_str(&format!(
        "Unique crash messages across the campaign: {}\n",
        report.unique_messages
    ));
    out.push_str(&format!(
        "Torn data blocks repaired by fsck at reboot: {} disk-based, \
         {} Rio without protection, {} Rio with protection\n",
        total(SystemKind::ALL[0], |x| x.torn_data_blocks),
        total(SystemKind::ALL[1], |x| x.torn_data_blocks),
        total(SystemKind::ALL[2], |x| x.torn_data_blocks),
    ));
    out.push_str(&format!(
        "Registry entries quarantined by the warm-reboot scan: \
         {} Rio without protection, {} Rio with protection\n",
        total(SystemKind::ALL[1], |x| x.quarantined),
        total(SystemKind::ALL[2], |x| x.quarantined),
    ));

    // §3.3 error bars: a Wilson 95% interval on each system's per-crash
    // corruption rate, and the MTTF range it implies (worst-case rate →
    // shortest MTTF). The interval is what the 1000-trial campaigns exist
    // to tighten; at the paper's 50-crash scale it spans a factor of ~4.
    out.push_str("\n95% confidence intervals (Wilson) on the per-crash corruption rate:\n");
    let mttf_years = |rate: f64| -> String {
        if rate == 0.0 {
            "inf".to_owned()
        } else {
            format!("{:.0}", 1.0 / (rate * 6.0))
        }
    };
    for &system in &SystemKind::ALL {
        let crashes = total(system, |x| x.crashes);
        let corr = total(system, |x| x.corruptions);
        let (lo, hi) = wilson_interval(corr, crashes, Z_95);
        out.push_str(&format!(
            "  {:<22} : {:.2}% [{:.2}%, {:.2}%] over {} crashes; \
             MTTF {}..{} years\n",
            system.label(),
            pct(corr, crashes),
            100.0 * lo,
            100.0 * hi,
            crashes,
            mttf_years(hi),
            mttf_years(lo),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mttf_matches_paper_arithmetic() {
        // Paper: disk 7/650 = 1.1% → ~15 years; Rio-no-prot 10/650 = 1.5%
        // → ~11 years.
        let disk = MttfEstimate::from_counts(7, 650);
        assert!((disk.mttf_years - 15.476).abs() < 0.1, "{disk:?}");
        let rio = MttfEstimate::from_counts(10, 650);
        assert!((rio.mttf_years - 10.833).abs() < 0.1, "{rio:?}");
        let perfect = MttfEstimate::from_counts(0, 650);
        assert!(perfect.mttf_years.is_infinite());
    }

    #[test]
    fn tiny_campaign_renders_full_table() {
        let cfg = CampaignConfig {
            trials_per_cell: 1,
            seed: 5,
            warmup_ops: 15,
            watchdog_ops: 120,
            max_attempts_factor: 3,
        };
        let report = run_table1(&cfg, 4);
        let text = render_table1(&report);
        assert!(text.contains("Table 1"));
        for fault in FaultType::ALL {
            assert!(text.contains(fault.label()), "{text}");
        }
        assert!(text.contains("Total"));
        assert!(text.contains("MTTF"));
        assert!(text.contains("95% confidence intervals (Wilson)"));
    }
}
