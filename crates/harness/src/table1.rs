//! Table 1: "Comparing Disk and Memory Reliability".
//!
//! Renders the §3 crash campaign ([`rio_faults::run_campaign`]) as the
//! paper's table — corruptions among each cell's crashes for 13 fault
//! types × {disk-based, Rio without protection, Rio with protection} —
//! plus the derived §3.3 statistics: the MTTF illustration (one crash
//! every two months → years between data-loss events), the
//! protection-trap saves, the unique-crash-message count, Wilson intervals
//! and protection's difference from the disk. Then each cell's n (crashes
//! of attempts) and, per system, §3.3 footnote 2's answer from the same
//! crashes: how many ops a fault took to crash the system, and which
//! detector caught the damage.

use crate::ascii;
use rio_det::stats::{newcombe_difference, percentile, wilson_interval, Z_95};
use rio_faults::{CampaignResult, CellResult, FaultType, SystemKind};

/// Years between corruptions at `rate` corruptions per crash and one
/// crash every two months (§3.3's MTTF illustration); `inf` at rate 0.
fn mttf_years(rate: f64) -> String {
    if rate == 0.0 {
        "inf".to_owned()
    } else {
        format!("{:.0}", 1.0 / (rate * 6.0))
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

/// The fault × system grid of `c` at `clients` in the paper's layout,
/// `cell`'s string in each cell, and a Total row of `num` of `den` summed
/// over each system's cells.
pub(crate) fn render_grid(
    c: &CampaignResult,
    clients: usize,
    cell: fn(&CellResult) -> String,
    num: fn(&CellResult) -> u64,
    den: fn(&CellResult) -> u64,
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
            row.push(cell(find_cell(c, fault, system, clients)));
        }
        rows.push(row);
    }
    let mut total_row = vec!["Total".to_owned()];
    for &system in &SystemKind::ALL {
        let (n, d) = (c.total(system, clients, num), c.total(system, clients, den));
        total_row.push(format!("{n} of {d} ({:.1}%)", pct(n, d)));
    }
    rows.push(total_row);
    ascii::render(&rows)
}

/// The cell of `c` at these coordinates.
fn find_cell(c: &CampaignResult, f: FaultType, s: SystemKind, clients: usize) -> &CellResult {
    c.cells
        .iter()
        .find(|x| x.fault == f && x.system == s && x.clients == clients)
        .expect("full grid")
}

/// The header's stopping rule, shared with Table 1 under load.
pub(crate) fn stopping_rule(c: &CampaignResult) -> String {
    format!(
        "a cell stops at {} crashes or {} attempts; n below",
        c.trials_per_cell,
        c.trials_per_cell * c.max_attempts_factor
    )
}

/// Every cell's sample, "crashes of attempts", with its Total row.
pub(crate) fn render_n_grid(c: &CampaignResult, clients: usize) -> String {
    let grid = render_grid(
        c,
        clients,
        |x| format!("{} of {}", x.crashes, x.attempts()),
        |x| x.crashes,
        CellResult::attempts,
    );
    format!("n per cell (crashes of attempts):\n{grid}")
}

/// Whether protection's corruption rate is separable from the disk's at
/// `clients`: the difference in points with its 95% Newcombe interval.
pub(crate) fn difference_line(c: &CampaignResult, clients: usize) -> String {
    let total = |s, field| c.total(s, clients, field);
    let (rio, disk) = (SystemKind::RioWithProtection, SystemKind::DiskBased);
    let (x1, n1) = (total(rio, |x| x.corruptions), total(rio, |x| x.crashes));
    let (x2, n2) = (total(disk, |x| x.corruptions), total(disk, |x| x.crashes));
    let (lo, hi) = newcombe_difference(x1, n1, x2, n2, Z_95);
    format!(
        "{} − {}: {:+.2} points [{:+.2}, {:+.2}] → {}\n",
        rio.label(),
        disk.label(),
        pct(x1, n1) - pct(x2, n2),
        100.0 * lo,
        100.0 * hi,
        if lo > 0.0 || hi < 0.0 {
            "separable at this n"
        } else {
            "not separable at this n"
        }
    )
}

/// Crashes within this many ops of injection count as quick (the paper's
/// "most crashes occurred within 15 seconds").
const QUICK_OPS: u64 = 25;

/// One system's crash latency and detection per fault type, from every
/// crash Table 1 collected (§3.3 footnote 2). A cell with no recorded
/// latency prints `-` for its latency columns.
fn render_propagation(c: &CampaignResult, system: SystemKind) -> String {
    let mut rows = vec![vec![
        "Fault Type".to_owned(),
        "median latency (ops)".to_owned(),
        "p90 latency (ops)".to_owned(),
        "quick-crash share".to_owned(),
        "checksum hits".to_owned(),
        "memTest-only hits".to_owned(),
    ]];
    for &fault in &FaultType::ALL {
        let x = find_cell(c, fault, system, 1);
        let mut sorted = x.latencies.clone();
        sorted.sort_unstable();
        let [median, p90, quick] = if sorted.is_empty() {
            ["-".to_owned(), "-".to_owned(), "-".to_owned()]
        } else {
            let quick = sorted.iter().filter(|&&l| l <= QUICK_OPS).count() as u64;
            [
                percentile(&sorted, 0.5).to_string(),
                percentile(&sorted, 0.9).to_string(),
                format!("{:.0}%", pct(quick, sorted.len() as u64)),
            ]
        };
        rows.push(vec![
            fault.label().to_owned(),
            median,
            p90,
            quick,
            x.checksum_detections.to_string(),
            x.memtest_only_detections.to_string(),
        ]);
    }
    format!(
        "Crash latency and detection on {} (ops from injection to crash; \
         quick = within {QUICK_OPS} ops):\n{}",
        system.label(),
        ascii::render(&rows)
    )
}

/// Renders a Table 1 campaign ([`rio_faults::run_campaign`]) in the
/// paper's layout, followed by each cell's n and every crash's latency and
/// detector.
pub fn render_table1(c: &CampaignResult) -> String {
    let total = |s, field| c.total(s, 1, field);
    let mut out = String::new();
    out.push_str("Table 1: Comparing Disk and Memory Reliability\n");
    out.push_str(&format!(
        "(corruptions per fault type per system; {})\n\n",
        stopping_rule(c)
    ));
    out.push_str(&render_grid(
        c,
        1,
        corruptions,
        |x| x.corruptions,
        |x| x.crashes,
    ));
    out.push('\n');

    for &system in &SystemKind::ALL {
        let crashes = total(system, |x| x.crashes);
        let rate = match crashes {
            0 => 0.0,
            n => total(system, |x| x.corruptions) as f64 / n as f64,
        };
        out.push_str(&format!(
            "{}: corruption rate {:.2}% per crash; at one crash every two months, \
             MTTF of file data = {} years\n",
            system.label(),
            rate * 100.0,
            mttf_years(rate)
        ));
    }
    out.push_str(&format!(
        "\nProtection-trap saves (wild store halted before corrupting the file cache): \
         {} on Rio with protection\n",
        total(SystemKind::RioWithProtection, |x| x.protection_traps)
    ));
    out.push_str(&format!(
        "Unique crash messages across the campaign: {}\n",
        c.unique_messages().len()
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
    out.push('\n');
    out.push_str(&difference_line(c, 1));
    out.push('\n');
    out.push_str(&render_n_grid(c, 1));
    for &system in &SystemKind::ALL {
        out.push('\n');
        out.push_str(&render_propagation(c, system));
    }
    out
}

/// A corruption cell: blank when the cell has none, as in the paper.
fn corruptions(x: &CellResult) -> String {
    match x.corruptions {
        0 => String::new(),
        n => n.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_faults::CampaignConfig;

    #[test]
    fn mttf_matches_paper_arithmetic() {
        // Paper: disk 7/650 = 1.1% → ~15 years; Rio-no-prot 10/650 = 1.5%
        // → ~11 years.
        assert_eq!(mttf_years(7.0 / 650.0), "15");
        assert_eq!(mttf_years(10.0 / 650.0), "11");
        assert_eq!(mttf_years(0.0), "inf");
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
        let text = render_table1(&rio_faults::run_campaign(&cfg, 4));
        assert!(text.contains("Table 1"));
        for fault in FaultType::ALL {
            assert!(text.contains(fault.label()), "{text}");
        }
        assert!(text.contains("Total"));
        assert!(text.contains("MTTF"));
        assert!(text.contains("95% confidence intervals (Wilson)"));
        assert!(text.contains("a cell stops at 1 crashes or 3 attempts; n below"));
        assert!(text.contains("Rio with Protection − Disk-Based: "));
        assert!(text.contains("n per cell (crashes of attempts)"));
        for system in SystemKind::ALL {
            let title = format!("Crash latency and detection on {}", system.label());
            let (_, table) = text
                .split_once(&title)
                .expect("a propagation table per system");
            let table = table.split("\n\n").next().unwrap();
            for fault in FaultType::ALL {
                assert!(table.contains(fault.label()), "{table}");
            }
        }
    }

    /// A one-client grid whose every cell is `cell` at its coordinates.
    fn grid(cell: impl Fn(FaultType, SystemKind) -> CellResult) -> CampaignResult {
        let cells = FaultType::ALL
            .iter()
            .flat_map(|&f| SystemKind::ALL.iter().map(move |&s| (f, s)))
            .map(|(f, s)| cell(f, s))
            .collect();
        CampaignResult {
            cells,
            trials_per_cell: 10,
            max_attempts_factor: 8,
            client_counts: vec![1],
        }
    }

    #[test]
    fn propagation_columns_read_the_cell_latencies() {
        let campaign = grid(|fault, system| {
            let mut cell = CellResult {
                crashes: 10,
                latencies: (0..10).map(|i| i * 10).rev().collect(),
                checksum_detections: 2,
                memtest_only_detections: 1,
                ..CellResult::empty(fault, system, 1)
            };
            if fault == FaultType::KernelStack {
                (cell.crashes, cell.discarded, cell.latencies) = (0, 80, Vec::new());
            }
            cell
        });
        let text = render_propagation(&campaign, SystemKind::DiskBased);
        let row = |fault: FaultType| -> Vec<String> {
            let line = text.lines().find(|l| l.contains(fault.label())).unwrap();
            line.split('|')
                .map(|c| c.trim().to_owned())
                .filter(|c| !c.is_empty())
                .collect()
        };
        assert_eq!(
            row(FaultType::Pointer),
            ["pointer", "40", "80", "30%", "2", "1"]
        );
        // No crash recorded: no latency, where 0 would read as an
        // immediate crash.
        assert_eq!(row(FaultType::KernelStack)[1..4], ["-", "-", "-"]);
        let n = render_n_grid(&campaign, 1);
        assert!(n.contains("| 0 of 80 "), "{n}");
        assert!(n.contains("| 10 of 10 "), "{n}");
    }

    #[test]
    fn the_difference_line_says_whether_this_n_separates_the_rates() {
        let at = |prot: u64, disk: u64| {
            difference_line(
                &grid(|fault, system| CellResult {
                    crashes: 10,
                    corruptions: match system {
                        SystemKind::RioWithProtection => prot,
                        SystemKind::DiskBased => disk,
                        SystemKind::RioWithoutProtection => 0,
                    },
                    ..CellResult::empty(fault, system, 1)
                }),
                1,
            )
        };
        // 13 cells a system: 0 vs 26 corruptions of 130 crashes.
        assert_eq!(
            at(0, 2),
            "Rio with Protection − Disk-Based: -20.00 points [-27.69, -13.38] → separable at this n\n"
        );
        assert!(at(1, 1).ends_with("→ not separable at this n\n"));
    }
}
