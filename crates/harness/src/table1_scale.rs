//! Table 1 under multi-client load: the reliability comparison crashed
//! while N preemptive clients hold in-flight syscall state.
//!
//! The single-client campaign ([`crate::table1`]) injects faults into a
//! quiescent kernel. The scale campaign
//! ([`rio_faults::run_scale_campaign`]), rendered here, replays the same
//! 13 × 3 grid at each client count in the sweep (the committed artifact
//! uses {1, 16, 64}), with every client parked mid-syscall under the
//! preemptive scheduler — locks held across yields, staging buffers live
//! in the heap — and adds the provenance the paper's table could not
//! show: whether each corruption stayed confined to the crashing client's
//! files or crossed a process boundary into another client's data.
//!
//! The headline question: does Rio-with-protection's corruption rate
//! stay with the disk's at *every* client count, i.e. do concurrency and
//! mid-syscall crash state open a corruption channel that protection
//! fails to cover? The report ends with the difference of the two rates
//! at each client count and its 95% interval, which says whether this n
//! can tell.

use crate::table1::{difference_line, render_grid, render_n_grid, stopping_rule};
use rio_faults::{CampaignResult, CellResult, SystemKind};

/// Renders one Table 1 grid per client count with its n grid and
/// provenance block, then protection's difference from the disk at each
/// client count.
pub fn render_table1_scale(c: &CampaignResult) -> String {
    let mut out = String::new();
    out.push_str("Table 1 under multi-client load\n");
    out.push_str(&format!(
        "(corruptions per fault type per system; {}; faults injected \
         while N preemptive clients hold in-flight syscall state)\n",
        stopping_rule(c)
    ));

    for &clients in &c.client_counts {
        out.push_str(&format!("\n--- {clients} client(s) ---\n\n"));
        let corruptions = |x: &CellResult| match (x.corruptions, x.cross_client_corruptions) {
            (0, _) => String::new(),
            (n, 0) => n.to_string(),
            (n, cross) => format!("{n} ({cross}x)"),
        };
        out.push_str(&render_grid(
            c,
            clients,
            corruptions,
            |x| x.corruptions,
            |x| x.crashes,
        ));
        out.push_str("(n (kx) = n corrupted runs, k of which crossed a client boundary)\n");
        out.push('\n');
        out.push_str(&render_n_grid(c, clients));

        out.push_str("\nprovenance at injection and after reboot:\n");
        for &system in &SystemKind::ALL {
            let total = |field| c.total(system, clients, field);
            let crashes = total(|x| x.crashes);
            let corr = total(|x| x.corruptions);
            let cross = total(|x| x.cross_client_corruptions);
            let mean = |sum: u64| {
                if crashes == 0 {
                    0.0
                } else {
                    sum as f64 / crashes as f64
                }
            };
            out.push_str(&format!(
                "  {:<24} confined {:>3}, cross-client {:>3} of {:>3} corruptions; \
                 mean in-flight syscalls {:.2}, locks held across yields {:.2}, \
                 contended acquires {:.1}, damaged clients/crash {:.2}\n",
                system.label(),
                corr - cross,
                cross,
                corr,
                mean(total(|x| x.inflight_sum)),
                mean(total(|x| x.locks_held_sum)),
                mean(total(|x| x.contended_sum)),
                mean(total(|x| x.damaged_clients_sum)),
            ));
        }
    }

    out.push('\n');
    for &clients in &c.client_counts {
        out.push_str(&format!(
            "at {clients:>2} client(s): {}",
            difference_line(c, clients)
        ));
    }
    out.push_str(&format!(
        "\nUnique crash messages across the scaled campaign: {}\n",
        c.unique_messages().len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_faults::{run_scale_campaign, FaultType, ScaleCampaignConfig};

    fn tiny_cfg() -> ScaleCampaignConfig {
        ScaleCampaignConfig {
            trials_per_cell: 1,
            seed: 29,
            warmup_ops: 4,
            watchdog_quanta: 1_500,
            max_attempts_factor: 2,
            client_counts: vec![1, 3],
        }
    }

    #[test]
    fn scaled_grid_is_thread_count_invariant() {
        let cfg = tiny_cfg();
        let a = render_table1_scale(&run_scale_campaign(&cfg, 1));
        let b = render_table1_scale(&run_scale_campaign(&cfg, 8));
        assert_eq!(a, b, "grid must be byte-identical at any thread count");
    }

    #[test]
    fn scaled_grid_renders_every_fault_and_client_count() {
        let text = render_table1_scale(&run_scale_campaign(&tiny_cfg(), 4));
        for fault in FaultType::ALL {
            assert!(text.contains(fault.label()), "{text}");
        }
        assert!(text.contains("--- 1 client(s) ---"));
        assert!(text.contains("--- 3 client(s) ---"));
        assert!(text.contains("at  1 client(s): Rio with Protection − Disk-Based"));
        assert!(text.contains("at  3 client(s): Rio with Protection − Disk-Based"));
        assert!(text.contains("n per cell (crashes of attempts)"));
        assert!(text.contains("mean in-flight syscalls"));
    }
}
