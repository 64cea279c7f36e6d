//! The protection-overhead study.
//!
//! Backs two claims from the paper:
//!
//! * §4: "Rio's protection mechanism adds almost no performance penalty" —
//!   the last two Table 2 rows differ by a hair, because toggling a page's
//!   permission bit in-kernel is cheap and amortizes over an 8 KB block
//!   (§6's comparison with the 7% of \[Sullivan91a\]).
//! * §2.1: code patching — checking every store in software — costs
//!   20–50%, which is why it is only a fallback for CPUs that cannot map
//!   physical addresses through the TLB.

use rio_core::RioMode;
use rio_disk::SimTime;
use rio_kernel::{Kernel, KernelConfig, Policy};

/// Timings of a fixed write-intensive loop under each protection mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadReport {
    /// Rio without protection.
    pub unprotected: SimTime,
    /// Rio with hardware protection (the shipped configuration).
    pub protected: SimTime,
    /// Rio with code patching (§2.1 software fallback).
    pub code_patched: SimTime,
    /// Protection windows opened during the protected run.
    pub windows_opened: u64,
}

impl OverheadReport {
    /// Hardware-protection overhead as a fraction (paper: ≈ 0).
    pub fn protection_overhead(&self) -> f64 {
        self.protected.as_micros() as f64 / self.unprotected.as_micros().max(1) as f64 - 1.0
    }

    /// Code-patching overhead as a fraction (paper: 0.20–0.50).
    pub fn code_patching_overhead(&self) -> f64 {
        self.code_patched.as_micros() as f64 / self.unprotected.as_micros().max(1) as f64 - 1.0
    }
}

fn run_write_loop(mode: RioMode, files: usize, writes_per_file: usize) -> (SimTime, u64) {
    let config = KernelConfig::small(Policy::rio(mode));
    let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    let data = vec![0xA5u8; 8192];
    let t0 = k.machine.clock.now();
    for f in 0..files {
        let fd = k.create(&format!("/f{f}")).expect("create");
        for _ in 0..writes_per_file {
            k.write(fd, &data).expect("write");
        }
        k.close(fd).expect("close");
    }
    let elapsed = k.machine.clock.now().saturating_sub(t0);
    let windows = k.rio_stats().map(|s| s.windows_opened).unwrap_or(0);
    (elapsed, windows)
}

/// Runs the three protection modes over an identical write-heavy loop.
pub fn run_overhead_study(files: usize, writes_per_file: usize) -> OverheadReport {
    let (unprotected, _) = run_write_loop(RioMode::Unprotected, files, writes_per_file);
    let (protected, windows_opened) = run_write_loop(RioMode::Protected, files, writes_per_file);
    let (code_patched, _) = run_write_loop(RioMode::CodePatched, files, writes_per_file);
    OverheadReport {
        unprotected,
        protected,
        code_patched,
        windows_opened,
    }
}

/// Renders the study.
pub fn render_overhead(r: &OverheadReport) -> String {
    format!(
        "Protection overhead study (identical write-intensive loop)\n\
           Rio without protection : {}\n\
           Rio with protection    : {}  ({:+.2}% — the paper's \"essentially no overhead\")\n\
           Rio with code patching : {}  ({:+.1}% — the paper's 20-50% band)\n\
           protection windows     : {}\n",
        r.unprotected,
        r.protected,
        r.protection_overhead() * 100.0,
        r.code_patched,
        r.code_patching_overhead() * 100.0,
        r.windows_opened
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_protection_is_nearly_free() {
        let r = run_overhead_study(4, 8);
        assert!(
            r.protection_overhead() < 0.05,
            "hardware protection cost {:.3} should be ~0",
            r.protection_overhead()
        );
        // Nearly free, not free: the windows are charged, and only to the
        // mode that opens them.
        assert!(r.protection_overhead() > 0.0);
        assert!(r.windows_opened > 0);
    }

    #[test]
    fn code_patching_lands_in_the_paper_band() {
        let r = run_overhead_study(4, 8);
        let oh = r.code_patching_overhead();
        assert!(
            (0.10..=0.60).contains(&oh),
            "code patching {oh:.3} outside the paper's 20-50% band (±10)"
        );
    }

    #[test]
    fn render_mentions_all_modes() {
        let r = run_overhead_study(2, 2);
        let s = render_overhead(&r);
        assert!(s.contains("without protection"));
        assert!(s.contains("code patching"));
    }
}
