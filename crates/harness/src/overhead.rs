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
//!
//! Neither figure is a constant: the clock charges each window the kernel
//! opened and each store a code-patched kernel checked (the length of the
//! check sequence in `rio-cpu`), and nothing else differs between the three
//! runs. [`run_overhead_study`] asserts that, to the nanosecond.

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
    /// Stores the code-patched run checked.
    pub patch_checks: u64,
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

/// One run of the loop: its time, exact time in nanoseconds, windows
/// opened and stores checked.
struct LoopRun {
    elapsed: SimTime,
    ns: u64,
    windows: u64,
    checks: u64,
}

fn run_write_loop(mode: RioMode, files: usize, writes_per_file: usize) -> LoopRun {
    let config = KernelConfig::small(Policy::rio(mode));
    let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    let data = vec![0xA5u8; 8192];
    let (t0, ns0) = (k.machine.clock.now(), k.machine.clock.now_ns());
    for f in 0..files {
        let fd = k.create(&format!("/f{f}")).expect("create");
        for _ in 0..writes_per_file {
            k.write(fd, &data).expect("write");
        }
        k.close(fd).expect("close");
    }
    LoopRun {
        elapsed: k.machine.clock.now().saturating_sub(t0),
        ns: k.machine.clock.now_ns() - ns0,
        windows: k.rio_stats().map_or(0, |s| s.windows_opened),
        checks: k.machine.bus.stats().patch_checks,
    }
}

/// Runs the three protection modes over an identical write-heavy loop.
///
/// # Panics
///
/// If the runs differ by anything but their protection charges: protected
/// − unprotected must be the windows × 2 µs, and code-patched − protected
/// the checks × [`rio_cpu::STORE_CHECK_STEPS`] × 40 ns, exactly.
pub fn run_overhead_study(files: usize, writes_per_file: usize) -> OverheadReport {
    let unprotected = run_write_loop(RioMode::Unprotected, files, writes_per_file);
    let protected = run_write_loop(RioMode::Protected, files, writes_per_file);
    let code_patched = run_write_loop(RioMode::CodePatched, files, writes_per_file);
    assert_eq!(code_patched.windows, protected.windows);
    assert_eq!(
        protected.ns - unprotected.ns,
        protected.windows * 2_000,
        "protected − unprotected is not the windows' charge"
    );
    assert_eq!(
        code_patched.ns - protected.ns,
        code_patched.checks * rio_cpu::STORE_CHECK_STEPS * 40,
        "code-patched − protected is not the checks' charge"
    );
    OverheadReport {
        unprotected: unprotected.elapsed,
        protected: protected.elapsed,
        code_patched: code_patched.elapsed,
        windows_opened: protected.windows,
        patch_checks: code_patched.checks,
    }
}

/// Renders the study.
pub fn render_overhead(r: &OverheadReport) -> String {
    let oh = r.code_patching_overhead();
    let band = if (0.20..=0.50).contains(&oh) {
        "inside"
    } else {
        "outside"
    };
    format!(
        "Protection overhead study (identical write-intensive loop)\n\
           Rio without protection : {}\n\
           Rio with protection    : {}  ({:+.2}% — the paper's \"essentially no overhead\")\n\
           Rio with code patching : {}  ({:+.1}% — {band} the paper's 20-50% band)\n\
           protection windows     : {}  (2 µs each)\n\
           patched store checks   : {}  ({} steps of 40 ns each)\n",
        r.unprotected,
        r.protected,
        r.protection_overhead() * 100.0,
        r.code_patched,
        oh * 100.0,
        r.windows_opened,
        r.patch_checks,
        rio_cpu::STORE_CHECK_STEPS,
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
