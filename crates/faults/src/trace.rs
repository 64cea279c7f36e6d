//! Fault-propagation tracing — the paper's footnote 2 future work.
//!
//! §3.3: *"We plan to trace how faults propagate to corrupt files and crash
//! the system instead of treating the system as a black box."* The traced
//! trial runs the same protocol as [`crate::campaign::run_trial_from`] but
//! watches the system from the inside: when each fault hook activates, how
//! many operations elapse between injection and the crash (the paper's
//! "most crashes occurred within 15 seconds"), which detection channel
//! caught the damage, and whether corruption preceded or followed the
//! crash.

use crate::campaign::SystemKind;
use crate::driver::{drive, PreparedTrial, TrialVerdict};
use crate::inject::FaultType;

/// How damage (if any) was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionChannel {
    /// No damage detected.
    None,
    /// The registry checksum caught a corrupted page at warm reboot
    /// (direct corruption, §3.2's first detector).
    Checksum,
    /// Only the memTest replay comparison caught it (indirect corruption,
    /// or direct corruption of data whose checksum was recomputed after
    /// the damage).
    MemTestOnly,
    /// Both channels fired.
    Both,
}

impl std::fmt::Display for DetectionChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DetectionChannel::None => "none",
            DetectionChannel::Checksum => "checksum",
            DetectionChannel::MemTestOnly => "memTest-only",
            DetectionChannel::Both => "checksum+memTest",
        };
        f.write_str(s)
    }
}

/// The full observation of one traced trial.
#[derive(Debug, Clone)]
pub struct TrialTrace {
    /// Fault injected.
    pub fault: FaultType,
    /// System under test.
    pub system: SystemKind,
    /// Injection seed.
    pub seed: u64,
    /// Whether the system crashed within the watchdog budget.
    pub crashed: bool,
    /// Operations between injection and crash (the "15 seconds" analog).
    pub crash_latency_ops: Option<u64>,
    /// Simulated time between injection and crash.
    pub crash_latency_time: Option<rio_disk::SimTime>,
    /// Behavioural-hook activations before the crash.
    pub hook_activations: u64,
    /// Protection-trap saves observed.
    pub protection_traps: u64,
    /// Whether file data was damaged.
    pub corrupted: bool,
    /// Which detector(s) caught the damage.
    pub detection: DetectionChannel,
    /// Stable crash message, if crashed.
    pub message: Option<String>,
}

/// Runs one fully-instrumented trial from a prepared steady point
/// (scratch or checkpoint fork), drawing faults from `inject_seed`.
pub fn run_traced_trial_from(
    prepared: PreparedTrial,
    fault: FaultType,
    inject_seed: u64,
    watchdog_ops: u64,
) -> TrialTrace {
    let system = prepared.system;
    let obs = drive(prepared, fault, inject_seed, watchdog_ops);
    let crashed = obs.verdict == TrialVerdict::Crashed;
    TrialTrace {
        fault,
        system,
        seed: inject_seed,
        crashed,
        crash_latency_ops: obs.crash_latency_ops,
        crash_latency_time: obs.crash_latency_time,
        hook_activations: obs.hook_activations,
        protection_traps: obs.protection_trap_count,
        corrupted: crashed && (obs.memtest_hit || obs.checksum_detected),
        detection: match (crashed, obs.checksum_detected, obs.memtest_hit) {
            (false, ..) | (true, false, false) => DetectionChannel::None,
            (true, true, false) => DetectionChannel::Checksum,
            (true, false, true) => DetectionChannel::MemTestOnly,
            (true, true, true) => DetectionChannel::Both,
        },
        message: obs.message,
    }
}

/// Aggregated propagation statistics for a set of traces.
#[derive(Debug, Clone, Default)]
pub struct PropagationSummary {
    /// Traces examined.
    pub trials: usize,
    /// Trials that crashed.
    pub crashed: usize,
    /// Median ops from injection to crash.
    pub median_latency_ops: u64,
    /// 90th-percentile ops from injection to crash.
    pub p90_latency_ops: u64,
    /// Share of crashes within `quick_threshold_ops` of injection (the
    /// paper's "most crashes occurred within 15 seconds").
    pub quick_crash_share: f64,
    /// Threshold used for the quick-crash share.
    pub quick_threshold_ops: u64,
    /// Crashes whose damage was caught by the checksum channel.
    pub checksum_detections: usize,
    /// Crashes whose damage was caught only by memTest.
    pub memtest_only_detections: usize,
}

/// Summarizes a batch of traces.
pub fn summarize(traces: &[TrialTrace], quick_threshold_ops: u64) -> PropagationSummary {
    let mut latencies: Vec<u64> = traces
        .iter()
        .filter_map(|t| t.crash_latency_ops)
        .collect();
    latencies.sort_unstable();
    // Workspace percentile convention (floor on the inclusive index):
    // this pick defined it, and `rio_det::stats` now owns it.
    let pick = |frac: f64| -> u64 { rio_det::stats::percentile(&latencies, frac) };
    let crashed = latencies.len();
    let quick = latencies
        .iter()
        .filter(|&&l| l <= quick_threshold_ops)
        .count();
    PropagationSummary {
        trials: traces.len(),
        crashed,
        median_latency_ops: pick(0.5),
        p90_latency_ops: pick(0.9),
        quick_crash_share: if crashed == 0 {
            0.0
        } else {
            quick as f64 / crashed as f64
        },
        quick_threshold_ops,
        checksum_detections: traces
            .iter()
            .filter(|t| {
                matches!(
                    t.detection,
                    DetectionChannel::Checksum | DetectionChannel::Both
                )
            })
            .count(),
        memtest_only_detections: traces
            .iter()
            .filter(|t| t.detection == DetectionChannel::MemTestOnly)
            .count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `attempts` traced trials of one cell of campaign 0, forked from
    /// one steady point.
    fn cell_traces(system: SystemKind, fault: FaultType, attempts: u64) -> Vec<TrialTrace> {
        let steady = PreparedTrial::prepare(system, crate::workload_seed(0, system), 20);
        (0..attempts)
            .map(|a| {
                let inj = crate::campaign::trial_seed(0, fault, system, a);
                run_traced_trial_from(steady.fork(), fault, inj, 300)
            })
            .collect()
    }

    #[test]
    fn traced_trials_record_latency() {
        let traces = cell_traces(SystemKind::RioWithProtection, FaultType::DeleteRandomInst, 12);
        let crashed: Vec<_> = traces.iter().filter(|t| t.crashed).collect();
        assert!(!crashed.is_empty(), "instruction deletion should crash");
        for t in &crashed {
            assert!(t.crash_latency_ops.is_some());
            assert!(t.message.is_some());
        }
    }

    #[test]
    fn crashes_are_quick_after_injection() {
        // The integrity probe catches broken data paths within an op or
        // two — the simulator's version of "most crashes occurred within
        // 15 seconds after the fault was injected".
        let traces = cell_traces(SystemKind::RioWithoutProtection, FaultType::DestinationReg, 8);
        let summary = summarize(&traces, 10);
        if summary.crashed >= 3 {
            assert!(
                summary.quick_crash_share >= 0.5,
                "expected mostly-quick crashes: {summary:?}"
            );
        }
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let mk = |lat: Option<u64>| TrialTrace {
            fault: FaultType::KernelText,
            system: SystemKind::DiskBased,
            seed: 0,
            crashed: lat.is_some(),
            crash_latency_ops: lat,
            crash_latency_time: None,
            hook_activations: 0,
            protection_traps: 0,
            corrupted: false,
            detection: DetectionChannel::None,
            message: None,
        };
        let traces: Vec<_> = (0..10).map(|i| mk(Some(i * 10))).collect();
        let s = summarize(&traces, 30);
        assert!(s.median_latency_ops <= s.p90_latency_ops);
        assert_eq!(s.crashed, 10);
        assert!((s.quick_crash_share - 0.4).abs() < 1e-9);
        // Empty case is stable.
        let empty = summarize(&[mk(None)], 10);
        assert_eq!(empty.crashed, 0);
        assert_eq!(empty.median_latency_ops, 0);
    }
}
