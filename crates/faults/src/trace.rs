//! Fault-propagation tracing — the paper's footnote 2 future work.
//!
//! §3.3: *"We plan to trace how faults propagate to corrupt files and crash
//! the system instead of treating the system as a black box."* A trial's
//! [`TrialObservation`] already watches the system from the inside: how
//! many operations elapse between injection and the crash (the paper's
//! "most crashes occurred within 15 seconds") and which detector caught the
//! damage. This module reads those two facts off a batch of observations.

use crate::driver::{TrialObservation, TrialVerdict};

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

impl DetectionChannel {
    /// Which detector(s) caught the damage of the trial `obs` records: the
    /// warm reboot's CRC scan, the memTest replay comparison, both, or
    /// neither (always neither for a trial that did not crash).
    pub fn of(obs: &TrialObservation) -> DetectionChannel {
        let crashed = obs.verdict == TrialVerdict::Crashed;
        match (crashed, obs.checksum_detected, obs.memtest_hit) {
            (false, ..) | (true, false, false) => DetectionChannel::None,
            (true, true, false) => DetectionChannel::Checksum,
            (true, false, true) => DetectionChannel::MemTestOnly,
            (true, true, true) => DetectionChannel::Both,
        }
    }
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

/// Aggregated propagation statistics for a set of trials.
#[derive(Debug, Clone, Default)]
pub struct PropagationSummary {
    /// Trials examined.
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

/// Summarizes a batch of trials. A trial counts as crashed when it has a
/// crash latency (a harness panic has none).
pub fn summarize(trials: &[TrialObservation], quick_threshold_ops: u64) -> PropagationSummary {
    let mut latencies: Vec<u64> = trials.iter().filter_map(|t| t.crash_latency_ops).collect();
    latencies.sort_unstable();
    // Workspace percentile convention (floor on the inclusive index):
    // this pick defined it, and `rio_det::stats` now owns it.
    let pick = |frac: f64| -> u64 { rio_det::stats::percentile(&latencies, frac) };
    let crashed = latencies.len();
    let quick = latencies
        .iter()
        .filter(|&&l| l <= quick_threshold_ops)
        .count();
    let detected_by = |channels: &[DetectionChannel]| {
        trials
            .iter()
            .filter(|t| channels.contains(&DetectionChannel::of(t)))
            .count()
    };
    PropagationSummary {
        trials: trials.len(),
        crashed,
        median_latency_ops: pick(0.5),
        p90_latency_ops: pick(0.9),
        quick_crash_share: if crashed == 0 {
            0.0
        } else {
            quick as f64 / crashed as f64
        },
        quick_threshold_ops,
        checksum_detections: detected_by(&[DetectionChannel::Checksum, DetectionChannel::Both]),
        memtest_only_detections: detected_by(&[DetectionChannel::MemTestOnly]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SystemKind;
    use crate::driver::{drive, PreparedTrial};
    use crate::inject::FaultType;

    /// `attempts` trials of one cell of campaign 0, forked from one steady
    /// point.
    fn cell_trials(system: SystemKind, fault: FaultType, attempts: u64) -> Vec<TrialObservation> {
        let steady = PreparedTrial::prepare(system, crate::workload_seed(0, system), 20);
        (0..attempts)
            .map(|a| {
                let inj = crate::campaign::trial_seed(0, fault, system, a);
                drive(steady.fork(), fault, inj, 300)
            })
            .collect()
    }

    #[test]
    fn crashed_trials_record_latency() {
        let trials = cell_trials(SystemKind::RioWithProtection, FaultType::DeleteRandomInst, 12);
        let crashed: Vec<_> = trials
            .iter()
            .filter(|t| t.verdict == TrialVerdict::Crashed)
            .collect();
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
        let trials = cell_trials(SystemKind::RioWithoutProtection, FaultType::DestinationReg, 8);
        let summary = summarize(&trials, 10);
        if summary.crashed >= 3 {
            assert!(
                summary.quick_crash_share >= 0.5,
                "expected mostly-quick crashes: {summary:?}"
            );
        }
    }

    /// An observation with nothing in it but a crash latency (or none).
    fn with_latency(lat: Option<u64>) -> TrialObservation {
        TrialObservation {
            crash_latency_ops: lat,
            ..TrialObservation::wedged()
        }
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let trials: Vec<_> = (0..10).map(|i| with_latency(Some(i * 10))).collect();
        let s = summarize(&trials, 30);
        assert!(s.median_latency_ops <= s.p90_latency_ops);
        assert_eq!(s.crashed, 10);
        assert!((s.quick_crash_share - 0.4).abs() < 1e-9);
        // Empty case is stable.
        let empty = summarize(&[with_latency(None)], 10);
        assert_eq!(empty.crashed, 0);
        assert_eq!(empty.median_latency_ops, 0);
    }

    #[test]
    fn detection_channel_reads_the_two_detectors_of_a_crashed_trial_only() {
        let obs = |verdict, checksum_detected, memtest_hit| TrialObservation {
            verdict,
            checksum_detected,
            memtest_hit,
            ..with_latency(None)
        };
        use DetectionChannel as D;
        use TrialVerdict::{Crashed, NoCrash};
        assert_eq!(D::of(&obs(Crashed, false, false)), D::None);
        assert_eq!(D::of(&obs(Crashed, true, false)), D::Checksum);
        assert_eq!(D::of(&obs(Crashed, false, true)), D::MemTestOnly);
        assert_eq!(D::of(&obs(Crashed, true, true)), D::Both);
        assert_eq!(D::of(&obs(NoCrash, true, true)), D::None);
    }
}
