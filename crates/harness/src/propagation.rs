//! The fault-propagation report (§3.3 footnote 2, implemented).
//!
//! For each fault type, runs instrumented trials on Rio-with-protection and
//! reports crash latency percentiles, the quick-crash share (the analog of
//! the paper's "most crashes occurred within 15 seconds after the fault was
//! injected"), and the detection-channel split (the paper: "memTest
//! detected all ten corruptions, and checksums detected five of the ten").

use crate::ascii;
use rio_faults::campaign::trial_seed;
use rio_faults::engine::{self, Campaign};
use rio_faults::{
    drive, summarize, workload_seed, FaultType, PreparedTrial, PropagationSummary, SystemKind,
    TrialObservation,
};

/// memTest ops before injection.
const WARMUP_OPS: u64 = 30;
/// memTest ops allowed after injection.
const WATCHDOG_OPS: u64 = 400;

/// One fault type's propagation profile.
#[derive(Debug, Clone)]
pub struct PropagationRow {
    /// Fault type.
    pub fault: FaultType,
    /// Aggregate statistics.
    pub summary: PropagationSummary,
}

/// The study as a [`Campaign`]: one cell per fault type, a fixed number of
/// Table 1 trials ([`drive`]) each, all forked from the system's one steady
/// point and injected from the Table 1 stream ([`trial_seed`]).
struct Propagation {
    system: SystemKind,
    trials: u64,
    seed: u64,
}

impl Campaign for Propagation {
    type Coord = FaultType;
    type Key = ();
    type Checkpoint = PreparedTrial;
    type Outcome = TrialObservation;
    type Cell = Vec<TrialObservation>;

    fn grid(&self) -> Vec<FaultType> {
        FaultType::ALL.to_vec()
    }

    fn checkpoint_key(&self, _: FaultType) {}

    fn capture(&self, _: FaultType) -> PreparedTrial {
        PreparedTrial::prepare(
            self.system,
            workload_seed(self.seed, self.system),
            WARMUP_OPS,
        )
    }

    fn run(&self, steady: &PreparedTrial, fault: FaultType, attempt: u64) -> TrialObservation {
        let inject_seed = trial_seed(self.seed, fault, self.system, attempt);
        drive(steady.fork(), fault, inject_seed, WATCHDOG_OPS)
    }

    /// A harness panic is a trial with no latency to report and no
    /// detector to credit.
    fn on_panic(&self, _: FaultType, text: String) -> TrialObservation {
        TrialObservation::harness_panic(text)
    }

    fn empty(&self, _: FaultType) -> Vec<TrialObservation> {
        Vec::new()
    }

    fn absorb(&self, cell: &mut Vec<TrialObservation>, outcome: TrialObservation) {
        cell.push(outcome);
    }

    fn done(&self, _: &Vec<TrialObservation>, merged: u64) -> bool {
        merged >= self.trials
    }
}

/// Runs the propagation study: `trials` instrumented runs per fault type
/// over `threads` workers (the rows are identical at any thread count).
pub fn run_propagation(
    system: SystemKind,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Vec<PropagationRow> {
    let campaign = Propagation {
        system,
        trials,
        seed,
    };
    FaultType::ALL
        .iter()
        .zip(engine::run(&campaign, threads))
        .map(|(&fault, trials)| PropagationRow {
            fault,
            summary: summarize(&trials, 25),
        })
        .collect()
}

/// Renders the propagation table.
pub fn render_propagation(system: SystemKind, rows: &[PropagationRow]) -> String {
    let mut table = vec![vec![
        "Fault Type".to_owned(),
        "crashed/trials".to_owned(),
        "median latency (ops)".to_owned(),
        "p90 latency (ops)".to_owned(),
        "quick-crash share".to_owned(),
        "checksum hits".to_owned(),
        "memTest-only hits".to_owned(),
    ]];
    for row in rows {
        let s = &row.summary;
        table.push(vec![
            row.fault.label().to_owned(),
            format!("{}/{}", s.crashed, s.trials),
            s.median_latency_ops.to_string(),
            s.p90_latency_ops.to_string(),
            format!("{:.0}%", s.quick_crash_share * 100.0),
            s.checksum_detections.to_string(),
            s.memtest_only_detections.to_string(),
        ]);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "Fault propagation study on {} (the paper's footnote-2 future work)\n\
         quick-crash threshold: 25 ops after injection\n\n",
        system.label()
    ));
    out.push_str(&ascii::render(&table));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_report_covers_all_faults() {
        let rows = run_propagation(SystemKind::RioWithProtection, 1, 7, 2);
        assert_eq!(rows.len(), 13);
        let text = render_propagation(SystemKind::RioWithProtection, &rows);
        for f in FaultType::ALL {
            assert!(text.contains(f.label()));
        }
        assert!(text.contains("quick-crash"));
    }

    #[test]
    fn a_harness_panic_is_a_trial_but_neither_a_crash_nor_a_detection() {
        let campaign = Propagation {
            system: SystemKind::RioWithProtection,
            trials: 1,
            seed: 0,
        };
        let mut cell = campaign.empty(FaultType::Pointer);
        let panicked = campaign.on_panic(FaultType::Pointer, "index out of bounds".to_owned());
        campaign.absorb(&mut cell, panicked);
        let s = summarize(&cell, 25);
        assert_eq!((s.trials, s.crashed), (1, 0));
        assert_eq!((s.checksum_detections, s.memtest_only_detections), (0, 0));
    }
}
