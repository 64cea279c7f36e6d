//! The crash campaign: Table 1's experimental procedure.
//!
//! For each (fault type × system) cell: boot the system, run memTest to
//! build up state, inject 20 faults, keep running until the system crashes
//! (or discard the run if it survives the watchdog budget — the paper
//! discards about half), reboot the surviving artifacts (cold boot +
//! fsck for the disk-based system, warm reboot for Rio), replay memTest to
//! the crash point, and compare.
//!
//! The paper's full campaign is 13 × 3 × 50 = 1,950 independent crash
//! runs. Every trial's seed is a pure function of its grid coordinates
//! ([`trial_seed`]), and each trial owns its whole simulated machine, so
//! the campaign is embarrassingly parallel: [`run_campaign`] describes it
//! as a [`Campaign`] and the engine ([`crate::engine`]) distributes
//! *individual trials* over its worker pool, merging outcomes in attempt
//! order — byte-identical output at any thread count.
//!
//! A trial is [`drive_attributed`] from a [`PreparedTrial`] fork; Table 1
//! under load ([`crate::scale_campaign`]) runs the same protocol and folds
//! it into the same [`CellResult`] and [`CampaignResult`].

use crate::driver::{
    drive_attributed, workload_seed, PreparedTrial, Provenance, TrialObservation, TrialVerdict,
};
use crate::engine::{self, Campaign};
use crate::inject::FaultType;
use rio_core::RioMode;
use rio_det::derive_seed3;
use rio_kernel::Policy;
use rio_workloads::MemTestConfig;
use std::collections::BTreeSet;

/// The three systems of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Write-through disk file system (fsync after every write; cold boot).
    DiskBased,
    /// Rio without protection (warm reboot only).
    RioWithoutProtection,
    /// Rio with protection.
    RioWithProtection,
}

impl SystemKind {
    /// All three, in Table 1 column order.
    pub const ALL: [SystemKind; 3] = [
        SystemKind::DiskBased,
        SystemKind::RioWithoutProtection,
        SystemKind::RioWithProtection,
    ];

    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::DiskBased => "Disk-Based",
            SystemKind::RioWithoutProtection => "Rio without Protection",
            SystemKind::RioWithProtection => "Rio with Protection",
        }
    }

    /// Stable machine-readable name (CLI arguments, JSON keys).
    pub fn slug(&self) -> &'static str {
        match self {
            SystemKind::DiskBased => "disk",
            SystemKind::RioWithoutProtection => "rio_noprot",
            SystemKind::RioWithProtection => "rio_prot",
        }
    }

    /// Parses a [`SystemKind::slug`] back to the system kind.
    pub fn from_slug(s: &str) -> Option<SystemKind> {
        SystemKind::ALL.iter().copied().find(|k| k.slug() == s)
    }

    /// The kernel policy this system runs.
    pub fn policy(&self) -> Policy {
        match self {
            SystemKind::DiskBased => Policy::disk_write_through(),
            SystemKind::RioWithoutProtection => Policy::rio(RioMode::Unprotected),
            SystemKind::RioWithProtection => Policy::rio(RioMode::Protected),
        }
    }

    /// The memTest configuration this system uses (the disk-based system
    /// fsyncs every write, per Table 1's note).
    pub fn memtest_config(&self, seed: u64) -> MemTestConfig {
        match self {
            SystemKind::DiskBased => MemTestConfig::small_write_through(seed),
            _ => MemTestConfig::small(seed),
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of a Table 1 grid after its trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Fault type (row).
    pub fault: FaultType,
    /// System (column group).
    pub system: SystemKind,
    /// Concurrent memTest clients (1 for Table 1 itself).
    pub clients: usize,
    /// Runs that crashed (the paper's 50 per cell).
    pub crashes: u64,
    /// Crashed runs with corrupted/lost file data.
    pub corruptions: u64,
    /// Corrupted runs whose damage crossed a client boundary
    /// ([`Provenance::cross_client`]).
    pub cross_client_corruptions: u64,
    /// Runs discarded (no crash within budget, or wedged).
    pub discarded: u64,
    /// Crashes where protection trapped the store.
    pub protection_traps: u64,
    /// Torn data blocks fsck saw across the cell's reboots.
    pub torn_data_blocks: u64,
    /// Registry entries quarantined by the warm-reboot scan across the
    /// cell's reboots.
    pub quarantined: u64,
    /// Sum over crashed runs of in-flight syscalls at injection.
    pub inflight_sum: u64,
    /// Sum over crashed runs of locks held across yields at injection.
    pub locks_held_sum: u64,
    /// Sum over crashed runs of contended lock acquisitions.
    pub contended_sum: u64,
    /// Sum over crashed runs of damaged-client counts.
    pub damaged_clients_sum: u64,
    /// Distinct crash messages seen.
    pub messages: BTreeSet<String>,
    /// Ops from injection to crash of every crashed run that has one (a
    /// harness panic has none), in attempt order: how long a fault took
    /// to crash the system (the paper's §3.3 footnote 2).
    pub latencies: Vec<u64>,
    /// Crashed runs whose damage the warm-reboot checksum caught (alone
    /// or with the memTest replay).
    pub checksum_detections: u64,
    /// Crashed runs whose damage only the memTest replay caught.
    pub memtest_only_detections: u64,
}

impl CellResult {
    /// A cell with nothing absorbed.
    pub fn empty(fault: FaultType, system: SystemKind, clients: usize) -> CellResult {
        CellResult {
            fault,
            system,
            clients,
            crashes: 0,
            corruptions: 0,
            cross_client_corruptions: 0,
            discarded: 0,
            protection_traps: 0,
            torn_data_blocks: 0,
            quarantined: 0,
            inflight_sum: 0,
            locks_held_sum: 0,
            contended_sum: 0,
            damaged_clients_sum: 0,
            messages: BTreeSet::new(),
            latencies: Vec::new(),
            checksum_detections: 0,
            memtest_only_detections: 0,
        }
    }

    /// Trials run: every one is either a crash or a discard.
    pub fn attempts(&self) -> u64 {
        self.crashes + self.discarded
    }

    /// Folds one trial in: a crash is counted, anything else discarded.
    pub(crate) fn absorb(&mut self, (obs, prov): (TrialObservation, Provenance)) {
        if obs.verdict != TrialVerdict::Crashed {
            self.discarded += 1;
            return;
        }
        self.crashes += 1;
        self.corruptions += u64::from(obs.corrupted());
        self.cross_client_corruptions += u64::from(obs.corrupted() && prov.cross_client());
        self.protection_traps += u64::from(obs.protection_trap);
        self.torn_data_blocks += obs.torn_data_blocks;
        self.quarantined += obs.quarantined;
        self.inflight_sum += prov.inflight_at_injection as u64;
        self.locks_held_sum += prov.locks_held_at_injection as u64;
        self.contended_sum += prov.locks_contended;
        self.damaged_clients_sum += prov.damaged_clients.len() as u64;
        self.latencies.extend(obs.crash_latency_ops);
        self.checksum_detections += u64::from(obs.checksum_detected);
        self.memtest_only_detections += u64::from(obs.memtest_hit && !obs.checksum_detected);
        self.messages.insert(obs.message.unwrap_or_default());
    }

    /// The stopping rule: `trials_per_cell` crashes collected, or
    /// `max_attempts_factor` times as many trials run.
    pub(crate) fn done(&self, merged: u64, trials_per_cell: u64, max_attempts_factor: u64) -> bool {
        self.crashes >= trials_per_cell || merged >= trials_per_cell * max_attempts_factor
    }
}

/// A campaign's result: Table 1's grid at every client count swept.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One cell per (clients, fault, system), row-major in that order.
    pub cells: Vec<CellResult>,
    /// Target crashes per cell.
    pub trials_per_cell: u64,
    /// A cell also stops after `trials_per_cell` times this many attempts.
    pub max_attempts_factor: u64,
    /// The client counts swept (`[1]` for Table 1 itself).
    pub client_counts: Vec<usize>,
}

impl CampaignResult {
    /// `field` summed over a system's cells at `clients`, across fault
    /// types.
    pub fn total(&self, system: SystemKind, clients: usize, field: fn(&CellResult) -> u64) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.system == system && c.clients == clients)
            .map(field)
            .sum()
    }

    /// Distinct crash messages across the whole campaign.
    pub fn unique_messages(&self) -> BTreeSet<&str> {
        self.cells
            .iter()
            .flat_map(|c| c.messages.iter().map(String::as_str))
            .collect()
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Crashed runs to collect per cell (the paper's 50).
    pub trials_per_cell: u64,
    /// Base seed.
    pub seed: u64,
    /// memTest ops to run before injection (builds up the file set).
    pub warmup_ops: u64,
    /// memTest ops allowed after injection before the run is discarded
    /// (the paper's ten-minute watchdog).
    pub watchdog_ops: u64,
    /// Cap on attempts per crash collected (discarded runs cost time).
    pub max_attempts_factor: u64,
}

impl CampaignConfig {
    /// A fast configuration for tests and CI.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            trials_per_cell: 3,
            seed,
            warmup_ops: 40,
            watchdog_ops: 400,
            max_attempts_factor: 6,
        }
    }

    /// The paper's scale: 50 crashes per cell.
    pub fn paper(seed: u64) -> Self {
        CampaignConfig {
            trials_per_cell: 50,
            seed,
            warmup_ops: 60,
            watchdog_ops: 800,
            max_attempts_factor: 8,
        }
    }
}

/// The seed of one trial: a pure function of the campaign seed and the
/// trial's grid coordinates.
///
/// Because seeds are *derived* (stream-split) rather than drawn from a
/// sequentially reseeded generator, dropping, reordering, or parallelizing
/// trials never shifts any other trial's fault sites.
pub fn trial_seed(campaign_seed: u64, fault: FaultType, system: SystemKind, attempt: u64) -> u64 {
    derive_seed3(campaign_seed, fault as u64, system as u64, attempt)
}

/// Records the verdict's provenance in any open trace session: 0 = no
/// crash, 1 = wedged, 2 = crashed clean, 3 = crashed corrupted.
fn emit_verdict(obs: &TrialObservation) {
    if rio_obs::is_enabled() {
        let code = match obs.verdict {
            TrialVerdict::NoCrash => 0,
            TrialVerdict::Wedged => 1,
            TrialVerdict::Crashed => 2 + u64::from(obs.corrupted()),
        };
        rio_obs::emit(
            rio_obs::EventCategory::TrialVerdict,
            rio_obs::Payload::Count { value: code },
        );
    }
}

/// Table 1 as a [`Campaign`]: a (fault, system) grid whose cells collect
/// `trials_per_cell` crashes, all trials of one system forking the same
/// warmed-up machine.
pub(crate) struct Table1<'a>(pub(crate) &'a CampaignConfig);

impl Campaign for Table1<'_> {
    type Coord = (FaultType, SystemKind);
    type Key = u64;
    type Checkpoint = PreparedTrial;
    type Outcome = (TrialObservation, Provenance);
    type Cell = CellResult;

    /// Row-major (fault, system) order.
    fn grid(&self) -> Vec<Self::Coord> {
        FaultType::ALL
            .iter()
            .flat_map(|&f| SystemKind::ALL.iter().map(move |&s| (f, s)))
            .collect()
    }

    fn checkpoint_key(&self, (_, system): Self::Coord) -> u64 {
        system as u64
    }

    fn capture(&self, (_, system): Self::Coord) -> PreparedTrial {
        PreparedTrial::prepare(
            system,
            workload_seed(self.0.seed, system),
            self.0.warmup_ops,
        )
    }

    /// The trial owns its whole simulated machine (a fork of `steady`), so
    /// nothing is shared with other trials.
    fn run(
        &self,
        steady: &PreparedTrial,
        (fault, system): Self::Coord,
        attempt: u64,
    ) -> Self::Outcome {
        let inject_seed = trial_seed(self.0.seed, fault, system, attempt);
        let outcome = drive_attributed(steady.fork(), fault, inject_seed, self.0.watchdog_ops);
        emit_verdict(&outcome.0);
        outcome
    }

    /// A harness panic counts as a crash that lost everything, its text
    /// among the cell's crash messages.
    fn on_panic(&self, _: Self::Coord, text: String) -> Self::Outcome {
        let obs = TrialObservation::harness_panic(text);
        emit_verdict(&obs);
        (obs, Provenance::total_loss(1))
    }

    fn empty(&self, (fault, system): Self::Coord) -> CellResult {
        CellResult::empty(fault, system, 1)
    }

    fn absorb(&self, cell: &mut CellResult, outcome: Self::Outcome) {
        cell.absorb(outcome);
    }

    fn done(&self, cell: &CellResult, merged: u64) -> bool {
        cell.done(merged, self.0.trials_per_cell, self.0.max_attempts_factor)
    }
}

/// Runs the full campaign grid on `threads` workers through
/// [`crate::engine::run`]: byte-identical results at any `threads`.
pub fn run_campaign(cfg: &CampaignConfig, threads: usize) -> CampaignResult {
    CampaignResult {
        cells: engine::run(&Table1(cfg), threads),
        trials_per_cell: cfg.trials_per_cell,
        max_attempts_factor: cfg.max_attempts_factor,
        client_counts: vec![1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::drive;

    /// `attempts` trials of one cell of campaign 0, forked from one
    /// steady point.
    fn cell_trials(
        system: SystemKind,
        fault: FaultType,
        attempts: u64,
        warmup_ops: u64,
        watchdog_ops: u64,
    ) -> Vec<TrialObservation> {
        let steady = PreparedTrial::prepare(system, workload_seed(0, system), warmup_ops);
        (0..attempts)
            .map(|a| {
                drive(
                    steady.fork(),
                    fault,
                    trial_seed(0, fault, system, a),
                    watchdog_ops,
                )
            })
            .collect()
    }

    #[test]
    fn system_slugs_round_trip() {
        for s in SystemKind::ALL {
            assert_eq!(SystemKind::from_slug(s.slug()), Some(s));
        }
        assert_eq!(SystemKind::from_slug("floppy"), None);
    }

    #[test]
    fn copy_overrun_trial_crashes_and_examines() {
        // Copy overrun fires reliably; at least one of a few attempts must
        // produce a crashed, examined trial on each system, and every
        // crash records its latency and message.
        for system in SystemKind::ALL {
            let mut cell = CellResult::empty(FaultType::CopyOverrun, system, 1);
            for o in cell_trials(system, FaultType::CopyOverrun, 6, 30, 400) {
                let crashed = o.verdict == TrialVerdict::Crashed;
                assert!(!crashed || (o.crash_latency_ops.is_some() && o.message.is_some()));
                cell.absorb((o, Provenance::default()));
            }
            assert!(cell.crashes > 0, "no crash for {system}");
            assert_eq!(cell.latencies.len() as u64, cell.crashes);
            assert_eq!(cell.attempts(), 6);
        }
    }

    #[test]
    fn synchronization_trials_crash_without_corruption() {
        // The paper's synchronization row is blank: crashes, no corruption.
        let mut crashes = 0;
        let mut corruptions = 0;
        for outcome in cell_trials(
            SystemKind::RioWithProtection,
            FaultType::Synchronization,
            5,
            30,
            400,
        ) {
            if outcome.verdict == TrialVerdict::Crashed {
                crashes += 1;
                corruptions += u32::from(outcome.corrupted());
            }
        }
        assert!(crashes >= 2, "lock skips should crash ({crashes})");
        assert_eq!(corruptions, 0, "lock skips must not corrupt");
    }

    #[test]
    fn stack_flips_mostly_discard() {
        // 64 KB of stack, 32 live bytes: most flips hit nothing.
        let discards = cell_trials(
            SystemKind::RioWithProtection,
            FaultType::KernelStack,
            4,
            20,
            150,
        )
        .iter()
        .filter(|o| o.verdict != TrialVerdict::Crashed)
        .count();
        assert!(discards >= 2, "stack flips rarely hit ({discards})");
    }

    #[test]
    fn trials_are_deterministic() {
        let a = cell_trials(
            SystemKind::RioWithoutProtection,
            FaultType::KernelText,
            2,
            25,
            200,
        );
        let b = cell_trials(
            SystemKind::RioWithoutProtection,
            FaultType::KernelText,
            2,
            25,
            200,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn a_harness_panic_is_a_corrupted_crash_with_its_text_as_the_message() {
        let cfg = CampaignConfig::quick(0);
        let (campaign, coord) = (Table1(&cfg), (FaultType::Pointer, SystemKind::DiskBased));
        let mut cell = campaign.empty(coord);
        campaign.absorb(
            &mut cell,
            campaign.on_panic(coord, "index out of bounds".to_owned()),
        );
        let expected = CellResult {
            crashes: 1,
            corruptions: 1,
            cross_client_corruptions: 1,
            damaged_clients_sum: 1,
            messages: BTreeSet::from(["index out of bounds".to_owned()]),
            ..campaign.empty(coord)
        };
        assert_eq!(cell, expected);
        // No latency to report and no detector to credit: with a real
        // crash beside it, the latencies are the crashes less the panics.
        let crashed = TrialObservation {
            verdict: TrialVerdict::Crashed,
            crash_latency_ops: Some(7),
            ..TrialObservation::wedged()
        };
        campaign.absorb(&mut cell, (crashed, Provenance::default()));
        assert_eq!(cell.crashes, 2);
        assert_eq!(cell.latencies, [7]);
        assert_eq!(
            (cell.checksum_detections, cell.memtest_only_detections),
            (0, 0)
        );
    }

    #[test]
    fn each_crash_counts_under_the_detectors_that_caught_it() {
        let obs = |verdict, checksum_detected, memtest_hit| {
            let obs = TrialObservation {
                verdict,
                checksum_detected,
                memtest_hit,
                crash_latency_ops: Some(1),
                ..TrialObservation::wedged()
            };
            (obs, Provenance::default())
        };
        use TrialVerdict::{Crashed, NoCrash};
        let detections = |outcomes: Vec<_>| {
            let mut cell = CellResult::empty(FaultType::Pointer, SystemKind::DiskBased, 1);
            outcomes.into_iter().for_each(|o| cell.absorb(o));
            (cell.checksum_detections, cell.memtest_only_detections)
        };
        assert_eq!(detections(vec![obs(Crashed, false, false)]), (0, 0));
        assert_eq!(detections(vec![obs(Crashed, true, false)]), (1, 0));
        assert_eq!(detections(vec![obs(Crashed, false, true)]), (0, 1));
        assert_eq!(detections(vec![obs(Crashed, true, true)]), (1, 0));
        assert_eq!(detections(vec![obs(NoCrash, true, true)]), (0, 0));
        let all = [(false, false), (true, false), (false, true), (true, true)];
        assert_eq!(
            detections(all.map(|(c, m)| obs(Crashed, c, m)).into()),
            (2, 1)
        );
    }

    #[test]
    fn crashes_are_quick_after_injection() {
        // The integrity probe catches broken data paths within an op or
        // two — the simulator's version of "most crashes occurred within
        // 15 seconds after the fault was injected".
        let (system, fault) = (SystemKind::RioWithoutProtection, FaultType::DestinationReg);
        let latencies: Vec<u64> = cell_trials(system, fault, 8, 20, 300)
            .iter()
            .filter_map(|t| t.crash_latency_ops)
            .collect();
        let quick = latencies.iter().filter(|&&l| l <= 10).count();
        if latencies.len() >= 3 {
            assert!(
                2 * quick >= latencies.len(),
                "expected mostly-quick crashes: {latencies:?}"
            );
        }
    }

    #[test]
    fn trial_seeds_are_independent_of_other_trials() {
        // Dropping or reordering trials must not shift later trials'
        // seeds: each seed depends only on its own coordinates.
        let s = trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 17);
        assert_eq!(
            s,
            trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 17)
        );
        assert_ne!(
            s,
            trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 18)
        );
        assert_ne!(
            s,
            trial_seed(1996, FaultType::Pointer, SystemKind::RioWithProtection, 17)
        );
        assert_ne!(
            s,
            trial_seed(1996, FaultType::Allocation, SystemKind::DiskBased, 17)
        );
    }

    #[test]
    fn mini_campaign_produces_full_grid() {
        let cfg = CampaignConfig {
            trials_per_cell: 1,
            seed: 99,
            warmup_ops: 20,
            watchdog_ops: 150,
            max_attempts_factor: 4,
        };
        let result = run_campaign(&cfg, 1);
        assert_eq!(result.cells.len(), 13 * 3);
        // At least some crashes were collected somewhere.
        let total: u64 = SystemKind::ALL
            .iter()
            .map(|&s| result.total(s, 1, |c| c.crashes))
            .sum();
        assert!(total > 0);
        assert!(!result.unique_messages().is_empty());
    }
}
