//! The multi-client scale campaign: Table 1 crashed under load.
//!
//! The paper's Table 1 was measured on a kernel where real processes had
//! half-finished syscall state at every crash; the single-client campaign
//! ([`crate::campaign`]) injects between whole memTest ops, when the
//! kernel is quiescent. This campaign replays the Table 1 grid with N ∈
//! {1, 16, 64} memTest clients driven by the *preemptive* scheduler
//! ([`rio_kernel::PreemptSched`]): faults are injected while clients sit
//! parked mid-syscall — staging buffers live in the heap, registry
//! entries are CHANGING, locks are held across yields — and the crash
//! examination attributes every damaged file to the client that owned it,
//! so corruption that crosses client boundaries is visible as such.
//!
//! The trial is the protocol's ([`crate::driver`]): a
//! [`PreparedTrial::prepare_scheduled`] steady point, forked and
//! [`drive_attributed`], folded into Table 1's [`CellResult`]. What is this
//! campaign's own is the grid, the machine and client sizing
//! ([`scale_kernel_config`], `client_cfg`), its workload seed and the
//! `/static` seed derived from it. Every trial owns its whole simulated
//! machine and every decision is a pure function of the trial seed, so the
//! engine ([`crate::engine`]) gives byte-identical results at any
//! `RIO_THREADS`.

use crate::campaign::{trial_seed, CampaignResult, CellResult, SystemKind};
use crate::driver::{drive_attributed, PreparedTrial, Provenance, TrialObservation};
use crate::engine::{self, Campaign};
use crate::inject::FaultType;
use rio_det::{derive_seed, derive_seed3};
use rio_kernel::{DiskGeometry, KernelConfig};
use rio_workloads::MemTestConfig;

/// Scale-campaign parameters.
#[derive(Debug, Clone)]
pub struct ScaleCampaignConfig {
    /// Crashed runs to collect per (fault, system, clients) cell.
    pub trials_per_cell: u64,
    /// Base seed.
    pub seed: u64,
    /// Logical memTest ops *per client* before injection.
    pub warmup_ops: u64,
    /// Scheduler quanta allowed after injection before the run is
    /// discarded (the watchdog; quanta, not ops, because under
    /// preemption an op spans many quanta).
    pub watchdog_quanta: u64,
    /// Cap on attempts per crash collected.
    pub max_attempts_factor: u64,
    /// Client counts to sweep.
    pub client_counts: Vec<usize>,
}

impl ScaleCampaignConfig {
    /// A fast configuration for tests and CI.
    pub fn quick(seed: u64) -> Self {
        ScaleCampaignConfig {
            trials_per_cell: 1,
            seed,
            warmup_ops: 6,
            watchdog_quanta: 3_000,
            max_attempts_factor: 4,
            client_counts: vec![1, 4],
        }
    }

    /// The committed-artifact scale: the Table 1 grid × {1, 16, 64}
    /// clients.
    pub fn paper(seed: u64) -> Self {
        ScaleCampaignConfig {
            trials_per_cell: 10,
            seed,
            warmup_ops: 8,
            watchdog_quanta: 20_000,
            max_attempts_factor: 6,
            client_counts: vec![1, 16, 64],
        }
    }
}

/// Kernel sizing for multi-client runs: the `small` machine with a
/// larger disk/inode table (64 clients × live file sets) and a heap
/// that can hold 64 concurrent staging buffers.
pub fn scale_kernel_config(system: SystemKind) -> KernelConfig {
    let mut cfg = KernelConfig::small(system.policy());
    cfg.machine.disk_blocks = 4096;
    cfg.machine.mem.heap_bytes = 2 * 1024 * 1024;
    cfg.geometry = DiskGeometry::new(4096, 2048, 64);
    cfg
}

/// Per-client memTest configuration: disjoint roots, a file set small
/// enough that 64 clients fit the disk together.
fn client_cfg(system: SystemKind, workload_seed: u64, c: usize) -> MemTestConfig {
    MemTestConfig {
        seed: derive_seed(workload_seed, 0xC11E_0000 + c as u64),
        root: format!("/m{c}"),
        max_set_bytes: 24 * 1024,
        max_file_bytes: 8 * 1024,
        fsync_every_write: system == SystemKind::DiskBased,
        num_dirs: 2,
        num_toggle_dirs: 2,
    }
}

/// The seed of one scale trial: Table 1's [`trial_seed`] under a campaign
/// seed derived per client count.
pub fn scale_trial_seed(
    campaign_seed: u64,
    fault: FaultType,
    system: SystemKind,
    clients: usize,
    attempt: u64,
) -> u64 {
    trial_seed(
        derive_seed(campaign_seed, clients as u64),
        fault,
        system,
        attempt,
    )
}

/// The per-cell workload seed of the scale campaign: all trials of one
/// `(campaign seed, system, clients)` cell share their client workloads,
/// static files, and scheduler rotor, so a warmed checkpoint can be
/// forked instead of re-run. Stream-tagged to stay disjoint from
/// [`scale_trial_seed`] and the single-client [`crate::workload_seed`].
pub fn scale_workload_seed(campaign_seed: u64, system: SystemKind, clients: usize) -> u64 {
    const SCALE_WORKLOAD_STREAM: u64 = 0x57EA_D75E_ED00_0002;
    derive_seed3(
        campaign_seed,
        SCALE_WORKLOAD_STREAM,
        system as u64,
        clients as u64,
    )
}

/// The steady point of a (system, clients) cell: booted, static files
/// planted, `clients` preemptive clients warmed up with syscalls parked
/// mid-flight. The warm-up may take up to four watchdogs' worth of
/// scheduler decisions (at least 200,000).
pub fn scale_checkpoint(
    cfg: &ScaleCampaignConfig,
    system: SystemKind,
    clients: usize,
) -> PreparedTrial {
    let seed = scale_workload_seed(cfg.seed, system, clients);
    PreparedTrial::prepare_scheduled(
        system,
        scale_kernel_config(system),
        (0..clients).map(|c| client_cfg(system, seed, c)).collect(),
        derive_seed(seed, 0x57A7),
        seed,
        cfg.warmup_ops,
        cfg.watchdog_quanta.saturating_mul(4).max(200_000),
    )
}

/// The scaled Table 1 as a [`Campaign`]: one full Table 1 grid per client
/// count, every trial of a (system, clients) pair forking the same warmed
/// multi-client machine.
pub(crate) struct ScaleTable1<'a>(pub(crate) &'a ScaleCampaignConfig);

impl Campaign for ScaleTable1<'_> {
    type Coord = (FaultType, SystemKind, usize);
    type Key = (u64, usize);
    type Checkpoint = PreparedTrial;
    type Outcome = (TrialObservation, Provenance);
    type Cell = CellResult;

    /// Row-major in (clients, fault, system) order.
    fn grid(&self) -> Vec<Self::Coord> {
        self.0
            .client_counts
            .iter()
            .flat_map(|&n| {
                FaultType::ALL
                    .iter()
                    .flat_map(move |&f| SystemKind::ALL.iter().map(move |&s| (f, s, n)))
            })
            .collect()
    }

    fn checkpoint_key(&self, (_, system, clients): Self::Coord) -> (u64, usize) {
        (system as u64, clients)
    }

    fn capture(&self, (_, system, clients): Self::Coord) -> PreparedTrial {
        scale_checkpoint(self.0, system, clients)
    }

    fn run(
        &self,
        checkpoint: &PreparedTrial,
        (fault, system, clients): Self::Coord,
        attempt: u64,
    ) -> Self::Outcome {
        let inject_seed = scale_trial_seed(self.0.seed, fault, system, clients, attempt);
        drive_attributed(
            checkpoint.fork(),
            fault,
            inject_seed,
            self.0.watchdog_quanta,
        )
    }

    /// A harness panic counts as a crash that damaged every client.
    fn on_panic(&self, (_, _, clients): Self::Coord, text: String) -> Self::Outcome {
        (
            TrialObservation::harness_panic(text),
            Provenance::total_loss(clients),
        )
    }

    fn empty(&self, (fault, system, clients): Self::Coord) -> CellResult {
        CellResult::empty(fault, system, clients)
    }

    fn absorb(&self, cell: &mut CellResult, outcome: Self::Outcome) {
        cell.absorb(outcome);
    }

    fn done(&self, cell: &CellResult, merged: u64) -> bool {
        cell.done(merged, self.0.trials_per_cell, self.0.max_attempts_factor)
    }
}

/// Runs the scale campaign on `threads` workers through
/// [`crate::engine::run`]: byte-identical results at any `threads`.
pub fn run_scale_campaign(cfg: &ScaleCampaignConfig, threads: usize) -> CampaignResult {
    CampaignResult {
        cells: engine::run(&ScaleTable1(cfg), threads),
        trials_per_cell: cfg.trials_per_cell,
        max_attempts_factor: cfg.max_attempts_factor,
        client_counts: cfg.client_counts.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TrialVerdict;
    use std::collections::BTreeSet;

    #[test]
    fn scale_trial_seeds_depend_on_every_coordinate() {
        let s = scale_trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 16, 3);
        assert_eq!(
            s,
            trial_seed(
                derive_seed(1996, 16),
                FaultType::Pointer,
                SystemKind::DiskBased,
                3
            ),
            "Table 1's trial seed under a per-client-count campaign seed"
        );
        assert_ne!(
            s,
            scale_trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 64, 3)
        );
        assert_ne!(
            s,
            scale_trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 16, 4)
        );
    }

    #[test]
    fn copy_overrun_scale_trial_crashes_and_examines() {
        // The heaviest fault type must produce an examined multi-client
        // crash within a few attempts on each system.
        let cfg = ScaleCampaignConfig {
            warmup_ops: 5,
            watchdog_quanta: 4_000,
            ..ScaleCampaignConfig::quick(0)
        };
        for system in SystemKind::ALL {
            let cp = scale_checkpoint(&cfg, system, 4);
            let crash = (0..8).find_map(|attempt| {
                let inj = scale_trial_seed(0, FaultType::CopyOverrun, system, 4, attempt);
                let (obs, _) = drive_attributed(cp.fork(), FaultType::CopyOverrun, inj, 4_000);
                (obs.verdict == TrialVerdict::Crashed).then_some(obs)
            });
            let obs = crash.unwrap_or_else(|| panic!("no crash for {system}"));
            assert!(!obs.message.expect("a crash message").is_empty());
        }
    }

    #[test]
    fn a_harness_panic_damages_every_client_across_client_boundaries() {
        let cfg = ScaleCampaignConfig::quick(0);
        let (campaign, coord) = (
            ScaleTable1(&cfg),
            (FaultType::Pointer, SystemKind::DiskBased, 4),
        );
        let mut cell = campaign.empty(coord);
        campaign.absorb(
            &mut cell,
            campaign.on_panic(coord, "index out of bounds".to_owned()),
        );
        let expected = CellResult {
            crashes: 1,
            corruptions: 1,
            cross_client_corruptions: 1,
            damaged_clients_sum: 4,
            messages: BTreeSet::from(["index out of bounds".to_owned()]),
            ..campaign.empty(coord)
        };
        assert_eq!(cell, expected);
    }
}
