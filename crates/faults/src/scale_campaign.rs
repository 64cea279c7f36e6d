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
//! Every trial owns its whole simulated machine and every decision is a
//! pure function of the trial seed, so the campaign is a
//! [`Campaign`] run by the shared engine ([`crate::engine`]):
//! byte-identical results at any `RIO_THREADS`.

use crate::campaign::SystemKind;
use crate::driver::{examine, reboot, static_damage, STATIC_HALVES, TOTAL_LOSS_DAMAGE};
use crate::engine::{self, Campaign};
use crate::inject::{inject, FaultType};
use rio_det::{derive_seed, derive_seed3, DetRng};
use rio_kernel::{
    client_refs, DiskGeometry, Kernel, KernelConfig, KernelError, PreemptSched, SchedStep,
};
use rio_workloads::{MemTest, MemTestConfig};
use std::collections::BTreeSet;

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

    fn max_attempts(&self) -> u64 {
        self.trials_per_cell * self.max_attempts_factor
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
fn client_cfg(system: SystemKind, trial_seed: u64, c: usize) -> MemTestConfig {
    MemTestConfig {
        seed: derive_seed(trial_seed, 0xC11E_0000 + c as u64),
        root: format!("/m{c}"),
        max_set_bytes: 24 * 1024,
        max_file_bytes: 8 * 1024,
        fsync_every_write: system == SystemKind::DiskBased,
        num_dirs: 2,
        num_toggle_dirs: 2,
    }
}

/// Seed for the shared static comparison files.
fn static_seed(trial_seed: u64) -> u64 {
    derive_seed(trial_seed, 0x57A7)
}

/// Provenance of one examined crash under multi-client load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleCrash {
    /// Whether any file data was corrupted or lost.
    pub corrupted: bool,
    /// Total damaged files/directories (all clients + static set).
    pub damage: usize,
    /// Clients whose file sets were damaged.
    pub damaged_clients: Vec<u32>,
    /// The client whose quantum crashed the kernel (`None` if the crash
    /// fired in an idle-gap daemon).
    pub crashing_client: Option<u32>,
    /// Damage reached a client other than the crasher, or the shared
    /// static set — corruption crossed a process boundary.
    pub cross_client: bool,
    /// In-flight (parked mid-syscall) clients at injection time.
    pub inflight_at_injection: usize,
    /// Locks held across yields at injection time.
    pub locks_held_at_injection: usize,
    /// Preemptive lock acquisitions that contended, over the whole run.
    pub locks_contended: u64,
    /// Damaged static comparison pairs.
    pub static_bad: u64,
    /// Whether the warm-reboot CRC scan detected damage.
    pub checksum_detected: bool,
    /// Whether Rio's protection trapped the wild store.
    pub protection_trap: bool,
    /// Stable crash message.
    pub message: String,
}

impl ScaleCrash {
    /// A crash that lost everything (unbootable, died during verification,
    /// or a harness panic): every one of `nclients` clients and the static
    /// set damaged, across client boundaries by definition, and nothing
    /// else known about it but `message`.
    fn total_loss(nclients: usize, message: String) -> ScaleCrash {
        ScaleCrash {
            corrupted: true,
            damage: TOTAL_LOSS_DAMAGE,
            damaged_clients: (0..nclients as u32).collect(),
            crashing_client: None,
            cross_client: true,
            inflight_at_injection: 0,
            locks_held_at_injection: 0,
            locks_contended: 0,
            static_bad: STATIC_HALVES,
            checksum_detected: false,
            protection_trap: false,
            message,
        }
    }
}

/// How one scale trial ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleTrialOutcome {
    /// Survived the watchdog budget: discarded.
    NoCrash,
    /// A client failed benignly (or setup/warm-up died): discarded.
    Wedged,
    /// Crashed and examined.
    Crashed(ScaleCrash),
}

/// One cell of the scale grid after its trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleCellResult {
    /// Fault type (row).
    pub fault: FaultType,
    /// System (column group).
    pub system: SystemKind,
    /// Concurrent clients.
    pub clients: usize,
    /// Runs that crashed.
    pub crashes: u64,
    /// Crashed runs with corrupted/lost file data.
    pub corruptions: u64,
    /// Corrupted runs where damage crossed a client boundary.
    pub cross_client_corruptions: u64,
    /// Runs discarded.
    pub discarded: u64,
    /// Crashes where protection trapped the store.
    pub protection_traps: u64,
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
}

/// The full scale-campaign result.
#[derive(Debug, Clone)]
pub struct ScaleCampaignResult {
    /// One cell per (fault, system, clients), row-major in that order.
    pub cells: Vec<ScaleCellResult>,
    /// Target crashes per cell.
    pub trials_per_cell: u64,
    /// The swept client counts.
    pub client_counts: Vec<usize>,
}

impl ScaleCampaignResult {
    /// Total crashes for (system, clients) across fault types.
    pub fn total_crashes(&self, system: SystemKind, clients: usize) -> u64 {
        self.select(system, clients).map(|c| c.crashes).sum()
    }

    /// Total corruptions for (system, clients).
    pub fn total_corruptions(&self, system: SystemKind, clients: usize) -> u64 {
        self.select(system, clients).map(|c| c.corruptions).sum()
    }

    /// Total cross-client corruptions for (system, clients).
    pub fn total_cross_client(&self, system: SystemKind, clients: usize) -> u64 {
        self.select(system, clients)
            .map(|c| c.cross_client_corruptions)
            .sum()
    }

    fn select(
        &self,
        system: SystemKind,
        clients: usize,
    ) -> impl Iterator<Item = &ScaleCellResult> {
        self.cells
            .iter()
            .filter(move |c| c.system == system && c.clients == clients)
    }
}

/// The seed of one scale trial: a pure function of the campaign seed and
/// the trial's grid coordinates (fault, system, clients, attempt).
pub fn scale_trial_seed(
    campaign_seed: u64,
    fault: FaultType,
    system: SystemKind,
    clients: usize,
    attempt: u64,
) -> u64 {
    derive_seed3(
        derive_seed(campaign_seed, clients as u64),
        fault as u64,
        system as u64,
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

/// A multi-client machine frozen at the injection point: booted, static
/// files planted, N preemptive clients warmed up with syscalls genuinely
/// parked mid-flight. Cloning is cheap (copy-on-write memory and disk),
/// so one checkpoint serves every trial in a scale cell.
#[derive(Debug, Clone)]
pub struct ScaleCheckpoint {
    system: SystemKind,
    nclients: usize,
    workload_seed: u64,
    config: KernelConfig,
    cfgs: Vec<MemTestConfig>,
    state: Option<ScaleSteady>,
}

#[derive(Debug, Clone)]
struct ScaleSteady {
    k: Kernel,
    mts: Vec<MemTest>,
    sched: PreemptSched,
    inflight_at_injection: usize,
    locks_held_at_injection: usize,
}

impl ScaleCheckpoint {
    /// Boots, plants, and warms up the multi-client machine — the scratch
    /// path to the injection point. Pure function of its arguments.
    /// (`watchdog_quanta` matters because the warmup cap derives from it.)
    pub fn capture(
        system: SystemKind,
        nclients: usize,
        workload_seed: u64,
        warmup_ops: u64,
        watchdog_quanta: u64,
    ) -> ScaleCheckpoint {
        let config = scale_kernel_config(system);
        let cfgs: Vec<MemTestConfig> = (0..nclients)
            .map(|c| client_cfg(system, workload_seed, c))
            .collect();
        let mut cp = ScaleCheckpoint {
            system,
            nclients,
            workload_seed,
            config,
            cfgs,
            state: None,
        };
        let Ok(mut k) = Kernel::mkfs_and_mount(&cp.config) else {
            return cp;
        };
        let mut mts: Vec<MemTest> = cp.cfgs.iter().cloned().map(MemTest::new).collect();
        if MemTest::setup_static(&mut k, static_seed(workload_seed)).is_err() {
            return cp;
        }
        for mt in &mut mts {
            if mt.setup_skeleton(&mut k).is_err() {
                return cp;
            }
        }
        // Invariant checks stay off: the injected faults legitimately
        // desynchronize lock words from the owner table.
        let mut sched = PreemptSched::new(nclients, workload_seed, false);

        // Warm-up: run until every client has `warmup_ops` logical ops
        // done. A crash or a benign failure here is not a trial.
        let warmup_cap = watchdog_quanta.saturating_mul(4).max(200_000);
        let mut warm_quanta = 0u64;
        while mts.iter().any(|mt| mt.ops_done() < warmup_ops) {
            if mts.iter().any(MemTest::failed) || warm_quanta >= warmup_cap {
                return cp;
            }
            match sched.step_once(&mut k, &mut client_refs(&mut mts)) {
                Ok(SchedStep::Done) => return cp,
                Ok(_) => {}
                Err(_) => return cp,
            }
            warm_quanta += 1;
        }

        let inflight_at_injection = sched.in_flight();
        let locks_held_at_injection: usize =
            (0..nclients).map(|c| sched.held_locks(c).len()).sum();
        // Frozen here and forked per trial: share every page.
        k.machine.bus.mem_mut().seal();
        cp.state = Some(ScaleSteady {
            k,
            mts,
            sched,
            inflight_at_injection,
            locks_held_at_injection,
        });
        cp
    }

    /// Whether the captured boot/warmup failed (every fork is then a
    /// wedged trial, exactly as every scratch attempt would be).
    pub fn wedged(&self) -> bool {
        self.state.is_none()
    }
}

/// Runs one scale trial forked from a warmed checkpoint: inject from
/// `inject_seed` while syscalls are in flight, run to crash, reboot, and
/// attribute every damaged file to its owning client. Byte-identical
/// whether the checkpoint is shared by a cell or captured for this trial.
pub fn run_scale_trial_from(
    checkpoint: &ScaleCheckpoint,
    fault: FaultType,
    inject_seed: u64,
    watchdog_quanta: u64,
) -> ScaleTrialOutcome {
    let system = checkpoint.system;
    let nclients = checkpoint.nclients;
    let config = &checkpoint.config;
    let cfgs = &checkpoint.cfgs;
    let Some(steady) = &checkpoint.state else {
        return ScaleTrialOutcome::Wedged;
    };
    let ScaleSteady {
        mut k,
        mut mts,
        mut sched,
        inflight_at_injection,
        locks_held_at_injection,
    } = steady.clone();

    // Inject with syscall state genuinely in flight.
    let mut rng = DetRng::seed_from_u64(inject_seed);
    inject(&mut k, fault, &mut rng);

    // Run until crash or watchdog.
    let mut crashed = false;
    let mut crashing_client = None;
    for _ in 0..watchdog_quanta {
        if mts.iter().any(MemTest::failed) {
            return ScaleTrialOutcome::Wedged;
        }
        let before = sched.trace.quanta.len();
        match sched.step_once(&mut k, &mut client_refs(&mut mts)) {
            Ok(SchedStep::Done) => return ScaleTrialOutcome::Wedged,
            Ok(_) => {}
            Err(KernelError::Panic(_) | KernelError::Crashed) => {
                crashed = true;
                // The quantum that crashed was recorded before the error
                // propagated; if none was, the crash fired in an
                // idle-gap daemon.
                crashing_client = (sched.trace.quanta.len() > before)
                    .then(|| sched.trace.quanta[before]);
                break;
            }
            Err(_) => return ScaleTrialOutcome::Wedged,
        }
    }
    if !crashed {
        return ScaleTrialOutcome::NoCrash;
    }

    let info = k.crash_info().expect("crashed").clone();
    let message = info.reason.message();
    let protection_trap = info.reason.is_protection_trap();
    let locks_contended = k.stats().locks_contended;
    let ops: Vec<u64> = mts.iter().map(MemTest::ops_done).collect();

    let all_damaged = |checksum_detected: bool| {
        ScaleTrialOutcome::Crashed(ScaleCrash {
            crashing_client,
            inflight_at_injection,
            locks_held_at_injection,
            locks_contended,
            checksum_detected,
            protection_trap,
            ..ScaleCrash::total_loss(nclients, message.clone())
        })
    };

    let Some(up) = reboot(system, config, k) else {
        return all_damaged(false);
    };
    let (mut k2, checksum_detected) = (up.kernel, up.checksum_detected);

    // Per-client examination: each client's expected state at its own
    // completed-op count, skipping its in-flight target.
    let mut damage = 0usize;
    let mut damaged_clients = Vec::new();
    for (c, cfg) in cfgs.iter().enumerate() {
        let Some((_, v)) = examine(&mut k2, cfg, ops[c]) else {
            // Died while reading this client's files: total loss.
            return all_damaged(checksum_detected);
        };
        let d = v.damage_count();
        if d > 0 {
            damage += d;
            damaged_clients.push(c as u32);
        }
    }
    let static_bad = static_damage(&mut k2, static_seed(checkpoint.workload_seed));
    damage += static_bad as usize;
    let cross_client = static_bad > 0
        || damaged_clients
            .iter()
            .any(|&c| crashing_client != Some(c));
    ScaleTrialOutcome::Crashed(ScaleCrash {
        corrupted: damage > 0,
        damage,
        damaged_clients,
        crashing_client,
        cross_client,
        inflight_at_injection,
        locks_held_at_injection,
        locks_contended,
        static_bad,
        checksum_detected,
        protection_trap,
        message,
    })
}

/// The scaled Table 1 as a [`Campaign`]: one full Table 1 grid per client
/// count, every trial of a (system, clients) pair forking the same warmed
/// multi-client machine.
pub(crate) struct ScaleTable1<'a>(pub(crate) &'a ScaleCampaignConfig);

impl Campaign for ScaleTable1<'_> {
    type Coord = (FaultType, SystemKind, usize);
    type Key = (u64, usize);
    type Checkpoint = ScaleCheckpoint;
    type Outcome = ScaleTrialOutcome;
    type Cell = ScaleCellResult;

    /// Row-major in (clients, fault, system) order.
    fn grid(&self) -> Vec<Self::Coord> {
        self.0
            .client_counts
            .iter()
            .flat_map(|&n| {
                FaultType::ALL.iter().flat_map(move |&f| {
                    SystemKind::ALL.iter().map(move |&s| (f, s, n))
                })
            })
            .collect()
    }

    fn checkpoint_key(&self, (_, system, clients): Self::Coord) -> (u64, usize) {
        (system as u64, clients)
    }

    fn capture(&self, (_, system, clients): Self::Coord) -> ScaleCheckpoint {
        ScaleCheckpoint::capture(
            system,
            clients,
            scale_workload_seed(self.0.seed, system, clients),
            self.0.warmup_ops,
            self.0.watchdog_quanta,
        )
    }

    fn run(
        &self,
        checkpoint: &ScaleCheckpoint,
        (fault, system, clients): Self::Coord,
        attempt: u64,
    ) -> ScaleTrialOutcome {
        let inject_seed = scale_trial_seed(self.0.seed, fault, system, clients, attempt);
        run_scale_trial_from(checkpoint, fault, inject_seed, self.0.watchdog_quanta)
    }

    /// A harness panic counts as a crash that damaged every client.
    fn on_panic(&self, (_, _, clients): Self::Coord, text: String) -> ScaleTrialOutcome {
        ScaleTrialOutcome::Crashed(ScaleCrash::total_loss(clients, text))
    }

    fn empty(&self, (fault, system, clients): Self::Coord) -> ScaleCellResult {
        ScaleCellResult {
            fault,
            system,
            clients,
            crashes: 0,
            corruptions: 0,
            cross_client_corruptions: 0,
            discarded: 0,
            protection_traps: 0,
            inflight_sum: 0,
            locks_held_sum: 0,
            contended_sum: 0,
            damaged_clients_sum: 0,
            messages: BTreeSet::new(),
        }
    }

    fn absorb(&self, cell: &mut ScaleCellResult, outcome: ScaleTrialOutcome) {
        match outcome {
            ScaleTrialOutcome::NoCrash | ScaleTrialOutcome::Wedged => cell.discarded += 1,
            ScaleTrialOutcome::Crashed(c) => {
                cell.crashes += 1;
                if c.corrupted {
                    cell.corruptions += 1;
                    if c.cross_client {
                        cell.cross_client_corruptions += 1;
                    }
                }
                if c.protection_trap {
                    cell.protection_traps += 1;
                }
                cell.inflight_sum += c.inflight_at_injection as u64;
                cell.locks_held_sum += c.locks_held_at_injection as u64;
                cell.contended_sum += c.locks_contended;
                cell.damaged_clients_sum += c.damaged_clients.len() as u64;
                cell.messages.insert(c.message);
            }
        }
    }

    fn done(&self, cell: &ScaleCellResult, merged: u64) -> bool {
        cell.crashes >= self.0.trials_per_cell || merged >= self.0.max_attempts()
    }
}

/// Runs the scale campaign on `threads` workers through
/// [`crate::engine::run`]: byte-identical results at any `threads`.
pub fn run_scale_campaign(cfg: &ScaleCampaignConfig, threads: usize) -> ScaleCampaignResult {
    ScaleCampaignResult {
        cells: engine::run(&ScaleTable1(cfg), threads),
        trials_per_cell: cfg.trials_per_cell,
        client_counts: cfg.client_counts.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_trial_seeds_depend_on_every_coordinate() {
        let s = scale_trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 16, 3);
        assert_eq!(
            s,
            scale_trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 16, 3)
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
        for system in SystemKind::ALL {
            let cp = ScaleCheckpoint::capture(system, 4, scale_workload_seed(0, system, 4), 5, 4_000);
            let crash = (0..8).find_map(|attempt| {
                let inj = scale_trial_seed(0, FaultType::CopyOverrun, system, 4, attempt);
                match run_scale_trial_from(&cp, FaultType::CopyOverrun, inj, 4_000) {
                    ScaleTrialOutcome::Crashed(c) => Some(c),
                    _ => None,
                }
            });
            let c = crash.unwrap_or_else(|| panic!("no crash for {system}"));
            assert!(!c.message.is_empty());
        }
    }

    #[test]
    fn a_harness_panic_damages_every_client_across_client_boundaries() {
        let cfg = ScaleCampaignConfig::quick(0);
        let (campaign, coord) = (ScaleTable1(&cfg), (FaultType::Pointer, SystemKind::DiskBased, 4));
        let mut cell = campaign.empty(coord);
        campaign.absorb(&mut cell, campaign.on_panic(coord, "index out of bounds".to_owned()));
        let expected = ScaleCellResult {
            crashes: 1,
            corruptions: 1,
            cross_client_corruptions: 1,
            damaged_clients_sum: 4,
            messages: BTreeSet::from(["index out of bounds".to_owned()]),
            ..campaign.empty(coord)
        };
        assert_eq!(cell, expected);
    }

    #[test]
    fn forked_scale_trials_match_scratch_exactly() {
        let wl = scale_workload_seed(9, SystemKind::RioWithoutProtection, 3);
        let cp = ScaleCheckpoint::capture(SystemKind::RioWithoutProtection, 3, wl, 4, 1_500);
        assert!(!cp.wedged());
        for inj in [1u64, 2, 3] {
            let forked = run_scale_trial_from(&cp, FaultType::CopyOverrun, inj, 1_500);
            let scratch = {
                let fresh =
                    ScaleCheckpoint::capture(SystemKind::RioWithoutProtection, 3, wl, 4, 1_500);
                run_scale_trial_from(&fresh, FaultType::CopyOverrun, inj, 1_500)
            };
            assert_eq!(forked, scratch, "inj {inj}");
            // And a second fork of the same checkpoint is the same trial.
            assert_eq!(forked, run_scale_trial_from(&cp, FaultType::CopyOverrun, inj, 1_500));
        }
    }
}
