//! The §3.2 crash-trial protocol, stated once: boot → warm up → inject →
//! run to crash → reboot → replay memTest to the crash point and compare.
//!
//! Nothing else in the workspace (outside the frozen `benchmark/`) reboots
//! a crashed machine, decides what "total loss" means or counts damage.
//! The protocol splits at the **steady point** — the instant after the
//! warmup workload, just before injection:
//!
//! * [`PreparedTrial::prepare`] runs everything *before* it (mkfs, mount,
//!   memTest setup, warmup): a pure function of `(system, workload seed,
//!   warmup ops)`, which is what makes the result shareable between trials.
//!   [`PreparedTrial::into_machine`] hands the warmed machine to a caller
//!   that wants it for something other than a trial.
//! * [`drive`] runs everything *after* it from a consumed
//!   [`PreparedTrial`], and is composed of the phases below.
//!
//! # The phases
//!
//! 1. **run** — [`run_to_crash`]: seed the injection stream, [`inject`],
//!    step memTest until crash, wedge or watchdog; records the
//!    injection-time and crash-time facts of a [`TrialObservation`].
//! 2. **reboot** — [`reboot`]: cold boot + fsck for the disk-based system,
//!    warm reboot for Rio — the one `match` on [`SystemKind`] that picks.
//! 3. **examine** — [`examine`]: [`MemTest::replay`] to the completed-op
//!    count and `ModelFs::verify`, skipping the in-flight target;
//!    [`static_damage`] checks the `/static` pairs. An unbootable volume
//!    or a death during verification is a total loss
//!    ([`TOTAL_LOSS_DAMAGE`], [`STATIC_HALVES`]).
//!
//! [`examine_crash`] is phases 2 and 3 on one single-client machine, folded
//! into the observation. The consumers:
//!
//! * [`drive`] — Table 1 ([`crate::campaign`]), the propagation study
//!   (`rio_harness::propagation`) and the repo benchmark: `run_to_crash`,
//!   then `examine_crash`;
//! * `rio_harness::explain` — the same two calls inside a trace session,
//!   snapshotting each kernel's counters in between;
//! * [`crate::scale_campaign`] — its own scheduler loop to the crash, then
//!   `reboot` once and `examine` per client;
//! * [`crate::recovery`] and `exhibit inspect` — `prepare` +
//!   `into_machine` for a warmed machine to crash by hand.
//!
//! Because the simulated machine is copy-on-write ([`rio_disk::SimDisk`]
//! blocks and the pages of a sealed [`rio_mem::PhysMem`] — `prepare` seals
//! it — are shared `Arc`s until written),
//! [`PreparedTrial::fork`] copies no page (the sharing test below counts
//! them) and costs tens of microseconds, while a
//! [`PreparedTrial::prepare`] costs a full boot + warmup, ~1.2 ms —
//! `perf`'s `faults.fork_us` and `faults.prepare_ms` probes.
//!
//! # Seed streams
//!
//! Deriving the workload and the fault sites from one per-trial seed would
//! mean no two trials could ever share a warmup, so the two are
//! independent streams ([`rio_det::derive_seed3`]):
//!
//! * **workload stream** — [`workload_seed`] is per *cell* (campaign seed
//!   × system), so every trial in a cell replays the identical warmup and
//!   the steady point the engine ([`crate::engine`]) captures once serves
//!   them all;
//! * **injection stream** — [`crate::campaign::trial_seed`] stays per
//!   *trial* (campaign seed × fault × system × attempt), so dropping,
//!   reordering, or parallelizing trials never shifts another trial's
//!   fault sites.

use crate::campaign::SystemKind;
use crate::inject::{inject, FaultType};
use rio_det::{derive_seed3, DetRng};
use rio_disk::SimTime;
use rio_kernel::{Kernel, KernelConfig, KernelError};
use rio_workloads::{MemTest, MemTestConfig, ModelFs, VerifyReport};

/// Stream tag separating workload-seed derivation from every other use of
/// the campaign seed (injection seeds tag with raw grid coordinates, which
/// never collide with this).
const WORKLOAD_STREAM: u64 = 0x57EA_D75E_ED00_0001;

/// The per-cell workload seed: all trials of one `(campaign seed, system)`
/// cell share it, so their warmups are identical and a steady-state
/// checkpoint can be forked instead of re-run.
pub fn workload_seed(campaign_seed: u64, system: SystemKind) -> u64 {
    derive_seed3(campaign_seed, WORKLOAD_STREAM, system as u64, 0)
}

/// A trial frozen at its steady point: booted, formatted, warmed up, not
/// yet injected. Cloning is cheap (copy-on-write memory and disk), so one
/// prepared trial can be forked for every trial in a cell.
#[derive(Debug, Clone)]
pub struct PreparedTrial {
    /// System under test.
    pub system: SystemKind,
    /// Kernel configuration the machine was built with (the examination
    /// reboots with the same config).
    pub config: KernelConfig,
    /// The workload configuration (replayed at examination).
    pub mt_cfg: MemTestConfig,
    /// Live kernel + workload cursor at the steady point; `None` when the
    /// boot or warmup itself failed (every fork is then a wedged trial,
    /// exactly as one booted for it alone would be).
    state: Option<(Kernel, MemTest)>,
}

impl PreparedTrial {
    /// Boots, formats, and warms up a fresh machine, and seals it at the
    /// steady point. Pure function of its arguments.
    pub fn prepare(system: SystemKind, workload_seed: u64, warmup_ops: u64) -> PreparedTrial {
        let config = KernelConfig::small(system.policy());
        let mt_cfg = system.memtest_config(workload_seed);
        let state = (|| {
            let mut k = Kernel::mkfs_and_mount(&config).ok()?;
            let mut mt = MemTest::new(mt_cfg.clone());
            mt.setup(&mut k).ok()?;
            mt.run(&mut k, warmup_ops).ok()?;
            // Frozen here and forked per trial: share every page.
            k.machine.bus.mem_mut().seal();
            Some((k, mt))
        })();
        PreparedTrial {
            system,
            config,
            mt_cfg,
            state,
        }
    }

    /// Whether boot/setup/warmup failed (every trial from this state is
    /// wedged).
    pub fn wedged(&self) -> bool {
        self.state.is_none()
    }

    /// A copy-on-write fork of the steady point — what the engine pays per
    /// trial.
    pub fn fork(&self) -> PreparedTrial {
        self.clone()
    }

    /// The warmed machine and its memTest cursor, for a caller that wants
    /// the steady point itself rather than a trial from it; `None` when
    /// the boot or warmup failed.
    pub fn into_machine(self) -> Option<(Kernel, MemTest)> {
        self.state
    }
}

/// How a driven trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialVerdict {
    /// Setup/warmup failed or an op failed non-fatally: not a trial.
    Wedged,
    /// Survived the watchdog budget.
    NoCrash,
    /// Crashed and was examined.
    Crashed,
}

/// Everything a single trial observed — the union of what the Table 1
/// campaign and the propagation tracer each need. Crash-only fields hold
/// their defaults for `Wedged`/`NoCrash` verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialObservation {
    /// How the trial ended.
    pub verdict: TrialVerdict,
    /// Behavioural-hook activations before the crash (post-watchdog
    /// verdicts only; wedged trials return 0).
    pub hook_activations: u64,
    /// Protection-trap saves observed by the bus.
    pub protection_trap_count: u64,
    /// memTest ops completed at injection.
    pub injected_at_ops: u64,
    /// Simulated time at injection.
    pub injected_at_time: SimTime,
    /// Stable crash message.
    pub message: Option<String>,
    /// The crash itself was a protection trap.
    pub protection_trap: bool,
    /// memTest ops completed before the crash.
    pub ops_before_crash: u64,
    /// Ops between injection and crash.
    pub crash_latency_ops: Option<u64>,
    /// Simulated time between injection and crash.
    pub crash_latency_time: Option<SimTime>,
    /// The warm-reboot CRC scan detected damage.
    pub checksum_detected: bool,
    /// The memTest replay comparison detected damage (or the rebooted
    /// system died during verification).
    pub memtest_hit: bool,
    /// Damaged files/dirs + damaged static pairs (`usize::MAX` = total
    /// loss: unmountable, or crashed during verification).
    pub damage: usize,
    /// Torn data blocks fsck saw at reboot.
    pub torn_data_blocks: u64,
    /// Registry entries the warm-reboot scan quarantined.
    pub quarantined: u64,
}

/// `damage` of a trial that lost everything: the volume would not mount,
/// the rebooted system died during verification, or the harness itself
/// panicked.
pub const TOTAL_LOSS_DAMAGE: usize = usize::MAX;

/// The `/static` comparison set is three pairs — six files — and all of
/// them count as damaged when they cannot even be read back.
pub const STATIC_HALVES: u64 = 6;

impl TrialObservation {
    /// A trial that observed nothing: the verdict when boot, setup or
    /// warmup failed, and the defaults every other verdict starts from.
    pub fn wedged() -> TrialObservation {
        TrialObservation {
            verdict: TrialVerdict::Wedged,
            hook_activations: 0,
            protection_trap_count: 0,
            injected_at_ops: 0,
            injected_at_time: SimTime::ZERO,
            message: None,
            protection_trap: false,
            ops_before_crash: 0,
            crash_latency_ops: None,
            crash_latency_time: None,
            checksum_detected: false,
            memtest_hit: false,
            damage: 0,
            torn_data_blocks: 0,
            quarantined: 0,
        }
    }

    /// What every campaign records when the harness panicked instead of
    /// finishing a trial: a crash that lost everything, `text` as its
    /// message, and nothing measured — no latency, no detector fired.
    pub fn harness_panic(text: String) -> TrialObservation {
        TrialObservation {
            verdict: TrialVerdict::Crashed,
            message: Some(text),
            damage: TOTAL_LOSS_DAMAGE,
            ..TrialObservation::wedged()
        }
    }

    /// Whether the trial lost or corrupted file data — Table 1's
    /// "corruptions" column and `explain`'s verdict.
    pub fn corrupted(&self) -> bool {
        self.damage > 0
    }

    /// The examination could not be completed: everything is lost, and it
    /// is the memTest comparison (nothing to compare) that says so.
    fn total_loss(&mut self) {
        self.damage = TOTAL_LOSS_DAMAGE;
        self.memtest_hit = true;
    }
}

/// Phase 1: injects `fault` from the injection stream and steps memTest
/// until the kernel crashes, an op fails benignly (wedged) or
/// `watchdog_ops` have run. The machine is left as the run left it — dying
/// or surviving — for the caller to look at or [`reboot`].
///
/// The returned observation carries the verdict and the injection-time and
/// crash-time facts; its reboot and examination fields hold their defaults
/// until [`examine_crash`] fills them in.
pub fn run_to_crash(
    k: &mut Kernel,
    mt: &mut MemTest,
    fault: FaultType,
    inject_seed: u64,
    watchdog_ops: u64,
) -> TrialObservation {
    let mut obs = TrialObservation::wedged();
    let mut rng = DetRng::seed_from_u64(inject_seed);
    inject(k, fault, &mut rng);
    obs.injected_at_ops = mt.ops_done();
    obs.injected_at_time = k.machine.clock.now();

    let mut crashed = false;
    for _ in 0..watchdog_ops {
        match mt.step(k) {
            Ok(()) => {}
            Err(KernelError::Panic(_)) | Err(KernelError::Crashed) => {
                crashed = true;
                break;
            }
            Err(_) => return obs, // wedged
        }
    }
    obs.hook_activations = k.machine.hooks.activations;
    obs.protection_trap_count = k.machine.bus.stats().protection_traps;
    if !crashed {
        obs.verdict = TrialVerdict::NoCrash;
        return obs;
    }
    obs.verdict = TrialVerdict::Crashed;

    let info = k.crash_info().expect("crashed").clone();
    obs.message = Some(info.reason.message());
    obs.protection_trap = info.reason.is_protection_trap();
    let ops = mt.ops_done();
    obs.ops_before_crash = ops;
    obs.crash_latency_ops = Some(ops - obs.injected_at_ops);
    obs.crash_latency_time = Some(info.at.saturating_sub(obs.injected_at_time));
    obs
}

/// A crashed machine brought back up, and what its reboot reported.
#[derive(Debug)]
pub struct Rebooted {
    /// The recovered kernel.
    pub kernel: Kernel,
    /// The warm-reboot CRC scan dropped a page (always `false` on a cold
    /// boot).
    pub checksum_detected: bool,
    /// Registry entries the warm-reboot scan quarantined.
    pub quarantined: u64,
    /// Torn data blocks fsck saw.
    pub torn_data_blocks: u64,
}

/// Phase 2: reboots a crashed machine as §3.2 prescribes — cold boot +
/// fsck of the surviving disk for the disk-based system, warm reboot from
/// the preserved memory image for Rio. `None`: the volume is unmountable.
pub fn reboot(system: SystemKind, config: &KernelConfig, crashed: Kernel) -> Option<Rebooted> {
    let (image, disk) = crashed.into_crash_artifacts();
    let (kernel, report) = match system {
        SystemKind::DiskBased => Kernel::cold_boot(config, disk),
        _ => Kernel::warm_boot(config, &image, disk),
    }
    .ok()?;
    let warm = report.warm.unwrap_or_default();
    Some(Rebooted {
        kernel,
        checksum_detected: warm.dropped_bad_crc > 0,
        quarantined: warm.quarantined(),
        torn_data_blocks: report.fsck.torn_data_blocks,
    })
}

/// Phase 3: replays one memTest client to its `ops` completed operations
/// and compares the recovered file system with that model, skipping the
/// target of the op in flight at the crash. `None`: the recovered system
/// died during verification.
pub fn examine(k: &mut Kernel, mt_cfg: &MemTestConfig, ops: u64) -> Option<(ModelFs, VerifyReport)> {
    let (expected, next_target) = MemTest::replay(mt_cfg, ops);
    let report = expected.verify(k, Some(next_target.as_str())).ok()?;
    Some((expected, report))
}

/// Damaged files of the `/static` comparison pairs planted from `seed`;
/// all [`STATIC_HALVES`] when they cannot be checked. Run after
/// [`examine`].
pub fn static_damage(k: &mut Kernel, seed: u64) -> u64 {
    MemTest::check_static(k, seed).unwrap_or(STATIC_HALVES)
}

/// What [`examine_crash`] looked at, for a caller that wants more than the
/// observation (`explain` names the first corrupted byte).
#[derive(Debug)]
pub struct Examination {
    /// The recovered kernel after verification (crashed again if it died
    /// verifying).
    pub kernel: Kernel,
    /// The replayed model and its comparison; `None` when the recovered
    /// system died during verification.
    pub verified: Option<(ModelFs, VerifyReport)>,
}

/// Phases 2 and 3 of a single-client trial whose [`run_to_crash`] ended
/// `Crashed`: reboots `crashed`, examines it at `obs.ops_before_crash`,
/// and fills in the observation's reboot and examination fields. `None`:
/// unbootable.
pub fn examine_crash(
    system: SystemKind,
    config: &KernelConfig,
    mt_cfg: &MemTestConfig,
    crashed: Kernel,
    obs: &mut TrialObservation,
) -> Option<Examination> {
    let Some(up) = reboot(system, config, crashed) else {
        obs.total_loss();
        return None;
    };
    obs.checksum_detected = up.checksum_detected;
    obs.quarantined = up.quarantined;
    obs.torn_data_blocks = up.torn_data_blocks;
    let mut kernel = up.kernel;
    let verified = examine(&mut kernel, mt_cfg, obs.ops_before_crash);
    match &verified {
        Some((_, v)) => {
            obs.memtest_hit = v.is_corrupt();
            obs.damage = v.damage_count() + static_damage(&mut kernel, mt_cfg.seed) as usize;
        }
        None => obs.total_loss(),
    }
    Some(Examination { kernel, verified })
}

/// Runs the post-steady-point tail of one trial: [`run_to_crash`], then —
/// if it crashed — [`examine_crash`].
///
/// The observation is a pure function of `(prepared state, fault,
/// inject_seed, watchdog_ops)` — identical whether `prepared` came
/// straight from [`PreparedTrial::prepare`] or is a
/// [`PreparedTrial::fork`] of one, the equivalence
/// `tests/checkpoint_equivalence.rs` and the engine's `Scratch` test check.
pub fn drive(
    prepared: PreparedTrial,
    fault: FaultType,
    inject_seed: u64,
    watchdog_ops: u64,
) -> TrialObservation {
    let PreparedTrial {
        system,
        config,
        mt_cfg,
        state,
    } = prepared;
    let Some((mut k, mut mt)) = state else {
        return TrialObservation::wedged();
    };
    let mut obs = run_to_crash(&mut k, &mut mt, fault, inject_seed, watchdog_ops);
    if obs.verdict == TrialVerdict::Crashed {
        examine_crash(system, &config, &mt_cfg, k, &mut obs);
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_seed_depends_on_system_not_fault_or_attempt() {
        let a = workload_seed(1996, SystemKind::DiskBased);
        assert_eq!(a, workload_seed(1996, SystemKind::DiskBased));
        assert_ne!(a, workload_seed(1996, SystemKind::RioWithProtection));
        assert_ne!(a, workload_seed(1997, SystemKind::DiskBased));
        // And never collides with an injection seed of the same campaign.
        for fault in FaultType::ALL {
            for attempt in 0..8 {
                assert_ne!(
                    a,
                    crate::campaign::trial_seed(1996, fault, SystemKind::DiskBased, attempt)
                );
            }
        }
    }

    #[test]
    fn forked_state_drives_identically_to_the_original() {
        let wl = workload_seed(7, SystemKind::RioWithoutProtection);
        let cp = PreparedTrial::prepare(SystemKind::RioWithoutProtection, wl, 25);
        assert!(!cp.wedged());
        let a = drive(cp.fork(), FaultType::CopyOverrun, 3, 200);
        let b = drive(cp.fork(), FaultType::CopyOverrun, 3, 200);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.message, b.message);
        assert_eq!(a.damage, b.damage);
        assert_eq!(a.ops_before_crash, b.ops_before_crash);
    }

    /// "A fork is not a deep copy", as a count: a timing ratio against
    /// `prepare` would move whenever `prepare` got faster.
    #[test]
    fn a_fork_shares_every_page_of_the_sealed_checkpoint_until_it_writes() {
        fn owned_pages(trial: &PreparedTrial) -> usize {
            let (k, _) = trial.state.as_ref().expect("booted");
            k.machine.bus.mem().owned_pages()
        }
        let system = SystemKind::RioWithProtection;
        let cp = PreparedTrial::prepare(system, workload_seed(7, system), 25);
        assert_eq!(owned_pages(&cp), 0, "prepare seals the steady point");
        let fork = cp.fork();
        assert_eq!(owned_pages(&fork), 0, "a fresh fork owns no page");

        // The watchdog run of `drive`, on a machine we can still look at.
        let (mut k, mut mt) = fork.state.expect("booted");
        for _ in 0..40 {
            mt.step(&mut k).expect("a healthy machine runs memTest");
        }
        let mem = k.machine.bus.mem();
        let (dirtied, total) = (mem.owned_pages(), mem.len() as usize / rio_mem::PAGE_SIZE);
        assert!(
            0 < dirtied && dirtied < total / 4,
            "a fork pays for the pages it writes: {dirtied} of {total}"
        );

        drive(cp.fork(), FaultType::CopyOverrun, 3, 200);
        assert_eq!(owned_pages(&cp), 0, "forks never unseal the checkpoint");
    }
}
