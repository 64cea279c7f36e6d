//! The shared trial driver: one boot→warmup→inject→watchdog→reboot
//! skeleton for every single-client crash campaign.
//!
//! The Table 1 campaign ([`crate::campaign`]), the propagation tracer
//! ([`crate::trace`]) and the repo benchmark all run this one protocol.
//! The skeleton splits at the **steady point** — the instant after the
//! warmup workload, just before injection:
//!
//! * [`PreparedTrial::prepare`] runs the phases *before* the steady point
//!   (mkfs, mount, memTest setup, warmup). Everything here is a pure
//!   function of `(system, workload seed, warmup ops)` — no per-trial
//!   randomness — which is what makes the result shareable between trials.
//! * [`drive`] runs the phases *after* the steady point (inject, watchdog,
//!   crash examination) from a consumed [`PreparedTrial`], drawing every
//!   random decision from the per-trial **injection stream**.
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
use rio_workloads::{MemTest, MemTestConfig};

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

impl TrialObservation {
    fn wedged() -> TrialObservation {
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
}

/// Runs the post-steady-point tail of one trial: inject faults from the
/// injection stream, step the workload until crash or watchdog, then
/// reboot and examine exactly as §3.2 prescribes (cold boot + fsck for
/// the disk-based system, warm reboot for Rio; replay memTest to the
/// crash point and compare).
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
    let mut obs = TrialObservation::wedged();
    let PreparedTrial {
        system,
        config,
        mt_cfg,
        state,
    } = prepared;
    let Some((mut k, mut mt)) = state else {
        return obs;
    };

    let mut rng = DetRng::seed_from_u64(inject_seed);
    inject(&mut k, fault, &mut rng);
    obs.injected_at_ops = mt.ops_done();
    obs.injected_at_time = k.machine.clock.now();

    // Run until crash or watchdog.
    let mut crashed = false;
    for _ in 0..watchdog_ops {
        match mt.step(&mut k) {
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

    // Reboot and examine.
    let (image, disk) = k.into_crash_artifacts();
    let mut k2 = match system {
        SystemKind::DiskBased => match Kernel::cold_boot(&config, disk) {
            Ok((k2, report)) => {
                obs.torn_data_blocks = report.fsck.torn_data_blocks;
                k2
            }
            Err(_) => {
                // Unmountable: total loss.
                obs.damage = usize::MAX;
                obs.memtest_hit = true;
                return obs;
            }
        },
        _ => match Kernel::warm_boot(&config, &image, disk) {
            Ok((k2, report)) => {
                let warm = report.warm.expect("warm boot stats");
                obs.checksum_detected = warm.dropped_bad_crc > 0;
                obs.quarantined = warm.quarantined();
                obs.torn_data_blocks = report.fsck.torn_data_blocks;
                k2
            }
            Err(_) => {
                obs.damage = usize::MAX;
                obs.memtest_hit = true;
                return obs;
            }
        },
    };

    let (expected, next_target) = MemTest::replay(&mt_cfg, ops);
    match expected.verify(&mut k2, Some(next_target.as_str())) {
        Ok(v) => {
            obs.memtest_hit = v.is_corrupt();
            let static_bad = MemTest::check_static(&mut k2, mt_cfg.seed).unwrap_or(6);
            obs.damage = v.damage_count() + static_bad as usize;
        }
        Err(_) => {
            // The rebooted system crashed during verification: corrupt.
            obs.damage = usize::MAX;
            obs.memtest_hit = true;
        }
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
