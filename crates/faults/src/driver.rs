//! The §3.2 crash-trial protocol, stated once: boot → warm up → inject →
//! run to crash → reboot → replay memTest to the crash point and compare.
//!
//! Nothing else in the workspace (outside the frozen `benchmark/`) reboots
//! a crashed machine, decides what "total loss" means or counts damage —
//! for one memTest client or sixty-four. The protocol splits at the
//! **steady point** — the instant after the warmup workload, just before
//! injection:
//!
//! * a [`PreparedTrial`] constructor runs everything *before* it (mkfs,
//!   mount, the memTest file sets, warmup): a pure function of its
//!   arguments, which is what makes the result shareable between trials.
//!   [`PreparedTrial::prepare`] warms one memTest up op by op (Table 1);
//!   [`PreparedTrial::prepare_scheduled`] warms N clients up under the
//!   preemptive scheduler and stops at a scheduler decision, syscalls
//!   parked mid-flight (Table 1 under load). [`PreparedTrial::into_machine`]
//!   hands the warmed machine to a caller that wants it for something
//!   other than a trial.
//! * [`drive`] runs everything *after* it from a consumed
//!   [`PreparedTrial`], and is composed of the phases below.
//!
//! # The phases
//!
//! 1. **run** — [`run_to_crash`]: seed the injection stream, [`inject`],
//!    and run the workload until crash, wedge or watchdog. One watchdog
//!    unit is one memTest op when the trial has no scheduler, one
//!    scheduler decision when it has one — the checkpoint's state picks,
//!    not an option. Records the injection-time and crash-time facts of a
//!    [`TrialObservation`] and a [`Provenance`].
//! 2. **reboot** — [`reboot`]: cold boot + fsck for the disk-based system,
//!    warm reboot for Rio — the one `match` on [`SystemKind`] that picks.
//! 3. **examine** — [`examine`]: [`MemTest::replay`] one client to its
//!    completed-op count and `ModelFs::verify`, skipping the in-flight
//!    target; [`static_damage`] checks the `/static` pairs. An unbootable
//!    volume or a death during verification is a total loss
//!    ([`TOTAL_LOSS_DAMAGE`], [`STATIC_HALVES`]).
//!
//! [`examine_crash`] is phases 2 and 3: one reboot, every client examined
//! at its own op count, the damage folded into the observation and
//! attributed client by client in the provenance. The consumers:
//!
//! * [`drive`] / [`drive_attributed`] — Table 1 ([`crate::campaign`]),
//!   Table 1 under load ([`crate::scale_campaign`]) and the repo
//!   benchmark: `run_to_crash`, then `examine_crash`;
//! * `rio_harness::explain` — the same two calls inside a trace session,
//!   snapshotting each kernel's counters in between;
//! * [`crate::recovery`] and `exhibit inspect` — `prepare` +
//!   `into_machine` for a warmed machine to crash by hand.
//!
//! Because the simulated machine is copy-on-write ([`rio_disk::SimDisk`]
//! blocks and the pages of a sealed [`rio_mem::PhysMem`] — both
//! constructors seal it — are shared `Arc`s until written),
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
use rio_kernel::{client_refs, Kernel, KernelConfig, KernelError, PreemptSched, SchedStep};
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
    /// Seed of the `/static` comparison pairs.
    static_seed: u64,
    /// The live machine at the steady point; `None` when the boot or
    /// warmup itself failed (every fork is then a wedged trial, exactly as
    /// one booted for it alone would be).
    state: Option<Steady>,
}

/// The machine of a [`PreparedTrial`]: kernel, memTest clients, and — for
/// a checkpoint captured mid-schedule — the scheduler, whose parked
/// continuations are the clients' syscalls in flight.
#[derive(Debug, Clone)]
struct Steady {
    kernel: Kernel,
    clients: Vec<MemTest>,
    sched: Option<PreemptSched>,
}

/// How one watchdog unit of [`run_to_crash`] ended.
enum Unit {
    Ran,
    /// The kernel crashed during this client's step (`None`: in an
    /// idle-gap daemon).
    Crashed(Option<u32>),
    /// A client failed benignly, or every client retired.
    Wedged,
}

impl Steady {
    /// memTest ops completed, summed over the clients.
    fn ops_done(&self) -> u64 {
        self.clients.iter().map(MemTest::ops_done).sum()
    }

    /// One watchdog unit: the single memTest's next op, or the scheduler's
    /// next decision.
    fn step(&mut self) -> Unit {
        let Some(sched) = &mut self.sched else {
            return match self.clients[0].step(&mut self.kernel) {
                Ok(()) => Unit::Ran,
                Err(KernelError::Panic(_) | KernelError::Crashed) => Unit::Crashed(Some(0)),
                Err(_) => Unit::Wedged,
            };
        };
        if self.clients.iter().any(MemTest::failed) {
            return Unit::Wedged;
        }
        let before = sched.trace.quanta.len();
        match sched.step_once(&mut self.kernel, &mut client_refs(&mut self.clients)) {
            Ok(SchedStep::Done) => Unit::Wedged,
            Ok(_) => Unit::Ran,
            // The quantum that crashed was recorded before the error
            // propagated; if none was, the crash fired in an idle-gap
            // daemon.
            Err(KernelError::Panic(_) | KernelError::Crashed) => {
                Unit::Crashed(sched.trace.quanta.get(before).copied())
            }
            Err(_) => Unit::Wedged,
        }
    }
}

impl PreparedTrial {
    /// Boots, formats, and warms up one memTest op by op, and seals the
    /// machine at the steady point. Pure function of its arguments.
    pub fn prepare(system: SystemKind, workload_seed: u64, warmup_ops: u64) -> PreparedTrial {
        let config = KernelConfig::small(system.policy());
        let mt_cfg = system.memtest_config(workload_seed);
        let static_seed = mt_cfg.seed;
        let state = (|| {
            let mut kernel = Kernel::mkfs_and_mount(&config).ok()?;
            let mut mt = MemTest::new(mt_cfg);
            mt.setup(&mut kernel).ok()?;
            mt.run(&mut kernel, warmup_ops).ok()?;
            Some(Steady {
                kernel,
                clients: vec![mt],
                sched: None,
            })
        })();
        PreparedTrial::seal(system, config, static_seed, state)
    }

    /// Boots, plants the `/static` pairs from `static_seed`, gives each of
    /// `clients` its skeleton, and runs them under the preemptive scheduler
    /// (rotor from `sched_seed`) until every client has `warmup_ops` ops
    /// done — stopping at that scheduler decision, other clients parked
    /// mid-syscall. A crash, a benign failure or `warmup_cap` decisions
    /// short of it leave every fork wedged. Pure function of its arguments.
    pub fn prepare_scheduled(
        system: SystemKind,
        config: KernelConfig,
        clients: Vec<MemTestConfig>,
        static_seed: u64,
        sched_seed: u64,
        warmup_ops: u64,
        warmup_cap: u64,
    ) -> PreparedTrial {
        let state = (|| {
            let mut kernel = Kernel::mkfs_and_mount(&config).ok()?;
            MemTest::setup_static(&mut kernel, static_seed).ok()?;
            let mut clients: Vec<MemTest> = clients.into_iter().map(MemTest::new).collect();
            for mt in &mut clients {
                mt.setup_skeleton(&mut kernel).ok()?;
            }
            // Invariant checks stay off: the injected faults legitimately
            // desynchronize lock words from the owner table.
            let mut sched = PreemptSched::new(clients.len(), sched_seed, false);
            let mut decisions = 0u64;
            while clients.iter().any(|mt| mt.ops_done() < warmup_ops) {
                if clients.iter().any(MemTest::failed) || decisions >= warmup_cap {
                    return None;
                }
                match sched.step_once(&mut kernel, &mut client_refs(&mut clients)) {
                    Ok(SchedStep::Done) | Err(_) => return None,
                    Ok(_) => decisions += 1,
                }
            }
            Some(Steady {
                kernel,
                clients,
                sched: Some(sched),
            })
        })();
        PreparedTrial::seal(system, config, static_seed, state)
    }

    /// Freezes a warmed machine to be forked per trial: shares every page.
    fn seal(
        system: SystemKind,
        config: KernelConfig,
        static_seed: u64,
        mut state: Option<Steady>,
    ) -> PreparedTrial {
        if let Some(steady) = &mut state {
            steady.kernel.machine.bus.mem_mut().seal();
        }
        PreparedTrial {
            system,
            config,
            static_seed,
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

    /// The trial's kernel — at the steady point, or wherever
    /// [`run_to_crash`] left it; `None` when the boot or warmup failed.
    pub fn kernel(&self) -> Option<&Kernel> {
        self.state.as_ref().map(|s| &s.kernel)
    }

    /// The warmed machine and its memTest clients, for a caller that wants
    /// the steady point itself rather than a trial from it; `None` when
    /// the boot or warmup failed.
    pub fn into_machine(self) -> Option<(Kernel, Vec<MemTest>)> {
        self.state.map(|s| (s.kernel, s.clients))
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

/// Everything a single trial observed — Table 1's verdict and damage, and
/// the crash latency and detectors its propagation tables read. Crash-only
/// fields hold their defaults for `Wedged`/`NoCrash` verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialObservation {
    /// How the trial ended.
    pub verdict: TrialVerdict,
    /// Behavioural-hook activations before the crash (post-watchdog
    /// verdicts only; wedged trials return 0).
    pub hook_activations: u64,
    /// Protection-trap saves observed by the bus.
    pub protection_trap_count: u64,
    /// memTest ops completed at injection (summed over the clients).
    pub injected_at_ops: u64,
    /// Simulated time at injection.
    pub injected_at_time: SimTime,
    /// Stable crash message.
    pub message: Option<String>,
    /// The crash itself was a protection trap.
    pub protection_trap: bool,
    /// memTest ops completed before the crash (summed over the clients).
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
}

/// Who a crash involved, client by client: what a trial adds to its
/// [`TrialObservation`] when several clients share the machine. A trial
/// without a scheduler is client 0's, with nothing in flight at injection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// The client whose step crashed the kernel (`None`: the crash fired
    /// in an idle-gap daemon).
    pub crashing_client: Option<u32>,
    /// Clients whose files the examination found damaged, in order.
    pub damaged_clients: Vec<u32>,
    /// Clients parked mid-syscall at injection.
    pub inflight_at_injection: usize,
    /// Locks held across yields at injection.
    pub locks_held_at_injection: usize,
    /// Lock acquisitions that contended, over the whole run.
    pub locks_contended: u64,
    /// Damaged files of the `/static` comparison pairs.
    pub static_bad: u64,
}

impl Provenance {
    /// A crash that lost everything: every one of `clients` clients and
    /// the whole static set damaged, and nothing else known.
    pub fn total_loss(clients: usize) -> Provenance {
        let mut lost = Provenance::default();
        lost.lose_everything(clients);
        lost
    }

    fn lose_everything(&mut self, clients: usize) {
        self.damaged_clients = (0..clients as u32).collect();
        self.static_bad = STATIC_HALVES;
    }

    /// Damage reached a client other than the crasher, or the shared
    /// static set: corruption crossed a process boundary.
    pub fn cross_client(&self) -> bool {
        self.static_bad > 0
            || self
                .damaged_clients
                .iter()
                .any(|&c| self.crashing_client != Some(c))
    }
}

/// The examination could not be completed: everything is lost, and it is
/// the memTest comparison (nothing to compare) that says so.
fn total_loss(obs: &mut TrialObservation, prov: &mut Provenance, clients: usize) {
    obs.damage = TOTAL_LOSS_DAMAGE;
    obs.memtest_hit = true;
    prov.lose_everything(clients);
}

/// Phase 1: injects `fault` from the injection stream and runs the
/// workload until the kernel crashes, a client fails benignly (wedged) or
/// `watchdog` units have run — memTest ops, or scheduler decisions when
/// the trial has a scheduler. The machine is left as the run left it —
/// dying or surviving — for the caller to look at or [`examine_crash`].
///
/// The returned observation and provenance carry the verdict and the
/// injection-time and crash-time facts; their reboot and examination
/// fields hold their defaults until [`examine_crash`] fills them in.
pub fn run_to_crash(
    trial: &mut PreparedTrial,
    fault: FaultType,
    inject_seed: u64,
    watchdog: u64,
) -> (TrialObservation, Provenance) {
    let mut obs = TrialObservation::wedged();
    let mut prov = Provenance::default();
    let Some(m) = &mut trial.state else {
        return (obs, prov);
    };
    if let Some(sched) = &m.sched {
        prov.inflight_at_injection = sched.in_flight();
        prov.locks_held_at_injection = (0..m.clients.len())
            .map(|c| sched.held_locks(c).len())
            .sum();
    }
    let mut rng = DetRng::seed_from_u64(inject_seed);
    inject(&mut m.kernel, fault, &mut rng);
    obs.injected_at_ops = m.ops_done();
    obs.injected_at_time = m.kernel.machine.clock.now();

    let mut crashed = None;
    for _ in 0..watchdog {
        match m.step() {
            Unit::Ran => {}
            Unit::Crashed(by) => {
                crashed = Some(by);
                break;
            }
            Unit::Wedged => return (obs, prov),
        }
    }
    let k = &m.kernel;
    obs.hook_activations = k.machine.hooks.activations;
    obs.protection_trap_count = k.machine.bus.stats().protection_traps;
    let Some(crashing_client) = crashed else {
        obs.verdict = TrialVerdict::NoCrash;
        return (obs, prov);
    };
    obs.verdict = TrialVerdict::Crashed;

    let info = k.crash_info().expect("crashed");
    obs.message = Some(info.reason.message());
    obs.protection_trap = info.reason.is_protection_trap();
    let ops = m.ops_done();
    obs.ops_before_crash = ops;
    obs.crash_latency_ops = Some(ops - obs.injected_at_ops);
    obs.crash_latency_time = Some(info.at.saturating_sub(obs.injected_at_time));
    prov.crashing_client = crashing_client;
    prov.locks_contended = k.stats().locks_contended;
    (obs, prov)
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
pub fn examine(
    k: &mut Kernel,
    mt_cfg: &MemTestConfig,
    ops: u64,
) -> Option<(ModelFs, VerifyReport)> {
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
    /// Each client's replayed model and comparison, in client order;
    /// `None` when the recovered system died during verification.
    pub verified: Option<Vec<(ModelFs, VerifyReport)>>,
}

/// Phases 2 and 3 of a trial whose [`run_to_crash`] ended `Crashed`:
/// reboots the machine once, examines every client at its own completed-op
/// count and the `/static` pairs, and fills in the reboot and examination
/// fields of `obs` and `prov`. `None`: unbootable.
pub fn examine_crash(
    trial: PreparedTrial,
    obs: &mut TrialObservation,
    prov: &mut Provenance,
) -> Option<Examination> {
    let PreparedTrial {
        system,
        config,
        static_seed,
        state,
    } = trial;
    let Steady {
        kernel, clients, ..
    } = state.expect("a trial that crashed booted");
    let Some(up) = reboot(system, &config, kernel) else {
        total_loss(obs, prov, clients.len());
        return None;
    };
    obs.checksum_detected = up.checksum_detected;
    obs.quarantined = up.quarantined;
    obs.torn_data_blocks = up.torn_data_blocks;
    let mut kernel = up.kernel;
    let mut verified = Vec::with_capacity(clients.len());
    let mut damage = 0;
    for (c, mt) in clients.iter().enumerate() {
        let Some((expected, report)) = examine(&mut kernel, mt.config(), mt.ops_done()) else {
            total_loss(obs, prov, clients.len());
            return Some(Examination {
                kernel,
                verified: None,
            });
        };
        if report.damage_count() > 0 {
            damage += report.damage_count();
            prov.damaged_clients.push(c as u32);
        }
        obs.memtest_hit |= report.is_corrupt();
        verified.push((expected, report));
    }
    prov.static_bad = static_damage(&mut kernel, static_seed);
    obs.damage = damage + prov.static_bad as usize;
    Some(Examination {
        kernel,
        verified: Some(verified),
    })
}

/// Runs the post-steady-point tail of one trial: [`run_to_crash`], then —
/// if it crashed — [`examine_crash`]; the observation and its provenance.
///
/// Both are a pure function of `(prepared state, fault, inject_seed,
/// watchdog)` — identical whether `prepared` came straight from a
/// constructor or is a [`PreparedTrial::fork`] of one, the equivalence
/// `tests/checkpoint_equivalence.rs` and the engine's `Scratch` test check.
pub fn drive_attributed(
    mut prepared: PreparedTrial,
    fault: FaultType,
    inject_seed: u64,
    watchdog: u64,
) -> (TrialObservation, Provenance) {
    let (mut obs, mut prov) = run_to_crash(&mut prepared, fault, inject_seed, watchdog);
    if obs.verdict == TrialVerdict::Crashed {
        examine_crash(prepared, &mut obs, &mut prov);
    }
    (obs, prov)
}

/// [`drive_attributed`]'s observation: one trial, start to verdict.
pub fn drive(
    prepared: PreparedTrial,
    fault: FaultType,
    inject_seed: u64,
    watchdog_ops: u64,
) -> TrialObservation {
    drive_attributed(prepared, fault, inject_seed, watchdog_ops).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_kernel::PanicReason;

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
            trial
                .kernel()
                .expect("booted")
                .machine
                .bus
                .mem()
                .owned_pages()
        }
        let system = SystemKind::RioWithProtection;
        let cp = PreparedTrial::prepare(system, workload_seed(7, system), 25);
        assert_eq!(owned_pages(&cp), 0, "prepare seals the steady point");
        let fork = cp.fork();
        assert_eq!(owned_pages(&fork), 0, "a fresh fork owns no page");

        // The watchdog run of `drive`, on a machine we can still look at.
        let (mut k, mut clients) = fork.into_machine().expect("booted");
        for _ in 0..40 {
            clients[0]
                .step(&mut k)
                .expect("a healthy machine runs memTest");
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

    /// A constructed three-client crash: overwrite one file on the machine,
    /// crash it, and examine it with each possible crasher. The damage must
    /// land on the client that owns the file, and cross a client boundary
    /// exactly when that client is not the crasher; a damaged `/static`
    /// pair crosses one with no client damaged.
    #[test]
    fn damage_is_attributed_to_the_client_that_owns_the_file() {
        let system = SystemKind::RioWithoutProtection;
        let config = crate::scale_campaign::scale_kernel_config(system);
        let mut kernel = Kernel::mkfs_and_mount(&config).expect("boots");
        MemTest::setup_static(&mut kernel, 5).expect("plants /static");
        let clients: Vec<MemTest> = (0..3u64)
            .map(|c| {
                let cfg = MemTestConfig {
                    root: format!("/m{c}"),
                    ..MemTestConfig::small(c)
                };
                let mut mt = MemTest::new(cfg);
                mt.setup_skeleton(&mut kernel).expect("skeleton");
                mt.run(&mut kernel, 12)
                    .expect("a healthy machine runs memTest");
                mt
            })
            .collect();
        // Client 1's oldest file that its next op does not touch.
        let owner = &clients[1];
        let (_, next) = MemTest::replay(owner.config(), owner.ops_done());
        let victim = owner
            .model()
            .files
            .keys()
            .find(|&p| *p != next)
            .expect("a file")
            .clone();
        let steady = Steady {
            kernel,
            clients,
            sched: Some(PreemptSched::new(3, 0, false)),
        };
        let steady = PreparedTrial::seal(system, config, 5, Some(steady));

        let crash_after_overwriting = |path: &str, crasher: Option<u32>| {
            let mut trial = steady.fork();
            let k = &mut trial.state.as_mut().expect("booted").kernel;
            let fd = k.open(path).expect("the file exists");
            k.pwrite(fd, 0, b"wild store").expect("pwrite");
            k.close(fd).expect("close");
            k.crash_now(PanicReason::Watchdog);
            let mut obs = TrialObservation {
                verdict: TrialVerdict::Crashed,
                ..TrialObservation::wedged()
            };
            let mut prov = Provenance {
                crashing_client: crasher,
                ..Provenance::default()
            };
            examine_crash(trial, &mut obs, &mut prov).expect("reboots");
            assert!(
                obs.corrupted() && obs.damage != TOTAL_LOSS_DAMAGE,
                "{obs:?}"
            );
            prov
        };
        for crasher in [Some(0), Some(1), Some(2), None] {
            let prov = crash_after_overwriting(&victim, crasher);
            assert_eq!(
                (prov.damaged_clients.as_slice(), prov.static_bad),
                (&[1][..], 0)
            );
            assert_eq!(
                prov.cross_client(),
                crasher != Some(1),
                "crasher {crasher:?}"
            );
        }
        let prov = crash_after_overwriting("/static/a0", Some(1));
        assert_eq!(
            (prov.damaged_clients.as_slice(), prov.static_bad),
            (&[][..], 1)
        );
        assert!(prov.cross_client());
    }
}
