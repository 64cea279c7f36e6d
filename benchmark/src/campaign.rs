//! `campaign`: crash trials through the checkpoint-fork engine — per
//! system one `PreparedTrial::prepare` (set-up), then every one of the 13
//! fault types × 3 systems at attempt 0 through `drive` with the paper
//! campaign's warm-up and watchdog.
//!
//! Why it exists: this is the cost that bounds every reliability
//! exhibit — fork → inject → watchdog run → crash → cold/warm reboot →
//! replay/verify. It calls `drive` directly, not the campaign worker
//! pool, so it measures the trial engine and not the host's scheduler.
//!
//! The traced repetition cannot see inside `drive`, so it runs a
//! phase-by-phase **mirror**: the same public calls in the same order on
//! a `(Kernel, MemTest)` pair prepared exactly as `PreparedTrial::prepare`
//! does (whose own state is private). The mirror must yield a
//! `TrialObservation` equal to `drive`'s for every coordinate: the
//! traced run checks it through the `outcome_digest`, which covers every
//! field of every observation, and a unit test compares the structs.
//!
//! # What the seed may and may not decide
//!
//! The seed decides which trials crash — 12 to 19 of the 39, measured at
//! HEAD — and a trial that crashes early costs a tenth of one that runs
//! the whole watchdog, so raw trials per second swings ±13 % with the
//! seed alone; now and then a fault also makes one surviving trial run
//! seven times slower without crashing it. A benchmark must give one
//! answer for any seed, so `host_ops_per_s` is quoted for the
//! **reference mix**: [`SURVIVOR_SHARE`] of the trials survive the
//! watchdog, the rest crash, and each class costs its median trial, taken
//! per system and averaged over the systems. Every phase of every class
//! is still in the number; the seed's draw of the mix is not. The raw
//! `faults.trials_per_host_s` is reported beside it.
//!
//! The simulated metrics come from a **control run** per system in
//! set-up: the checkpoint stepped through the whole watchdog with no
//! fault injected. It must survive (a checkpoint that dies on its own
//! would make every verdict meaningless), and its simulated duration —
//! memTest's modelled cost on the three systems — is the workload's
//! `sim_s`.

use crate::spans::SpanLog;
use crate::stats::median;
use crate::workload::{
    add_all, bump, kernel_counts, layer_from_counts, minus, Counts, RepOut, Summary, TraceCtx,
    Workload,
};
use rio_det::DetRng;
use rio_disk::SimTime;
use rio_faults::campaign::trial_seed;
use rio_faults::{
    drive, inject, workload_seed, CampaignConfig, FaultType, PreparedTrial, SystemKind,
    TrialObservation, TrialVerdict,
};
use rio_kernel::{Kernel, KernelConfig, KernelError};
use rio_workloads::{MemTest, MemTestConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const PHASES: [&str; 5] = ["fork", "inject", "run", "reboot", "verify"];
/// Share of trials that survive the watchdog in the reference mix (the
/// mean over seeds at HEAD is 0.61).
const SURVIVOR_SHARE: f64 = 0.6;

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

/// A steady point the mirror owns: what `PreparedTrial` holds privately.
#[derive(Clone)]
struct MirrorCheckpoint {
    system: SystemKind,
    config: KernelConfig,
    mt_cfg: MemTestConfig,
    state: Option<(Kernel, MemTest)>,
}

impl MirrorCheckpoint {
    /// `PreparedTrial::prepare`, call for call.
    fn prepare(system: SystemKind, workload_seed: u64, warmup_ops: u64) -> MirrorCheckpoint {
        let config = KernelConfig::small(system.policy());
        let mt_cfg = system.memtest_config(workload_seed);
        let state = (|| {
            let mut k = Kernel::mkfs_and_mount(&config).ok()?;
            let mut mt = MemTest::new(mt_cfg.clone());
            mt.setup(&mut k).ok()?;
            mt.run(&mut k, warmup_ops).ok()?;
            Some((k, mt))
        })();
        MirrorCheckpoint {
            system,
            config,
            mt_cfg,
            state,
        }
    }

    /// The control run: the whole watchdog with no fault injected.
    /// Returns its simulated duration in µs.
    fn control_run_us(&self, watchdog_ops: u64) -> Result<u64, String> {
        let (mut k, mut mt) = self.state.clone().ok_or("boot or warm-up failed")?;
        let started = k.machine.clock.now();
        mt.run(&mut k, watchdog_ops).map_err(|e| {
            format!(
                "died after {} ops with no fault injected: {e:?}",
                mt.ops_done()
            )
        })?;
        Ok(k.machine.clock.now().saturating_sub(started).as_micros())
    }

    /// `rio_faults::drive`, phase by phase, with a span around each phase
    /// and the kernels' counters summed into `counts` (the original consumes
    /// its kernels, so a count is only reachable from here).
    fn drive(
        &self,
        fault: FaultType,
        inject_seed: u64,
        watchdog_ops: u64,
        trial: u64,
        spans: &mut SpanLog,
        counts: &mut Counts,
    ) -> TrialObservation {
        let mut obs = wedged();
        let forked = spans.scope("faults.span.fork", trial, |_| self.clone());
        let MirrorCheckpoint {
            system,
            config,
            mt_cfg,
            state,
        } = forked;
        let Some((mut k, mut mt)) = state else {
            return obs;
        };
        let before = kernel_counts(&k);

        spans.scope("faults.span.inject", trial, |_| {
            let mut rng = DetRng::seed_from_u64(inject_seed);
            inject(&mut k, fault, &mut rng);
        });
        obs.injected_at_ops = mt.ops_done();
        obs.injected_at_time = k.machine.clock.now();

        let outcome = spans.scope("faults.span.run", trial, |_| {
            for _ in 0..watchdog_ops {
                match mt.step(&mut k) {
                    Ok(()) => {}
                    Err(KernelError::Panic(_)) | Err(KernelError::Crashed) => return Some(true),
                    Err(_) => return None,
                }
            }
            Some(false)
        });
        add_all(counts, &minus(&kernel_counts(&k), &before));
        let Some(crashed) = outcome else {
            return obs; // wedged
        };
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

        let total_loss = |obs: &mut TrialObservation| {
            obs.damage = usize::MAX;
            obs.memtest_hit = true;
        };
        let rebooted = spans.scope("faults.span.reboot", trial, |_| {
            let (image, disk) = k.into_crash_artifacts();
            match system {
                SystemKind::DiskBased => Kernel::cold_boot(&config, disk),
                _ => Kernel::warm_boot(&config, &image, disk),
            }
        });
        let mut k2 = match rebooted {
            Ok((k2, report)) => {
                if let Some(warm) = report.warm {
                    obs.checksum_detected = warm.dropped_bad_crc > 0;
                    obs.quarantined = warm.quarantined();
                    bump(counts, "core.warm_pages_replayed", report.pages_replayed);
                    bump(counts, "core.warm_meta_restored", warm.metadata_recovered);
                    bump(counts, "core.warm_dropped", warm.total_dropped());
                }
                obs.torn_data_blocks = report.fsck.torn_data_blocks;
                k2
            }
            Err(_) => {
                total_loss(&mut obs);
                return obs;
            }
        };

        spans.scope("faults.span.verify", trial, |_| {
            let (expected, next_target) = MemTest::replay(&mt_cfg, ops);
            match expected.verify(&mut k2, Some(next_target.as_str())) {
                Ok(v) => {
                    obs.memtest_hit = v.is_corrupt();
                    let static_bad = MemTest::check_static(&mut k2, mt_cfg.seed).unwrap_or(6);
                    obs.damage = v.damage_count() + static_bad as usize;
                }
                Err(_) => total_loss(&mut obs),
            }
        });
        add_all(counts, &kernel_counts(&k2));
        obs
    }
}

pub struct Campaign {
    seed: u64,
    watchdog_ops: u64,
    /// `(system, fault)` in run order: system-major, Table 1 fault order.
    coords: Vec<(SystemKind, FaultType)>,
    checkpoints: Vec<PreparedTrial>,
    mirror_checkpoints: Vec<MirrorCheckpoint>,
    /// Simulated µs of the control runs, summed over the systems.
    control_us: u64,
}

impl Campaign {
    pub fn prepare(seed: u64, quick: bool) -> Result<Campaign, String> {
        let paper = CampaignConfig::paper(seed);
        let systems: &[SystemKind] = if quick {
            &[SystemKind::RioWithProtection]
        } else {
            &SystemKind::ALL
        };
        let checkpoints: Vec<PreparedTrial> = systems
            .iter()
            .map(|&s| PreparedTrial::prepare(s, workload_seed(seed, s), paper.warmup_ops))
            .collect();
        if let Some(bad) = checkpoints.iter().find(|cp| cp.wedged()) {
            return Err(format!("{} failed to boot and warm up", bad.system.slug()));
        }
        let mirror_checkpoints: Vec<MirrorCheckpoint> = systems
            .iter()
            .map(|&s| MirrorCheckpoint::prepare(s, workload_seed(seed, s), paper.warmup_ops))
            .collect();
        let mut control_us = 0;
        for (cp, system) in mirror_checkpoints.iter().zip(systems) {
            control_us += cp
                .control_run_us(paper.watchdog_ops)
                .map_err(|e| format!("control run on {}: {e}", system.slug()))?;
        }
        Ok(Campaign {
            seed,
            watchdog_ops: paper.watchdog_ops,
            coords: systems
                .iter()
                .flat_map(|&s| FaultType::ALL.into_iter().map(move |f| (s, f)))
                .collect(),
            checkpoints,
            mirror_checkpoints,
            control_us,
        })
    }

    fn checkpoint_index(&self, system: SystemKind) -> usize {
        self.checkpoints
            .iter()
            .position(|cp| cp.system == system)
            .expect("system prepared")
    }

    /// Every trial's observation and host seconds, through `drive` or
    /// — when `mirror` — through the phase-by-phase mirror.
    fn observe_all(
        &self,
        mirror: bool,
        spans: &mut SpanLog,
        counts: &mut Counts,
    ) -> Vec<(TrialObservation, f64)> {
        self.coords
            .iter()
            .enumerate()
            .map(|(trial, &(system, fault))| {
                let inject_seed = trial_seed(self.seed, fault, system, 0);
                let i = self.checkpoint_index(system);
                let started = Instant::now();
                let obs = if mirror {
                    spans.scope("faults.span.trial", trial as u64, |spans| {
                        self.mirror_checkpoints[i].drive(
                            fault,
                            inject_seed,
                            self.watchdog_ops,
                            trial as u64,
                            spans,
                            counts,
                        )
                    })
                } else {
                    drive(
                        self.checkpoints[i].fork(),
                        fault,
                        inject_seed,
                        self.watchdog_ops,
                    )
                };
                (obs, started.elapsed().as_secs_f64())
            })
            .collect()
    }

    /// Host seconds of one trial at the reference mix (see the module
    /// docs): per system, `SURVIVOR_SHARE` × the median surviving trial
    /// plus the rest × the median crashed trial; then the mean over
    /// systems. A system that drew no trial of a class borrows the
    /// class's median over all systems.
    fn reference_trial_s(&self, all: &[(TrialObservation, f64)]) -> f64 {
        let class_median = |system: Option<SystemKind>, verdict: TrialVerdict| {
            let secs: Vec<f64> = all
                .iter()
                .zip(&self.coords)
                .filter(|((o, _), c)| o.verdict == verdict && system.is_none_or(|s| s == c.0))
                .map(|((_, secs), _)| *secs)
                .collect();
            (!secs.is_empty()).then(|| median(&secs))
        };
        let class_cost = |system, verdict| {
            class_median(Some(system), verdict)
                .or_else(|| class_median(None, verdict))
                .unwrap_or(0.0)
        };
        let per_system: Vec<f64> = self
            .checkpoints
            .iter()
            .map(|cp| {
                SURVIVOR_SHARE * class_cost(cp.system, TrialVerdict::NoCrash)
                    + (1.0 - SURVIVOR_SHARE) * class_cost(cp.system, TrialVerdict::Crashed)
            })
            .collect();
        per_system.iter().sum::<f64>() / per_system.len() as f64
    }
}

/// FNV-1a over the `Debug` rendering of every trial's whole
/// `TrialObservation` — the campaign's output reduced to one word that
/// must repeat exactly, between repetitions and between `drive` and the
/// traced mirror.
fn outcome_digest(all: &[(TrialObservation, f64)]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (o, _) in all {
        for b in format!("{o:?}").bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

impl Workload for Campaign {
    fn rep(&self, _variant: usize, spans: &mut SpanLog) -> Result<RepOut, String> {
        let mut det = Counts::new();
        let mirror = spans.enabled();
        let all = self.observe_all(mirror, spans, &mut det);
        for verdict in [
            "faults.trials_crashed",
            "faults.trials_no_crash",
            "faults.trials_wedged",
        ] {
            det.insert(verdict.into(), 0);
        }
        for (o, _) in &all {
            let name = match o.verdict {
                TrialVerdict::Crashed => "faults.trials_crashed",
                TrialVerdict::NoCrash => "faults.trials_no_crash",
                TrialVerdict::Wedged => "faults.trials_wedged",
            };
            bump(&mut det, name, 1);
            bump(&mut det, "faults.trials_corrupted", u64::from(o.damage > 0));
            bump(&mut det, "faults.protection_saves", o.protection_trap_count);
        }
        det.insert("out.outcome_digest".into(), outcome_digest(&all));
        det.insert("sim.control_us".into(), self.control_us);
        let trials = all.len() as u64;
        Ok(RepOut {
            ops: trials,
            timed_s: Some(self.reference_trial_s(&all) * trials as f64),
            attempted: trials,
            failed: det["faults.trials_wedged"],
            det,
            trace_extra_s: 0.0,
            post_check: None,
        })
    }

    fn summarize(&self, outs: &[&RepOut]) -> Result<Summary, String> {
        let out = outs[0];
        let det = &out.det;
        let get = |name: &str| det[name];
        // The control runs: simulated time of the whole watchdog on each
        // system, and per memTest op.
        let control_ops = self.checkpoints.len() as u64 * self.watchdog_ops;
        let mut s = Summary {
            sim_s: self.control_us as f64 / 1e6,
            sim_us_per_op: self.control_us as f64 / control_ops as f64,
            ..Summary::default()
        };
        layer_from_counts(det, 0, &mut s.layer);
        s.layer.insert(
            "faults.crash_yield_frac".into(),
            get("faults.trials_crashed") as f64 / out.attempted as f64,
        );
        s.notes.push(format!(
            "{} trials: {} crashed, {} survived the watchdog, {} wedged, {} corrupted; \
             outcome_digest {:016x}",
            out.attempted,
            get("faults.trials_crashed"),
            get("faults.trials_no_crash"),
            get("faults.trials_wedged"),
            get("faults.trials_corrupted"),
            get("out.outcome_digest"),
        ));
        Ok(s)
    }

    fn span_metrics(&self, ctx: &TraceCtx, out: &mut BTreeMap<String, f64>) {
        let spans = ctx.spans;
        let trials = self.coords.len() as f64;
        out.insert(
            "faults.trials_per_host_s".into(),
            trials / ctx.untraced_rep_s,
        );
        let trial_ms = spans.total_ms("faults.span.trial");
        for phase in PHASES {
            let ms = spans.total_ms(&format!("faults.span.{phase}"));
            out.insert(format!("faults.span.{phase}_ms"), ms / trials);
            out.insert(format!("faults.span.{phase}_share"), ms / trial_ms);
        }
        // The trial span's self time: what no phase span covers.
        out.insert(
            "faults.span.unattributed_share".into(),
            spans.self_ms("faults.span.trial") / trial_ms,
        );
        // The same table by system, as shares of that system's trials.
        for cp in &self.checkpoints {
            let of_system = |s: &crate::spans::Span| {
                self.coords
                    .get(s.id as usize)
                    .is_some_and(|c| c.0 == cp.system)
            };
            let total = spans.total_ms_where(|s| s.name == "faults.span.trial" && of_system(s));
            for phase in PHASES {
                let name = format!("faults.span.{phase}");
                let ms = spans.total_ms_where(|s| s.name == name && of_system(s));
                out.insert(
                    format!("faults.span.{phase}_share.{}", cp.system.slug()),
                    ms / total,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mirror-equivalence test: for every one of the 39 coordinates
    /// the benchmark's phase-by-phase mirror of `drive` observes exactly
    /// what `drive(cp.fork(), …)` observes, so the span table cannot
    /// drift from the engine it explains.
    #[test]
    fn mirror_equals_drive_on_all_39_coordinates() {
        let c = Campaign::prepare(1996, false).unwrap();
        assert_eq!(c.coords.len(), 39);
        let engine = c.observe_all(false, &mut SpanLog::new(false), &mut Counts::new());
        let mut spans = SpanLog::new(true);
        let mirror = c.observe_all(true, &mut spans, &mut Counts::new());
        for (((m, _), (e, _)), coord) in mirror.iter().zip(&engine).zip(&c.coords) {
            assert_eq!(m, e, "mirror diverged at {coord:?}");
        }
        let crashed = engine
            .iter()
            .filter(|(o, _)| o.verdict == TrialVerdict::Crashed)
            .count();
        assert!(
            crashed > 0,
            "the comparison must cover the reboot and verify phases"
        );
        // Every trial has a fork, inject and run span.
        assert_eq!(
            spans
                .spans()
                .iter()
                .filter(|s| s.name == "faults.span.run")
                .count(),
            39
        );
    }
}
