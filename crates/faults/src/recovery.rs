//! The second-crash campaign: fault-inject the warm reboot itself.
//!
//! Rio's §2.2 argument — memory is as safe as disk — is only as strong as
//! the recovery path, so this campaign crashes the *recovery*: for each
//! trial it crashes a warmed-up kernel, optionally damages what survives
//! (outage-window memory decay, transient or permanent disk faults), then
//! runs the warm reboot twice from identical copies:
//!
//! * a **reference** run, uninterrupted, and
//! * a **test** run interrupted by up to `depth` injected second crashes
//!   at points sampled across the whole pipeline (post-scan,
//!   mid-metadata-restore with torn blocks, post-fsck, among the replay's
//!   writes — nothing committed yet, its write-behind blocks unreachable
//!   from on-disk metadata — and among the burst of `REPLAYED` commits
//!   that follows its one flush), each followed by a
//!   resumed recovery on the surviving image + disk.
//!
//! Both runs then park their disks (reliability writes on + `sync`) and
//! every block is compared. A byte difference is an *undetected
//! corruption introduced by the recovery path* — the thing the
//! restartable pipeline (per-entry `RESTORED`/`REPLAYED` commits) exists
//! to prevent. Detected, quarantined damage (CRC-dropped decay, dead
//! blocks) is counted separately: losing data loudly is allowed, losing
//! it silently is not.

use crate::campaign::SystemKind;
use crate::driver::PreparedTrial;
use crate::engine::{self, Campaign};
use rio_det::{derive_seed3, DetRng};
use rio_disk::{DiskFault, SimDisk};
use rio_kernel::{
    Kernel, KernelConfig, NoRecoveryFaults, PanicReason, RecoveryControl, RecoveryPoint,
    WarmBootError,
};
use rio_mem::PhysMem;

/// What (besides the second crashes) is wrong with the surviving state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryScenario {
    /// Healthy image and disk; only the injected re-crashes.
    Clean,
    /// Bit flips in the preserved image's file-cache pages during the
    /// outage window — the CRC scan must quarantine them.
    Decay,
    /// Transient disk I/O errors (clear within the retry budget).
    TransientIo,
    /// Permanently dead disk blocks (per-block degradation).
    PermanentIo,
}

impl RecoveryScenario {
    /// All scenarios, in table row order.
    pub const ALL: [RecoveryScenario; 4] = [
        RecoveryScenario::Clean,
        RecoveryScenario::Decay,
        RecoveryScenario::TransientIo,
        RecoveryScenario::PermanentIo,
    ];

    /// Row label.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryScenario::Clean => "clean",
            RecoveryScenario::Decay => "memory decay",
            RecoveryScenario::TransientIo => "transient disk I/O",
            RecoveryScenario::PermanentIo => "permanent disk I/O",
        }
    }
}

impl std::fmt::Display for RecoveryScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Counts recovery points without ever interrupting (sizes the crash-index
/// sample space from the reference run).
struct CountingControl {
    points: u64,
}

impl RecoveryControl for CountingControl {
    fn reached(&mut self, _point: RecoveryPoint) -> bool {
        self.points += 1;
        true
    }
}

/// Crashes the recovery at the `n`th point reached (0-based); a pipeline
/// with fewer points simply completes.
struct CrashAtNth {
    remaining: u64,
}

impl RecoveryControl for CrashAtNth {
    fn reached(&mut self, _point: RecoveryPoint) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        true
    }
}

/// One recovery trial's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryTrialOutcome {
    /// Second crashes actually injected (≤ requested depth: a resumed run
    /// can finish before its sampled crash point).
    pub interrupts: u64,
    /// Disk blocks that differ from the uninterrupted reference after
    /// final sync — undetected corruption introduced by recovery itself.
    pub mismatched_blocks: u64,
    /// The reference (uninterrupted) boot was a total loss.
    pub fatal_reference: bool,
    /// The interrupted/resumed boot was a total loss.
    pub fatal_test: bool,
    /// Registry entries quarantined by the final scan (decay detection).
    pub quarantined: u64,
    /// Torn data blocks fsck observed in the final recovery run.
    pub torn_data_blocks: u64,
    /// Transient-I/O retries absorbed (restore + fsck, final run).
    pub retries: u64,
    /// Blocks permanently degraded (unreadable + unwritable, final run).
    pub degraded_blocks: u64,
    /// Entries the final scan skipped because an earlier attempt had
    /// already committed them (`RESTORED`/`REPLAYED`).
    pub committed_skips: u64,
    /// Pages replayed by the final (completing) run.
    pub pages_replayed: u64,
    /// The trial harness itself panicked (recorded, never propagated).
    pub harness_panic: bool,
}

impl RecoveryTrialOutcome {
    fn panic_outcome() -> RecoveryTrialOutcome {
        RecoveryTrialOutcome {
            interrupts: 0,
            mismatched_blocks: u64::MAX,
            fatal_reference: false,
            fatal_test: false,
            quarantined: 0,
            torn_data_blocks: 0,
            retries: 0,
            degraded_blocks: 0,
            committed_skips: 0,
            pages_replayed: 0,
            harness_panic: true,
        }
    }

    /// Whether the interrupted recovery converged to the reference state:
    /// identical bytes, or an identical (detected) total loss.
    pub fn converged(&self) -> bool {
        !self.harness_panic
            && self.fatal_reference == self.fatal_test
            && (self.fatal_reference || self.mismatched_blocks == 0)
    }
}

/// One (scenario × depth) cell of the recovery table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryCellResult {
    /// Damage model (row group).
    pub scenario: RecoveryScenario,
    /// Second crashes injected per trial (column).
    pub depth: u64,
    /// Trials run.
    pub trials: u64,
    /// Trials whose final state matched the uninterrupted reference.
    pub converged: u64,
    /// Trials that diverged — undetected corruption from the recovery
    /// path (the acceptance criterion demands zero).
    pub diverged: u64,
    /// Trials where both paths were an (equivalent) total loss.
    pub fatal_losses: u64,
    /// Total second crashes injected.
    pub interrupts: u64,
    /// Total entries quarantined by the CRC/magic scan.
    pub quarantined: u64,
    /// Total torn data blocks seen by fsck.
    pub torn: u64,
    /// Total transient-I/O retries absorbed.
    pub retries: u64,
    /// Total permanently degraded blocks.
    pub degraded: u64,
    /// Total committed entries skipped on resume.
    pub committed_skips: u64,
    /// Total pages replayed by final runs.
    pub replayed: u64,
}

/// Full recovery-campaign result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryCampaignResult {
    /// One cell per (scenario, depth), scenario-major.
    pub cells: Vec<RecoveryCellResult>,
    /// Trials per cell.
    pub trials_per_cell: u64,
}

impl RecoveryCampaignResult {
    /// Total diverged trials — must be zero for the acceptance criterion.
    pub fn total_diverged(&self) -> u64 {
        self.cells.iter().map(|c| c.diverged).sum()
    }

    /// Total quarantined (detected) corruptions across the campaign.
    pub fn total_quarantined(&self) -> u64 {
        self.cells.iter().map(|c| c.quarantined).sum()
    }
}

/// Recovery-campaign parameters.
#[derive(Debug, Clone)]
pub struct RecoveryCampaignConfig {
    /// Trials per (scenario, depth) cell — fixed, no stopping rule, so
    /// thread count cannot influence which trials run.
    pub trials_per_cell: u64,
    /// Base seed.
    pub seed: u64,
    /// memTest ops before the first crash (builds recoverable state).
    pub warmup_ops: u64,
    /// Maximum second-crash depth (columns k = 1..=max_depth).
    pub max_depth: u64,
}

impl RecoveryCampaignConfig {
    /// Fast configuration for tests and the verify-smoke.
    pub fn quick(seed: u64) -> Self {
        RecoveryCampaignConfig {
            trials_per_cell: 2,
            seed,
            warmup_ops: 30,
            max_depth: 3,
        }
    }

    /// The exhibit scale behind `results_recovery.txt`.
    pub fn paper(seed: u64) -> Self {
        RecoveryCampaignConfig {
            trials_per_cell: 8,
            seed,
            warmup_ops: 60,
            max_depth: 3,
        }
    }
}

/// The per-campaign workload seed of the recovery campaign: every trial
/// crashes the *same* warmed-up kernel (the scenarios and second crashes
/// are all per-trial), so the first-crash artifacts are captured once.
pub fn recovery_workload_seed(campaign_seed: u64) -> u64 {
    const RECOVERY_WORKLOAD_STREAM: u64 = 0x57EA_D75E_ED00_0003;
    derive_seed3(campaign_seed, RECOVERY_WORKLOAD_STREAM, 0, 0)
}

/// Seed of one recovery trial: pure function of its grid coordinates.
pub fn recovery_trial_seed(
    campaign_seed: u64,
    scenario: RecoveryScenario,
    depth: u64,
    trial: u64,
) -> u64 {
    derive_seed3(campaign_seed, scenario as u64, depth, trial)
}

/// End of the on-disk metadata region (superblock + inode table +
/// bitmap), read from the superblock; falls back to the first 8 blocks if
/// it does not decode (it always does for a formatted disk).
fn metadata_end(disk: &SimDisk) -> u64 {
    rio_kernel::ondisk::Superblock::decode(disk.peek(0))
        .map(|sb| sb.geometry.data_start)
        .unwrap_or(8)
        .min(disk.num_blocks())
        .max(2)
}

/// Applies one scenario's damage to the surviving image and disk. Both the
/// reference and the test recovery start from copies taken *after* this,
/// so detected degradation is identical on both sides and strict byte
/// equality stays assertable.
fn apply_scenario(
    scenario: RecoveryScenario,
    image: &mut PhysMem,
    disk: &mut SimDisk,
    rng: &mut DetRng,
) {
    match scenario {
        RecoveryScenario::Clean => {}
        RecoveryScenario::Decay => crate::inject::decay_image(image, rng, 40),
        RecoveryScenario::TransientIo => {
            // Transient faults (≤ 2 failures) always clear inside the
            // bounded retry, so they exercise the retry path without
            // degrading anything. Reads target the metadata ranges fsck
            // always walks (superblock, inode table, bitmap); writes
            // target the bitmap, which fsck rebuilds after a crash.
            let meta_end = metadata_end(disk);
            for _ in 0..4 {
                let b = rng.gen_range(0..meta_end);
                disk.inject_read_fault(b, DiskFault::Transient(rng.gen_range(1..=2)));
            }
            for _ in 0..4 {
                let b = rng.gen_range(1..meta_end);
                disk.inject_write_fault(b, DiskFault::Transient(rng.gen_range(1..=2)));
            }
        }
        RecoveryScenario::PermanentIo => {
            // Dead blocks, sampled off the superblock so the volume stays
            // mountable and degradation is per-block, not total.
            for _ in 0..2 {
                let b = rng.gen_range(1..disk.num_blocks());
                disk.inject_read_fault(b, DiskFault::Permanent);
            }
            for _ in 0..2 {
                let b = rng.gen_range(1..disk.num_blocks());
                disk.inject_write_fault(b, DiskFault::Permanent);
            }
        }
    }
}

/// Parks a freshly recovered kernel for comparison: reliability writes on
/// (§2.3 footnote 1's power-down switch), sync, and take the disk.
fn park(mut kernel: Kernel) -> Option<SimDisk> {
    kernel.set_reliability_writes(true);
    kernel.sync().ok()?;
    Some(kernel.machine.disk.clone())
}

/// The first-crash artifacts, frozen: a warmed-up kernel died with a
/// dirty file cache, leaving the preserved memory image and the disk.
/// Everything per-trial (scenario damage, second-crash points) happens
/// *after* this state, so one capture serves the whole campaign; cloning
/// the artifacts is cheap (copy-on-write pages and blocks).
#[derive(Debug, Clone)]
pub struct RecoveryCheckpoint {
    config: KernelConfig,
    state: Option<(PhysMem, SimDisk)>,
}

impl RecoveryCheckpoint {
    /// Crashes the Rio-with-protection steady point
    /// ([`PreparedTrial::prepare`]) — the scratch path to the first-crash
    /// artifacts. Pure function of its arguments.
    pub fn capture(workload_seed: u64, warmup_ops: u64) -> RecoveryCheckpoint {
        let warmed =
            PreparedTrial::prepare(SystemKind::RioWithProtection, workload_seed, warmup_ops);
        let config = warmed.config.clone();
        let state = warmed.into_machine().map(|(mut k, _)| {
            k.crash_now(PanicReason::Watchdog);
            k.into_crash_artifacts()
        });
        RecoveryCheckpoint { config, state }
    }

    /// Whether the captured warmup itself failed.
    pub fn wedged(&self) -> bool {
        self.state.is_none()
    }
}

/// Runs one recovery trial (see the module docs for the procedure) from
/// captured first-crash artifacts, drawing the scenario damage and
/// second-crash points from `inject_seed`.
pub fn run_recovery_trial_from(
    checkpoint: &RecoveryCheckpoint,
    scenario: RecoveryScenario,
    depth: u64,
    inject_seed: u64,
) -> RecoveryTrialOutcome {
    let config = &checkpoint.config;
    let Some((image, disk)) = &checkpoint.state else {
        return RecoveryTrialOutcome::panic_outcome();
    };
    let (mut image, mut disk) = (image.clone(), disk.clone());
    let mut rng = DetRng::seed_from_u64(inject_seed);

    // Outage-window damage, shared by both recovery paths.
    apply_scenario(scenario, &mut image, &mut disk, &mut rng);

    // Reference: one uninterrupted recovery, counting crashable points.
    let mut ref_image = image.clone();
    let mut counter = CountingControl { points: 0 };
    let reference = Kernel::warm_boot_resumable(config, &mut ref_image, disk.clone(), &mut counter);
    let points = counter.points;
    let ref_disk = match reference {
        Ok((kernel, _)) => park(kernel),
        Err(_) => None,
    };

    // Test: up to `depth` second crashes at sampled points, resuming on
    // the same image + surviving disk each time, then one completing run.
    let mut test_image = image.clone();
    let mut cur_disk = Some(disk);
    let mut interrupts = 0u64;
    let mut finished = None;
    let mut fatal_test = false;
    for _ in 0..depth {
        let mut ctl = CrashAtNth {
            remaining: rng.gen_range(0..points.max(1)),
        };
        let attempt_disk = cur_disk.take().expect("disk survives interruptions");
        match Kernel::warm_boot_resumable(config, &mut test_image, attempt_disk, &mut ctl) {
            Ok(done) => {
                finished = Some(done);
                break;
            }
            Err(WarmBootError::Interrupted(bi)) => {
                interrupts += 1;
                cur_disk = Some(bi.disk);
            }
            Err(WarmBootError::Fatal(_)) => {
                fatal_test = true;
                break;
            }
        }
    }
    if finished.is_none() && !fatal_test {
        let attempt_disk = cur_disk.take().expect("disk survives interruptions");
        match Kernel::warm_boot_resumable(
            config,
            &mut test_image,
            attempt_disk,
            &mut NoRecoveryFaults,
        ) {
            Ok(done) => finished = Some(done),
            Err(_) => fatal_test = true,
        }
    }

    let mut outcome = RecoveryTrialOutcome {
        interrupts,
        mismatched_blocks: 0,
        fatal_reference: ref_disk.is_none(),
        fatal_test,
        quarantined: 0,
        torn_data_blocks: 0,
        retries: 0,
        degraded_blocks: 0,
        committed_skips: 0,
        pages_replayed: 0,
        harness_panic: false,
    };
    let test_disk = match finished {
        Some((kernel, report)) => {
            let warm = report.warm.unwrap_or_default();
            outcome.quarantined = warm.quarantined();
            outcome.committed_skips = warm.committed_restored + warm.committed_replayed;
            outcome.torn_data_blocks = report.fsck.torn_data_blocks;
            outcome.retries = report.fsck.read_retries
                + report.fsck.write_retries
                + report.io.restore_write_retries;
            outcome.degraded_blocks = report.fsck.blocks_unreadable
                + report.fsck.blocks_unwritable
                + report.io.restore_blocks_unwritable;
            outcome.pages_replayed = report.pages_replayed;
            park(kernel)
        }
        None => None,
    };
    outcome.fatal_test = test_disk.is_none();

    if let (Some(a), Some(b)) = (&ref_disk, &test_disk) {
        let n = a.num_blocks().min(b.num_blocks());
        for blk in 0..n {
            if a.peek(blk) != b.peek(blk) {
                outcome.mismatched_blocks += 1;
            }
        }
        outcome.mismatched_blocks += a.num_blocks().abs_diff(b.num_blocks());
    }
    outcome
}

/// The re-crash table as a [`Campaign`]: a (scenario, depth) grid with a
/// fixed trial count per cell — no stopping rule beyond it — and one
/// crashed machine shared by the whole grid.
pub(crate) struct RecoveryGrid<'a>(pub(crate) &'a RecoveryCampaignConfig);

impl Campaign for RecoveryGrid<'_> {
    type Coord = (RecoveryScenario, u64);
    type Key = ();
    type Checkpoint = RecoveryCheckpoint;
    type Outcome = RecoveryTrialOutcome;
    type Cell = RecoveryCellResult;

    /// Scenario-major.
    fn grid(&self) -> Vec<Self::Coord> {
        RecoveryScenario::ALL
            .iter()
            .flat_map(|&s| (1..=self.0.max_depth).map(move |d| (s, d)))
            .collect()
    }

    fn checkpoint_key(&self, _: Self::Coord) {}

    fn capture(&self, _: Self::Coord) -> RecoveryCheckpoint {
        RecoveryCheckpoint::capture(recovery_workload_seed(self.0.seed), self.0.warmup_ops)
    }

    fn run(
        &self,
        checkpoint: &RecoveryCheckpoint,
        (scenario, depth): Self::Coord,
        trial: u64,
    ) -> RecoveryTrialOutcome {
        let inject_seed = recovery_trial_seed(self.0.seed, scenario, depth, trial);
        run_recovery_trial_from(checkpoint, scenario, depth, inject_seed)
    }

    /// A panicking trial is a diverged result, not a dead pool.
    fn on_panic(&self, _: Self::Coord, _text: String) -> RecoveryTrialOutcome {
        RecoveryTrialOutcome::panic_outcome()
    }

    fn empty(&self, (scenario, depth): Self::Coord) -> RecoveryCellResult {
        RecoveryCellResult {
            scenario,
            depth,
            trials: 0,
            converged: 0,
            diverged: 0,
            fatal_losses: 0,
            interrupts: 0,
            quarantined: 0,
            torn: 0,
            retries: 0,
            degraded: 0,
            committed_skips: 0,
            replayed: 0,
        }
    }

    fn absorb(&self, cell: &mut RecoveryCellResult, o: RecoveryTrialOutcome) {
        cell.trials += 1;
        if o.converged() {
            cell.converged += 1;
            if o.fatal_reference {
                cell.fatal_losses += 1;
            }
        } else {
            cell.diverged += 1;
        }
        cell.interrupts += o.interrupts;
        cell.quarantined += o.quarantined;
        cell.torn += o.torn_data_blocks;
        cell.retries += o.retries;
        cell.degraded += o.degraded_blocks;
        cell.committed_skips += o.committed_skips;
        cell.replayed += o.pages_replayed;
    }

    fn done(&self, _: &RecoveryCellResult, merged: u64) -> bool {
        merged >= self.0.trials_per_cell
    }
}

/// Runs the recovery campaign on `threads` workers through
/// [`crate::engine::run`]: byte-identical results at any `threads`.
pub fn run_recovery_campaign(
    cfg: &RecoveryCampaignConfig,
    threads: usize,
) -> RecoveryCampaignResult {
    RecoveryCampaignResult {
        cells: engine::run(&RecoveryGrid(cfg), threads),
        trials_per_cell: cfg.trials_per_cell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One trial at `(scenario, depth)` from a machine warmed with `seed`.
    fn trial(
        scenario: RecoveryScenario,
        depth: u64,
        seed: u64,
        warmup_ops: u64,
    ) -> RecoveryTrialOutcome {
        let cp = RecoveryCheckpoint::capture(recovery_workload_seed(seed), warmup_ops);
        run_recovery_trial_from(
            &cp,
            scenario,
            depth,
            recovery_trial_seed(seed, scenario, depth, 0),
        )
    }

    #[test]
    fn clean_recrash_converges_at_every_depth() {
        for depth in 1..=3 {
            let o = trial(RecoveryScenario::Clean, depth, 42 + depth, 30);
            assert!(o.converged(), "depth {depth}: {o:?}");
            assert_eq!(o.mismatched_blocks, 0);
        }
    }

    #[test]
    fn decay_is_quarantined_not_silently_restored() {
        let mut quarantined = 0;
        for seed in 0..4 {
            let o = trial(RecoveryScenario::Decay, 2, seed, 30);
            assert!(o.converged(), "seed {seed}: {o:?}");
            quarantined += o.quarantined;
        }
        assert!(quarantined > 0, "40 flips/trial should hit live entries");
    }

    #[test]
    fn transient_io_is_retried_to_convergence() {
        // Only the completing run's retries are reported, so depth 1
        // leaves the transients the best chance of still being armed.
        let mut retries = 0;
        for seed in 0..4 {
            let o = trial(RecoveryScenario::TransientIo, 1, seed, 30);
            assert!(o.converged(), "seed {seed}: {o:?}");
            assert_eq!(o.degraded_blocks, 0, "transients must not degrade");
            retries += o.retries;
        }
        assert!(retries > 0, "injected transients should be exercised");
    }

    #[test]
    fn permanent_io_degrades_identically_on_both_paths() {
        let mut degraded = 0;
        for seed in 6..10 {
            let o = trial(RecoveryScenario::PermanentIo, 2, seed, 30);
            assert!(o.converged(), "seed {seed}: {o:?}");
            degraded += o.degraded_blocks;
        }
        assert!(
            degraded > 0,
            "a dead block should land on a block recovery touches"
        );
    }

    #[test]
    fn forked_recovery_trials_match_scratch_exactly() {
        let wl = recovery_workload_seed(77);
        let cp = RecoveryCheckpoint::capture(wl, 25);
        assert!(!cp.wedged());
        for (scenario, inj) in [
            (RecoveryScenario::Clean, 4u64),
            (RecoveryScenario::Decay, 5),
            (RecoveryScenario::TransientIo, 6),
        ] {
            let forked = run_recovery_trial_from(&cp, scenario, 2, inj);
            let fresh = RecoveryCheckpoint::capture(wl, 25);
            let scratch = run_recovery_trial_from(&fresh, scenario, 2, inj);
            assert_eq!(forked, scratch, "{scenario} / inj {inj}");
        }
    }
}
