//! Boot paths after a crash: warm reboot (Rio) and cold boot (disk-based).
//!
//! The warm reboot follows §2.2's two steps. First, before the file system
//! initializes, the preserved memory image is scanned and recovered
//! metadata blocks are restored to their disk addresses, "so that the file
//! system is intact before being checked for consistency by fsck". Then
//! fsck runs, the file system mounts, and a user-level process replays the
//! recovered file pages through normal system calls.
//!
//! # Restartable recovery
//!
//! The pipeline is *resumable*: its progress is committed back into the
//! preserved image through per-entry registry flags
//! ([`rio_core::EntryFlags::RESTORED`] / [`rio_core::EntryFlags::REPLAYED`]),
//! each set only once the corresponding bytes are durably on disk. The
//! restore commits block by block, as each write lands. The replay — "normal
//! system calls such as open and write", none of them synchronous — first
//! looks each file's inode up, so no inode-block read waits behind its
//! writes at the disk. It then writes each file's run of contiguous
//! recovered pages (a bounded number at a time) with one `pwrite` and
//! queues the run behind it as one cluster — its blocks allocated as one
//! extent, written as one disk command — so the disk works while the
//! replay moves on. It has one commit
//! point: one flush drains that queue and makes the inode, bitmap and
//! indirect blocks that reach the data durable, and only then are the
//! pages marked `REPLAYED`. A second
//! crash before that flush redoes the whole replay: replay data may already
//! be on disk, but in blocks no on-disk metadata reaches yet (one of them
//! possibly torn), and the resumed replay rewrites them — the preserved
//! image still owns every page. One inside the burst of commits leaves a
//! prefix committed, all of it already on disk. A crash
//! *during* recovery — modelled by a [`RecoveryControl`] that declines to
//! continue at a [`RecoveryPoint`] — therefore loses no recoverable data:
//! the next attempt rescans the same image, skips committed entries
//! (re-poking a restored metadata block would undo fsck repairs; the image
//! copy of a committed page is no longer trusted against outage-window
//! decay), and finishes the rest. Uncommitted work is simply redone, and
//! every step is idempotent, so any number of interrupted attempts
//! converges to the same on-disk bytes as one uninterrupted run.
//!
//! Disk I/O on the restore and fsck paths is fallible with bounded retry:
//! a transient error is retried, a permanently dead block is counted
//! ([`RecoveryIoStats`], [`FsckReport`]) and skipped — per-block
//! degradation, never a failed boot.

use crate::error::{KernelError, PanicReason};
use crate::fsck::{self, FsckReport, IO_RETRY_LIMIT};
use crate::kernel::{Kernel, KernelConfig};
use crate::machine::Machine;
use rio_core::warm::{self, WarmRebootStats};
use rio_core::{RecoveredFilePage, Registry};
use rio_disk::{DiskIoError, SimDisk};
use rio_mem::{PhysMem, PAGE_SIZE};

/// A checkpoint in the warm-reboot pipeline where a second crash can land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPoint {
    /// Registry scan finished; nothing applied to disk yet.
    AfterScan,
    /// About to restore metadata entry `index` to disk block `block`. A
    /// crash here interrupts the write mid-block: the block tears.
    BeforeMetadataBlock {
        /// Position in the restore order.
        index: u64,
        /// Target disk block.
        block: u64,
    },
    /// Metadata entry `index` is durably restored and committed.
    AfterMetadataBlock {
        /// Position in the restore order.
        index: u64,
    },
    /// fsck completed; about to mount.
    AfterFsck,
    /// Replay page `index` written, as part of its run, and queued to the
    /// disk; reached once per page, in page order. Nothing of the replay is
    /// committed yet: its data may already be on disk, in blocks no on-disk
    /// metadata reaches until the final flush, and a resumed replay
    /// rewrites them — the preserved image still owns every page.
    AfterReplayWrite {
        /// Position in the replay order.
        index: u64,
    },
    /// Replay page `index` committed `REPLAYED`, after the one flush that
    /// made every replayed page durable — a crash here leaves pages up to
    /// `index` committed and the rest to be replayed again.
    AfterReplayPage {
        /// Position in the replay order.
        index: u64,
    },
}

/// Decides, at each [`RecoveryPoint`], whether the recovery survives to
/// the next step. The fault campaign's second-crash injector implements
/// this; a plain boot uses [`NoRecoveryFaults`].
pub trait RecoveryControl {
    /// Returns `false` to crash the recovery at `point`.
    fn reached(&mut self, point: RecoveryPoint) -> bool;
}

/// The control that never interrupts: an ordinary single-shot warm boot.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRecoveryFaults;

impl RecoveryControl for NoRecoveryFaults {
    fn reached(&mut self, _point: RecoveryPoint) -> bool {
        true
    }
}

/// Fallible-I/O accounting for the metadata-restore phase (fsck keeps its
/// own counters in [`FsckReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryIoStats {
    /// Transient write errors absorbed by retrying during restore.
    pub restore_write_retries: u64,
    /// Metadata blocks that stayed unwritable after the retry budget: the
    /// restore for that block is lost (fsck sees the stale block), the
    /// boot continues.
    pub restore_blocks_unwritable: u64,
    /// Recovered metadata entries naming a block outside the disk
    /// (quarantined by range, not written).
    pub restore_blocks_skipped: u64,
}

/// Everything a reboot reports.
#[derive(Debug, Clone, Default)]
pub struct BootReport {
    /// Warm-reboot scanner statistics (absent on a cold boot).
    pub warm: Option<WarmRebootStats>,
    /// fsck findings.
    pub fsck: FsckReport,
    /// File pages successfully replayed.
    pub pages_replayed: u64,
    /// File pages that could not be replayed (inode gone, volume full,
    /// …): counted and skipped, never fatal.
    pub pages_unreplayable: u64,
    /// Restore-phase I/O degradation counters.
    pub io: RecoveryIoStats,
}

/// What survives a crash *during* recovery: the disk as the second crash
/// left it, plus where the pipeline died. The caller re-runs
/// [`Kernel::warm_boot_resumable`] with the same (progress-committed)
/// image and this disk.
#[derive(Debug)]
pub struct BootInterrupted {
    /// The disk at the moment of the second crash (a restore interrupted
    /// mid-write, or a replay write-behind in flight, leaves its target
    /// block torn).
    pub disk: SimDisk,
    /// Where the recovery died.
    pub point: RecoveryPoint,
}

/// Warm-boot outcome when the recovery itself can crash.
#[derive(Debug)]
pub enum WarmBootError {
    /// The injected second crash hit; recovery can be re-run.
    Interrupted(Box<BootInterrupted>),
    /// The volume is unmountable or the recovery kernel died for real —
    /// the campaign counts it as total loss.
    Fatal(KernelError),
}

impl std::fmt::Display for WarmBootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmBootError::Interrupted(i) => {
                write!(f, "recovery interrupted at {:?}", i.point)
            }
            WarmBootError::Fatal(e) => write!(f, "warm boot failed: {e}"),
        }
    }
}

impl std::error::Error for WarmBootError {}

fn interrupted(disk: SimDisk, point: RecoveryPoint) -> WarmBootError {
    WarmBootError::Interrupted(Box::new(BootInterrupted { disk, point }))
}

/// Crashes the recovery kernel mid-replay and salvages its disk.
fn second_crash(mut kernel: Kernel, point: RecoveryPoint) -> WarmBootError {
    kernel.crash_now(PanicReason::SecondCrash);
    // The recovery kernel's own memory image is not preserved by this
    // model: un-flushed replay writes die with it, and queued ones land,
    // tear or are lost as the disk's crash model says — safe because their
    // pages were never committed REPLAYED in the original image.
    let (_lost_image, disk) = kernel.into_crash_artifacts();
    interrupted(disk, point)
}

/// The recovery kernel itself died: nothing further can be replayed
/// through it.
fn fatal(e: &KernelError) -> bool {
    matches!(e, KernelError::Crashed | KernelError::Panic(_))
}

/// Most pages one replay `pwrite` carries. The write stages its data in
/// the kernel heap, and the smallest machine's heap is 256 KB, shared with
/// buffer headers and the inode cache: a 64 KB run fits with room to
/// spare, and a longer extent is written as several runs.
const MAX_RUN_PAGES: usize = 8;

/// End of the replay run that starts at `pages[start]` (sorted by inode and
/// offset): the maximal stretch, up to [`MAX_RUN_PAGES`], of
/// not-yet-replayed pages of one inode at contiguous offsets, every one but
/// the last a full page — the extent a restorer writes with one `write`.
fn run_end(pages: &[RecoveredFilePage], start: usize) -> usize {
    let mut end = start + 1;
    while let (Some(prev), Some(next)) = (pages.get(end - 1), pages.get(end)) {
        if end - start == MAX_RUN_PAGES
            || next.already_replayed
            || next.ino != prev.ino
            || prev.size as usize != PAGE_SIZE
            || next.offset != prev.offset + PAGE_SIZE as u64
        {
            break;
        }
        end += 1;
    }
    end
}

impl Kernel {
    /// Warm boot (§2.2): scan the preserved image, restore metadata, fsck,
    /// mount, replay file data.
    ///
    /// Single-shot convenience over [`Kernel::warm_boot_resumable`]; the
    /// image is cloned so progress commits stay private.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSuperblock`] when even fsck cannot make the volume
    /// mountable (total loss; the campaign counts it as corruption).
    pub fn warm_boot(
        config: &KernelConfig,
        image: &PhysMem,
        disk: SimDisk,
    ) -> Result<(Kernel, BootReport), KernelError> {
        let mut image = image.clone();
        match Self::warm_boot_resumable(config, &mut image, disk, &mut NoRecoveryFaults) {
            Ok(ok) => Ok(ok),
            Err(WarmBootError::Fatal(e)) => Err(e),
            Err(WarmBootError::Interrupted(_)) => {
                unreachable!("NoRecoveryFaults never interrupts")
            }
        }
    }

    /// The restartable warm reboot. Progress is committed into `image`
    /// (per-entry `RESTORED`/`REPLAYED` registry flags) as each piece of
    /// recovered data becomes durable, so when `ctl` crashes the pipeline
    /// the caller can call this again with the same image and the returned
    /// disk, and the resumed run completes exactly what is left.
    ///
    /// # Errors
    ///
    /// [`WarmBootError::Interrupted`] when `ctl` injects a second crash;
    /// [`WarmBootError::Fatal`] when the volume cannot be mounted.
    pub fn warm_boot_resumable(
        config: &KernelConfig,
        image: &mut PhysMem,
        mut disk: SimDisk,
        ctl: &mut dyn RecoveryControl,
    ) -> Result<(Kernel, BootReport), WarmBootError> {
        let registry = Registry::new(*image.layout());

        // Phase 1: dump analysis. Pure read of the image; decayed or
        // corrupt entries are quarantined by magic/mapping/CRC checks.
        let recovery = warm::scan_registry(image);
        if !ctl.reached(RecoveryPoint::AfterScan) {
            return Err(interrupted(disk, RecoveryPoint::AfterScan));
        }

        // Phase 2: metadata restore (pre-fsck), one entry at a time,
        // committing RESTORED only once the block write succeeded.
        let mut io = RecoveryIoStats::default();
        for (i, m) in recovery.metadata.iter().enumerate() {
            if m.already_restored {
                continue;
            }
            let index = i as u64;
            if m.block >= disk.num_blocks() {
                io.restore_blocks_skipped += 1;
                continue;
            }
            let point = RecoveryPoint::BeforeMetadataBlock {
                index,
                block: m.block,
            };
            if !ctl.reached(point) {
                // Crash mid-write: half the sectors land — unless the
                // block is unwritable, in which case nothing does.
                let _ = disk.try_poke_torn(m.block, &m.data);
                return Err(interrupted(disk, point));
            }
            let mut written = false;
            for _ in 0..IO_RETRY_LIMIT {
                match disk.try_poke(m.block, &m.data) {
                    Ok(()) => {
                        written = true;
                        break;
                    }
                    Err(DiskIoError::Transient) => io.restore_write_retries += 1,
                    Err(DiskIoError::Permanent) => break,
                }
            }
            if written {
                warm::commit_restored(image, &registry, m.slot);
            } else {
                // Dead target block: this restore is lost (fsck will see
                // the stale contents), the boot is not.
                io.restore_blocks_unwritable += 1;
            }
            let point = RecoveryPoint::AfterMetadataBlock { index };
            if !ctl.reached(point) {
                return Err(interrupted(disk, point));
            }
        }

        // Phase 3: fsck + mount on a fresh machine.
        let fsck_report = fsck::repair(&mut disk)
            .map_err(|_| WarmBootError::Fatal(KernelError::BadSuperblock))?;
        if !ctl.reached(RecoveryPoint::AfterFsck) {
            return Err(interrupted(disk, RecoveryPoint::AfterFsck));
        }
        let mut machine = Machine::new(&config.machine);
        machine.disk = disk;
        let mut kernel = Kernel::mount(machine, config).map_err(WarmBootError::Fatal)?;

        // Phase 4: user-level replay of recovered file pages through
        // normal system calls, with one commit point. Each file's run of
        // contiguous recovered pages is written with one pwrite and queued
        // to the disk behind it as one cluster, so the disk works while the
        // replay moves on; one synchronous flush then makes every page —
        // and the inode, bitmap and indirect blocks that reach them —
        // durable, and only then is each marked REPLAYED. Replayed writes
        // keep the recovered mtime so interrupted and uninterrupted
        // recoveries produce identical disk bytes.
        kernel.preserve_mtime_on_write = true;
        let mut report = BootReport {
            warm: Some(recovery.stats),
            fsck: fsck_report,
            io,
            ..BootReport::default()
        };
        let mut pages = recovery.file_pages;
        pages.sort_by_key(|p| (p.ino, p.offset));
        // Look each file's inode up once before any write is queued: the
        // disk serves in arrival order, so an inode-block read issued
        // mid-replay would wait behind the whole write-behind queue. The
        // lookup is the one `pwrite_ino` makes; a free inode is left for
        // the replay to count page by page.
        let mut inos: Vec<u64> = pages
            .iter()
            .filter(|p| !p.already_replayed)
            .map(|p| p.ino)
            .collect();
        inos.dedup();
        for ino in inos {
            kernel.read_inode_opt(ino).map_err(WarmBootError::Fatal)?;
        }
        let mut written = Vec::new();
        // The recovered bytes stay where the scan checked them, in the
        // preserved image; each run is gathered from there into this one
        // buffer, the only copy before the `pwrite` stages it.
        let mut data = Vec::with_capacity(MAX_RUN_PAGES * PAGE_SIZE);
        let image_bytes = |p: &RecoveredFilePage| &image.page(p.page)[..p.size as usize];
        let mut start = 0;
        while start < pages.len() {
            if pages[start].already_replayed {
                start += 1;
                continue;
            }
            let end = run_end(&pages, start);
            let run = &pages[start..end];
            let ino = run[0].ino;
            let first = written.len();
            data.clear();
            for p in run {
                data.extend_from_slice(image_bytes(p));
            }
            match kernel.pwrite_ino(ino, run[0].offset, &data) {
                Ok(()) => written.extend(run.iter().zip(start..).map(|(p, i)| (i as u64, p.slot))),
                Err(e) if fatal(&e) => return Err(WarmBootError::Fatal(e)),
                // Inode gone, volume full, file too big, …: replay the run
                // page by page so exactly the pages that cannot be written
                // are counted unreplayable; the boot goes on.
                Err(_) => {
                    for (p, i) in run.iter().zip(start..) {
                        match kernel.pwrite_ino(p.ino, p.offset, image_bytes(p)) {
                            Ok(()) => written.push((i as u64, p.slot)),
                            Err(e) if fatal(&e) => return Err(WarmBootError::Fatal(e)),
                            Err(_) => report.pages_unreplayable += 1,
                        }
                    }
                }
            }
            // Write behind: the run's blocks go to the disk now, but no
            // on-disk metadata reaches them until the flush below, and
            // nothing is committed before it.
            match kernel.cluster_file_pages(ino) {
                Ok(()) => {}
                Err(e) if fatal(&e) => return Err(WarmBootError::Fatal(e)),
                // The volume filled part-way: the pages it could not place
                // leave the cache and are counted unreplayable one by one;
                // the image still holds them.
                Err(_) => {
                    for (index, slot) in written.split_off(first) {
                        let p = &pages[index as usize];
                        let dropped = kernel
                            .drop_dirty_page(p.ino, p.offset / PAGE_SIZE as u64)
                            .map_err(WarmBootError::Fatal)?;
                        if dropped {
                            report.pages_unreplayable += 1;
                        } else {
                            written.push((index, slot));
                        }
                    }
                }
            }
            for &(index, _) in &written[first..] {
                let point = RecoveryPoint::AfterReplayWrite { index };
                if !ctl.reached(point) {
                    return Err(second_crash(kernel, point));
                }
            }
            start = end;
        }
        if !written.is_empty() {
            kernel
                .flush_everything(true)
                .map_err(WarmBootError::Fatal)?;
        }
        // Everything written above is on disk: the commits below only
        // record that in the preserved image, so a crash among them leaves
        // a committed prefix whose bytes are already durable.
        for (index, slot) in written {
            warm::commit_replayed(image, &registry, slot);
            report.pages_replayed += 1;
            let point = RecoveryPoint::AfterReplayPage { index };
            if !ctl.reached(point) {
                return Err(second_crash(kernel, point));
            }
        }
        kernel.preserve_mtime_on_write = false;
        Ok((kernel, report))
    }

    /// Cold boot: fsck + mount; whatever memory held is gone.
    ///
    /// # Errors
    ///
    /// As [`Kernel::warm_boot`].
    pub fn cold_boot(
        config: &KernelConfig,
        mut disk: SimDisk,
    ) -> Result<(Kernel, BootReport), KernelError> {
        let fsck_report = fsck::repair(&mut disk).map_err(|_| KernelError::BadSuperblock)?;
        let mut machine = Machine::new(&config.machine);
        machine.disk = disk;
        let kernel = Kernel::mount(machine, config)?;
        Ok((
            kernel,
            BootReport {
                warm: None,
                fsck: fsck_report,
                ..BootReport::default()
            },
        ))
    }
}
