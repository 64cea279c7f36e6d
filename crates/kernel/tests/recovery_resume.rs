//! Integration tests for the restartable recovery pipeline: crashing the
//! warm reboot at *every* pipeline point and resuming must produce a disk
//! byte-for-byte identical to a recovery that was never interrupted, and
//! the replay has one commit point — every run of pages written and queued
//! to the disk, one flush, then the `REPLAYED` commits.

use rio_core::{RecoveredFilePage, RioMode};
use rio_det::proptest_lite::{check, Config, Gen};
use rio_disk::SimDisk;
use rio_kernel::{
    BootReport, DiskGeometry, Kernel, KernelConfig, NoRecoveryFaults, PanicReason, Policy,
    RecoveryControl, RecoveryPoint, WarmBootError,
};
use rio_mem::{PhysMem, PAGE_SIZE};
use std::collections::BTreeSet;

/// Counts recovery points without interrupting.
struct CountPoints {
    points: u64,
}

impl RecoveryControl for CountPoints {
    fn reached(&mut self, _point: RecoveryPoint) -> bool {
        self.points += 1;
        true
    }
}

/// Crashes at the `n`th point reached (0-based).
struct CrashAt {
    remaining: u64,
}

impl RecoveryControl for CrashAt {
    fn reached(&mut self, _point: RecoveryPoint) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        true
    }
}

/// A crash image: the config that built it, its memory and disk, and the
/// paths of the files it leaves behind.
struct Crashed {
    config: KernelConfig,
    image: PhysMem,
    disk: SimDisk,
    paths: Vec<String>,
}

fn crash(mut k: Kernel, config: KernelConfig, paths: Vec<String>) -> Crashed {
    k.crash_now(PanicReason::Watchdog);
    let (image, disk) = k.into_crash_artifacts();
    Crashed {
        config,
        image,
        disk,
        paths,
    }
}

/// Single-page files: every replay run is one page.
fn crashed_workload(mode: RioMode) -> Crashed {
    let config = KernelConfig::small(Policy::rio(mode));
    let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    k.mkdir("/a").unwrap();
    k.mkdir("/a/b").unwrap();
    for i in 0..6 {
        let path = format!("/a/b/f{i}");
        let data: Vec<u8> = (0..2200 + i * 613)
            .map(|j| ((j * 37 + i) % 253) as u8)
            .collect();
        let fd = k.create(&path).unwrap();
        k.write(fd, &data).unwrap();
        k.close(fd).unwrap();
    }
    // Overwrite one file and delete another so replay isn't append-only.
    let fd = k.open("/a/b/f1").unwrap();
    k.pwrite(fd, 100, b"rewritten-region").unwrap();
    k.close(fd).unwrap();
    k.unlink("/a/b/f4").unwrap();
    let paths = [0, 1, 2, 3, 5].map(|i| format!("/a/b/f{i}")).to_vec();
    crash(k, config, paths)
}

/// Multi-page files, created in this order so their inodes replay in it:
/// a 3½-page file whose partial last page is followed by the next file's
/// pages, a file with a two-page hole (it replays as two runs), and a
/// 1½-page file.
fn crashed_multipage_workload(mode: RioMode) -> Crashed {
    let config = KernelConfig::small(Policy::rio(mode));
    let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    let page = rio_mem::PAGE_SIZE;
    let bytes = |n: usize, salt: usize| -> Vec<u8> {
        (0..n).map(|j| ((j * 41 + salt) % 251) as u8).collect()
    };
    let files: [(&str, &[(usize, usize)]); 3] = [
        ("/long", &[(0, 3 * page + page / 2)]),
        ("/holey", &[(0, page), (3 * page, page)]),
        ("/next", &[(0, page + page / 2)]),
    ];
    for (salt, (path, extents)) in files.iter().enumerate() {
        let fd = k.create(path).unwrap();
        for &(at, len) in *extents {
            k.pwrite(fd, at as u64, &bytes(len, salt + at)).unwrap();
        }
        k.close(fd).unwrap();
    }
    let paths = files.map(|(path, _)| path.to_string()).to_vec();
    crash(k, config, paths)
}

/// Finalizes a recovered kernel so its disk holds the full state.
fn park(mut k: Kernel) -> SimDisk {
    k.set_reliability_writes(true);
    k.sync().expect("final sync");
    k.machine.disk.clone()
}

fn assert_disks_identical(a: &SimDisk, b: &SimDisk, label: &str) {
    assert_eq!(a.num_blocks(), b.num_blocks(), "{label}");
    for block in 0..a.num_blocks() {
        assert_eq!(
            a.peek(block),
            b.peek(block),
            "{label}: block {block} differs"
        );
    }
}

/// The invariant the progress commits rest on, stated directly: every
/// page `img` flags `REPLAYED` reads back byte-identical from a *cold*
/// boot of `salvaged` — fsck and mount, no memory image — so its bytes and
/// the metadata that reaches them were on disk before the commit.
fn assert_committed_pages_are_durable(
    c: &Crashed,
    acknowledged: &[RecoveredFilePage],
    img: &PhysMem,
    salvaged: &SimDisk,
    label: &str,
) {
    let scan = rio_core::scan_registry(img);
    let committed: Vec<&RecoveredFilePage> = scan
        .file_pages
        .iter()
        .filter(|p| p.already_replayed)
        .map(|e| {
            acknowledged
                .iter()
                .find(|p| p.slot == e.slot)
                .unwrap_or_else(|| panic!("{label}: slot {} committed, never recovered", e.slot))
        })
        .collect();
    if committed.is_empty() {
        return;
    }
    let (mut cold, _) = Kernel::cold_boot(&c.config, salvaged.clone())
        .unwrap_or_else(|e| panic!("{label}: cold boot of the salvaged disk: {e}"));
    for p in committed {
        let path = c
            .paths
            .iter()
            .find(|path| cold.stat(path).is_ok_and(|s| s.ino == p.ino))
            .unwrap_or_else(|| panic!("{label}: no path reaches inode {}", p.ino));
        let got = cold.file_contents(path).expect("cold read");
        let at = p.offset as usize;
        let want = &c.image.page(p.page)[..p.size as usize];
        assert_eq!(
            got.get(at..at + want.len()),
            Some(want),
            "{label}: {path} @ {at} is flagged REPLAYED but is not on disk"
        );
    }
}

/// The replay reads every recovered page where the scan checked it, in
/// the preserved image, and writes nothing there but the registry's
/// progress flags: each file-cache page of `img` is still the crash's.
fn assert_file_cache_untouched(c: &Crashed, img: &PhysMem, label: &str) {
    let ubc = c.image.layout().ubc;
    for at in (ubc.start..ubc.end).step_by(PAGE_SIZE) {
        assert!(
            img.slice(at, PAGE_SIZE as u64) == c.image.slice(at, PAGE_SIZE as u64),
            "{label}: the recovery wrote to the image's file-cache page at {at:#x}"
        );
    }
}

/// Crashes the recovery of `c` at every single pipeline point in turn;
/// resuming must converge to the uninterrupted recovery's disk, and at the
/// interruption every `REPLAYED` commit must already be durable. Returns
/// how many interruptions of the replay's writes tore a block.
fn resume_from_every_crash_point(c: &Crashed, mode: RioMode) -> u64 {
    let acknowledged = rio_core::scan_registry(&c.image).file_pages;

    // Reference: single-shot recovery.
    let (k_ref, ref_report) =
        Kernel::warm_boot(&c.config, &c.image, c.disk.clone()).expect("reference warm boot");
    assert!(ref_report.pages_replayed > 0, "{mode}");
    let ref_disk = park(k_ref);

    // Size the crash-point space.
    let mut counter = CountPoints { points: 0 };
    let mut count_image = c.image.clone();
    Kernel::warm_boot_resumable(&c.config, &mut count_image, c.disk.clone(), &mut counter)
        .expect("counting run completes");
    assert!(counter.points > 4, "pipeline exposes points ({mode})");

    let mut tearing = 0;
    for n in 0..counter.points {
        // The image accumulates RESTORED/REPLAYED commits across the
        // interrupted attempt and the resume — exactly like a real
        // battery-backed image would.
        let mut img = c.image.clone();
        let mut ctl = CrashAt { remaining: n };
        let (salvaged, point) =
            match Kernel::warm_boot_resumable(&c.config, &mut img, c.disk.clone(), &mut ctl) {
                Err(WarmBootError::Interrupted(i)) => (i.disk, i.point),
                other => panic!("point {n} ({mode}): expected interruption, got {other:?}"),
            };
        let label = format!("point {n} ({mode})");
        assert_committed_pages_are_durable(c, &acknowledged, &img, &salvaged, &label);
        assert_file_cache_untouched(c, &img, &label);
        let torn: Vec<u64> = (0..salvaged.num_blocks())
            .filter(|&b| salvaged.is_torn(b))
            .collect();
        if matches!(point, RecoveryPoint::AfterReplayWrite { .. }) {
            tearing += u64::from(!torn.is_empty());
        }
        let (k2, report) = Kernel::warm_boot(&c.config, &img, salvaged)
            .unwrap_or_else(|e| panic!("resume after point {n} ({mode}): {e}"));
        assert_eq!(report.pages_unreplayable, 0, "{label}");
        let resumed_disk = park(k2);
        assert_disks_identical(&ref_disk, &resumed_disk, &label);
        for b in torn {
            assert!(
                !resumed_disk.is_torn(b),
                "{label}: torn block {b} never rewritten"
            );
        }
    }
    tearing
}

#[test]
fn resume_from_every_crash_point_matches_recover_once() {
    for mode in [RioMode::Unprotected, RioMode::Protected] {
        resume_from_every_crash_point(&crashed_workload(mode), mode);
    }
}

/// The same, where the replay writes multi-page runs and queues them to
/// the disk as it goes: a second crash there tears an in-flight
/// write-behind block that no on-disk metadata reaches yet, and the resume
/// rewrites it.
#[test]
fn resume_from_every_crash_point_with_multipage_runs() {
    for mode in [RioMode::Unprotected, RioMode::Protected] {
        let c = crashed_multipage_workload(mode);
        let tearing = resume_from_every_crash_point(&c, mode);
        assert!(
            tearing > 0,
            "no crash point caught a write-behind in flight ({mode})"
        );
    }
}

/// A whole warm reboot commits every page `REPLAYED` in the image it
/// replays from, yet leaves that image's file-cache pages byte-identical.
#[test]
fn a_warm_reboot_leaves_the_image_file_cache_pages_byte_identical() {
    for c in [
        crashed_workload(RioMode::Protected),
        crashed_multipage_workload(RioMode::Protected),
    ] {
        let mut img = c.image.clone();
        let (_, report) =
            Kernel::warm_boot_resumable(&c.config, &mut img, c.disk.clone(), &mut NoRecoveryFaults)
                .expect("warm boot");
        assert!(report.pages_replayed > 0);
        let scan = rio_core::scan_registry(&img);
        assert!(scan.file_pages.iter().all(|p| p.already_replayed));
        assert_file_cache_untouched(&c, &img, "uninterrupted");
    }
}

/// Stops the recovery once fsck has run: metadata restored and committed,
/// nothing replayed.
struct StopAfterFsck;

impl RecoveryControl for StopAfterFsck {
    fn reached(&mut self, point: RecoveryPoint) -> bool {
        point != RecoveryPoint::AfterFsck
    }
}

/// A resume whose image holds an already-`REPLAYED` page in the middle of
/// a file's run: the run breaks around it — one more `pwrite`, the
/// committed page left alone — and the disk is the uninterrupted one.
#[test]
fn resume_after_a_committed_page_splits_the_run() {
    let c = crashed_multipage_workload(RioMode::Protected);
    let mut img = c.image.clone();
    let restored = match Kernel::warm_boot_resumable(
        &c.config,
        &mut img,
        c.disk.clone(),
        &mut StopAfterFsck,
    ) {
        Err(WarmBootError::Interrupted(i)) => i.disk,
        other => panic!("expected a stop after fsck, got {other:?}"),
    };
    let (k_ref, full) = Kernel::warm_boot(&c.config, &img, restored).expect("reference");
    let full_syscalls = k_ref.stats().syscalls;
    let replayed = k_ref.machine.disk.clone();
    let ref_disk = park(k_ref);

    // Every page is durable on `replayed`; commit only the second page of
    // `/long`, the lowest inode.
    let pages = rio_core::scan_registry(&img).file_pages;
    let long_ino = pages.iter().map(|p| p.ino).min().expect("pages");
    let mut long: Vec<&RecoveredFilePage> = pages.iter().filter(|p| p.ino == long_ino).collect();
    long.sort_by_key(|p| p.offset);
    assert_eq!(long.len(), 4, "/long recovers four pages");
    let registry = rio_core::Registry::new(*img.layout());
    rio_core::warm::commit_replayed(&mut img, &registry, long[1].slot);

    let (k, report) = Kernel::warm_boot(&c.config, &img, replayed).expect("resume");
    assert_eq!(report.pages_replayed, full.pages_replayed - 1);
    assert_eq!(
        k.stats().syscalls,
        full_syscalls + 1,
        "the committed page splits one run"
    );
    assert_disks_identical(&ref_disk, &park(k), "resume after a committed page");
}

/// A run whose `pwrite` fails is replayed page by page, so a failure is
/// counted per page, as a per-page replay would count it. Decaying every
/// preserved metadata page drops its registry entry: no restored inode
/// reaches the recovered pages, and each run fails.
#[test]
fn failed_runs_count_every_page_unreplayable() {
    let mut c = crashed_multipage_workload(RioMode::Unprotected);
    let pages = rio_core::scan_registry(&c.image).file_pages.len() as u64;
    assert_eq!(pages, 8, "eight pages in four runs");
    let cache = c.image.layout().buffer_cache;
    for page in (cache.start..cache.end).step_by(rio_mem::PAGE_SIZE) {
        c.image.flip_bit(page, 0);
    }
    let scan = rio_core::scan_registry(&c.image);
    assert_eq!(scan.metadata.len(), 0, "every metadata entry dropped");
    let (_, report) = Kernel::warm_boot(&c.config, &c.image, c.disk).expect("warm boot");
    assert_eq!(
        (report.pages_replayed, report.pages_unreplayable),
        (0, pages)
    );
}

/// One replay, one commit point: a single-shot warm boot waits on the disk
/// once, and writes each replayed page and each metadata block the replay
/// dirtied exactly once — a flush per page would wait N times and rewrite
/// the inode and bitmap blocks behind every page, and the write-behind of a
/// run must not write a block the final flush writes again.
#[test]
fn replay_flushes_once_and_writes_each_block_once() {
    for c in [
        crashed_workload(RioMode::Protected),
        crashed_multipage_workload(RioMode::Protected),
    ] {
        let pages = rio_core::scan_registry(&c.image).file_pages;
        let writes_before = c.disk.stats().writes;
        let (k, report) = Kernel::warm_boot(&c.config, &c.image, c.disk).expect("warm boot");
        assert_eq!(report.pages_replayed, pages.len() as u64);
        assert!(report.pages_replayed > 1, "more than one page to batch");
        assert_eq!(k.stats().sync_waits, 1, "one flush for the whole replay");
        // The metadata the replay dirties: the inode blocks of the
        // replayed files and the small volume's one bitmap block.
        let inode_blocks: BTreeSet<u64> = pages
            .iter()
            .map(|p| c.config.geometry.inode_location(p.ino).0)
            .collect();
        assert_eq!(
            k.machine.disk.stats().writes - writes_before,
            report.pages_replayed + inode_blocks.len() as u64 + 1
        );
    }
}

/// A single-shot warm boot of `c`, with the metadata updates it commits
/// counted by the block they land in: `[bitmap, inode table, other]` —
/// the other being indirect blocks.
fn boot_counting_metadata_updates(c: &Crashed) -> (BootReport, [u64; 3]) {
    rio_obs::start(rio_obs::DEFAULT_CAPACITY);
    let booted = Kernel::warm_boot(&c.config, &c.image, c.disk.clone());
    let trace = rio_obs::finish().expect("session open");
    let (_, report) = booted.expect("warm boot");
    assert_eq!(trace.dropped, 0);
    let g = c.config.geometry;
    let mut updates = [0; 3];
    for e in &trace.events {
        let rio_obs::Payload::Block { block, .. } = e.payload else {
            continue;
        };
        if e.category != rio_obs::EventCategory::ShadowCommit {
            continue;
        }
        let kind = if (g.bitmap_start..g.bitmap_start + g.bitmap_len).contains(&block) {
            0
        } else if (g.inode_start..g.inode_start + g.inode_len).contains(&block) {
            1
        } else {
            2
        };
        updates[kind] += 1;
    }
    (report, updates)
}

/// The write-behind of a replayed run is one cluster: one bitmap update,
/// at most one inode update and at most one update of the indirect block,
/// however many pages the run holds — a page at a time paid a bitmap and
/// an inode update per page. The run's `pwrite` adds one inode update of
/// its own (size and mtime).
#[test]
fn a_replayed_run_costs_one_update_per_metadata_block() {
    // Four runs of one to four direct pages.
    let c = crashed_multipage_workload(RioMode::Protected);
    let (report, updates) = boot_counting_metadata_updates(&c);
    assert_eq!(report.pages_replayed, 8);
    assert_eq!(updates, [4, 4 + 4, 0]);

    // One four-page run appended to a file whose indirect block is
    // already on disk: no direct pointer changes, so the cluster writes
    // the bitmap and the indirect block once each, and only the `pwrite`
    // writes the inode.
    let config = KernelConfig::small(Policy::rio(RioMode::Protected));
    let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    let fd = k.create("/big").unwrap();
    for i in 0..20u8 {
        k.write(fd, &[i; PAGE_SIZE]).unwrap();
    }
    k.set_reliability_writes(true);
    k.sync().unwrap();
    k.set_reliability_writes(false);
    for i in 20..24u8 {
        k.write(fd, &[i; PAGE_SIZE]).unwrap();
    }
    k.close(fd).unwrap();
    let c = crash(k, config, vec!["/big".into()]);
    let (report, updates) = boot_counting_metadata_updates(&c);
    assert_eq!(report.pages_replayed, 4);
    assert_eq!(updates, [1, 1, 1]);
}

/// Free data blocks on `disk`, by its bitmap.
fn free_blocks(disk: &SimDisk, g: &DiskGeometry) -> u64 {
    (g.data_start..g.num_blocks)
        .filter(|&b| {
            let (block, bit) = g.bitmap_location(b);
            disk.peek(block)[bit / 8] & (1 << (bit % 8)) == 0
        })
        .count() as u64
}

/// A run whose write-behind fills the volume part-way places what fits:
/// those pages replay, and only the pages it could not place are counted
/// unreplayable — the boot goes on.
#[test]
fn a_run_that_fills_the_volume_counts_only_the_pages_it_could_not_place() {
    const LEFT: u64 = 2;
    let mut config = KernelConfig::small(Policy::rio(RioMode::Protected));
    config.geometry = DiskGeometry::new(160, 64, 0);
    config.machine.disk_blocks = 160;
    let g = config.geometry;
    let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    // Fill the volume durably until exactly LEFT blocks are free; the
    // first NDIRECT + 1 pages take the indirect block along.
    k.set_reliability_writes(true);
    let fill = k.create("/fill").unwrap();
    for i in 0.. {
        if i > 16 && free_blocks(&k.machine.disk, &g) == LEFT {
            break;
        }
        k.write(fill, &[1; PAGE_SIZE]).unwrap();
        k.sync().unwrap();
    }
    k.set_reliability_writes(false);
    let data: Vec<u8> = (0..5 * PAGE_SIZE).map(|j| (j % 251) as u8).collect();
    let fd = k.create("/tail").unwrap();
    k.write(fd, &data).unwrap();
    k.close(fd).unwrap();
    let c = crash(k, config, vec!["/tail".into()]);

    let (mut k, report) = Kernel::warm_boot(&c.config, &c.image, c.disk).expect("warm boot");
    assert_eq!(
        (report.pages_replayed, report.pages_unreplayable),
        (LEFT, 5 - LEFT)
    );
    assert_eq!(free_blocks(&k.machine.disk, &g), 0);
    let got = k.file_contents("/tail").expect("read back");
    let placed = LEFT as usize * PAGE_SIZE;
    assert!(
        got[..placed] == data[..placed],
        "the placed pages read back"
    );
}

/// The replay holds every recovered page in the recovery kernel's cache
/// until its one flush. A crash image with *every* UBC page dirty fills
/// that cache exactly: nothing may turn unreplayable, every file reads back.
#[test]
fn replay_of_a_completely_dirty_cache_loses_nothing() {
    let config = KernelConfig::small(Policy::rio(RioMode::Protected));
    let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    let cache_pages = k.machine.bus.layout().ubc.pages() as usize;
    // 24-page files reach past the direct pointers into an indirect block.
    let mut files = Vec::new();
    let mut left = cache_pages;
    while left > 0 {
        let (i, n) = (files.len(), left.min(24));
        let data: Vec<u8> = (0..n * rio_mem::PAGE_SIZE)
            .map(|j| ((j * 31 + i) % 251) as u8)
            .collect();
        let path = format!("/f{i}");
        let fd = k.create(&path).unwrap();
        k.write(fd, &data).unwrap();
        k.close(fd).unwrap();
        files.push((path, data));
        left -= n;
    }
    assert_eq!(k.stats().overflow_writebacks, 0, "the fill spilled");
    k.crash_now(PanicReason::Watchdog);
    let (image, disk) = k.into_crash_artifacts();

    let (mut k, report) = Kernel::warm_boot(&config, &image, disk).expect("warm boot");
    assert_eq!(report.pages_replayed, cache_pages as u64);
    assert_eq!(report.pages_unreplayable, 0);
    for (path, data) in &files {
        let got = k.file_contents(path).expect("read back");
        assert!(got == *data, "{path} differs");
    }
}

/// A run is staged through the kernel heap, which on the small machine is
/// far smaller than the cache: a file of many contiguous dirty pages,
/// written 8 KB at a time, must still replay every page.
#[test]
fn replay_of_a_file_larger_than_the_heap_loses_nothing() {
    let config = KernelConfig::small(Policy::rio(RioMode::Protected));
    let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    let page = rio_mem::PAGE_SIZE;
    let pages = 48;
    assert!(
        (pages * page) as u64 > k.machine.bus.layout().heap.len(),
        "the file outgrows the heap"
    );
    let data: Vec<u8> = (0..pages * page)
        .map(|j| ((j * 29 + 7) % 251) as u8)
        .collect();
    let fd = k.create("/big").unwrap();
    for chunk in data.chunks(page) {
        k.write(fd, chunk).unwrap();
    }
    k.close(fd).unwrap();
    assert_eq!(k.stats().overflow_writebacks, 0, "the fill spilled");
    k.crash_now(PanicReason::Watchdog);
    let (image, disk) = k.into_crash_artifacts();

    let (mut k, report) = Kernel::warm_boot(&config, &image, disk).expect("warm boot");
    assert_eq!(
        (report.pages_replayed, report.pages_unreplayable),
        (pages as u64, 0)
    );
    let fd = k.open("/big").unwrap();
    for (i, want) in data.chunks(page).enumerate() {
        let got = k.pread(fd, (i * page) as u64, page).expect("read back");
        assert!(got == want, "/big page {i} differs");
    }
}

/// A resumed run that finds every page already `REPLAYED` has nothing to
/// make durable: no flush, no disk write.
#[test]
fn resume_with_every_page_committed_leaves_the_disk_alone() {
    let Crashed {
        config,
        mut image,
        disk,
        ..
    } = crashed_workload(RioMode::Protected);
    let (k, first) = Kernel::warm_boot_resumable(&config, &mut image, disk, &mut NoRecoveryFaults)
        .expect("first recovery");
    assert!(first.pages_replayed > 0);
    // A crash right after the last commit: the disk and the image survive.
    let disk = k.machine.disk.clone();
    let writes_before = disk.stats().writes;
    let (k, second) = Kernel::warm_boot_resumable(&config, &mut image, disk, &mut NoRecoveryFaults)
        .expect("resumed recovery");
    assert_eq!((second.pages_replayed, second.pages_unreplayable), (0, 0));
    assert_eq!(k.stats().sync_waits, 0);
    assert_eq!(k.machine.disk.stats().writes, writes_before);
}

/// Nested interruptions: crash the recovery, then crash the *resumed*
/// recovery too, before letting the third attempt finish.
#[test]
fn double_interruption_still_converges() {
    let Crashed {
        config,
        image,
        disk,
        ..
    } = crashed_workload(RioMode::Protected);
    let (k_ref, _) = Kernel::warm_boot(&config, &image, disk.clone()).expect("reference");
    let ref_disk = park(k_ref);

    let mut counter = CountPoints { points: 0 };
    Kernel::warm_boot_resumable(&config, &mut image.clone(), disk.clone(), &mut counter)
        .expect("counting run");

    for (first, second) in [(1, 0), (2, 3), (counter.points - 2, 1)] {
        let mut img = image.clone();
        let d1 = match Kernel::warm_boot_resumable(
            &config,
            &mut img,
            disk.clone(),
            &mut CrashAt { remaining: first },
        ) {
            Err(WarmBootError::Interrupted(i)) => i.disk,
            other => panic!("first crash: {other:?}"),
        };
        // The second attempt has fewer live points (committed work is
        // skipped), so the second crash may not fire at all — both cases
        // must converge.
        let d2 = match Kernel::warm_boot_resumable(
            &config,
            &mut img,
            d1,
            &mut CrashAt { remaining: second },
        ) {
            Err(WarmBootError::Interrupted(i)) => i.disk,
            Ok((k2, _)) => {
                let got = park(k2);
                assert_disks_identical(&ref_disk, &got, "converged on 2nd attempt");
                continue;
            }
            Err(e) => panic!("second attempt fatal: {e}"),
        };
        let (k3, _) = Kernel::warm_boot(&config, &img, d2).expect("third attempt");
        let got = park(k3);
        assert_disks_identical(
            &ref_disk,
            &got,
            &format!("crashes at {first} then {second}"),
        );
    }
}

/// Satellite (d): the registry scan is a pure function of the image —
/// scanning twice (as a restarted recovery does) yields identical plans,
/// even over images damaged by outage-window decay.
#[test]
fn scan_registry_twice_is_identical() {
    check(
        "scan_registry is idempotent",
        Config::with_cases(24),
        |g: &mut Gen| {
            let config = KernelConfig::small(Policy::rio(RioMode::Unprotected));
            let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
            let files: u64 = g.in_range(1u64..=5);
            for i in 0..files {
                let fd = k.create(&format!("/f{i}")).expect("create");
                let data = g.bytes(16, 4096);
                k.write(fd, &data).expect("write");
                k.close(fd).expect("close");
            }
            k.crash_now(PanicReason::Watchdog);
            let (mut image, _disk) = k.into_crash_artifacts();

            // Decay: flip a few random bits across the preserved file-cache
            // and registry regions.
            let layout = *image.layout();
            let flips: u64 = g.in_range(0u64..=12);
            for _ in 0..flips {
                let addr: u64 = g.in_range(layout.buffer_cache.start..layout.registry.end);
                image.flip_bit(addr, g.in_range(0u64..8) as u8);
            }

            let first = rio_core::scan_registry(&image);
            let second = rio_core::scan_registry(&image);
            rio_det::pt_assert_eq!(first, second);
            Ok(())
        },
    );
}
