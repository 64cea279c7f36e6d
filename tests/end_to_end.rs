//! Cross-crate integration tests: the whole system working together, from
//! fault injection through recovery to table generation.

use rio::baselines;
use rio::core::RioMode;
use rio::faults::campaign::trial_seed;
use rio::faults::{
    drive, workload_seed, CampaignConfig, FaultType, PreparedTrial, SystemKind, TrialVerdict,
};
use rio::harness::table2::{run_table2, Table2Scale};
use rio::kernel::{Kernel, KernelConfig, PanicReason, Policy};
use rio::mem::PAGE_SIZE;
use rio::workloads::{
    Andrew, AndrewConfig, CpRm, CpRmConfig, MemTest, MemTestConfig, Sdet, SdetConfig,
};

#[test]
fn all_eight_policies_run_all_three_workloads() {
    for (_, policy) in baselines::table2_rows() {
        let mut config = KernelConfig::small(policy);
        config.geometry = rio::kernel::DiskGeometry::new(4096, 2048, 64);
        config.machine.disk_blocks = 4096;
        let mut k = Kernel::mkfs_and_mount(&config).unwrap();
        let cprm = CpRm::new(CpRmConfig {
            dirs: 2,
            files_per_dir: 4,
            ..CpRmConfig::small(1)
        });
        cprm.setup(&mut k).unwrap();
        cprm.run(&mut k).unwrap();
        Sdet::new(SdetConfig {
            ops_per_script: 15,
            ..SdetConfig::small(1)
        })
        .run(&mut k)
        .unwrap();
        Andrew::new(AndrewConfig {
            dirs: 1,
            files_per_dir: 4,
            ..AndrewConfig::small(1)
        })
        .run(&mut k)
        .unwrap();
    }
}

#[test]
fn rio_survives_every_fault_type_or_crashes_cleanly() {
    // Every fault type must produce a classifiable outcome on Rio; no
    // panics of the *simulator* itself.
    let system = SystemKind::RioWithProtection;
    let steady = PreparedTrial::prepare(system, workload_seed(0, system), 20);
    assert!(!steady.wedged());
    for fault in FaultType::ALL {
        for attempt in 0..2 {
            let obs = drive(
                steady.fork(),
                fault,
                trial_seed(0, fault, system, attempt),
                150,
            );
            match obs.verdict {
                TrialVerdict::NoCrash | TrialVerdict::Wedged | TrialVerdict::Crashed => {}
            }
        }
    }
}

#[test]
fn repeated_crash_reboot_cycles_preserve_accumulated_state() {
    let config = KernelConfig::small(Policy::rio(RioMode::Protected));
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    let mut expected = Vec::new();
    for round in 0..4 {
        // Add data.
        let path = format!("/round{round}");
        let data = vec![round as u8 + 1; 5000 + round * 777];
        let fd = k.create(&path).unwrap();
        k.write(fd, &data).unwrap();
        k.close(fd).unwrap();
        expected.push((path, data));
        // Crash + warm reboot.
        k.crash_now(PanicReason::Watchdog);
        let (image, disk) = k.into_crash_artifacts();
        let (k2, report) = Kernel::warm_boot(&config, &image, disk).unwrap();
        assert_eq!(report.warm.unwrap().total_dropped(), 0, "round {round}");
        k = k2;
        // Everything ever written is still there.
        for (p, d) in &expected {
            assert_eq!(&k.file_contents(p).unwrap(), d, "{p} after round {round}");
        }
    }
}

#[test]
fn memtest_under_write_through_matches_after_cold_boot() {
    // The Table 1 disk-based leg end to end, without fault injection:
    // everything memTest completed must be on disk after a cold boot.
    let config = KernelConfig::small(Policy::disk_write_through());
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    let cfg = MemTestConfig::small_write_through(77);
    let mut mt = MemTest::new(cfg.clone());
    mt.setup(&mut k).unwrap();
    mt.run(&mut k, 60).unwrap();
    let ops = mt.ops_done();
    k.crash_now(PanicReason::Watchdog);
    let (_image, disk) = k.into_crash_artifacts();
    let (mut k2, _) = Kernel::cold_boot(&config, disk).unwrap();
    let (expected, next) = MemTest::replay(&cfg, ops);
    let verdict = expected.verify(&mut k2, Some(next.as_str())).unwrap();
    assert!(
        !verdict.is_corrupt(),
        "write-through lost data without any fault: {verdict:?}"
    );
}

#[test]
fn table2_tiny_preserves_row_ordering() {
    let report = run_table2(&Table2Scale::tiny(9));
    let t = |name: &str| {
        report
            .rows
            .iter()
            .find(|r| r.name == name)
            .unwrap()
            .cprm_total
    };
    let memfs = t("Memory File System");
    let rio = t("Rio with protection");
    let ufs = t("UFS");
    let wt = t("UFS write-through on write");
    // The paper's ordering: MemFS ≈ Rio < UFS ≤ write-through.
    assert!(rio.as_micros() < ufs.as_micros());
    assert!(ufs.as_micros() <= wt.as_micros());
    assert!(rio.as_micros() < memfs.as_micros() * 2);
}

#[test]
fn rendered_table1_is_byte_identical_at_1_and_8_threads() {
    // The interval-bearing table (counts, MTTF lines, Wilson CI footer)
    // must not depend on worker count: a system's steady point is shared
    // across threads but captured once from (system, seed, warmup) alone,
    // and cells merge in attempt order.
    let cfg = CampaignConfig {
        trials_per_cell: 4,
        seed: 1996,
        warmup_ops: 20,
        watchdog_ops: 150,
        max_attempts_factor: 4,
    };
    let one = rio::harness::render_table1(&rio::faults::run_campaign(&cfg, 1));
    let eight = rio::harness::render_table1(&rio::faults::run_campaign(&cfg, 8));
    assert_eq!(one, eight);
    assert!(one.contains("95% confidence intervals (Wilson)"));
}

#[test]
fn code_patched_rio_also_survives_crashes() {
    let config = KernelConfig::small(Policy::rio(RioMode::CodePatched));
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    let fd = k.create("/patched").unwrap();
    k.write(fd, &vec![0x42; 12_000]).unwrap();
    k.close(fd).unwrap();
    k.crash_now(PanicReason::Watchdog);
    let (image, disk) = k.into_crash_artifacts();
    let (mut k2, _) = Kernel::warm_boot(&config, &image, disk).unwrap();
    assert_eq!(k2.file_contents("/patched").unwrap(), vec![0x42; 12_000]);
}

#[test]
fn memory_board_transplant_recovers_on_a_different_machine() {
    // §5: "If the system board fails, it should be possible to move the
    // memory board to a different system without losing power or data."
    // Under Rio nothing was ever written to the old disk, so the *entire*
    // file system must be reconstructible from the transplanted DRAM: we
    // warm-boot the image against a freshly formatted disk on a new
    // machine.
    let config = KernelConfig::small(Policy::rio(RioMode::Protected));
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    k.mkdir("/work").unwrap();
    let mut files = Vec::new();
    for i in 0..6 {
        let path = format!("/work/doc{i}");
        let data = vec![0x30 + i as u8; 4000 + i * 1000];
        let fd = k.create(&path).unwrap();
        k.write(fd, &data).unwrap();
        k.close(fd).unwrap();
        files.push((path, data));
    }
    assert_eq!(k.machine.disk.stats().writes, 0);
    k.crash_now(PanicReason::Watchdog);
    let (image, _old_disk) = k.into_crash_artifacts();

    // The replacement machine: same geometry, brand-new disk.
    let mut fresh_disk = rio::disk::SimDisk::new(
        config.machine.disk_blocks,
        rio::disk::DiskModel::paper_scsi(),
    );
    Kernel::format(&mut fresh_disk, &config.geometry);
    let (mut k2, report) = Kernel::warm_boot(&config, &image, fresh_disk).unwrap();
    assert!(report.pages_replayed > 0);
    for (path, data) in &files {
        assert_eq!(&k2.file_contents(path).unwrap(), data, "{path}");
    }
}

/// A UFS kernel whose file cache holds `ubc_pages` pages.
fn ufs_kernel(ubc_pages: u64) -> Kernel {
    let mut config = KernelConfig::small(baselines::ufs_default());
    config.machine.mem.ubc_bytes = ubc_pages * PAGE_SIZE as u64;
    Kernel::mkfs_and_mount(&config).unwrap()
}

#[test]
fn unlink_ends_the_files_clustering_run() {
    // /a's run ends at 24 KB. /b takes /a's inode number (the lowest free
    // one), and its first write, at offset 0, is sequential for a new file
    // — but not for a run /a left behind, which would flush it at once.
    let mut k = ufs_kernel(64);
    let a = k.create("/a").unwrap();
    for _ in 0..3 {
        k.write(a, &[1; PAGE_SIZE]).unwrap();
    }
    k.close(a).unwrap();
    let ino = k.stat("/a").unwrap().ino;
    k.unlink("/a").unwrap();
    let b = k.create("/b").unwrap();
    assert_eq!(k.stat("/b").unwrap().ino, ino, "/b reuses /a's inode");
    let writes = k.machine.disk.stats().writes;
    k.write(b, &[2; PAGE_SIZE]).unwrap();
    assert_eq!(k.machine.disk.stats().writes, writes);
}

#[test]
fn a_clustering_run_outlives_the_eviction_of_its_files_pages() {
    // /f is written a page at a time; in a 2-page cache, reading all of
    // /g (2 pages) between two writes forces every page of /f out.
    // The 64 KB cluster must still go out at the write that completes it,
    // as it does when the cache holds both files.
    let first_write_to_disk = |ubc_pages: u64| {
        let mut k = ufs_kernel(ubc_pages);
        let g = k.create("/g").unwrap();
        k.write(g, &vec![7; 2 * PAGE_SIZE]).unwrap();
        k.sync().unwrap();
        let f = k.create("/f").unwrap();
        let mut first = None;
        for i in 0..12 {
            let writes = k.machine.disk.stats().writes;
            k.write(f, &[i as u8; PAGE_SIZE]).unwrap();
            if first.is_none() && k.machine.disk.stats().writes > writes {
                first = Some(i);
            }
            k.pread(g, 0, 2 * PAGE_SIZE).unwrap();
        }
        (first, k.stats().overflow_writebacks)
    };
    let (small, evicted) = first_write_to_disk(2);
    assert!(evicted > 0, "/f's pages were forced out dirty");
    let (big, _) = first_write_to_disk(64);
    let cluster = (baselines::UFS_CLUSTER_BYTES as usize / PAGE_SIZE) - 1;
    assert_eq!(big, Some(cluster));
    assert_eq!(small, big);
}
