//! Integration tests: the paper's core claim, end to end.
//!
//! Files written through a Rio kernel, with *zero* reliability disk writes,
//! must survive a system crash via warm reboot — while a cold boot (the
//! disk-based world without fsync) loses them.

use rio_core::RioMode;
use rio_kernel::{Kernel, KernelConfig, PanicReason, Policy};

fn rio_kernel(mode: RioMode) -> (Kernel, KernelConfig) {
    let config = KernelConfig::small(Policy::rio(mode));
    let k = Kernel::mkfs_and_mount(&config).expect("mkfs");
    (k, config)
}

fn populate(k: &mut Kernel) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    k.mkdir("/proj").unwrap();
    k.mkdir("/proj/src").unwrap();
    for i in 0..8 {
        let path = format!("/proj/src/file{i}.dat");
        let data: Vec<u8> = (0..3000 + i * 517)
            .map(|j| ((j * 31 + i) % 251) as u8)
            .collect();
        let fd = k.create(&path).unwrap();
        k.write(fd, &data).unwrap();
        k.close(fd).unwrap();
        files.push((path, data));
    }
    files
}

#[test]
fn warm_reboot_recovers_all_written_data() {
    for mode in [RioMode::Unprotected, RioMode::Protected] {
        let (mut k, config) = rio_kernel(mode);
        let files = populate(&mut k);
        // Idle gaps, stepped by the kernel and poked by syscalls, run no
        // daemon that writes.
        for _ in 0..5 {
            let wake = k.machine.clock.now() + rio_disk::SimTime::from_secs(30);
            k.idle_until(wake).unwrap();
            k.stat("/proj/src").unwrap();
        }
        // No reliability writes happened: the only disk traffic so far was
        // the mount-time superblock read.
        assert_eq!(k.machine.disk.stats().writes, 0, "mode {mode}");

        // Crash out of nowhere.
        k.crash_now(PanicReason::Watchdog);
        let (image, disk) = k.into_crash_artifacts();

        // Warm reboot.
        let (mut k2, report) = Kernel::warm_boot(&config, &image, disk).expect("warm boot");
        assert!(report.pages_replayed > 0);
        assert_eq!(report.pages_unreplayable, 0);
        let warm = report.warm.expect("warm stats");
        assert_eq!(warm.total_dropped(), 0, "healthy crash drops nothing");

        // Every byte survived.
        for (path, data) in &files {
            assert_eq!(&k2.file_contents(path).unwrap(), data, "{path} ({mode})");
        }
        // Directory structure too.
        assert_eq!(k2.readdir("/proj").unwrap(), vec!["src"]);
        assert_eq!(k2.readdir("/proj/src").unwrap().len(), 8);
    }
}

#[test]
fn cold_boot_loses_unflushed_data() {
    // Same scenario, but boot cold (no warm reboot): memory contents are
    // discarded, and since Rio never wrote to disk, everything is gone.
    let (mut k, config) = rio_kernel(RioMode::Unprotected);
    let files = populate(&mut k);
    k.crash_now(PanicReason::Watchdog);
    let (_image, disk) = k.into_crash_artifacts();
    let (mut k2, _) = Kernel::cold_boot(&config, disk).expect("cold boot");
    for (path, _) in &files {
        assert!(k2.open(path).is_err(), "{path} should be gone");
    }
}

#[test]
fn admin_switch_drains_rio_to_disk_for_maintenance() {
    // §2.3 footnote 1: before maintenance or an extended power outage, the
    // administrator re-enables reliability writes and syncs.
    let (mut k, config) = rio_kernel(RioMode::Protected);
    let fd = k.create("/precious").unwrap();
    k.write(fd, &vec![0x77; 20_000]).unwrap();
    k.close(fd).unwrap();
    assert_eq!(k.machine.disk.stats().writes, 0);

    k.set_reliability_writes(true);
    k.sync().unwrap();
    assert!(k.machine.disk.stats().writes > 0);

    // Power the machine fully off (memory gone): a COLD boot finds the
    // data on disk.
    k.crash_now(PanicReason::Watchdog);
    let (_image, disk) = k.into_crash_artifacts();
    let (mut k2, _) = Kernel::cold_boot(&config, disk).unwrap();
    assert_eq!(k2.file_contents("/precious").unwrap(), vec![0x77; 20_000]);
}

#[test]
fn write_through_survives_cold_boot() {
    // The disk-based baseline: fsync-per-write makes data durable without
    // any warm reboot.
    let config = KernelConfig::small(Policy::disk_write_through());
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    let fd = k.create("/wt.dat").unwrap();
    let data = vec![0x5Au8; 20_000];
    k.write(fd, &data).unwrap();
    k.fsync(fd).unwrap();
    k.close(fd).unwrap();
    k.crash_now(PanicReason::Watchdog);
    let (_image, disk) = k.into_crash_artifacts();
    let (mut k2, _) = Kernel::cold_boot(&config, disk).unwrap();
    assert_eq!(k2.file_contents("/wt.dat").unwrap(), data);
}

#[test]
fn warm_reboot_drops_page_marked_changing() {
    // A crash in the middle of a page write leaves the registry entry
    // CHANGING; the scanner must drop that page (§3.2) but keep others.
    let (mut k, config) = rio_kernel(RioMode::Protected);
    let fd = k.create("/a.dat").unwrap();
    k.write(fd, &vec![1u8; 8192]).unwrap();
    let fd2 = k.create("/b.dat").unwrap();
    k.write(fd2, &vec![2u8; 8192]).unwrap();

    // Simulate the mid-write crash by hand-setting CHANGING on b's page,
    // then crashing.
    {
        use rio_core::{EntryFlags, Registry};
        let layout = *k.machine.bus.layout();
        let registry = Registry::new(layout);
        // Find b.dat's page: scan entries for ino of b.
        let b_ino = k.stat("/b.dat").unwrap().ino;
        let mut found = false;
        for slot in 0..registry.num_entries() {
            if let Ok(Some(mut e)) = registry.read_entry(k.machine.bus.mem(), slot) {
                if e.ino == b_ino && !e.flags.contains(EntryFlags::METADATA) {
                    e.flags = e.flags.with(EntryFlags::CHANGING);
                    let bytes = e.encode();
                    let addr = registry.entry_addr(slot);
                    k.machine.bus.mem_mut().write_bytes(addr, &bytes);
                    found = true;
                }
            }
        }
        assert!(found, "b.dat page registered");
    }
    k.crash_now(PanicReason::Watchdog);
    let (image, disk) = k.into_crash_artifacts();
    let (mut k2, report) = Kernel::warm_boot(&config, &image, disk).unwrap();
    let warm = report.warm.unwrap();
    assert_eq!(warm.dropped_changing, 1);
    // a.dat intact; b.dat exists (metadata survived) but its data page was
    // dropped — reads as zeros/short.
    assert_eq!(k2.file_contents("/a.dat").unwrap(), vec![1u8; 8192]);
    let b = k2.file_contents("/b.dat").unwrap();
    assert_ne!(b, vec![2u8; 8192], "b's changing page must not be restored");
}

#[test]
fn wild_store_corruption_is_detected_by_checksum() {
    // Direct corruption of a dirty file page (a wild store) must be caught
    // by the registry CRC at warm reboot and the page dropped.
    let (mut k, config) = rio_kernel(RioMode::Unprotected);
    let fd = k.create("/victim.dat").unwrap();
    k.write(fd, &vec![7u8; 8192]).unwrap();
    // The wild store: flip bits in the UBC page behind the kernel's back.
    let ubc_start = k.machine.bus.layout().ubc.start;
    k.machine.bus.mem_mut().flip_bit(ubc_start + 1234, 4);
    k.crash_now(PanicReason::Watchdog);
    let (image, disk) = k.into_crash_artifacts();
    let (_k2, report) = Kernel::warm_boot(&config, &image, disk).unwrap();
    let warm = report.warm.unwrap();
    assert_eq!(warm.dropped_bad_crc, 1, "checksum catches the wild store");
}

#[test]
fn protection_blocks_wild_kseg_store_before_it_corrupts() {
    // With protection on, the same wild store through the kernel's own
    // store path traps instead of landing.
    let (mut k, _) = rio_kernel(RioMode::Protected);
    let fd = k.create("/safe.dat").unwrap();
    k.write(fd, &vec![9u8; 4096]).unwrap();
    let ubc_start = k.machine.bus.layout().ubc.start;
    let err = k
        .machine
        .bus
        .store_u8(rio_mem::AddrKind::Kseg, ubc_start + 10, 0xFF)
        .unwrap_err();
    assert!(matches!(err, rio_mem::MemFault::ProtectionViolation { .. }));
    // Data unharmed.
    assert_eq!(k.file_contents("/safe.dat").unwrap(), vec![9u8; 4096]);
}

#[test]
fn rio_protection_stats_count_windows() {
    let (mut k, _) = rio_kernel(RioMode::Protected);
    let fd = k.create("/w.dat").unwrap();
    k.write(fd, b"x").unwrap();
    let stats = k.rio_stats().expect("rio on");
    assert!(stats.windows_opened > 0);
}

#[test]
fn metadata_survives_via_registry_restore() {
    // Even with zero disk writes, a large directory tree must come back
    // from the warm reboot's metadata restore.
    let (mut k, config) = rio_kernel(RioMode::Protected);
    for d in 0..5 {
        k.mkdir(&format!("/d{d}")).unwrap();
        for f in 0..6 {
            let fd = k.create(&format!("/d{d}/f{f}")).unwrap();
            k.write(fd, format!("payload {d}/{f}").as_bytes()).unwrap();
            k.close(fd).unwrap();
        }
    }
    assert_eq!(k.machine.disk.stats().writes, 0);
    k.crash_now(PanicReason::Watchdog);
    let (image, disk) = k.into_crash_artifacts();
    let (mut k2, _) = Kernel::warm_boot(&config, &image, disk).unwrap();
    for d in 0..5 {
        assert_eq!(k2.readdir(&format!("/d{d}")).unwrap().len(), 6);
        for f in 0..6 {
            assert_eq!(
                k2.file_contents(&format!("/d{d}/f{f}")).unwrap(),
                format!("payload {d}/{f}").as_bytes()
            );
        }
    }
}
