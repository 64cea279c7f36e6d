//! Robustness properties: the recovery machinery must digest *any* garbage
//! a crash can leave behind — corrupt registries, shredded disks, random
//! instruction streams — without ever panicking the simulator itself.
//! (A real warm-reboot implementation has the same obligation: it parses
//! memory a sick kernel scribbled over.)

use rio::core::{warm, Registry};
use rio::det::proptest_lite::{check, Config, Gen};
use rio::det::{pt_assert, pt_assert_eq};
use rio::disk::{DiskModel, SimDisk, BLOCK_SIZE};
use rio::kernel::{fsck, Kernel, KernelConfig, PanicReason, Policy};
use rio::mem::{MemBus, MemConfig};

/// The warm-reboot scanner accepts any registry contents: random bytes
/// sprayed over the registry region must never panic the scanner, and
/// nothing unverifiable may be "recovered".
#[test]
fn scanner_survives_random_registry_garbage() {
    check(
        "scanner_survives_random_registry_garbage",
        Config::with_cases(32),
        |g: &mut Gen| {
            let writes: Vec<(u16, u8)> = g.vec(0, 300, |g| (g.u16(), g.u8()));
            let mut bus = MemBus::new(MemConfig::small());
            let reg = bus.layout().registry;
            for (off, byte) in writes {
                let addr = reg.start + (off as u64 % reg.len());
                bus.mem_mut().write_u8(addr, byte);
            }
            let image = bus.into_image();
            let recovery = warm::scan_registry(&image);
            let registry = Registry::new(*image.layout());
            // Whatever was recovered must at least be structurally sound:
            // a file page names its own slot's page, which the replay can
            // read its bytes from.
            for m in &recovery.metadata {
                pt_assert_eq!(m.data.len(), BLOCK_SIZE);
            }
            for p in &recovery.file_pages {
                pt_assert!(p.size as usize <= BLOCK_SIZE);
                pt_assert_eq!(p.page, registry.page_for_slot(p.slot));
                pt_assert!(image.in_bounds(p.page.base(), BLOCK_SIZE as u64));
            }
            Ok(())
        },
    );
}

/// fsck accepts any disk contents without panicking: random block
/// scribbles over a formatted volume are repaired or rejected, never
/// crash the tool.
#[test]
fn fsck_survives_random_disk_garbage() {
    check(
        "fsck_survives_random_disk_garbage",
        Config::with_cases(32),
        |g: &mut Gen| {
            let scribbles: Vec<(u64, u16, u8)> =
                g.vec(0, 60, |g| (g.in_range(0u64..256), g.u16(), g.u8()));
            let mut disk = SimDisk::new(256, DiskModel::instant());
            Kernel::format(&mut disk, &rio::kernel::DiskGeometry::new(256, 128, 8));
            for (block, off, byte) in scribbles {
                let mut data = disk.peek(block).to_vec();
                data[off as usize % BLOCK_SIZE] = byte;
                disk.poke(block, &data);
            }
            // Either repaired or a clean fatal error; never a host panic.
            match fsck::repair(&mut disk) {
                Ok(_) | Err(fsck::FsckError::BadSuperblock) => {}
            }
            Ok(())
        },
    );
}

/// A kernel whose text is completely shredded crashes *as a simulated
/// system* (panic reason recorded), never as a Rust process, and the
/// memory image remains scannable.
#[test]
fn shredded_kernel_text_crashes_cleanly() {
    check(
        "shredded_kernel_text_crashes_cleanly",
        Config::with_cases(24),
        |g: &mut Gen| {
            use rio::core::RioMode;
            let flips: Vec<(u32, u8)> = g.vec(1, 120, |g| (g.u32(), g.in_range(0u8..8)));
            let seed = g.u64();
            let config = KernelConfig::small(Policy::rio(RioMode::Protected));
            let mut k = Kernel::mkfs_and_mount(&config).unwrap();
            let fd = k.create("/x").unwrap();
            k.write(fd, &vec![9u8; 4096]).unwrap();
            k.close(fd).unwrap();
            // Shred live text bits.
            let bytes = k.machine.store.installed_instrs() * 8;
            let base = k.machine.store.text_base();
            for (off, bit) in flips {
                let addr = base + (off as u64 % bytes);
                k.machine.bus.mem_mut().flip_bit(addr, bit);
            }
            // Drive syscalls; every outcome must be a clean kernel-level error.
            for i in 0..20 {
                let path = format!("/y{seed}_{i}");
                match k.create(&path) {
                    Ok(fd) => {
                        let _ = k.write(fd, b"data");
                        let _ = k.close(fd);
                    }
                    Err(_) => break,
                }
            }
            if !k.is_crashed() {
                k.crash_now(PanicReason::Watchdog);
            }
            let (image, disk) = k.into_crash_artifacts();
            // The image is still scannable and a reboot path completes.
            let _ = warm::scan_registry(&image);
            let _ = Kernel::warm_boot(&config, &image, disk);
            Ok(())
        },
    );
}

/// Random interpreted programs terminate with a classified outcome.
#[test]
fn random_programs_never_escape_the_interpreter() {
    check(
        "random_programs_never_escape_the_interpreter",
        Config::with_cases(48),
        |g: &mut Gen| {
            use rio::cpu::{Assembler, Cpu, RoutineStore};
            let raw = g.bytes(8, 512);
            let mut bus = MemBus::new(MemConfig::small());
            let mut store = RoutineStore::new(bus.layout().text);
            // Install a placeholder routine, then overwrite it with raw bytes.
            let mut asm = Assembler::new();
            let instrs = raw.len() / 8;
            for _ in 0..instrs {
                asm.nop();
            }
            let handle = store.install(&mut bus, "fuzz", asm).unwrap();
            let base = store.instr_addr(handle.first_index);
            bus.mem_mut().write_bytes(base, &raw[..instrs * 8]);
            let mut cpu = Cpu::new();
            let result = cpu.run(&mut bus, &store, handle, 5_000);
            // Any of the three outcomes is fine; reaching here is the test.
            let _ = result.outcome;
            pt_assert!(result.steps <= 5_000);
            Ok(())
        },
    );
}

/// Regression for the word-wide `bcopy` fast path: an armed copy overrun
/// that runs off the open write window must trap on *exactly* the first
/// byte of the adjacent protected page — identical to the old bytewise
/// loop — with every legitimate byte before the boundary already written.
#[test]
fn wide_bcopy_overrun_traps_on_the_protected_page_base() {
    use rio::core::RioMode;
    use rio::kernel::{Cadence, OverrunSpec};
    use rio::mem::MemFault;

    let config = KernelConfig::small(Policy::rio(RioMode::Protected));
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    let fd = k.create("/victim").unwrap();
    k.write(fd, &vec![0u8; 2 * 8192]).unwrap();

    // Next bcopy copies 64 extra bytes: a 128-byte write ending exactly at
    // the page boundary overruns into the next (protected) physical page.
    k.machine.hooks.copy_overrun = Some(OverrunSpec::new(Cadence::every(1), vec![64]));
    let err = k.pwrite(fd, 8192 - 128, &[0x5Cu8; 128]).unwrap_err();
    assert!(
        matches!(err, rio::kernel::KernelError::Panic(_)),
        "got {err:?}"
    );

    let info = k.crash_info().expect("kernel recorded the crash").clone();
    let (addr, page) = match info.reason {
        rio::kernel::PanicReason::Mem(MemFault::ProtectionViolation { addr, page, .. }) => {
            (addr, page)
        }
        other => panic!("expected a protection trap, got {other:?}"),
    };
    // Exact-boundary parity: the fault lands on the protected page's first
    // byte, not mid-word and not later in the page.
    assert_eq!(addr, page.base(), "wide path must fault at the page base");
    let (image, _) = k.into_crash_artifacts();
    assert!(image.layout().ubc.contains(addr), "trap is inside the UBC");
    // All-or-nothing stores: the 128 legitimate bytes before the boundary
    // landed; the protected page saw none of the overrun.
    assert!(image.slice(addr - 128, 128).iter().all(|&b| b == 0x5C));
    assert!(image.page(page).iter().all(|&b| b == 0));
}

/// Regression for the sector checksum cache: a wild store into a sector
/// the cache was never told about must still be caught by the registry
/// CRC at warm reboot. (Recomputing the whole page from memory on the
/// next legitimate write would *absorb* the corruption into the checksum;
/// the cache derives the CRC from per-sector state instead, so the stale
/// sector keeps describing the legitimate contents.)
#[test]
fn stale_sector_corruption_is_caught_at_warm_reboot() {
    use rio::core::RioMode;
    use rio::mem::PageNum;

    let config = KernelConfig::small(Policy::rio(RioMode::Protected));
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    let fd = k.create("/f").unwrap();
    k.write(fd, &vec![0x42u8; 8192]).unwrap();
    assert_eq!(k.machine.disk.stats().writes, 0, "pure in-memory so far");

    // Locate the physical UBC page backing the file page.
    let ubc = k.machine.bus.layout().ubc;
    let page = ubc
        .page_numbers()
        .find(|&pn| k.machine.bus.mem().page(pn).iter().all(|&b| b == 0x42))
        .expect("file page resident in the UBC");

    // Wild store: flip one bit in sector 2, bypassing every kernel path —
    // the checksum cache never hears about it.
    k.machine
        .bus
        .mem_mut()
        .flip_bit(page.base() + 2 * 512 + 77, 3);

    // A legitimate write to a different sector re-derives the registry CRC
    // from cached sector state; sector 2's entry is stale (legitimate
    // contents), so the stored CRC cannot match the corrupted memory.
    k.pwrite(fd, 13 * 512, &[0x7Eu8; 100]).unwrap();

    k.crash_now(PanicReason::Watchdog);
    let (image, disk) = k.into_crash_artifacts();
    let corrupted: Vec<u8> = image.page(PageNum::containing(page.base())).to_vec();
    let (mut k2, report) = Kernel::warm_boot(&config, &image, disk).unwrap();
    let warm = report.warm.expect("warm reboot ran");
    assert!(
        warm.dropped_bad_crc >= 1,
        "corrupted page must fail its CRC check: {warm:?}"
    );
    // The corrupted bytes are never served back to the user.
    if let Ok(data) = k2.file_contents("/f") {
        assert_ne!(data, corrupted, "corruption propagated through reboot");
    }
}
