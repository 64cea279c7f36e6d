//! Warm reboot: recovering the file cache from a preserved memory image.
//!
//! §2.2 performs the warm reboot in two steps. Before the VM and file
//! system initialize, the booting kernel dumps physical memory and restores
//! metadata blocks to their disk addresses (so the file system is intact
//! before fsck). After boot, a user-level process analyzes the dump and
//! restores file data through normal `open`/`write` system calls.
//!
//! This module is the analysis half: [`scan_registry`] walks the preserved
//! image's registry and classifies every entry, and [`commit_restored`] /
//! [`commit_replayed`] mark recovery progress in the image. The restore
//! itself — metadata blocks back to their disk addresses, then the
//! syscall replay of file data — lives in the kernel crate (`rio_kernel`,
//! `Kernel::warm_boot_resumable`), which owns the disk and the syscalls,
//! mirroring the paper's split between the boot-time dump and the
//! user-level restore process.
//!
//! Entries are *dropped* (not restored) when they cannot be trusted:
//! marked `CHANGING` at the crash (mid-write, unidentifiable per §3.2),
//! bad magic, an inconsistent slot/page mapping, or a checksum mismatch
//! against the page contents. Dropped dirty data is lost data — exactly how
//! direct memory corruption becomes visible to the reliability experiments
//! even though a warm reboot ran.

use crate::registry::{EntryFlags, Registry, RegistryEntry, RegistryError};
use rio_mem::{crc32, PageNum, PhysMem, PAGE_SIZE};

/// A dirty file-data page recovered from the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredFilePage {
    /// Registry slot describing this page (progress commits key on it).
    pub slot: u64,
    /// Device number.
    pub dev: u32,
    /// Inode number.
    pub ino: u64,
    /// File offset of the page's first byte.
    pub offset: u64,
    /// Valid bytes.
    pub size: u32,
    /// The image page holding the recovered bytes, the first `size` of
    /// it, checked against the entry's CRC where they lie: the replay
    /// reads them from there, so the scan copies nothing. Not to be read
    /// when `already_replayed` — the durable copy is on disk and the
    /// image copy is no longer trusted.
    pub page: PageNum,
    /// A previous recovery attempt already replayed and synced this page
    /// ([`EntryFlags::REPLAYED`]); the resumed replay skips it.
    pub already_replayed: bool,
}

/// A dirty metadata block recovered from the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredMetadata {
    /// Registry slot describing this block (progress commits key on it).
    pub slot: u64,
    /// Disk block number to restore to.
    pub block: u64,
    /// Full block contents. When the entry had an active shadow, these are
    /// the shadow's contents — the last *consistent* version (§2.3). Empty
    /// when `already_restored`.
    pub data: Vec<u8>,
    /// Whether the contents came from a shadow page.
    pub from_shadow: bool,
    /// A previous recovery attempt already restored this block
    /// ([`EntryFlags::RESTORED`]); re-poking it would overwrite any fsck
    /// repairs made since, so the resumed restore skips it.
    pub already_restored: bool,
}

/// Scanner accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmRebootStats {
    /// Registry slots examined.
    pub slots_scanned: u64,
    /// Live entries found.
    pub valid_entries: u64,
    /// Clean entries skipped (disk already holds the data).
    pub clean_skipped: u64,
    /// Dirty entries dropped: marked CHANGING at the crash.
    pub dropped_changing: u64,
    /// Entries dropped: corrupt magic.
    pub dropped_bad_magic: u64,
    /// Entries dropped: slot/page mapping inconsistent or size impossible.
    pub dropped_inconsistent: u64,
    /// Dirty entries dropped: page contents fail their checksum (direct
    /// corruption detected).
    pub dropped_bad_crc: u64,
    /// Metadata blocks recovered.
    pub metadata_recovered: u64,
    /// File pages recovered.
    pub file_pages_recovered: u64,
    /// Metadata entries recognized as already durably restored by an
    /// earlier (interrupted) recovery attempt.
    pub committed_restored: u64,
    /// File pages recognized as already durably replayed by an earlier
    /// (interrupted) recovery attempt.
    pub committed_replayed: u64,
}

impl WarmRebootStats {
    /// Total entries dropped for any reason.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_changing
            + self.dropped_bad_magic
            + self.dropped_inconsistent
            + self.dropped_bad_crc
    }

    /// Entries quarantined as *corrupt* (bad magic, inconsistent mapping,
    /// or checksum mismatch) rather than merely unidentifiable
    /// (`CHANGING`). This is the scanner's detection channel for direct
    /// corruption and for outage-window memory decay: the damage is
    /// counted and the entry dropped, never silently restored.
    pub fn quarantined(&self) -> u64 {
        self.dropped_bad_magic + self.dropped_inconsistent + self.dropped_bad_crc
    }
}

/// Everything the warm reboot recovered from one memory image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Metadata blocks to restore before fsck.
    pub metadata: Vec<RecoveredMetadata>,
    /// File pages for the user-level replay.
    pub file_pages: Vec<RecoveredFilePage>,
    /// Accounting.
    pub stats: WarmRebootStats,
}

/// Scans the preserved memory image's registry (§2.2's dump analysis).
pub fn scan_registry(image: &PhysMem) -> Recovery {
    let registry = Registry::new(*image.layout());
    let mut out = Recovery::default();
    for slot in 0..registry.num_entries() {
        out.stats.slots_scanned += 1;
        let entry = match registry.read_entry(image, slot) {
            Ok(None) => continue,
            Ok(Some(e)) => e,
            Err(RegistryError::BadMagic(_)) => {
                out.stats.dropped_bad_magic += 1;
                continue;
            }
            Err(_) => {
                out.stats.dropped_inconsistent += 1;
                continue;
            }
        };
        if !entry.flags.contains(EntryFlags::VALID) {
            continue;
        }
        out.stats.valid_entries += 1;
        if !entry.flags.contains(EntryFlags::DIRTY) {
            out.stats.clean_skipped += 1;
            continue;
        }
        // Progress commits from an earlier, interrupted recovery attempt:
        // the entry's payload is already durable on disk, so the image
        // copy no longer matters (it may even have decayed in the outage
        // window since it was applied). Record the entry so the resumed
        // pipeline keeps its ordering, but carry no data and skip the
        // content checks.
        if entry.flags.contains(EntryFlags::METADATA) && entry.flags.contains(EntryFlags::RESTORED)
        {
            out.stats.committed_restored += 1;
            out.metadata.push(RecoveredMetadata {
                slot,
                block: entry.ino,
                data: Vec::new(),
                from_shadow: entry.flags.contains(EntryFlags::SHADOW),
                already_restored: true,
            });
            continue;
        }
        if !entry.flags.contains(EntryFlags::METADATA) && entry.flags.contains(EntryFlags::REPLAYED)
        {
            out.stats.committed_replayed += 1;
            out.file_pages.push(RecoveredFilePage {
                slot,
                dev: entry.dev,
                ino: entry.ino,
                offset: entry.offset,
                size: entry.size,
                page: registry.page_for_slot(slot),
                already_replayed: true,
            });
            continue;
        }
        if entry.flags.contains(EntryFlags::CHANGING) {
            out.stats.dropped_changing += 1;
            continue;
        }
        // Direct-mapped invariant: the entry must describe its own slot.
        let expected_page = registry.page_for_slot(slot);
        if entry.phys_page as u64 != expected_page.0 || entry.size as usize > PAGE_SIZE {
            out.stats.dropped_inconsistent += 1;
            continue;
        }
        let is_meta = entry.flags.contains(EntryFlags::METADATA);
        let source_page = if is_meta && entry.flags.contains(EntryFlags::SHADOW) {
            // Mid-update crash: recover the shadow (old consistent copy).
            let shadow = PageNum(entry.offset);
            if !image.layout().buffer_cache.contains(shadow.base()) {
                out.stats.dropped_inconsistent += 1;
                continue;
            }
            shadow
        } else {
            expected_page
        };
        let page = image.page(source_page);
        let size = entry.size as usize;
        // Shadowed entries keep the CRC of the pre-update contents, which is
        // exactly what the shadow holds — so one check covers both paths.
        if crc32(&page[..size]) != entry.crc {
            out.stats.dropped_bad_crc += 1;
            continue;
        }
        if is_meta {
            out.stats.metadata_recovered += 1;
            out.metadata.push(RecoveredMetadata {
                slot,
                block: entry.ino,
                data: page.to_vec(),
                from_shadow: entry.flags.contains(EntryFlags::SHADOW),
                already_restored: false,
            });
        } else {
            out.stats.file_pages_recovered += 1;
            out.file_pages.push(RecoveredFilePage {
                slot,
                dev: entry.dev,
                ino: entry.ino,
                offset: entry.offset,
                size: entry.size,
                page: source_page,
                already_replayed: false,
            });
        }
    }
    out
}

/// Commits recovery progress into the preserved image: sets `flag` on
/// slot's registry entry. Runs before the file system initializes, when no
/// protection is installed, so it writes the DRAM cells directly — exactly
/// like the boot-time dump analysis the paper describes.
///
/// A slot that no longer decodes (decayed magic) is left alone; the scan
/// will quarantine it.
fn commit_flag(image: &mut PhysMem, registry: &Registry, slot: u64, flag: EntryFlags) {
    let addr = registry.entry_addr(slot);
    let mut raw = [0u8; crate::registry::ENTRY_BYTES as usize];
    image.copy_out(addr, &mut raw);
    if let Ok(Some(mut entry)) = RegistryEntry::decode(&raw) {
        entry.flags = entry.flags.with(flag);
        image.write_bytes(addr, &entry.encode());
    }
}

/// Marks a metadata entry as durably restored ([`EntryFlags::RESTORED`]).
/// Call only *after* the block write reached the platters.
pub fn commit_restored(image: &mut PhysMem, registry: &Registry, slot: u64) {
    commit_flag(image, registry, slot, EntryFlags::RESTORED);
}

/// Marks a file page as durably replayed ([`EntryFlags::REPLAYED`]). Call
/// only *after* a flush that covers the replayed write — and the metadata
/// that reaches it — has drained the disk queue; one flush may stand
/// behind any number of commits.
pub fn commit_replayed(image: &mut PhysMem, registry: &Registry, slot: u64) {
    commit_flag(image, registry, slot, EntryFlags::REPLAYED);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::{ProtectionManager, RioMode};
    use crate::shadow::ShadowPool;
    use rio_mem::{AddrKind, MemBus, MemConfig};

    fn bus_with_registry() -> (MemBus, Registry, ProtectionManager) {
        let mut bus = MemBus::new(MemConfig::small());
        let registry = Registry::new(*bus.layout());
        let prot = ProtectionManager::new(RioMode::Unprotected);
        prot.install(&mut bus);
        (bus, registry, ProtectionManager::new(RioMode::Unprotected))
    }

    #[allow(clippy::too_many_arguments)] // test fixture
    fn write_page_and_entry(
        bus: &mut MemBus,
        registry: &Registry,
        prot: &mut ProtectionManager,
        slot: u64,
        flags: EntryFlags,
        ino: u64,
        fill: u8,
        size: u32,
    ) -> RegistryEntry {
        let page = registry.page_for_slot(slot);
        bus.store_bytes(AddrKind::Virtual, page.base(), &vec![fill; size as usize])
            .unwrap();
        let mut e = RegistryEntry {
            flags,
            phys_page: page.0 as u32,
            dev: 1,
            ino,
            offset: 0,
            size,
            crc: 0,
        };
        registry.update_crc(bus, prot, slot, &mut e).unwrap();
        e
    }

    #[test]
    fn scanner_recovers_dirty_file_page() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        // Pick a UBC slot (slot of the first UBC page).
        let ubc_slot = registry
            .slot_for_page(PageNum::containing(bus.layout().ubc.start))
            .unwrap();
        write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            ubc_slot,
            EntryFlags::VALID | EntryFlags::DIRTY,
            42,
            0xCD,
            1000,
        );
        let image = bus.into_image();
        let rec = scan_registry(&image);
        assert_eq!(rec.stats.file_pages_recovered, 1);
        let p = &rec.file_pages[0];
        assert_eq!((p.ino, p.size), (42, 1000));
        assert_eq!(p.page, registry.page_for_slot(ubc_slot));
        assert_eq!(image.page(p.page)[..1000], [0xCD; 1000]);
        assert_eq!(rec.stats.total_dropped(), 0);
    }

    #[test]
    fn clean_entries_are_skipped() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            0,
            EntryFlags::VALID,
            7,
            1,
            64,
        );
        let rec = scan_registry(&bus.into_image());
        assert_eq!(rec.stats.clean_skipped, 1);
        assert!(rec.file_pages.is_empty() && rec.metadata.is_empty());
    }

    #[test]
    fn changing_entries_are_dropped() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            0,
            EntryFlags::VALID | EntryFlags::DIRTY | EntryFlags::CHANGING,
            7,
            1,
            64,
        );
        let rec = scan_registry(&bus.into_image());
        assert_eq!(rec.stats.dropped_changing, 1);
        assert!(rec.file_pages.is_empty());
    }

    #[test]
    fn corrupted_page_fails_crc_and_is_dropped() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        let slot = registry
            .slot_for_page(PageNum::containing(bus.layout().ubc.start))
            .unwrap();
        write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            slot,
            EntryFlags::VALID | EntryFlags::DIRTY,
            42,
            0xCD,
            1000,
        );
        // Direct corruption after the legitimate write: a wild store.
        let page = registry.page_for_slot(slot);
        bus.mem_mut().flip_bit(page.base() + 500, 2);
        let rec = scan_registry(&bus.into_image());
        assert_eq!(rec.stats.dropped_bad_crc, 1);
        assert!(rec.file_pages.is_empty());
    }

    #[test]
    fn corrupted_entry_magic_is_dropped() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            3,
            EntryFlags::VALID | EntryFlags::DIRTY,
            5,
            9,
            10,
        );
        bus.mem_mut().flip_bit(registry.entry_addr(3), 0);
        let rec = scan_registry(&bus.into_image());
        assert_eq!(rec.stats.dropped_bad_magic, 1);
    }

    #[test]
    fn dirty_metadata_recovers_its_block_and_contents() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            1,
            EntryFlags::VALID | EntryFlags::DIRTY | EntryFlags::METADATA,
            /*disk block*/ 6,
            0xB7,
            PAGE_SIZE as u32,
        );
        let rec = scan_registry(&bus.into_image());
        assert_eq!(rec.stats.metadata_recovered, 1);
        let m = &rec.metadata[0];
        assert_eq!((m.slot, m.block), (1, 6));
        assert!(!m.already_restored && !m.from_shadow);
        assert_eq!(m.data, vec![0xB7; PAGE_SIZE]);
    }

    #[test]
    fn shadowed_metadata_recovers_old_contents() {
        let mut bus = MemBus::new(MemConfig::small());
        let registry = Registry::new(*bus.layout());
        let mut prot = ProtectionManager::new(RioMode::Protected);
        prot.install(&mut bus);
        let mut pool = ShadowPool::new(bus.layout(), 2);
        let slot = 0u64;
        let page = registry.page_for_slot(slot);

        // Consistent contents, then begin an atomic update and crash
        // mid-mutation.
        prot.with_window(&mut bus, page, |bus| {
            bus.store_bytes(AddrKind::Virtual, page.base(), &[0xAAu8; 128])
        })
        .unwrap();
        let mut e = RegistryEntry {
            flags: EntryFlags::VALID | EntryFlags::DIRTY | EntryFlags::METADATA,
            phys_page: page.0 as u32,
            dev: 1,
            ino: 8,
            offset: 0,
            size: PAGE_SIZE as u32,
            crc: 0,
        };
        registry
            .update_crc(&mut bus, &mut prot, slot, &mut e)
            .unwrap();
        pool.begin_atomic(&mut bus, &mut prot, &registry, slot, &mut e)
            .unwrap()
            .unwrap();
        // Half-finished mutation of the original buffer.
        prot.with_window(&mut bus, page, |bus| {
            bus.store_bytes(AddrKind::Virtual, page.base(), &[0xBBu8; 64])
        })
        .unwrap();

        // Crash now: scanner must recover the shadow's 0xAA contents.
        let rec = scan_registry(&bus.into_image());
        assert_eq!(rec.stats.metadata_recovered, 1);
        assert!(rec.metadata[0].from_shadow);
        assert!(rec.metadata[0].data[..128].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn inconsistent_phys_page_is_dropped() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        let mut e = write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            2,
            EntryFlags::VALID | EntryFlags::DIRTY,
            5,
            1,
            10,
        );
        e.phys_page += 1; // entry now lies about its page
        registry.write_entry(&mut bus, &mut prot, 2, &e).unwrap();
        let rec = scan_registry(&bus.into_image());
        assert_eq!(rec.stats.dropped_inconsistent, 1);
    }

    #[test]
    fn committed_replayed_page_is_skipped_even_when_decayed() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        let slot = registry
            .slot_for_page(PageNum::containing(bus.layout().ubc.start))
            .unwrap();
        write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            slot,
            EntryFlags::VALID | EntryFlags::DIRTY,
            42,
            0xCD,
            1000,
        );
        let mut image = bus.into_image();
        commit_replayed(&mut image, &registry, slot);
        // Outage-window decay of the page after the durable replay: must
        // NOT be quarantined — the flag says the disk already holds it.
        let page = registry.page_for_slot(slot);
        image.flip_bit(page.base() + 10, 3);
        let rec = scan_registry(&image);
        assert_eq!(rec.stats.committed_replayed, 1);
        assert_eq!(rec.stats.dropped_bad_crc, 0);
        assert_eq!(rec.stats.file_pages_recovered, 0);
        assert!(rec.file_pages[0].already_replayed);
    }

    #[test]
    fn committed_restored_metadata_is_not_repoked() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            1,
            EntryFlags::VALID | EntryFlags::DIRTY | EntryFlags::METADATA,
            6,
            0xB7,
            PAGE_SIZE as u32,
        );
        let mut image = bus.into_image();
        commit_restored(&mut image, &registry, 1);
        let rec = scan_registry(&image);
        assert_eq!(rec.stats.committed_restored, 1);
        assert_eq!(rec.stats.metadata_recovered, 0);
        // The restore must leave the (say, fsck-repaired) disk block
        // alone: the entry is flagged, and carries no bytes to poke.
        let m = &rec.metadata[0];
        assert_eq!(m.block, 6);
        assert!(m.already_restored);
        assert!(m.data.is_empty());
    }

    #[test]
    fn commit_flag_survives_rescan_and_is_idempotent() {
        let (mut bus, registry, mut prot) = bus_with_registry();
        let slot = registry
            .slot_for_page(PageNum::containing(bus.layout().ubc.start))
            .unwrap();
        write_page_and_entry(
            &mut bus,
            &registry,
            &mut prot,
            slot,
            EntryFlags::VALID | EntryFlags::DIRTY,
            9,
            5,
            64,
        );
        let mut image = bus.into_image();
        commit_replayed(&mut image, &registry, slot);
        commit_replayed(&mut image, &registry, slot);
        let a = scan_registry(&image);
        let b = scan_registry(&image);
        assert_eq!(a.file_pages, b.file_pages);
        assert_eq!(a.metadata, b.metadata);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stats.committed_replayed, 1);
    }

    #[test]
    fn empty_image_recovers_nothing() {
        let bus = MemBus::new(MemConfig::small());
        let rec = scan_registry(&bus.into_image());
        assert_eq!(rec.stats.valid_entries, 0);
        assert!(rec.metadata.is_empty());
        assert!(rec.file_pages.is_empty());
        assert!(rec.stats.slots_scanned > 0);
    }
}
