//! The Rio registry: 40 bytes of protected bookkeeping per file-cache page.
//!
//! §2.2: *"we keep and protect a separate area of memory, which we call the
//! registry, that contains all information needed to find, identify, and
//! restore files in memory. For each buffer in the file cache, the registry
//! contains the physical memory address, file id (device number and inode
//! number), file offset, and size ... only 40 bytes of information are
//! needed for each 8 KB file cache page."*
//!
//! The registry is **direct-mapped**: file-cache page *k* (counting from the
//! first buffer-cache page) owns slot *k*. No allocation structures exist to
//! be corrupted, and the warm-reboot scanner can interpret the region with
//! nothing but the memory layout.

use crate::protection::ProtectionManager;
use rio_mem::{crc32, MemBus, MemLayout, PageNum, PhysMem, Region, PAGE_SIZE};

/// Bytes per registry entry (the paper's 40).
pub const ENTRY_BYTES: u64 = 40;

/// Magic tag identifying a live entry ("RIOR").
pub const REG_MAGIC: u32 = 0x5249_4F52;

/// Entry flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EntryFlags(pub u32);

impl EntryFlags {
    /// Entry describes a live buffer.
    pub const VALID: EntryFlags = EntryFlags(1 << 0);
    /// Buffer holds data newer than disk.
    pub const DIRTY: EntryFlags = EntryFlags(1 << 1);
    /// Buffer was being modified — contents unidentifiable after a crash
    /// (§3.2: such blocks "cannot be identified as corrupt or intact").
    pub const CHANGING: EntryFlags = EntryFlags(1 << 2);
    /// Buffer is metadata (buffer cache); `ino` holds its disk block number.
    pub const METADATA: EntryFlags = EntryFlags(1 << 3);
    /// A shadow copy is active; `offset` holds the shadow page number and
    /// the shadow holds the last consistent contents (§2.3 atomic updates).
    pub const SHADOW: EntryFlags = EntryFlags(1 << 4);
    /// Recovery progress commit: this metadata entry's block has been
    /// durably restored to its disk address by a warm-reboot attempt. A
    /// recovery that re-crashes and resumes skips the block instead of
    /// re-poking it over any fsck repairs that followed the restore.
    pub const RESTORED: EntryFlags = EntryFlags(1 << 5);
    /// Recovery progress commit: this file page has been replayed through
    /// system calls *and synced to disk* by a warm-reboot attempt. Once
    /// set, losing or decaying the in-memory copy loses nothing — the
    /// durable copy is on the platters — so a resumed recovery skips it.
    pub const REPLAYED: EntryFlags = EntryFlags(1 << 6);

    /// Whether all bits of `other` are set in `self`.
    pub fn contains(self, other: EntryFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of flag sets.
    pub fn with(self, other: EntryFlags) -> EntryFlags {
        EntryFlags(self.0 | other.0)
    }

    /// Removes `other`'s bits.
    pub fn without(self, other: EntryFlags) -> EntryFlags {
        EntryFlags(self.0 & !other.0)
    }
}

impl std::ops::BitOr for EntryFlags {
    type Output = EntryFlags;
    fn bitor(self, rhs: EntryFlags) -> EntryFlags {
        self.with(rhs)
    }
}

/// One decoded registry entry.
///
/// Wire format (little-endian, 40 bytes):
/// `magic:u32, flags:u32, phys_page:u32, dev:u32, ino:u64, offset:u64,
/// size:u32, crc:u32`.
///
/// For file-data entries, (`dev`, `ino`, `offset`) identify the file bytes
/// and `crc` checksums the page contents (§3.2's corruption detector). For
/// metadata entries, `ino` is the disk block number and `offset` is the
/// shadow page number when [`EntryFlags::SHADOW`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryEntry {
    /// State bits.
    pub flags: EntryFlags,
    /// Physical page number holding the buffer.
    pub phys_page: u32,
    /// Device number.
    pub dev: u32,
    /// Inode number (file data) or disk block number (metadata).
    pub ino: u64,
    /// File offset in bytes (file data) or shadow page number (metadata
    /// with an active shadow).
    pub offset: u64,
    /// Valid bytes in the page.
    pub size: u32,
    /// CRC32 of the page's first `size` bytes at last legitimate write.
    pub crc: u32,
}

impl RegistryEntry {
    /// Encodes to the 40-byte wire format.
    pub fn encode(&self) -> [u8; ENTRY_BYTES as usize] {
        let mut b = [0u8; ENTRY_BYTES as usize];
        b[0..4].copy_from_slice(&REG_MAGIC.to_le_bytes());
        b[4..8].copy_from_slice(&self.flags.0.to_le_bytes());
        b[8..12].copy_from_slice(&self.phys_page.to_le_bytes());
        b[12..16].copy_from_slice(&self.dev.to_le_bytes());
        b[16..24].copy_from_slice(&self.ino.to_le_bytes());
        b[24..32].copy_from_slice(&self.offset.to_le_bytes());
        b[32..36].copy_from_slice(&self.size.to_le_bytes());
        b[36..40].copy_from_slice(&self.crc.to_le_bytes());
        b
    }

    /// Decodes from the wire format.
    ///
    /// Returns `Ok(None)` for an all-zero (never used) slot.
    ///
    /// # Errors
    ///
    /// [`RegistryError::BadMagic`] when the slot is non-zero but does not
    /// carry the magic tag — the warm reboot discards such entries.
    pub fn decode(b: &[u8]) -> Result<Option<RegistryEntry>, RegistryError> {
        assert_eq!(b.len(), ENTRY_BYTES as usize);
        if b.iter().all(|&x| x == 0) {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(b[0..4].try_into().expect("4 bytes"));
        if magic != REG_MAGIC {
            return Err(RegistryError::BadMagic(magic));
        }
        Ok(Some(RegistryEntry {
            flags: EntryFlags(u32::from_le_bytes(b[4..8].try_into().expect("4 bytes"))),
            phys_page: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
            dev: u32::from_le_bytes(b[12..16].try_into().expect("4 bytes")),
            ino: u64::from_le_bytes(b[16..24].try_into().expect("8 bytes")),
            offset: u64::from_le_bytes(b[24..32].try_into().expect("8 bytes")),
            size: u32::from_le_bytes(b[32..36].try_into().expect("4 bytes")),
            crc: u32::from_le_bytes(b[36..40].try_into().expect("4 bytes")),
        }))
    }
}

/// Registry failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// Entry bytes are corrupt (wrong magic).
    BadMagic(u32),
    /// The page is not covered by the registry (not a file-cache page).
    NotCovered(PageNum),
    /// The registry region is too small for the file cache (configuration
    /// error, caught at boot).
    TooSmall {
        /// Entries needed.
        needed: u64,
        /// Entries available.
        available: u64,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::BadMagic(m) => write!(f, "registry entry has bad magic {m:#010x}"),
            RegistryError::NotCovered(p) => write!(f, "{p} is not a file-cache page"),
            RegistryError::TooSmall { needed, available } => write!(
                f,
                "registry too small: need {needed} entries, have room for {available}"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The direct-mapped registry over a memory layout.
///
/// Covers every buffer-cache and UBC page (they are contiguous by
/// construction of [`MemLayout`]).
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    region: Region,
    first_covered_page: u64,
    num_entries: u64,
}

impl Registry {
    /// Builds the registry view for a layout.
    ///
    /// # Panics
    ///
    /// Panics if the registry region cannot hold one entry per file-cache
    /// page — a mis-sized [`rio_mem::MemConfig`], caught at boot.
    pub fn new(layout: MemLayout) -> Self {
        let first = layout.buffer_cache.start / PAGE_SIZE as u64;
        let last = layout.ubc.end / PAGE_SIZE as u64;
        let needed = last - first;
        let available = layout.registry.len() / ENTRY_BYTES;
        assert!(
            needed <= available,
            "registry too small: need {needed} entries, have {available}"
        );
        Registry {
            region: layout.registry,
            first_covered_page: first,
            num_entries: needed,
        }
    }

    /// Number of covered file-cache pages.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// The registry's memory region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Slot index for a file-cache page, or `None` if not covered.
    pub fn slot_for_page(&self, pn: PageNum) -> Option<u64> {
        let idx = pn.0.checked_sub(self.first_covered_page)?;
        (idx < self.num_entries).then_some(idx)
    }

    /// The page a slot describes (inverse of [`Registry::slot_for_page`]).
    pub fn page_for_slot(&self, slot: u64) -> PageNum {
        PageNum(self.first_covered_page + slot)
    }

    /// Byte address of a slot's entry.
    pub fn entry_addr(&self, slot: u64) -> u64 {
        self.region.start + slot * ENTRY_BYTES
    }

    /// Reads a slot from raw memory (used by the warm-reboot scanner and by
    /// checks; reads need no protection window).
    ///
    /// # Errors
    ///
    /// [`RegistryError::BadMagic`] if the slot bytes are corrupt.
    pub fn read_entry(
        &self,
        mem: &PhysMem,
        slot: u64,
    ) -> Result<Option<RegistryEntry>, RegistryError> {
        let addr = self.entry_addr(slot);
        // 40-byte entries pack at stride 40, so some straddle a page
        // boundary; copy out instead of borrowing.
        let mut raw = [0u8; ENTRY_BYTES as usize];
        mem.copy_out(addr, &mut raw);
        RegistryEntry::decode(&raw)
    }

    /// Writes a slot through the protected path: opens a write window on
    /// the registry page, stores the entry, closes the window.
    ///
    /// # Errors
    ///
    /// Propagates bus faults (cannot happen for in-range slots with a
    /// healthy protection manager; *can* happen when fault injection has
    /// corrupted protection state — the kernel panics on it).
    pub fn write_entry(
        &self,
        bus: &mut MemBus,
        prot: &mut ProtectionManager,
        slot: u64,
        entry: &RegistryEntry,
    ) -> Result<(), rio_mem::MemFault> {
        let addr = self.entry_addr(slot);
        let bytes = entry.encode();
        // A 40-byte entry can straddle a registry page boundary (8192 is
        // not a multiple of 40): window every page the entry touches.
        let pages = [
            PageNum::containing(addr),
            PageNum::containing(addr + ENTRY_BYTES - 1),
        ];
        prot.with_window_span(bus, &pages, |bus| {
            bus.store_bytes(rio_mem::AddrKind::Virtual, addr, &bytes)
        })
    }

    /// Clears a slot (buffer evicted) through the protected path.
    ///
    /// # Errors
    ///
    /// As [`Registry::write_entry`].
    pub fn clear_entry(
        &self,
        bus: &mut MemBus,
        prot: &mut ProtectionManager,
        slot: u64,
    ) -> Result<(), rio_mem::MemFault> {
        let addr = self.entry_addr(slot);
        let pages = [
            PageNum::containing(addr),
            PageNum::containing(addr + ENTRY_BYTES - 1),
        ];
        prot.with_window_span(bus, &pages, |bus| {
            bus.store_bytes(
                rio_mem::AddrKind::Virtual,
                addr,
                &[0u8; ENTRY_BYTES as usize],
            )
        })
    }

    /// Recomputes and stores the data CRC for a slot whose page was just
    /// legitimately written. `size` is the number of valid bytes.
    ///
    /// # Errors
    ///
    /// As [`Registry::write_entry`].
    pub fn update_crc(
        &self,
        bus: &mut MemBus,
        prot: &mut ProtectionManager,
        slot: u64,
        entry: &mut RegistryEntry,
    ) -> Result<(), rio_mem::MemFault> {
        let page = self.page_for_slot(slot);
        let len = (entry.size as u64).min(PAGE_SIZE as u64);
        entry.crc = crc32(&bus.mem().page(page)[..len as usize]);
        self.write_entry(bus, prot, slot, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::RioMode;
    use rio_mem::{MemConfig, MemLayout};

    fn layout() -> MemLayout {
        MemLayout::new(MemConfig::small())
    }

    fn sample_entry() -> RegistryEntry {
        RegistryEntry {
            flags: EntryFlags::VALID | EntryFlags::DIRTY,
            phys_page: 77,
            dev: 1,
            ino: 42,
            offset: 16384,
            size: 8192,
            crc: 0xABCD_EF01,
        }
    }

    #[test]
    fn entry_wire_format_is_40_bytes_and_round_trips() {
        let e = sample_entry();
        let b = e.encode();
        assert_eq!(b.len(), 40);
        let d = RegistryEntry::decode(&b).unwrap().unwrap();
        assert_eq!(d, e);
    }

    #[test]
    fn zero_slot_decodes_to_none() {
        assert_eq!(RegistryEntry::decode(&[0u8; 40]).unwrap(), None);
    }

    #[test]
    fn corrupt_magic_is_detected() {
        let mut b = sample_entry().encode();
        b[1] ^= 0xFF;
        assert!(matches!(
            RegistryEntry::decode(&b),
            Err(RegistryError::BadMagic(_))
        ));
    }

    #[test]
    fn flags_algebra() {
        let f = EntryFlags::VALID | EntryFlags::METADATA;
        assert!(f.contains(EntryFlags::VALID));
        assert!(f.contains(EntryFlags::METADATA));
        assert!(!f.contains(EntryFlags::DIRTY));
        let g = f.without(EntryFlags::METADATA);
        assert!(!g.contains(EntryFlags::METADATA));
        assert!(g.contains(EntryFlags::VALID));
    }

    #[test]
    fn registry_covers_all_file_cache_pages() {
        let l = layout();
        let r = Registry::new(l);
        let expected = (l.buffer_cache.len() + l.ubc.len()) / PAGE_SIZE as u64;
        assert_eq!(r.num_entries(), expected);
        // First buffer-cache page is slot 0; last UBC page is the last slot.
        assert_eq!(
            r.slot_for_page(PageNum::containing(l.buffer_cache.start)),
            Some(0)
        );
        assert_eq!(
            r.slot_for_page(PageNum::containing(l.ubc.end - 1)),
            Some(expected - 1)
        );
        // Non-file-cache pages are not covered.
        assert_eq!(r.slot_for_page(PageNum::containing(l.text.start)), None);
        assert_eq!(r.slot_for_page(PageNum::containing(l.registry.start)), None);
    }

    #[test]
    fn slot_page_round_trip() {
        let r = Registry::new(layout());
        for slot in [0, 1, r.num_entries() - 1] {
            assert_eq!(r.slot_for_page(r.page_for_slot(slot)), Some(slot));
        }
    }

    #[test]
    fn write_read_clear_through_protected_path() {
        let mut bus = MemBus::new(MemConfig::small());
        let r = Registry::new(*bus.layout());
        let mut prot = ProtectionManager::new(RioMode::Protected);
        prot.install(&mut bus);
        let e = sample_entry();
        r.write_entry(&mut bus, &mut prot, 3, &e).unwrap();
        assert_eq!(r.read_entry(bus.mem(), 3).unwrap(), Some(e));
        // Registry page is protected again after the window closed.
        let addr = r.entry_addr(3);
        assert!(bus.store_u8(rio_mem::AddrKind::Virtual, addr, 0).is_err());
        r.clear_entry(&mut bus, &mut prot, 3).unwrap();
        assert_eq!(r.read_entry(bus.mem(), 3).unwrap(), None);
    }

    #[test]
    fn update_crc_matches_page_contents() {
        let mut bus = MemBus::new(MemConfig::small());
        let r = Registry::new(*bus.layout());
        let mut prot = ProtectionManager::new(RioMode::Unprotected);
        prot.install(&mut bus);
        let page = r.page_for_slot(5);
        bus.mem_mut().page_mut(page)[..100].fill(0x5A);
        let mut e = sample_entry();
        e.size = 100;
        r.update_crc(&mut bus, &mut prot, 5, &mut e).unwrap();
        let stored = r.read_entry(bus.mem(), 5).unwrap().unwrap();
        assert_eq!(stored.crc, crc32(&[0x5A; 100]));
    }
}
