//! The sector checksum cache: O(dirty) registry CRCs for the write path.
//!
//! §3.2 keeps "a checksum of each memory block in the file cache", and the
//! seed implementation recomputed it over the page's full valid prefix on
//! every write — up to 8 KB of hashing for a 100-byte store. This cache
//! holds the CRC of each full 512-byte *sector* of a UBC page; a write
//! invalidates only the sectors its copy actually touched
//! ([`SectorCrcCache::note_write`]), and the page CRC is then spliced from
//! the sector CRCs with one fixed GF(2) shift operator plus a direct CRC of
//! the partial tail ([`SectorCrcCache::prefix_crc`]). CRC linearity makes
//! the spliced value bit-identical to `crc32(&page[..valid])`.
//!
//! The cache is **host-side volatile state**: it mirrors what the last
//! *legitimate* writes put in memory and dies with the kernel at a crash.
//! An injected wild store that scribbles a cached sector leaves the derived
//! registry CRC describing the legitimate contents — so the warm-reboot
//! scanner's comparison against actual memory detects the corruption. (The
//! seed's recompute-from-memory path would instead absorb the scribble into
//! the next write's checksum and silently recover corrupt data.)

use rio_mem::{crc32, crc32_update, CrcShift, PageNum, PhysMem, PAGE_SIZE};
use std::collections::HashMap;

/// Checksum granularity. 16 sectors per 8 KB page.
pub const SECTOR_BYTES: usize = 512;
/// Sectors per page.
pub const SECTORS_PER_PAGE: usize = PAGE_SIZE / SECTOR_BYTES;

/// Per-page cached sector CRCs; a mask bit set means that sector's CRC is
/// current with respect to the last legitimate write.
#[derive(Debug, Clone)]
struct PageSectors {
    crcs: [u32; SECTORS_PER_PAGE],
    valid_mask: u16,
}

impl PageSectors {
    fn empty() -> Self {
        PageSectors { crcs: [0; SECTORS_PER_PAGE], valid_mask: 0 }
    }
}

/// See module docs.
#[derive(Debug, Clone)]
pub struct SectorCrcCache {
    pages: HashMap<PageNum, PageSectors>,
    shift_sector: CrcShift,
    /// Sector recomputations avoided (full sectors served from cache).
    pub sectors_cached: u64,
    /// Sector CRCs recomputed from memory.
    pub sectors_recomputed: u64,
}

impl SectorCrcCache {
    /// An empty cache (built once per kernel boot).
    pub fn new() -> Self {
        SectorCrcCache {
            pages: HashMap::new(),
            shift_sector: CrcShift::for_len(SECTOR_BYTES as u64),
            sectors_cached: 0,
            sectors_recomputed: 0,
        }
    }

    /// Records that `page[start..end)` was just written through a legitimate
    /// path: the overlapped sectors' cached CRCs are stale.
    pub fn note_write(&mut self, page: PageNum, start: usize, end: usize) {
        if start >= end {
            return;
        }
        let end = end.min(PAGE_SIZE);
        let first = start / SECTOR_BYTES;
        let last = (end - 1) / SECTOR_BYTES;
        let entry = self.pages.entry(page).or_insert_with(PageSectors::empty);
        for s in first..=last {
            entry.valid_mask &= !(1u16 << s);
        }
    }

    /// Forgets everything about a page (eviction, unlink, page reuse).
    pub fn invalidate_page(&mut self, page: PageNum) {
        self.pages.remove(&page);
    }

    /// CRC of `page[..valid]`, recomputing only sectors whose cached CRC is
    /// stale. Bit-identical to `crc32(&mem.page(page)[..valid])`.
    pub fn prefix_crc(&mut self, mem: &PhysMem, page: PageNum, valid: u32) -> u32 {
        let valid = (valid as usize).min(PAGE_SIZE);
        let bytes = mem.page(page);
        let full = valid / SECTOR_BYTES;
        let entry = self.pages.entry(page).or_insert_with(PageSectors::empty);
        let mut crc = 0u32; // crc32 of the empty prefix
        for s in 0..full {
            let bit = 1u16 << s;
            if entry.valid_mask & bit == 0 {
                let off = s * SECTOR_BYTES;
                entry.crcs[s] = crc32(&bytes[off..off + SECTOR_BYTES]);
                entry.valid_mask |= bit;
                self.sectors_recomputed += 1;
            } else {
                self.sectors_cached += 1;
            }
            crc = self.shift_sector.apply(crc) ^ entry.crcs[s];
        }
        // Partial tail: append directly to the finalized prefix CRC — for
        // under one sector of bytes that is cheaper than a matrix build.
        if !valid.is_multiple_of(SECTOR_BYTES) {
            crc = crc32_update(crc ^ 0xFFFF_FFFF, &bytes[full * SECTOR_BYTES..valid])
                ^ 0xFFFF_FFFF;
        }
        crc
    }
}

impl Default for SectorCrcCache {
    fn default() -> Self {
        SectorCrcCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_mem::{MemBus, MemConfig};

    fn ubc_page(bus: &MemBus) -> PageNum {
        PageNum::containing(bus.layout().ubc.start)
    }

    #[test]
    fn prefix_crc_matches_direct_crc32() {
        let mut bus = MemBus::new(MemConfig::small());
        let page = ubc_page(&bus);
        let mut cache = SectorCrcCache::new();
        for (fill, valid) in [(0xA1u8, 100u32), (0xB2, 512), (0xC3, 513), (0xD4, 8192)] {
            bus.mem_mut().fill(page.base(), valid as u64, fill);
            cache.invalidate_page(page);
            let direct = crc32(&bus.mem().page(page)[..valid as usize]);
            assert_eq!(cache.prefix_crc(bus.mem(), page, valid), direct, "valid {valid}");
        }
    }

    #[test]
    fn prefix_crc_matches_bytewise_at_every_valid_length() {
        let mut bus = MemBus::new(MemConfig::small());
        let page = ubc_page(&bus);
        for (i, b) in bus.mem_mut().page_mut(page).iter_mut().enumerate() {
            *b = (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3];
        }
        let mut cache = SectorCrcCache::new();
        for valid in (0..=PAGE_SIZE as u32).step_by(37).chain([PAGE_SIZE as u32]) {
            let direct = rio_mem::crc32_bytewise(&bus.mem().page(page)[..valid as usize]);
            assert_eq!(cache.prefix_crc(bus.mem(), page, valid), direct, "valid {valid}");
            cache.invalidate_page(page);
            assert_eq!(cache.prefix_crc(bus.mem(), page, valid), direct, "valid {valid}, cold");
        }
    }

    #[test]
    fn dirty_span_recomputes_only_touched_sectors() {
        let mut bus = MemBus::new(MemConfig::small());
        let page = ubc_page(&bus);
        bus.mem_mut().fill(page.base(), PAGE_SIZE as u64, 0x5A);
        let mut cache = SectorCrcCache::new();
        let full = cache.prefix_crc(bus.mem(), page, PAGE_SIZE as u32);
        assert_eq!(cache.sectors_recomputed, 16);

        // A 100-byte write inside sector 3.
        let off = 3 * SECTOR_BYTES + 17;
        bus.mem_mut().fill(page.base() + off as u64, 100, 0xEE);
        cache.note_write(page, off, off + 100);
        let updated = cache.prefix_crc(bus.mem(), page, PAGE_SIZE as u32);
        assert_eq!(cache.sectors_recomputed, 17, "exactly one sector re-hashed");
        assert_ne!(updated, full);
        assert_eq!(updated, crc32(bus.mem().page(page)));
    }

    #[test]
    fn stale_cache_detects_wild_store() {
        // A write the cache never hears about (direct corruption): the
        // derived CRC keeps describing the legitimate contents.
        let mut bus = MemBus::new(MemConfig::small());
        let page = ubc_page(&bus);
        bus.mem_mut().fill(page.base(), PAGE_SIZE as u64, 0x42);
        let mut cache = SectorCrcCache::new();
        let legit = cache.prefix_crc(bus.mem(), page, PAGE_SIZE as u32);
        bus.mem_mut().flip_bit(page.base() + 2000, 3); // wild store
        // A later write to a *different* sector still derives the old CRC
        // for the corrupted sector — mismatching the corrupt memory.
        cache.note_write(page, 7000, 7100);
        let derived = cache.prefix_crc(bus.mem(), page, PAGE_SIZE as u32);
        assert_ne!(derived, crc32(bus.mem().page(page)));
        assert_ne!(legit, crc32(bus.mem().page(page)));
    }

    #[test]
    fn growing_valid_prefix_stays_exact() {
        let mut bus = MemBus::new(MemConfig::small());
        let page = ubc_page(&bus);
        let mut cache = SectorCrcCache::new();
        let mut valid = 0u32;
        for (i, grow) in [100u32, 412, 512, 1000, 3000, 3168].iter().enumerate() {
            let start = valid as usize;
            valid += grow;
            bus.mem_mut().fill(page.base() + start as u64, *grow as u64, 0x30 + i as u8);
            cache.note_write(page, start, valid as usize);
            assert_eq!(
                cache.prefix_crc(bus.mem(), page, valid),
                crc32(&bus.mem().page(page)[..valid as usize]),
                "valid {valid}"
            );
        }
    }
}
