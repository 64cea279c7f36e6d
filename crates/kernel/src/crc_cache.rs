//! The sector checksum cache: registry CRCs at the cost of what changed.
//!
//! §3.2 keeps "a checksum of each memory block in the file cache", and the
//! seed implementation recomputed it over the page's full valid prefix on
//! every write — up to 8 KB of hashing for a 100-byte store. This cache
//! holds the CRC of each full 512-byte *sector* of a file-cache page; a
//! write invalidates only the sectors it touched, and the page CRC is then
//! spliced from the sector CRCs with one tabulated GF(2) shift
//! ([`rio_mem::crc32_append_sector`]) plus a direct CRC of the partial tail
//! ([`SectorCrcCache::prefix_crc`]). CRC linearity makes the spliced value
//! bit-identical to `crc32(&page[..valid])` *of whatever the cached sector
//! CRCs describe* — and what they describe is decided by who feeds the
//! cache. Every page of the file cache goes through this one cache; the two
//! kinds of page feed it differently, and so differ in what a wild store
//! does to the CRC the registry ends up holding:
//!
//! | | UBC (file data) | buffer cache (metadata) |
//! |---|---|---|
//! | fed by | [`SectorCrcCache::note_write`]: the span each legitimate `bcopy` reported writing | [`SectorCrcCache::note_sectors`] with [`PhysMem::take_written`]: every sector *any* store touched since the last derivation |
//! | the cache is | a mirror of the legitimate writes | a memo of memory |
//! | a wild store into a cached sector | is **detected**: the derived CRC keeps describing the legitimate contents, so the warm reboot's comparison against memory fails | is **absorbed**: the next commit re-hashes the sector and the registry CRC equals `crc32(page)` as memory holds it |
//! | which is | what the seed's recompute-from-memory did *not* do (it absorbed) — changed on purpose when the cache was introduced | exactly what `Registry::update_crc` over the whole page did, bit for bit, at a sixteenth of the hashing for an inode update |
//!
//! So a scribbled metadata page is caught at warm reboot only until its
//! next update: up to then it mismatches the CRC registered before the
//! scribble; the update's commit then checksums the scribble in. Whether
//! metadata should *detect* instead — feed from the `fc_store` span alone,
//! like the UBC — is an open question (ROADMAP 5b): it would move Table 1
//! cells, so it belongs to a change that means to move them.
//!
//! `take_written` has exactly one consumer, the metadata column above
//! (`Kernel::meta_page_crc`). Draining a UBC page's bits anywhere would be
//! harmless to this cache but a second consumer of a metadata page's bits
//! would make this one miss stores — keep it one.
//!
//! The cache is **host-side volatile state** and dies with the kernel at a
//! crash; a warm reboot starts with an empty one.

use crate::cache::MixMap;
use rio_mem::{crc32, crc32_append_sector, crc32_update, sector_mask, PageNum, PhysMem, PAGE_SIZE};

/// Checksum granularity. 16 sectors per 8 KB page.
pub use rio_mem::SECTOR_BYTES;
/// Sectors per page.
pub const SECTORS_PER_PAGE: usize = PAGE_SIZE / SECTOR_BYTES;

/// `crc32` of one all-zero sector. A fresh file page is zeroed before its
/// first CRC, so most sectors a cold derivation meets read as zero, and
/// OR-ing 512 bytes together costs a fraction of hashing them.
const ZERO_SECTOR_CRC: u32 = 0xB2AA_7578;

/// Per-page cached sector CRCs; a mask bit set means that sector's CRC is
/// current with respect to everything the cache has been told.
#[derive(Debug, Clone)]
struct PageSectors {
    crcs: [u32; SECTORS_PER_PAGE],
    valid_mask: u16,
}

impl PageSectors {
    fn empty() -> Self {
        PageSectors {
            crcs: [0; SECTORS_PER_PAGE],
            valid_mask: 0,
        }
    }
}

/// See module docs.
#[derive(Debug, Clone)]
pub struct SectorCrcCache {
    /// Never iterated; keyed by page numbers the kernel hands out.
    pages: MixMap<PageNum, PageSectors>,
    /// Sector recomputations avoided (full sectors served from cache).
    pub sectors_cached: u64,
    /// Sector CRCs recomputed from memory.
    pub sectors_recomputed: u64,
}

impl SectorCrcCache {
    /// An empty cache (built once per kernel boot).
    pub fn new() -> Self {
        SectorCrcCache {
            pages: MixMap::default(),
            sectors_cached: 0,
            sectors_recomputed: 0,
        }
    }

    /// Records that `page[start..end)` was just written through a legitimate
    /// path: the overlapped sectors' cached CRCs are stale.
    pub fn note_write(&mut self, page: PageNum, start: usize, end: usize) {
        let end = end.min(PAGE_SIZE);
        self.note_sectors(page, sector_mask(start, end.saturating_sub(start)));
    }

    /// Records that the sectors in `written` (bit `s` = sector `s`, the
    /// shape of [`PhysMem::take_written`]) may no longer hold what was
    /// hashed: their cached CRCs are stale.
    pub fn note_sectors(&mut self, page: PageNum, written: u16) {
        // No entry means nothing cached, hence nothing to make stale.
        if let Some(entry) = self.pages.get_mut(&page) {
            entry.valid_mask &= !written;
        }
    }

    /// Forgets everything about a page (eviction, unlink, page reuse).
    pub fn invalidate_page(&mut self, page: PageNum) {
        self.pages.remove(&page);
    }

    /// CRC of `page[..valid]`, recomputing only sectors whose cached CRC is
    /// stale — an all-zero one takes its known CRC instead of being hashed,
    /// and still counts as recomputed. Bit-identical to
    /// `crc32(&mem.page(page)[..valid])`.
    pub fn prefix_crc(&mut self, mem: &PhysMem, page: PageNum, valid: u32) -> u32 {
        let valid = (valid as usize).min(PAGE_SIZE);
        let bytes = mem.page(page);
        let full = valid / SECTOR_BYTES;
        let entry = self.pages.entry(page).or_insert_with(PageSectors::empty);
        let mut crc = 0u32; // crc32 of the empty prefix
        for s in 0..full {
            let bit = 1u16 << s;
            if entry.valid_mask & bit == 0 {
                let sector = &bytes[s * SECTOR_BYTES..][..SECTOR_BYTES];
                entry.crcs[s] = if sector.iter().fold(0, |acc, &b| acc | b) == 0 {
                    ZERO_SECTOR_CRC
                } else {
                    crc32(sector)
                };
                entry.valid_mask |= bit;
                self.sectors_recomputed += 1;
            } else {
                self.sectors_cached += 1;
            }
            crc = crc32_append_sector(crc, entry.crcs[s]);
        }
        // Partial tail: append directly to the finalized prefix CRC — for
        // under one sector of bytes that is cheaper than a matrix build.
        if !valid.is_multiple_of(SECTOR_BYTES) {
            crc = crc32_update(crc ^ 0xFFFF_FFFF, &bytes[full * SECTOR_BYTES..valid]) ^ 0xFFFF_FFFF;
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
            assert_eq!(
                cache.prefix_crc(bus.mem(), page, valid),
                direct,
                "valid {valid}"
            );
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
            assert_eq!(
                cache.prefix_crc(bus.mem(), page, valid),
                direct,
                "valid {valid}"
            );
            cache.invalidate_page(page);
            assert_eq!(
                cache.prefix_crc(bus.mem(), page, valid),
                direct,
                "valid {valid}, cold"
            );
        }
    }

    #[test]
    fn the_zero_sector_crc_is_the_crc_of_a_zero_sector() {
        assert_eq!(ZERO_SECTOR_CRC, rio_mem::crc32_bytewise(&[0; SECTOR_BYTES]));
    }

    /// Pages whose sectors are a mix of all-zero and not (a zero sector
    /// with one stray byte at either end included): the spliced CRC equals
    /// a plain `crc32` at every valid length, cold or cached, and every
    /// sector a cold derivation covers counts as recomputed.
    #[test]
    fn prefix_crc_matches_on_pages_mixing_zero_and_nonzero_sectors() {
        let mut bus = MemBus::new(MemConfig::small());
        let page = ubc_page(&bus);
        for pattern in [0b1010_0110_0001_1100u16, 0xFFFF, 0x0001, 0x8000, 0] {
            let bytes = bus.mem_mut().page_mut(page);
            bytes.fill(0);
            for s in 0..SECTORS_PER_PAGE {
                let sector = &mut bytes[s * SECTOR_BYTES..][..SECTOR_BYTES];
                match (pattern >> s & 1, s % 3) {
                    (0, _) => {}
                    (_, 0) => sector[0] = 1,
                    (_, 1) => sector[SECTOR_BYTES - 1] = 0x80,
                    _ => sector.fill(0x3C),
                }
            }
            let mut cache = SectorCrcCache::new();
            for valid in 0..=PAGE_SIZE as u32 {
                let direct = crc32(&bus.mem().page(page)[..valid as usize]);
                let recomputed = cache.sectors_recomputed;
                assert_eq!(
                    cache.prefix_crc(bus.mem(), page, valid),
                    direct,
                    "valid {valid}"
                );
                if valid > 0 && (valid as usize).is_multiple_of(SECTOR_BYTES) {
                    assert_eq!(cache.sectors_recomputed, recomputed + 1, "valid {valid}");
                }
            }
            cache.invalidate_page(page);
            cache.prefix_crc(bus.mem(), page, PAGE_SIZE as u32);
            assert_eq!(cache.sectors_recomputed, 2 * SECTORS_PER_PAGE as u64);
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
    fn fed_the_written_log_the_cache_is_a_memo_of_memory() {
        // The metadata discipline: no `note_write`; before each derivation
        // the cache is told what `take_written` saw — so any store at all,
        // wild ones included, is re-hashed (absorbed), and nothing else is.
        let mut bus = MemBus::new(MemConfig::small());
        let page = PageNum::containing(bus.layout().buffer_cache.start);
        bus.mem_mut().fill(page.base(), PAGE_SIZE as u64, 0x42);
        let mut cache = SectorCrcCache::new();
        let mut derive = |bus: &mut MemBus| {
            let written = bus.mem_mut().take_written(page);
            cache.note_sectors(page, written);
            let crc = cache.prefix_crc(bus.mem(), page, PAGE_SIZE as u32);
            assert_eq!(crc, rio_mem::crc32_bytewise(bus.mem().page(page)));
            cache.sectors_recomputed
        };
        assert_eq!(derive(&mut bus), 16, "cold: every sector");
        assert_eq!(derive(&mut bus), 16, "nothing stored: nothing re-hashed");
        bus.mem_mut().flip_bit(page.base() + 2000, 3); // sector 3
        bus.mem_mut().write_u64(page.base() + 7 * 512 - 4, 7); // sectors 6 and 7
        assert_eq!(derive(&mut bus), 19, "exactly the three sectors stored to");
        // A store into a neighbour is not this page's.
        bus.mem_mut().write_u8(page.base() + PAGE_SIZE as u64, 1);
        assert_eq!(derive(&mut bus), 19);
    }

    #[test]
    fn note_sectors_makes_exactly_the_named_sectors_stale() {
        let mut bus = MemBus::new(MemConfig::small());
        let page = ubc_page(&bus);
        let mut cache = SectorCrcCache::new();
        cache.note_sectors(page, 0xFFFF); // nothing cached yet: nothing to do
        let before = cache.prefix_crc(bus.mem(), page, PAGE_SIZE as u32);
        assert_eq!((cache.sectors_recomputed, cache.sectors_cached), (16, 0));
        cache.note_sectors(page, 0);
        cache.note_sectors(page, 1 << 0 | 1 << 9 | 1 << 15);
        assert_eq!(cache.prefix_crc(bus.mem(), page, PAGE_SIZE as u32), before);
        assert_eq!((cache.sectors_recomputed, cache.sectors_cached), (19, 13));
        // `note_write` names sectors by byte span, ends included.
        cache.note_write(page, 511, 1025);
        cache.note_write(page, 8191, 9000);
        cache.note_write(page, 700, 700);
        bus.mem_mut().fill(page.base() + 511, 514, 1);
        assert_ne!(cache.prefix_crc(bus.mem(), page, PAGE_SIZE as u32), before);
        assert_eq!(cache.sectors_recomputed, 19 + 4, "sectors 0, 1, 2 and 15");
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
            bus.mem_mut()
                .fill(page.base() + start as u64, *grow as u64, 0x30 + i as u8);
            cache.note_write(page, start, valid as usize);
            assert_eq!(
                cache.prefix_crc(bus.mem(), page, valid),
                crc32(&bus.mem().page(page)[..valid as usize]),
                "valid {valid}"
            );
        }
    }
}
