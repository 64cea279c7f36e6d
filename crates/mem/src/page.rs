//! Page-granularity types shared across the simulator.
//!
//! The paper's DEC Alpha workstations use 8 KB pages, and the registry keeps
//! 40 bytes of bookkeeping per 8 KB file-cache page; we use the same page
//! size throughout.

/// Size of a physical page in bytes (8 KB, as on the DEC Alpha 21064).
pub const PAGE_SIZE: usize = 8192;

/// Size of a checksum sector in bytes: the grain of [`PhysMem`]'s
/// written-sector log, of the four-lane CRC path and of the kernel's sector
/// checksum cache. 16 sectors per page.
///
/// [`PhysMem`]: crate::phys::PhysMem
pub const SECTOR_BYTES: usize = 512;
const _: () = assert!(PAGE_SIZE / SECTOR_BYTES == u16::BITS as usize);

/// The sectors of a page that bytes `[off, off+n)` of it overlap, one bit
/// per sector (bit `s` = sector `s`); `off + n <= PAGE_SIZE`. The shape of
/// `PhysMem::take_written` and of the kernel's `note_sectors`.
#[inline]
pub fn sector_mask(off: usize, n: usize) -> u16 {
    if n == 0 {
        return 0;
    }
    let (first, last) = (off / SECTOR_BYTES, (off + n - 1) / SECTOR_BYTES);
    ((2u32 << last) - (1u32 << first)) as u16
}

/// A physical page number.
///
/// Newtype so page numbers cannot be confused with byte addresses
/// (a byte address is a `u64` everywhere in this workspace).
///
/// # Example
///
/// ```
/// use rio_mem::{PageNum, PAGE_SIZE};
///
/// let pn = PageNum::containing(PAGE_SIZE as u64 + 17);
/// assert_eq!(pn, PageNum(1));
/// assert_eq!(pn.base(), PAGE_SIZE as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageNum(pub u64);

impl PageNum {
    /// Page containing the given byte address.
    #[inline]
    pub fn containing(addr: u64) -> Self {
        PageNum(addr / PAGE_SIZE as u64)
    }

    /// Byte address of the first byte of this page.
    #[inline]
    pub fn base(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }

    /// Byte address one past the last byte of this page.
    #[inline]
    pub fn end(self) -> u64 {
        self.base() + PAGE_SIZE as u64
    }

    /// Whether the byte address falls inside this page.
    #[inline]
    pub fn contains(self, addr: u64) -> bool {
        addr >= self.base() && addr < self.end()
    }
}

impl std::fmt::Display for PageNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Rounds `n` up to the next multiple of [`PAGE_SIZE`].
pub fn round_up_to_page(n: u64) -> u64 {
    n.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containing_maps_addresses_to_pages() {
        assert_eq!(PageNum::containing(0), PageNum(0));
        assert_eq!(PageNum::containing(PAGE_SIZE as u64 - 1), PageNum(0));
        assert_eq!(PageNum::containing(PAGE_SIZE as u64), PageNum(1));
    }

    #[test]
    fn base_and_end_bracket_the_page() {
        let pn = PageNum(3);
        assert_eq!(pn.base(), 3 * PAGE_SIZE as u64);
        assert_eq!(pn.end(), 4 * PAGE_SIZE as u64);
        assert!(pn.contains(pn.base()));
        assert!(pn.contains(pn.end() - 1));
        assert!(!pn.contains(pn.end()));
        assert!(!pn.contains(pn.base() - 1));
    }

    #[test]
    fn round_up_is_idempotent_on_multiples() {
        assert_eq!(round_up_to_page(0), 0);
        assert_eq!(round_up_to_page(1), PAGE_SIZE as u64);
        assert_eq!(round_up_to_page(PAGE_SIZE as u64), PAGE_SIZE as u64);
        assert_eq!(round_up_to_page(PAGE_SIZE as u64 + 1), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(PageNum(7).to_string(), "page#7");
    }
}
