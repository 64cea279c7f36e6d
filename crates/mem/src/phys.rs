//! The raw physical-memory image.
//!
//! [`PhysMem`] is a byte-addressable memory with *no* protection semantics:
//! it is what the DRAM chips hold. Protection is enforced one level up, by
//! [`MemBus`](crate::bus::MemBus), because protection is a property of the
//! access path (TLB), not of the memory cells. Two kinds of client touch
//! `PhysMem` directly:
//!
//! * fault injection (bit flips model electrical corruption of cells), and
//! * the warm-reboot scanner, which reads the preserved image of a crashed
//!   machine.
//!
//! # Copy-on-write cloning
//!
//! Storage is one [`Arc`] per 8 KB page, so `clone()` is a pointer-table
//! copy (~5 µs for the 5 MB small configuration) rather than a full memcpy
//! (~2.5 ms). The crash-campaign checkpoint engine forks thousands of
//! kernels from one warmed-up snapshot; each fork pays only for the pages
//! it actually dirties afterwards. Semantics are unchanged: a clone is a
//! fully independent snapshot (writes through either side copy the shared
//! page first via [`Arc::make_mut`]).
//!
//! The price is that a *borrow* ([`PhysMem::slice`]) cannot span two pages,
//! because consecutive pages are no longer contiguous in host memory. Every
//! borrowing access in the simulator is naturally page-contained (region
//! boundaries, disk blocks, and cache frames are all page-aligned, and
//! instructions are 8-byte-aligned); byte-range readers that may straddle a
//! boundary use the copying accessors [`PhysMem::copy_out`] /
//! [`PhysMem::to_vec`] instead.

use crate::layout::{MemConfig, MemLayout};
use crate::page::{PageNum, PAGE_SIZE};
use std::sync::Arc;

/// One shared page of simulated DRAM.
type Page = [u8; PAGE_SIZE];

/// A byte-addressable physical memory image plus its region layout.
///
/// Cloning a `PhysMem` snapshots the DRAM contents; the crash harness clones
/// the image at crash time to model memory surviving a reboot. Clones are
/// copy-on-write per page (see the module docs), so snapshots are cheap.
#[derive(Debug, Clone)]
pub struct PhysMem {
    layout: MemLayout,
    pages: Vec<Arc<Page>>,
}

/// Splits a byte address into (page index, offset within page).
#[inline]
fn split(addr: u64) -> (usize, usize) {
    (
        (addr / PAGE_SIZE as u64) as usize,
        (addr % PAGE_SIZE as u64) as usize,
    )
}

impl PhysMem {
    /// Allocates zeroed memory for the given configuration.
    pub fn new(config: MemConfig) -> Self {
        let layout = MemLayout::new(config);
        let num_pages = (layout.total_bytes() as usize) / PAGE_SIZE;
        // All-zero pages can share one allocation until first written.
        let zero: Arc<Page> = Arc::new([0u8; PAGE_SIZE]);
        PhysMem {
            layout,
            pages: vec![zero; num_pages],
        }
    }

    /// The region layout of this memory.
    pub fn layout(&self) -> &MemLayout {
        &self.layout
    }

    /// Total size in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// Whether the memory has zero size (never true for a valid config).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether `[addr, addr+len)` lies inside physical memory.
    #[inline]
    pub fn in_bounds(&self, addr: u64, len: u64) -> bool {
        addr.checked_add(len).is_some_and(|end| end <= self.len())
    }

    /// Reads one byte. Panics if out of bounds (hardware cannot issue an
    /// out-of-range DRAM access; bounds are checked at the bus).
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (pi, off) = split(addr);
        self.pages[pi][off]
    }

    /// Writes one byte directly to the cells (no protection check).
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let (pi, off) = split(addr);
        Arc::make_mut(&mut self.pages[pi])[off] = value;
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (pi, off) = split(addr);
        if off + 8 <= PAGE_SIZE {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.pages[pi][off..off + 8]);
            u64::from_le_bytes(b)
        } else {
            self.read_u64_straddling(addr)
        }
    }

    /// Unaligned load straddling a page boundary: byte-wise, and out of
    /// line so the page-local case inlines small.
    #[cold]
    fn read_u64_straddling(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.copy_out(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64 directly to the cells.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let (pi, off) = split(addr);
        if off + 8 <= PAGE_SIZE {
            Arc::make_mut(&mut self.pages[pi])[off..off + 8]
                .copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_u64_straddling(addr, value);
        }
    }

    /// The straddling counterpart of [`PhysMem::read_u64_straddling`].
    #[cold]
    fn write_u64_straddling(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Borrows `[addr, addr+len)` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the range straddles a page boundary — pages are separate
    /// copy-on-write allocations, so a spanning borrow cannot exist. Use
    /// [`PhysMem::copy_out`] / [`PhysMem::to_vec`] for arbitrary ranges.
    pub fn slice(&self, addr: u64, len: u64) -> &[u8] {
        let (pi, off) = split(addr);
        assert!(
            off as u64 + len <= PAGE_SIZE as u64,
            "slice [{addr:#x}, +{len}) straddles a page boundary; use copy_out/to_vec"
        );
        &self.pages[pi][off..off + len as usize]
    }

    /// Mutably borrows `[addr, addr+len)`.
    ///
    /// # Panics
    ///
    /// As [`PhysMem::slice`].
    pub fn slice_mut(&mut self, addr: u64, len: u64) -> &mut [u8] {
        let (pi, off) = split(addr);
        assert!(
            off as u64 + len <= PAGE_SIZE as u64,
            "slice_mut [{addr:#x}, +{len}) straddles a page boundary; use write_bytes"
        );
        &mut Arc::make_mut(&mut self.pages[pi])[off..off + len as usize]
    }

    /// Copies `[addr, addr+buf.len())` out of memory into `buf`, page by
    /// page. The copying counterpart of [`PhysMem::slice`] for ranges that
    /// may straddle page boundaries.
    pub fn copy_out(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut done = 0usize;
        while done < buf.len() {
            let (pi, off) = split(addr);
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&self.pages[pi][off..off + n]);
            addr += n as u64;
            done += n;
        }
    }

    /// Copies `[addr, addr+len)` into a fresh `Vec`.
    pub fn to_vec(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut v = vec![0u8; len as usize];
        self.copy_out(addr, &mut v);
        v
    }

    /// Copies `data` into memory at `addr` (no protection check), page by
    /// page; `data` may straddle page boundaries.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut addr = addr;
        let mut done = 0usize;
        while done < data.len() {
            let (pi, off) = split(addr);
            let n = (PAGE_SIZE - off).min(data.len() - done);
            Arc::make_mut(&mut self.pages[pi])[off..off + n]
                .copy_from_slice(&data[done..done + n]);
            addr += n as u64;
            done += n;
        }
    }

    /// Borrows a whole page.
    pub fn page(&self, pn: PageNum) -> &[u8] {
        &self.pages[pn.0 as usize][..]
    }

    /// Mutably borrows a whole page.
    pub fn page_mut(&mut self, pn: PageNum) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.pages[pn.0 as usize])[..]
    }

    /// Flips a single bit — the cell-level corruption primitive used by the
    /// bit-flip fault models (§3.1 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds or `bit >= 8`.
    pub fn flip_bit(&mut self, addr: u64, bit: u8) {
        assert!(bit < 8, "bit index out of range");
        let (pi, off) = split(addr);
        Arc::make_mut(&mut self.pages[pi])[off] ^= 1 << bit;
    }

    /// Fills `[addr, addr+len)` with a byte value; the range may straddle
    /// page boundaries.
    pub fn fill(&mut self, addr: u64, len: u64, value: u8) {
        assert!(self.in_bounds(addr, len), "fill out of bounds");
        let mut addr = addr;
        let mut left = len as usize;
        while left > 0 {
            let (pi, off) = split(addr);
            let n = (PAGE_SIZE - off).min(left);
            Arc::make_mut(&mut self.pages[pi])[off..off + n].fill(value);
            addr += n as u64;
            left -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMem {
        PhysMem::new(MemConfig::small())
    }

    #[test]
    fn new_memory_is_zeroed_and_sized() {
        let m = mem();
        assert_eq!(m.len(), MemConfig::small().total_bytes());
        assert!(!m.is_empty());
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u8(m.len() - 1), 0);
    }

    #[test]
    fn u64_round_trips_little_endian() {
        let mut m = mem();
        m.write_u64(16, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(16), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u8(16), 0xEF); // little-endian low byte first
    }

    #[test]
    fn u64_round_trips_across_a_page_boundary() {
        let mut m = mem();
        let addr = PAGE_SIZE as u64 - 3; // 3 bytes in page 0, 5 in page 1
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        // Neighbouring bytes untouched.
        assert_eq!(m.read_u8(addr - 1), 0);
        assert_eq!(m.read_u8(addr + 8), 0);
    }

    #[test]
    fn flip_bit_is_an_involution() {
        let mut m = mem();
        m.write_u8(100, 0b1010_1010);
        m.flip_bit(100, 0);
        assert_eq!(m.read_u8(100), 0b1010_1011);
        m.flip_bit(100, 0);
        assert_eq!(m.read_u8(100), 0b1010_1010);
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn flip_bit_rejects_bad_bit() {
        mem().flip_bit(0, 8);
    }

    #[test]
    fn clone_snapshots_contents() {
        let mut m = mem();
        m.write_u8(5, 42);
        let snap = m.clone();
        m.write_u8(5, 99);
        assert_eq!(snap.read_u8(5), 42);
        assert_eq!(m.read_u8(5), 99);
    }

    #[test]
    fn cow_isolates_writes_on_both_sides() {
        let mut a = mem();
        a.write_u64(4096, 7);
        let mut b = a.clone();
        // Writes through the clone do not leak back.
        b.write_u64(4096, 8);
        b.fill(PAGE_SIZE as u64 * 2, 100, 0xEE);
        assert_eq!(a.read_u64(4096), 7);
        assert_eq!(a.read_u8(PAGE_SIZE as u64 * 2), 0);
        // Writes through the original do not leak forward.
        a.flip_bit(0, 3);
        assert_eq!(b.read_u8(0), 0);
        assert_eq!(b.read_u64(4096), 8);
    }

    #[test]
    fn copy_out_and_write_bytes_span_pages() {
        let mut m = mem();
        let data: Vec<u8> = (0..=255u8).cycle().take(3 * PAGE_SIZE / 2).collect();
        let addr = PAGE_SIZE as u64 / 2 + 7;
        m.write_bytes(addr, &data);
        assert_eq!(m.to_vec(addr, data.len() as u64), data);
        let mut buf = vec![0u8; data.len()];
        m.copy_out(addr, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn fill_spans_pages() {
        let mut m = mem();
        let addr = PAGE_SIZE as u64 - 10;
        m.fill(addr, 20, 0x5C);
        assert!(m.to_vec(addr, 20).iter().all(|&b| b == 0x5C));
        assert_eq!(m.read_u8(addr - 1), 0);
        assert_eq!(m.read_u8(addr + 20), 0);
    }

    #[test]
    #[should_panic(expected = "straddles a page boundary")]
    fn spanning_borrow_panics() {
        let m = mem();
        let _ = m.slice(PAGE_SIZE as u64 - 4, 8);
    }

    #[test]
    fn in_bounds_checks_span_end() {
        let m = mem();
        assert!(m.in_bounds(0, m.len()));
        assert!(!m.in_bounds(0, m.len() + 1));
        assert!(!m.in_bounds(m.len(), 1));
        assert!(m.in_bounds(m.len(), 0));
        assert!(!m.in_bounds(u64::MAX, 1));
    }

    #[test]
    fn page_accessors_cover_one_page() {
        let mut m = mem();
        let pn = PageNum(2);
        m.page_mut(pn).fill(7);
        assert_eq!(m.page(pn).len(), PAGE_SIZE);
        assert!(m.page(pn).iter().all(|&b| b == 7));
        // neighbours untouched
        assert_eq!(m.read_u8(pn.base() - 1), 0);
        assert_eq!(m.read_u8(pn.end()), 0);
    }
}
