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
//! Each 8 KB page is held in one of two ways, and which one is known from
//! a plain enum tag — no atomic is touched to find out:
//!
//! * **private** (`Box`): this image is the page's only holder, so a write
//!   is a tag test and a plain store — what a load costs;
//! * **shared** (`Arc`): other images may hold the same page. It is never
//!   written in place: the first write copies it into a private page once
//!   (out of line), and every later write takes the private path.
//!
//! `clone()` shares the shared pages by pointer and *copies* the private
//! ones, so a clone is always a fully independent snapshot, but it is only
//! a pointer-table copy (~5 µs for the 5 MB small configuration, against
//! ~2.5 ms for a full memcpy) when the image was sealed first:
//! [`PhysMem::seal`] turns every private page into a shared one, at one
//! page copy each. Whoever freezes a machine in order to fork it many
//! times seals it once — the campaign checkpoints (both
//! `PreparedTrial` constructors) and
//! `Kernel::into_crash_artifacts` (the DRAM a crash leaves is cloned by
//! the warm reboot and by every recovery trial) — and each fork then pays
//! only for the pages it dirties afterwards. A fresh image is born sealed:
//! all its pages share one zero page.
//!
//! The price is that a *borrow* ([`PhysMem::slice`]) cannot span two pages,
//! because consecutive pages are not contiguous in host memory. Every
//! borrowing access in the simulator is naturally page-contained (region
//! boundaries, disk blocks, and cache frames are all page-aligned, and
//! instructions are 8-byte-aligned); byte-range readers that may straddle a
//! boundary use the copying accessors [`PhysMem::copy_out`] /
//! [`PhysMem::to_vec`] instead.
//!
//! # Frame recycling
//!
//! A private page's 8 KB frame is a heap allocation, and a warm reboot
//! makes thousands of them: the booting machine writes every cache frame,
//! and the crash image it replays from is dropped when the boot is done.
//! Handed back to the allocator, those frames go back to the OS, and the
//! next boot takes a page fault on every one of them again. So each thread
//! keeps a free list of frames (at most `FRAME_POOL_CAP`): a dropped
//! image returns its private frames to it, [`PhysMem::seal`] the frames it
//! replaces, and every path that makes a page private — a first write to
//! a shared page, a whole-page copy onto one, the clone of a private one —
//! takes a frame from it before it allocates. A recycled frame is
//! overwritten in full before anything reads it, so which frame a page
//! gets is invisible to the simulated machine. A `fill` or `write_bytes`
//! that covers a whole shared page takes a frame without copying the
//! shared page into it first, as `copy_page` does: the store overwrites
//! every byte anyway.
//!
//! # Written-sector log
//!
//! Beside the pages the image keeps one `u16` per page, a bit per 512-byte
//! sector ([`SECTOR_BYTES`](crate::page::SECTOR_BYTES)). Every mutator —
//! `write_u8`, `write_u64`, `slice_mut`, `write_bytes`, `page_mut`,
//! `flip_bit`, `fill`, `copy_page`, `copy_within` — sets the bits of the
//! sectors its span covers before it hands out or writes the bytes, so
//! the log sees every store whoever made it: kernel, interpreter, routine
//! summary, fault injector. A set bit means "may differ from when the log
//! was last taken" (a store of the same value still marks); a clear bit
//! means "byte-identical". The log is part of the image: a clone carries
//! its parent's bits, so a fork of a checkpoint owes the same re-hashing
//! the checkpoint did.
//!
//! The log has **one consumer**. [`PhysMem::take_written`] drains, and the
//! kernel's registry CRC of a metadata page (`Kernel::meta_page_crc`) is
//! correct only because nothing else drains the pages it memoises: a
//! second taker would swallow bits the kernel never sees, and later
//! commits would store a CRC that misses those stores with nothing
//! failing. Anything else that wants to look — a debug tool, a recovery
//! scanner, a test helper — uses the non-draining [`PhysMem::written`].

use crate::layout::{MemConfig, MemLayout};
use crate::page::{sector_mask, PageNum, PAGE_SIZE};
use std::cell::RefCell;
use std::sync::Arc;

/// One page of simulated DRAM.
type Page = [u8; PAGE_SIZE];

/// Most freed frames one thread keeps for reuse (32 MB): more than the
/// Table 2 machine has pages (~2,250), so a reboot after a reboot
/// allocates nothing, while images dropped on a thread that does not boot
/// machines cannot grow the list without bound.
const FRAME_POOL_CAP: usize = 4096;

thread_local! {
    /// This thread's free frames (module docs, "Frame recycling").
    static FREE_FRAMES: RefCell<Vec<Box<Page>>> = const { RefCell::new(Vec::new()) };
}

/// A recycled frame, if this thread has one; what it holds is stale.
fn free_frame() -> Option<Box<Page>> {
    FREE_FRAMES
        .try_with(|f| f.borrow_mut().pop())
        .ok()
        .flatten()
}

/// A private frame holding a copy of `src`.
fn frame_from(src: &Page) -> Box<Page> {
    match free_frame() {
        Some(mut frame) => {
            *frame = *src;
            frame
        }
        None => Box::new(*src),
    }
}

/// Returns frames to this thread's free list, dropping what the cap (or a
/// thread already tearing its locals down) leaves no room for.
fn recycle(frames: impl IntoIterator<Item = Box<Page>>) {
    let _ = FREE_FRAMES.try_with(|f| {
        let mut free = f.borrow_mut();
        let room = FRAME_POOL_CAP.saturating_sub(free.len());
        free.extend(frames.into_iter().take(room));
    });
}

/// How an image holds one page (see the module docs).
#[derive(Debug)]
enum Slot {
    /// Possibly held by other images too; copied before the first write.
    Shared(Arc<Page>),
    /// Held by this image alone; written in place.
    Owned(Box<Page>),
}

impl Slot {
    #[inline]
    fn page(&self) -> &Page {
        match self {
            Slot::Shared(p) => p,
            Slot::Owned(p) => p,
        }
    }

    /// The page for writing, made private first if it is shared.
    #[inline]
    fn page_mut(&mut self) -> &mut Page {
        if let Slot::Shared(_) = self {
            self.privatise();
        }
        let Slot::Owned(page) = self else {
            unreachable!("privatise leaves the slot owned")
        };
        page
    }

    /// The shared→private transition: the one copy a page's first write
    /// after a clone or a seal pays.
    #[cold]
    #[inline(never)]
    fn privatise(&mut self) {
        *self = Slot::Owned(frame_from(self.page()));
    }
}

impl Clone for Slot {
    fn clone(&self) -> Slot {
        match self {
            Slot::Shared(p) => Slot::Shared(Arc::clone(p)),
            Slot::Owned(p) => Slot::Owned(frame_from(p)),
        }
    }
}

/// A byte-addressable physical memory image plus its region layout.
///
/// Cloning a `PhysMem` snapshots the DRAM contents; the crash harness clones
/// the image at crash time to model memory surviving a reboot. Clones are
/// copy-on-write per page once the image is sealed (see the module docs),
/// so snapshots of a frozen machine are cheap.
#[derive(Debug, Clone)]
pub struct PhysMem {
    layout: MemLayout,
    pages: Vec<Slot>,
    /// The written-sector log (module docs): per page, a bit per sector.
    written: Vec<u16>,
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
        let zero = Slot::Shared(Arc::new([0u8; PAGE_SIZE]));
        PhysMem {
            layout,
            pages: vec![zero; num_pages],
            written: vec![0; num_pages],
        }
    }

    /// `[off, off+n)` of page `pi` for writing, logged as written.
    #[inline]
    fn span_mut(&mut self, pi: usize, off: usize, n: usize) -> &mut [u8] {
        self.written[pi] |= sector_mask(off, n);
        &mut self.pages[pi].page_mut()[off..off + n]
    }

    /// [`PhysMem::span_mut`] for a store that overwrites every byte of the
    /// span: a whole shared page is swapped for a private frame without
    /// copying what the store is about to replace.
    #[inline]
    fn span_overwritten(&mut self, pi: usize, off: usize, n: usize) -> &mut [u8] {
        if n == PAGE_SIZE && matches!(self.pages[pi], Slot::Shared(_)) {
            let frame = free_frame().unwrap_or_else(|| Box::new([0; PAGE_SIZE]));
            self.pages[pi] = Slot::Owned(frame);
        }
        self.span_mut(pi, off, n)
    }

    /// The sectors of page `pn` written since the log was last taken
    /// (bit `s` = sector `s`), without clearing them. A set bit means
    /// "may differ", a clear bit means "byte-identical".
    #[inline]
    pub fn written(&self, pn: PageNum) -> u16 {
        self.written[pn.0 as usize]
    }

    /// [`PhysMem::written`], clearing the bits it returns.
    ///
    /// **Destructive, single consumer** (module docs, "Written-sector
    /// log"): the kernel's `meta_page_crc` is the one caller, and its
    /// stored registry CRCs are right only while it stays the one. Taking
    /// a resident file-cache page's bits anywhere else hides those stores
    /// from the kernel for good; to look without owning the log, call
    /// [`PhysMem::written`].
    #[inline]
    pub fn take_written(&mut self, pn: PageNum) -> u16 {
        std::mem::take(&mut self.written[pn.0 as usize])
    }

    /// Makes every private page shareable, so that clones of this image
    /// are pointer-table copies until someone writes (see the module
    /// docs). Costs one page copy per private page; contents are unchanged.
    /// Call it once where a machine is frozen to be forked many times.
    /// The private frames it replaces go to this thread's free list.
    pub fn seal(&mut self) {
        let mut replaced = Vec::new();
        for slot in &mut self.pages {
            if let Slot::Owned(page) = slot {
                let shared = Slot::Shared(Arc::new(**page));
                if let Slot::Owned(frame) = std::mem::replace(slot, shared) {
                    replaced.push(frame);
                }
            }
        }
        recycle(replaced);
    }

    /// How many pages this image holds privately — the pages a `clone()`
    /// would copy rather than share. Zero right after [`PhysMem::seal`],
    /// and in a clone of a sealed image until it writes.
    pub fn owned_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|slot| matches!(slot, Slot::Owned(_)))
            .count()
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
        self.pages[pi].page()[off]
    }

    /// Writes one byte directly to the cells (no protection check).
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let (pi, off) = split(addr);
        self.span_mut(pi, off, 1)[0] = value;
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (pi, off) = split(addr);
        if off + 8 <= PAGE_SIZE {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.pages[pi].page()[off..off + 8]);
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
            self.span_mut(pi, off, 8)
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
        &self.pages[pi].page()[off..off + len as usize]
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
        self.span_mut(pi, off, len as usize)
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
            buf[done..done + n].copy_from_slice(&self.pages[pi].page()[off..off + n]);
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
            self.span_overwritten(pi, off, n)
                .copy_from_slice(&data[done..done + n]);
            addr += n as u64;
            done += n;
        }
    }

    /// Borrows a whole page.
    pub fn page(&self, pn: PageNum) -> &[u8] {
        &self.pages[pn.0 as usize].page()[..]
    }

    /// Mutably borrows a whole page.
    pub fn page_mut(&mut self, pn: PageNum) -> &mut [u8] {
        self.span_mut(pn.0 as usize, 0, PAGE_SIZE)
    }

    /// Copies page `src` over page `dst` (no protection check) without a
    /// round trip through a buffer.
    pub fn copy_page(&mut self, src: PageNum, dst: PageNum) {
        let (s, d) = (src.0 as usize, dst.0 as usize);
        if s == d {
            return;
        }
        self.written[d] = sector_mask(0, PAGE_SIZE);
        let (low, high) = self.pages.split_at_mut(s.max(d));
        let (src, dst) = if s < d {
            (&low[s], &mut high[0])
        } else {
            (&high[0], &mut low[d])
        };
        match dst {
            Slot::Owned(page) => **page = *src.page(),
            // Overwritten whole: nothing of the shared page is worth copying.
            Slot::Shared(_) => *dst = Slot::Owned(frame_from(src.page())),
        }
    }

    /// Copies `[src, src+len)` over `[dst, dst+len)` memory to memory (no
    /// protection check), in pieces that stay inside one page on both
    /// sides. Each destination page the span reaches ends up private,
    /// exactly as a store to it would leave it. The spans must
    /// not overlap: pieces are moved as `memmove` would, which is not what
    /// an ascending byte copy does to overlapping spans.
    pub fn copy_within(&mut self, src: u64, dst: u64, len: u64) {
        let (mut src, mut dst, mut left) = (src, dst, len as usize);
        while left > 0 {
            let ((sp, so), (dp, d_off)) = (split(src), split(dst));
            let n = (PAGE_SIZE - so).min(PAGE_SIZE - d_off).min(left);
            self.written[dp] |= sector_mask(d_off, n);
            if n == PAGE_SIZE {
                // Overwritten whole: a shared page need not be copied first.
                self.copy_page(PageNum(sp as u64), PageNum(dp as u64));
            } else if sp == dp {
                self.pages[sp].page_mut().copy_within(so..so + n, d_off);
            } else {
                let (low, high) = self.pages.split_at_mut(sp.max(dp));
                let (from, to) = if sp < dp {
                    (&low[sp], &mut high[0])
                } else {
                    (&high[0], &mut low[dp])
                };
                to.page_mut()[d_off..d_off + n].copy_from_slice(&from.page()[so..so + n]);
            }
            src += n as u64;
            dst += n as u64;
            left -= n;
        }
    }

    /// Offset of the first byte at which `[a, a+len)` and `[b, b+len)`
    /// differ, or `None` if they are equal; the spans may straddle pages
    /// and may overlap.
    pub fn first_difference(&self, a: u64, b: u64, len: u64) -> Option<u64> {
        let mut at = 0u64;
        while at < len {
            let ((ap, ao), (bp, bo)) = (split(a + at), split(b + at));
            let n = (PAGE_SIZE - ao)
                .min(PAGE_SIZE - bo)
                .min((len - at) as usize);
            let (x, y) = (
                &self.pages[ap].page()[ao..ao + n],
                &self.pages[bp].page()[bo..bo + n],
            );
            if x != y {
                let i = x.iter().zip(y).position(|(p, q)| p != q);
                return Some(at + i.expect("unequal slices differ somewhere") as u64);
            }
            at += n as u64;
        }
        None
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
        self.span_mut(pi, off, 1)[0] ^= 1 << bit;
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
            self.span_overwritten(pi, off, n).fill(value);
            addr += n as u64;
            left -= n;
        }
    }
}

impl Drop for PhysMem {
    /// Returns the private frames to this thread's free list (module docs,
    /// "Frame recycling").
    fn drop(&mut self) {
        recycle(self.pages.drain(..).filter_map(|slot| match slot {
            Slot::Owned(frame) => Some(frame),
            Slot::Shared(_) => None,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::SECTOR_BYTES;

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
    fn seal_keeps_contents_and_isolation() {
        let mut a = mem();
        assert_eq!(a.owned_pages(), 0, "a fresh image is born sealed");
        a.write_u64(8, 1);
        assert_eq!(a.owned_pages(), 1);
        a.seal();
        assert_eq!(a.owned_pages(), 0);
        assert_eq!(a.read_u64(8), 1);
        let mut b = a.clone();
        assert_eq!(
            b.owned_pages(),
            0,
            "a clone of a sealed image copies nothing"
        );
        a.write_u64(8, 2); // write after seal copies the page first
        b.write_u8(9, 3);
        assert_eq!((a.owned_pages(), b.owned_pages()), (1, 1));
        assert_eq!(a.read_u64(8), 2);
        assert_eq!(b.read_u64(8), 1 | 3 << 8);
    }

    /// Frames freed by a scribbled image come back to later images on
    /// this thread; whatever path reuses one, the page reads what the new
    /// image wrote and zero everywhere else.
    #[test]
    fn recycled_frames_read_only_what_the_new_image_wrote() {
        let scribbled = |m: &mut PhysMem| {
            for pn in 0..m.len() / PAGE_SIZE as u64 {
                m.page_mut(PageNum(pn)).fill(0xA5);
            }
        };
        let mut old = mem();
        scribbled(&mut old);
        let pages = old.owned_pages();
        drop(old);
        let mut m = mem();
        m.write_u8(3, 7); // first write to a shared zero page
        m.fill(2 * PAGE_SIZE as u64 + 100, 10, 0x11);
        m.copy_page(PageNum(5), PageNum(4)); // whole-page copy onto a shared page
        let mut sealed = mem();
        scribbled(&mut sealed);
        sealed.seal(); // its replaced frames are freed too
        drop(sealed);
        m.write_u64(6 * PAGE_SIZE as u64 + 8, u64::MAX);
        // Whole shared pages overwritten: taken without a copy.
        m.fill(7 * PAGE_SIZE as u64, PAGE_SIZE as u64, 0x22);
        m.write_bytes(8 * PAGE_SIZE as u64, &[0x33; PAGE_SIZE]);
        let mut want = vec![0u8; m.len() as usize];
        want[3] = 7;
        want[2 * PAGE_SIZE + 100..][..10].fill(0x11);
        want[6 * PAGE_SIZE + 8..][..8].fill(0xFF);
        want[7 * PAGE_SIZE..][..PAGE_SIZE].fill(0x22);
        want[8 * PAGE_SIZE..][..PAGE_SIZE].fill(0x33);
        assert_eq!(m.to_vec(0, m.len()), want);
        assert_eq!(m.owned_pages(), 6);
        assert_eq!(m.written(PageNum(7)), u16::MAX);
        assert!(pages > 6, "the test frees more frames than it reuses");
    }

    /// Cloning an image copies each private page into a (recycled) frame
    /// that equals its source, and leaves the two independent.
    #[test]
    fn a_cloned_private_page_equals_its_source() {
        let mut old = mem();
        old.fill(0, old.len(), 0x5A);
        drop(old);
        let mut m = mem();
        for (i, b) in m.page_mut(PageNum(1)).iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        m.write_u8(PageNum(2).base() + 17, 9);
        let mut c = m.clone();
        assert_eq!(c.owned_pages(), 2);
        for pn in 0..m.len() / PAGE_SIZE as u64 {
            assert_eq!(c.page(PageNum(pn)), m.page(PageNum(pn)), "page {pn}");
        }
        c.write_u8(PageNum(1).base(), 0xEE);
        assert_eq!(m.read_u8(PageNum(1).base()), 0);
    }

    #[test]
    fn copy_page_overwrites_private_and_shared_destinations() {
        let mut m = mem();
        m.page_mut(PageNum(1)).fill(0x11);
        m.page_mut(PageNum(3)).fill(0x33); // private destination
        m.copy_page(PageNum(1), PageNum(3));
        m.copy_page(PageNum(1), PageNum(0)); // shared (zero-page) destination
        m.copy_page(PageNum(1), PageNum(1));
        let snap = m.clone();
        m.page_mut(PageNum(1)).fill(0x22);
        for pn in [0, 3] {
            assert!(m.page(PageNum(pn)).iter().all(|&b| b == 0x11), "page {pn}");
        }
        assert!(snap.page(PageNum(1)).iter().all(|&b| b == 0x11));
        assert_eq!(m.read_u8(PageNum(2).base()), 0);
    }

    #[test]
    fn take_written_reports_the_sectors_stored_to_and_clears_them() {
        const S: u64 = SECTOR_BYTES as u64;
        let mut m = mem();
        let (p1, p2) = (PageNum(1), PageNum(2));
        assert_eq!(m.take_written(p1), 0, "a fresh image has nothing written");
        m.write_u8(p1.base() + 3 * S, 1);
        m.write_u64(p1.base() + 6 * S - 4, 2); // straddles sectors 5 and 6
        m.flip_bit(p1.base() + 16 * S - 1, 7);
        assert_eq!(m.written(p1), 1 << 3 | 1 << 5 | 1 << 6 | 1 << 15);
        let seen = m.written(p1);
        assert_eq!(m.take_written(p1), seen, "looking does not clear");
        assert_eq!(m.take_written(p1), 0, "taking clears");
        // A span across a page boundary marks each page's own sectors.
        m.fill(p1.base() + 14 * S + 1, 2 * S + 5, 9);
        m.write_bytes(p2.base() + 2 * S, &[1; 1]);
        assert_eq!(m.take_written(p1), 0b11 << 14);
        assert_eq!(m.take_written(p2), 0b101);
        m.slice_mut(p2.base() + S, 0);
        assert_eq!(m.take_written(p2), 0, "an empty borrow writes nothing");
        m.copy_within(p1.base() + 14 * S, p2.base() + 7 * S - 1, 2);
        assert_eq!(m.take_written(p2), 0b11 << 6);
        assert_eq!(m.take_written(p1), 0, "the source is only read");
        m.copy_page(p1, p2);
        m.page_mut(p1)[0] = 1;
        assert_eq!(
            (m.take_written(p1), m.take_written(p2)),
            (u16::MAX, u16::MAX)
        );
        // The log travels with a clone, and each side drains its own.
        m.write_u8(p1.base(), 2);
        let mut fork = m.clone();
        assert_eq!((m.take_written(p1), fork.take_written(p1)), (1, 1));
    }

    /// Model-based: several live images, each mirrored by a flat `Vec<u8>`,
    /// driven through every mutator plus clone / seal / drop. After every
    /// step every image must equal its mirror — so a write never leaks
    /// into, or out of, any clone, sealed or not. Each image also carries
    /// the bytes every page held when its written-sector log was last
    /// taken: whenever a log is taken (at random, and for every page at the
    /// end), each sector that differs from those bytes must be marked.
    #[test]
    fn images_equal_flat_mirrors_through_every_mutator() {
        use rio_det::proptest_lite::{check, Config};
        use rio_det::{pt_assert, pt_assert_eq};

        const P: u64 = PAGE_SIZE as u64;

        /// Takes page `pn`'s log and checks it against what changed since
        /// `taken`, which then becomes the page as it is now.
        fn take_checked(
            mem: &mut PhysMem,
            mirror: &[u8],
            taken: &mut [u8],
            pn: u64,
        ) -> Result<(), String> {
            let bits = mem.take_written(PageNum(pn));
            let page = (pn * P) as usize..((pn + 1) * P) as usize;
            let (now, then) = (&mirror[page.clone()], &mut taken[page]);
            let sectors = now
                .chunks_exact(SECTOR_BYTES)
                .zip(then.chunks_exact(SECTOR_BYTES));
            for (s, (now, then)) in sectors.enumerate() {
                pt_assert!(
                    now == then || bits & 1 << s != 0,
                    "page {pn} sector {s} changed but is not in the log {bits:#06x}"
                );
            }
            then.copy_from_slice(now);
            pt_assert_eq!(mem.take_written(PageNum(pn)), 0);
            Ok(())
        }
        let tiny = MemConfig {
            text_bytes: P,
            heap_bytes: P,
            stack_bytes: 0,
            buffer_cache_bytes: P,
            ubc_bytes: P,
            registry_bytes: 0,
        };
        let total = tiny.total_bytes();
        check("images_equal_flat_mirrors", Config::with_cases(256), |g| {
            let zeroes = vec![0u8; total as usize];
            let mut images = vec![(PhysMem::new(tiny), zeroes.clone(), zeroes)];
            for _ in 0..g.len_between(4, 64) {
                let i = g.in_range(0..images.len());
                let (mem, mirror, taken) = &mut images[i];
                let addr = g.in_range(0..total - 8);
                let boundary = P * g.in_range(1..total / P);
                match g.in_range(0..15u32) {
                    0 => {
                        let v = g.u8();
                        mem.write_u8(addr, v);
                        mirror[addr as usize] = v;
                    }
                    // u64 stores: aligned, anywhere, straddling two pages.
                    op @ 1..=3 => {
                        let addr = match op {
                            1 => addr & !7,
                            2 => addr,
                            _ => boundary - g.in_range(1..8u64),
                        };
                        let v = g.u64();
                        mem.write_u64(addr, v);
                        mirror[addr as usize..][..8].copy_from_slice(&v.to_le_bytes());
                        pt_assert_eq!(mem.read_u64(addr), v);
                    }
                    4 => {
                        let data = g.bytes(0, 2 * PAGE_SIZE + 100);
                        let addr = g.in_range(0..=total - data.len() as u64);
                        mem.write_bytes(addr, &data);
                        mirror[addr as usize..][..data.len()].copy_from_slice(&data);
                    }
                    5 => {
                        let len = g.len_between(0, 2 * PAGE_SIZE + 100) as u64;
                        let (addr, v) = (g.in_range(0..=total - len), g.u8());
                        mem.fill(addr, len, v);
                        mirror[addr as usize..][..len as usize].fill(v);
                    }
                    6 => {
                        let bit = g.in_range(0..8u8);
                        mem.flip_bit(addr, bit);
                        mirror[addr as usize] ^= 1 << bit;
                    }
                    7 => {
                        let (pn, at, v) = (addr / P, g.in_range(0..PAGE_SIZE), g.u8());
                        mem.page_mut(PageNum(pn))[at] = v;
                        mirror[(pn * P) as usize + at] = v;
                    }
                    8 => {
                        let len = g.in_range(0..=P - addr % P);
                        let v = g.u8();
                        mem.slice_mut(addr, len).fill(v);
                        mirror[addr as usize..][..len as usize].fill(v);
                    }
                    9 => {
                        let (src, dst) = (addr / P, g.in_range(0..total / P));
                        mem.copy_page(PageNum(src), PageNum(dst));
                        mirror.copy_within(
                            (src * P) as usize..((src + 1) * P) as usize,
                            (dst * P) as usize,
                        );
                    }
                    10 => mem.seal(),
                    // Disjoint spans anywhere, page-straddling included.
                    11 => {
                        let (lo, hi, len) = if g.bool() {
                            let len = g.in_range(0..=(2 * P + 100).min(total / 2));
                            let lo = g.in_range(0..=total - 2 * len);
                            (lo, g.in_range(lo + len..=total - len), len)
                        } else {
                            // Page to page: whole pages move at once.
                            let lo = g.in_range(0..2u64);
                            (lo * P, (lo + 2) * P, g.in_range(0..=(2 - lo) * P))
                        };
                        let (src, dst) = if g.bool() { (lo, hi) } else { (hi, lo) };
                        mem.copy_within(src, dst, len);
                        mirror.copy_within(src as usize..(src + len) as usize, dst as usize);
                        pt_assert_eq!(mem.first_difference(src, dst, len), None);
                    }
                    12 => take_checked(mem, mirror, taken, addr / P)?,
                    // A clone carries the log as it stands.
                    13 if images.len() < 4 => {
                        let fork = images[i].clone();
                        images.push(fork);
                    }
                    _ if images.len() > 1 => drop(images.swap_remove(i)),
                    _ => {}
                }
                for (n, (mem, mirror, _)) in images.iter().enumerate() {
                    for (pn, want) in mirror.chunks_exact(PAGE_SIZE).enumerate() {
                        pt_assert!(
                            mem.page(PageNum(pn as u64)) == want,
                            "image {n} of {} differs from its mirror in page {pn}",
                            images.len()
                        );
                    }
                }
                let (mem, mirror, _) = &images[0];
                pt_assert_eq!(mem.read_u8(addr), mirror[addr as usize]);
                pt_assert_eq!(
                    mem.to_vec(boundary - 3, 8),
                    mirror[boundary as usize - 3..][..8]
                );
            }
            for (mem, mirror, taken) in &mut images {
                for pn in 0..total / P {
                    take_checked(mem, mirror, taken, pn)?;
                }
            }
            Ok(())
        });
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
    fn first_difference_finds_the_first_differing_byte_across_pages() {
        let mut m = mem();
        let (a, b) = (PAGE_SIZE as u64 - 5, 3 * PAGE_SIZE as u64 + 1);
        let len = 2 * PAGE_SIZE as u64;
        m.fill(a, len, 0x6B);
        m.fill(b, len, 0x6B);
        assert_eq!(m.first_difference(a, b, len), None);
        assert_eq!(m.first_difference(a, b, 0), None);
        for at in [len - 1, PAGE_SIZE as u64 + 4, 5, 0] {
            m.write_u8(b + at, 0x6C);
            assert_eq!(m.first_difference(a, b, len), Some(at));
            assert_eq!(m.first_difference(a, b, at), None);
        }
        // A span compared with itself, shifted: overlapping is fine.
        assert_eq!(m.first_difference(a, a + 1, 100), None);
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
