//! The memory bus: the only path by which simulated kernel code reaches
//! physical memory.
//!
//! Every store carries an [`AddrKind`] describing its route — a normal
//! virtual address translated by the TLB, or a KSEG physical address that
//! (on a stock Alpha) bypasses translation. The bus consults the
//! [`ProtectionTable`] and, whenever its [`RioMode`] enforces protection,
//! refuses stores that hit a write-protected page by either route — Rio
//! forces KSEG through the TLB — returning
//! [`MemFault::ProtectionViolation`]; the simulated kernel turns that into a
//! panic, which is how Rio-with-protection halts a wild store before it
//! corrupts the file cache (§3.3 records eight such saves).
//!
//! Loads never trap on protection (read permission is always granted), so
//! they carry no route; but both loads and stores are bounds-checked: an
//! out-of-range address is a [`MemFault::BadAddress`], the simulator's
//! analogue of the illegal-address machine checks that, per the paper, catch
//! most wild accesses on a 64-bit machine.

use crate::layout::MemLayout;
use crate::page::{PageNum, PAGE_SIZE};
use crate::phys::PhysMem;
use crate::prot::{ProtectionTable, RioMode};
use crate::MemConfig;

/// The route by which an access reaches memory (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrKind {
    /// Normal kernel virtual address, translated by the TLB; obeys
    /// write-permission bits.
    Virtual,
    /// KSEG physical address. On a stock Alpha this bypasses the TLB and so
    /// bypasses protection; every mode that enforces protection forces it
    /// through the TLB (or checks it in software), so it obeys the bits too.
    Kseg,
}

impl AddrKind {
    #[inline]
    fn is_kseg(self) -> bool {
        matches!(self, AddrKind::Kseg)
    }
}

/// A failed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// The access touched an address outside physical memory — the
    /// simulator's "illegal address" machine check.
    BadAddress {
        /// Faulting byte address.
        addr: u64,
        /// Span length of the access.
        len: u64,
    },
    /// A store hit a write-protected page while protection was enforced.
    ProtectionViolation {
        /// Faulting byte address.
        addr: u64,
        /// The protected page.
        page: PageNum,
        /// Whether the store was issued with a KSEG address.
        kseg: bool,
    },
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemFault::BadAddress { addr, len } => {
                write!(f, "illegal address {addr:#x} (span {len})")
            }
            MemFault::ProtectionViolation { addr, page, kseg } => write!(
                f,
                "write-protection violation at {addr:#x} ({page}, {} route)",
                if *kseg { "kseg" } else { "virtual" }
            ),
        }
    }
}

impl std::error::Error for MemFault {}

/// Counters kept by the bus; feeds the performance model and the Table 1
/// "protection trap" statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Number of load operations.
    pub loads: u64,
    /// Number of store operations (attempted, including trapped ones).
    pub stores: u64,
    /// Total bytes moved by successful loads and stores.
    pub bytes_moved: u64,
    /// Stores refused because of write protection.
    pub protection_traps: u64,
    /// Software checks performed in code-patching mode (each costs CPU time).
    pub patch_checks: u64,
    /// KSEG (physical-address) stores that were forced through the TLB's
    /// permission bits — the §2.1 ABOX trick actually doing its job (zero
    /// under [`RioMode::Unprotected`], where KSEG bypasses translation
    /// entirely).
    pub kseg_forced: u64,
}

/// What [`MemBus::compare_spans`] loaded before it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCompare {
    /// 8-byte pairs loaded, the differing one included.
    pub words: u64,
    /// Single-byte pairs loaded after them, the differing one included.
    pub bytes: u64,
    /// Whether the last pair loaded differed (otherwise the spans are equal).
    pub differ: bool,
}

/// Physical memory plus protection state plus access accounting.
///
/// See the [crate-level docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct MemBus {
    mem: PhysMem,
    prot: ProtectionTable,
    stats: AccessStats,
}

impl MemBus {
    /// Builds a bus over fresh zeroed memory with protection disabled.
    pub fn new(config: MemConfig) -> Self {
        MemBus {
            mem: PhysMem::new(config),
            prot: ProtectionTable::disabled(),
            stats: AccessStats::default(),
        }
    }

    /// The region layout.
    pub fn layout(&self) -> &MemLayout {
        self.mem.layout()
    }

    /// Raw access to the memory cells (fault injection, warm reboot).
    #[inline]
    pub fn mem(&self) -> &PhysMem {
        &self.mem
    }

    /// Raw mutable access to the memory cells. This bypasses protection by
    /// design: bit flips corrupt DRAM directly, exactly as in §3.1.
    pub fn mem_mut(&mut self) -> &mut PhysMem {
        &mut self.mem
    }

    /// Consumes the bus and returns the memory image — the "DRAM surviving
    /// the crash" handed to the warm reboot.
    pub fn into_image(self) -> PhysMem {
        self.mem
    }

    /// The protection table.
    pub fn protection(&self) -> &ProtectionTable {
        &self.prot
    }

    /// Mutable protection table (file-cache procedures toggle permission
    /// bits around legitimate stores).
    pub fn protection_mut(&mut self) -> &mut ProtectionTable {
        &mut self.prot
    }

    /// Access counters so far.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    #[inline]
    fn check_bounds(&self, addr: u64, len: u64) -> Result<(), MemFault> {
        if self.mem.in_bounds(addr, len) {
            Ok(())
        } else {
            Err(MemFault::BadAddress { addr, len })
        }
    }

    #[inline]
    fn check_store(&mut self, addr: u64, len: u64, kind: AddrKind) -> Result<(), MemFault> {
        self.check_bounds(addr, len)?;
        let mode = self.prot.mode();
        if mode == RioMode::CodePatched {
            self.stats.patch_checks += 1;
        }
        if len == 0 || !mode.enforces() {
            return Ok(());
        }
        if kind.is_kseg() {
            self.stats.kseg_forced += 1;
        }
        let first = PageNum::containing(addr);
        let last = PageNum::containing(addr + len - 1);
        // Every store the interpreter issues is at most 8 bytes, so the
        // page-local case is the one that matters.
        let trapped = if first == last {
            self.prot.is_protected(first).then_some(first)
        } else {
            (first.0..=last.0)
                .map(PageNum)
                .find(|&pn| self.prot.is_protected(pn))
        };
        match trapped {
            None => Ok(()),
            Some(pn) => Err(self.protection_trap(addr, pn, kind)),
        }
    }

    /// Accounts for and reports a store refused by write protection: the
    /// fault address is the first byte of the span inside the protected
    /// page. Out of line — a trap ends the run.
    #[cold]
    #[inline(never)]
    fn protection_trap(&mut self, addr: u64, pn: PageNum, kind: AddrKind) -> MemFault {
        self.stats.protection_traps += 1;
        let fault_addr = addr.max(pn.base());
        rio_obs::emit(
            rio_obs::EventCategory::ProtectionTrap,
            rio_obs::Payload::Addr {
                addr: fault_addr,
                aux: pn.0,
            },
        );
        MemFault::ProtectionViolation {
            addr: fault_addr,
            page: pn,
            kseg: kind.is_kseg(),
        }
    }

    /// Loads one byte.
    ///
    /// # Errors
    ///
    /// [`MemFault::BadAddress`] if out of bounds.
    #[inline]
    pub fn load_u8(&mut self, addr: u64) -> Result<u8, MemFault> {
        self.check_bounds(addr, 1)?;
        self.stats.loads += 1;
        self.stats.bytes_moved += 1;
        Ok(self.mem.read_u8(addr))
    }

    /// Loads a little-endian u64.
    ///
    /// # Errors
    ///
    /// [`MemFault::BadAddress`] if any byte of the span is out of bounds.
    #[inline]
    pub fn load_u64(&mut self, addr: u64) -> Result<u64, MemFault> {
        self.check_bounds(addr, 8)?;
        self.stats.loads += 1;
        self.stats.bytes_moved += 8;
        Ok(self.mem.read_u64(addr))
    }

    /// Stores one byte.
    ///
    /// # Errors
    ///
    /// [`MemFault::BadAddress`] if out of bounds;
    /// [`MemFault::ProtectionViolation`] if the page is write-protected and
    /// the mode enforces protection.
    #[inline]
    pub fn store_u8(&mut self, kind: AddrKind, addr: u64, value: u8) -> Result<(), MemFault> {
        self.stats.stores += 1;
        self.check_store(addr, 1, kind)?;
        self.stats.bytes_moved += 1;
        self.mem.write_u8(addr, value);
        Ok(())
    }

    /// Stores a little-endian u64.
    ///
    /// # Errors
    ///
    /// As [`MemBus::store_u8`].
    #[inline]
    pub fn store_u64(&mut self, kind: AddrKind, addr: u64, value: u64) -> Result<(), MemFault> {
        self.stats.stores += 1;
        self.check_store(addr, 8, kind)?;
        self.stats.bytes_moved += 8;
        self.mem.write_u64(addr, value);
        Ok(())
    }

    /// Stores a byte slice.
    ///
    /// The store is all-or-nothing with respect to protection: if *any* page
    /// in the span is protected, no byte is written. (A real CPU would trap
    /// mid-copy; all our kernel routines copy page-at-a-time, so the
    /// distinction is unobservable, and all-or-nothing keeps the model
    /// simple.)
    ///
    /// # Errors
    ///
    /// As [`MemBus::store_u8`].
    pub fn store_bytes(&mut self, kind: AddrKind, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        self.stats.stores += 1;
        self.check_store(addr, data.len() as u64, kind)?;
        self.stats.bytes_moved += data.len() as u64;
        self.mem.write_bytes(addr, data);
        Ok(())
    }

    /// Stores the contents of page `src` over page `dst`, memory to memory.
    ///
    /// Checked and charged exactly as a [`MemBus::store_bytes`] of `src`'s
    /// 8 KB at `dst`'s base (one store, no load counted), without staging
    /// the page in a host buffer.
    ///
    /// # Errors
    ///
    /// As [`MemBus::store_u8`], for the destination page.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a page of this memory, as
    /// [`PhysMem::page`] does.
    pub fn copy_page(
        &mut self,
        kind: AddrKind,
        src: PageNum,
        dst: PageNum,
    ) -> Result<(), MemFault> {
        self.stats.stores += 1;
        self.check_store(dst.base(), PAGE_SIZE as u64, kind)?;
        self.stats.bytes_moved += PAGE_SIZE as u64;
        self.mem.copy_page(src, dst);
        Ok(())
    }

    /// Whether `stores` word or byte stores by route `kind`, together
    /// covering exactly `[dst, dst+len)`, would all land: the span is in
    /// bounds, none of its pages traps a store, and it touches neither
    /// kernel text nor `[src, src+len)` (so that no store can change what a
    /// later fetch or load of the same loop reads). If
    /// so, charges those stores exactly as [`MemBus::store_u64`] /
    /// [`MemBus::store_u8`] would one by one.
    fn admit_span_stores(
        &mut self,
        kind: AddrKind,
        dst: u64,
        len: u64,
        src: Option<u64>,
        stores: u64,
    ) -> bool {
        let disjoint = |start: u64, end: u64| len == 0 || dst + len <= start || end <= dst;
        let text = self.layout().text;
        if !self.mem.in_bounds(dst, len)
            || !disjoint(text.start, text.end)
            || src.is_some_and(|src| !self.mem.in_bounds(src, len) || !disjoint(src, src + len))
        {
            return false;
        }
        let mode = self.prot.mode();
        if mode.enforces() && len > 0 {
            let pages = PageNum::containing(dst).0..=PageNum::containing(dst + len - 1).0;
            if pages.map(PageNum).any(|pn| self.prot.is_protected(pn)) {
                return false;
            }
        }
        self.stats.stores += stores;
        self.stats.bytes_moved += len;
        if mode == RioMode::CodePatched {
            self.stats.patch_checks += stores;
        }
        if mode.enforces() && kind.is_kseg() {
            self.stats.kseg_forced += stores;
        }
        true
    }

    /// A whole copy loop at once: `accesses` loads covering
    /// `[src, src+len)` and as many stores, by route `kind`, covering
    /// `[dst, dst+len)`.
    ///
    /// Returns `false`, having changed nothing, unless every one of those
    /// accesses would succeed and none could change what a later one reads:
    /// both spans in bounds, no destination page trapping a store, the
    /// destination disjoint from the source and from kernel text. Otherwise
    /// moves the bytes and charges every counter what the single accesses
    /// would have ([`AccessStats`]), in one step.
    pub fn copy_span(
        &mut self,
        kind: AddrKind,
        src: u64,
        dst: u64,
        len: u64,
        accesses: u64,
    ) -> bool {
        if !self.admit_span_stores(kind, dst, len, Some(src), accesses) {
            return false;
        }
        self.stats.loads += accesses;
        self.stats.bytes_moved += len;
        self.mem.copy_within(src, dst, len);
        true
    }

    /// A whole fill loop at once: `stores` stores of `value` bytes by route
    /// `kind`, covering `[dst, dst+len)`; the store-only half of
    /// [`MemBus::copy_span`], with the same conditions on the destination.
    pub fn fill_span(
        &mut self,
        kind: AddrKind,
        dst: u64,
        len: u64,
        value: u8,
        stores: u64,
    ) -> bool {
        if !self.admit_span_stores(kind, dst, len, None, stores) {
            return false;
        }
        self.mem.fill(dst, len, value);
        true
    }

    /// A whole compare loop at once: loads `[a, a+len)` and `[b, b+len)`
    /// in step — a pair of 8-byte words at a time while 8 bytes remain,
    /// then a pair of bytes at a time — and stops after the first pair
    /// that differs. Charges the loads it describes.
    ///
    /// Returns `None`, having charged nothing, unless both whole spans are
    /// in bounds (the loop itself would only need the part it reads).
    pub fn compare_spans(&mut self, a: u64, b: u64, len: u64) -> Option<SpanCompare> {
        if !self.mem.in_bounds(a, len) || !self.mem.in_bounds(b, len) {
            return None;
        }
        let cmp = match self.mem.first_difference(a, b, len) {
            Some(at) if at < len & !7 => SpanCompare {
                words: at / 8 + 1,
                bytes: 0,
                differ: true,
            },
            Some(at) => SpanCompare {
                words: len / 8,
                bytes: at % 8 + 1,
                differ: true,
            },
            None => SpanCompare {
                words: len / 8,
                bytes: len % 8,
                differ: false,
            },
        };
        self.stats.loads += 2 * (cmp.words + cmp.bytes);
        self.stats.bytes_moved += 2 * (8 * cmp.words + cmp.bytes);
        Some(cmp)
    }

    /// Convenience: CRC32 of a page's current contents.
    pub fn page_crc(&self, pn: PageNum) -> u32 {
        crate::checksum::crc32(self.mem.page(pn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> MemBus {
        MemBus::new(MemConfig::small())
    }

    #[test]
    fn store_load_round_trip() {
        let mut b = bus();
        b.store_u64(AddrKind::Virtual, 64, 0xDEAD_BEEF).unwrap();
        assert_eq!(b.load_u64(64).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn out_of_bounds_is_bad_address() {
        let mut b = bus();
        let end = b.mem().len();
        assert_eq!(
            b.load_u8(end),
            Err(MemFault::BadAddress { addr: end, len: 1 })
        );
        assert_eq!(
            b.store_u64(AddrKind::Virtual, end - 4, 1),
            Err(MemFault::BadAddress {
                addr: end - 4,
                len: 8
            })
        );
    }

    #[test]
    fn protected_page_traps_virtual_store() {
        let mut b = bus();
        let addr = b.layout().ubc.start;
        let pn = PageNum::containing(addr);
        b.protection_mut().set_mode(RioMode::Protected);
        b.protection_mut().protect(pn);
        let err = b.store_u8(AddrKind::Virtual, addr, 1).unwrap_err();
        assert!(
            matches!(err, MemFault::ProtectionViolation { page, kseg: false, .. } if page == pn)
        );
        assert_eq!(b.stats().protection_traps, 1);
        // Memory unchanged.
        assert_eq!(b.mem().read_u8(addr), 0);
    }

    #[test]
    fn kseg_store_is_checked_exactly_when_protection_enforces() {
        let mut b = bus();
        let addr = b.layout().ubc.start;
        let pn = PageNum::containing(addr);
        b.protection_mut().protect(pn);
        // The stock machine: a KSEG store lands on a page whose bit denies
        // writes.
        b.store_u8(AddrKind::Kseg, addr, 0x55).unwrap();
        assert_eq!(b.mem().read_u8(addr), 0x55);
        // Rio's protection forces KSEG through the TLB: the hole is closed.
        b.protection_mut().set_mode(RioMode::Protected);
        assert!(matches!(
            b.store_u8(AddrKind::Kseg, addr, 0x66),
            Err(MemFault::ProtectionViolation { kseg: true, .. })
        ));
        assert_eq!(b.mem().read_u8(addr), 0x55);
    }

    #[test]
    fn multi_page_store_checks_every_page() {
        let mut b = bus();
        let ubc = b.layout().ubc;
        b.protection_mut().set_mode(RioMode::Protected);
        // Protect the second UBC page; write a span straddling pages 1-2.
        let second = PageNum::containing(ubc.start + PAGE_SIZE as u64);
        b.protection_mut().protect(second);
        let span_start = ubc.start + PAGE_SIZE as u64 - 4;
        let err = b
            .store_bytes(AddrKind::Virtual, span_start, &[1u8; 16])
            .unwrap_err();
        assert!(matches!(err, MemFault::ProtectionViolation { page, .. } if page == second));
        // All-or-nothing: first page bytes not written either.
        assert_eq!(b.mem().read_u8(span_start), 0);
    }

    #[test]
    fn code_patching_counts_checks_and_traps_kseg() {
        let mut b = bus();
        let addr = b.layout().buffer_cache.start;
        let pn = PageNum::containing(addr);
        b.protection_mut().set_mode(RioMode::CodePatched);
        b.protection_mut().protect(pn);
        assert!(b.store_u8(AddrKind::Kseg, addr, 1).is_err());
        b.protection_mut().unprotect(pn);
        b.store_u8(AddrKind::Kseg, addr, 1).unwrap();
        assert_eq!(b.stats().patch_checks, 2);
    }

    /// Runs `f` inside an obs session and returns the events it emitted.
    fn traced(f: impl FnOnce()) -> Vec<rio_obs::Event> {
        rio_obs::start(64);
        f();
        rio_obs::finish().expect("session open").events
    }

    #[test]
    fn straddling_store_traps_on_the_second_page_base() {
        let mut b = bus();
        b.protection_mut().set_mode(RioMode::Protected);
        let second = PageNum::containing(b.layout().ubc.start + PAGE_SIZE as u64);
        b.protection_mut().protect(second);
        let addr = second.base() - 3; // 3 bytes in the open page, 5 in the protected one
        let mut err = None;
        let events = traced(|| err = b.store_u64(AddrKind::Virtual, addr, u64::MAX).err());
        assert_eq!(
            err,
            Some(MemFault::ProtectionViolation {
                addr: second.base(),
                page: second,
                kseg: false
            })
        );
        assert_eq!(
            b.stats(),
            AccessStats {
                stores: 1,
                protection_traps: 1,
                ..AccessStats::default()
            }
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, rio_obs::EventCategory::ProtectionTrap);
        assert_eq!(
            events[0].payload,
            rio_obs::Payload::Addr {
                addr: second.base(),
                aux: second.0
            }
        );
        // No byte written on either side of the boundary.
        assert_eq!(b.mem().to_vec(addr, 8), vec![0u8; 8]);

        // The mirror image — first page protected — faults on the store's
        // own first byte.
        b.protection_mut().unprotect(second);
        b.protection_mut().protect(PageNum(second.0 - 1));
        assert_eq!(
            b.store_u64(AddrKind::Virtual, addr, u64::MAX),
            Err(MemFault::ProtectionViolation {
                addr,
                page: PageNum(second.0 - 1),
                kseg: false
            })
        );
        // With neither protected the straddling store lands whole.
        b.protection_mut().unprotect(PageNum(second.0 - 1));
        b.store_u64(AddrKind::Virtual, addr, 0x0807_0605_0403_0201)
            .unwrap();
        assert_eq!(b.mem().to_vec(addr, 8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(b.stats().bytes_moved, 8);
    }

    #[test]
    fn kseg_forced_counts_only_stores_the_tlb_actually_checks() {
        let mut b = bus();
        let addr = b.layout().ubc.start;
        // Stock machine: nothing is forced.
        b.store_u64(AddrKind::Kseg, addr, 1).unwrap();
        assert_eq!(b.stats().kseg_forced, 0);
        // Protected: every KSEG store is forced, trapped or not; virtual
        // stores never count.
        b.protection_mut().set_mode(RioMode::Protected);
        b.store_u64(AddrKind::Kseg, addr, 2).unwrap();
        b.store_u8(AddrKind::Virtual, addr, 3).unwrap();
        b.protection_mut().protect(PageNum::containing(addr));
        assert!(b.store_u8(AddrKind::Kseg, addr, 4).is_err());
        let s = b.stats();
        assert_eq!((s.kseg_forced, s.protection_traps, s.stores), (2, 1, 4));
        // A zero-length KSEG store is checked for bounds only.
        b.store_bytes(AddrKind::Kseg, addr, &[]).unwrap();
        assert_eq!(b.stats().kseg_forced, 2);
        // Code patching checks KSEG stores in software, and counts them too.
        b.protection_mut().set_mode(RioMode::CodePatched);
        assert!(b.store_u8(AddrKind::Kseg, addr, 5).is_err());
        assert_eq!(b.stats().kseg_forced, 3);
    }

    #[test]
    fn code_patching_charges_one_check_per_in_bounds_store() {
        let mut b = bus();
        let addr = b.layout().heap.start;
        let end = b.mem().len();
        b.protection_mut().set_mode(RioMode::CodePatched);
        b.store_u8(AddrKind::Virtual, addr, 1).unwrap();
        b.store_u64(AddrKind::Kseg, addr, 1).unwrap();
        b.store_bytes(AddrKind::Virtual, addr, &[0; 3 * PAGE_SIZE])
            .unwrap();
        b.store_bytes(AddrKind::Virtual, addr, &[]).unwrap(); // zero-length: still checked
        assert_eq!(b.stats().patch_checks, 4);
        // The bounds check comes first: an illegal address is a machine
        // check before any inserted software check runs.
        assert!(b.store_u8(AddrKind::Virtual, end, 1).is_err());
        assert_eq!(b.stats().patch_checks, 4);
        // Loads are never patched.
        b.load_u64(addr).unwrap();
        assert_eq!(b.stats().patch_checks, 4);
        // Other modes charge nothing.
        b.protection_mut().set_mode(RioMode::Protected);
        b.store_u8(AddrKind::Virtual, addr, 1).unwrap();
        assert_eq!(b.stats().patch_checks, 4);
    }

    #[test]
    fn out_of_bounds_store_counts_the_attempt_and_nothing_else() {
        let mut b = bus();
        b.protection_mut().set_mode(RioMode::Protected);
        let end = b.mem().len();
        let events = traced(|| {
            assert_eq!(
                b.store_u64(AddrKind::Kseg, end - 4, 1),
                Err(MemFault::BadAddress {
                    addr: end - 4,
                    len: 8
                })
            );
            assert_eq!(
                b.store_u8(AddrKind::Virtual, u64::MAX, 1),
                Err(MemFault::BadAddress {
                    addr: u64::MAX,
                    len: 1
                })
            );
        });
        assert!(events.is_empty());
        assert_eq!(
            b.stats(),
            AccessStats {
                stores: 2,
                ..AccessStats::default()
            }
        );
        assert_eq!(b.mem().to_vec(end - 4, 4), vec![0u8; 4]);
        // A faulting load counts nothing at all.
        assert!(b.load_u64(end - 4).is_err());
        assert_eq!(b.stats().loads, 0);
    }

    /// Every store entry point against the page-by-page rule it replaced:
    /// same verdict, same counters, same trap event, same bytes.
    #[test]
    fn stores_match_the_page_by_page_rule() {
        use rio_det::proptest_lite::{check, Config};
        use rio_det::pt_assert_eq;

        check(
            "stores_match_the_page_by_page_rule",
            Config::with_cases(128),
            |g| {
                let mut b = bus();
                let mode = [
                    RioMode::Unprotected,
                    RioMode::Protected,
                    RioMode::CodePatched,
                ][g.in_range(0..3usize)];
                b.protection_mut().set_mode(mode);
                let pages = b.mem().len() / PAGE_SIZE as u64;
                for pn in 0..pages {
                    if g.in_range(0..3u32) == 0 {
                        b.protection_mut().protect(PageNum(pn));
                    }
                }
                let mut want = AccessStats::default();
                for _ in 0..g.len_between(1, 60) {
                    let kind = if g.bool() {
                        AddrKind::Kseg
                    } else {
                        AddrKind::Virtual
                    };
                    // Mostly near a page boundary, sometimes the end of memory.
                    let boundary = PAGE_SIZE as u64 * g.in_range(1..=pages);
                    let addr = boundary - g.in_range(0..12u64);
                    let data = g.bytes(0, 20);
                    let len = match g.in_range(0..3u32) {
                        0 => 1,
                        1 => 8,
                        _ => data.len() as u64,
                    };

                    // The rule, as the bus applied it before the fast path.
                    want.stores += 1;
                    let prot = b.protection().clone();
                    let kseg = kind == AddrKind::Kseg;
                    let verdict = if !b.mem().in_bounds(addr, len) {
                        Err(MemFault::BadAddress { addr, len })
                    } else {
                        if mode == RioMode::CodePatched {
                            want.patch_checks += 1;
                        }
                        if len > 0 && kseg && mode != RioMode::Unprotected {
                            want.kseg_forced += 1;
                        }
                        let span = PageNum::containing(addr).0
                            ..=PageNum::containing(addr + len.max(1) - 1).0;
                        match span
                            .map(PageNum)
                            .find(|&pn| len > 0 && prot.store_would_trap(pn))
                        {
                            Some(page) => {
                                want.protection_traps += 1;
                                Err(MemFault::ProtectionViolation {
                                    addr: addr.max(page.base()),
                                    page,
                                    kseg,
                                })
                            }
                            None => {
                                want.bytes_moved += len;
                                Ok(())
                            }
                        }
                    };
                    let before = if b.mem().in_bounds(addr, len) {
                        b.mem().to_vec(addr, len)
                    } else {
                        Vec::new()
                    };

                    let mut got = Ok(());
                    let events = traced(|| {
                        got = match len {
                            1 if data.len() != 1 => b.store_u8(kind, addr, 0xA5),
                            8 if data.len() != 8 => b.store_u64(kind, addr, 0xA5A5_A5A5_A5A5_A5A5),
                            _ => b.store_bytes(kind, addr, &data),
                        }
                    });
                    pt_assert_eq!(got, verdict);
                    pt_assert_eq!(b.stats(), want);
                    match verdict {
                        Err(MemFault::ProtectionViolation { addr, page, .. }) => {
                            pt_assert_eq!(events.len(), 1);
                            pt_assert_eq!(
                                events[0].category,
                                rio_obs::EventCategory::ProtectionTrap
                            );
                            pt_assert_eq!(
                                events[0].payload,
                                rio_obs::Payload::Addr { addr, aux: page.0 }
                            );
                        }
                        _ => pt_assert_eq!(events.len(), 0),
                    }
                    if verdict.is_err() && !before.is_empty() {
                        pt_assert_eq!(b.mem().to_vec(addr, len), before);
                    }
                }
                Ok(())
            },
        );
    }

    /// The span entry points against the single accesses they stand for: a
    /// span call that answers yes has done exactly what byte-by-byte
    /// `load_u8`/`store_u8` calls do — bytes, counters — none of which
    /// fails; one that answers no has changed nothing.
    #[test]
    fn span_calls_match_the_single_accesses_they_stand_for() {
        use rio_det::proptest_lite::{check, Config};
        use rio_det::{pt_assert, pt_assert_eq};

        let same_image = |a: &MemBus, b: &MemBus| {
            (0..a.mem().len() / PAGE_SIZE as u64)
                .all(|pn| a.mem().page(PageNum(pn)) == b.mem().page(PageNum(pn)))
        };
        check(
            "span_calls_match_single_accesses",
            Config::with_cases(256),
            |g| {
                let mut b = bus();
                let mode = [
                    RioMode::Unprotected,
                    RioMode::Protected,
                    RioMode::CodePatched,
                ][g.in_range(0..3usize)];
                b.protection_mut().set_mode(mode);
                let (end, text) = (b.mem().len(), b.layout().text);
                for _ in 0..4 {
                    b.protection_mut()
                        .protect(PageNum(g.in_range(0..end / PAGE_SIZE as u64)));
                }
                let len = g.in_range(0..3 * PAGE_SIZE as u64);
                let place = |g: &mut rio_det::proptest_lite::Gen| match g.in_range(0..4u32) {
                    0 => end - len + g.in_range(0..3u64),
                    1 => text.end - g.in_range(0..=len.min(text.end)),
                    _ => g.in_range(0..end - len),
                };
                let (src, dst) = (place(g), place(g));
                let noise = g.bytes(PAGE_SIZE, PAGE_SIZE);
                b.mem_mut()
                    .write_bytes(src.min(end - noise.len() as u64), &noise);
                let kind = if g.bool() {
                    AddrKind::Kseg
                } else {
                    AddrKind::Virtual
                };
                let before = b.clone();

                // Byte by byte, as a copy loop (or, with no source, a fill loop).
                let single = |fill: Option<u8>| {
                    let mut one = before.clone();
                    let ok = (0..len).all(|i| {
                        let v = match fill {
                            Some(v) => Ok(v),
                            None => one.load_u8(src + i),
                        };
                        v.and_then(|v| one.store_u8(kind, dst + i, v)).is_ok()
                    });
                    (one, ok)
                };
                let apart = |a: u64, a_end: u64| len == 0 || dst + len <= a || a_end <= dst;

                let mut span = before.clone();
                let (one, ok) = single(None);
                if span.copy_span(kind, src, dst, len, len) {
                    pt_assert!(ok && apart(text.start, text.end) && apart(src, src + len));
                    pt_assert_eq!(span.stats(), one.stats());
                    pt_assert!(same_image(&span, &one));
                } else {
                    pt_assert!(
                        !ok || !apart(text.start, text.end) || !apart(src, src + len) || len == 0
                    );
                    pt_assert_eq!(span.stats(), before.stats());
                    pt_assert!(same_image(&span, &before));
                }

                let mut span = before.clone();
                let (one, ok) = single(Some(0xE7));
                if span.fill_span(kind, dst, len, 0xE7, len) {
                    pt_assert!(ok && apart(text.start, text.end));
                    pt_assert_eq!(span.stats(), one.stats());
                    pt_assert!(same_image(&span, &one));
                } else {
                    pt_assert!(!ok || !apart(text.start, text.end) || len == 0);
                    pt_assert_eq!(span.stats(), before.stats());
                    pt_assert!(same_image(&span, &before));
                }

                // Word pairs, then byte pairs, up to the first that differs.
                let mut span = before.clone();
                let mut one = before.clone();
                if g.bool() && before.mem().in_bounds(src, len) && before.mem().in_bounds(dst, len)
                {
                    let bytes = before.mem().to_vec(src, len);
                    let flip = len > 0 && g.bool();
                    for bus in [&mut span, &mut one] {
                        bus.mem_mut().write_bytes(dst, &bytes);
                        if flip {
                            bus.mem_mut().flip_bit(dst + len / 2, 0);
                        }
                    }
                }
                let mut want = SpanCompare {
                    words: 0,
                    bytes: 0,
                    differ: false,
                };
                let mut at = 0;
                let mut faulted = false;
                while at < len && !want.differ && !faulted {
                    let pair = if len - at >= 8 {
                        want.words += 1;
                        one.load_u64(src + at)
                            .and_then(|x| Ok((x, one.load_u64(dst + at)?)))
                    } else {
                        want.bytes += 1;
                        one.load_u8(src + at)
                            .and_then(|x| Ok((x as u64, one.load_u8(dst + at)? as u64)))
                    };
                    at += if len - at >= 8 { 8 } else { 1 };
                    match pair {
                        Ok((x, y)) => want.differ = x != y,
                        Err(_) => faulted = true,
                    }
                }
                match span.compare_spans(src, dst, len) {
                    Some(got) => {
                        pt_assert!(!faulted);
                        pt_assert_eq!(got, want);
                        pt_assert_eq!(span.stats(), one.stats());
                    }
                    None => {
                        pt_assert!(
                            !before.mem().in_bounds(src, len) || !before.mem().in_bounds(dst, len)
                        );
                        pt_assert_eq!(span.stats(), before.stats());
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn copy_page_is_checked_and_charged_as_the_store_bytes_it_replaces() {
        let mut staged = bus();
        let ubc = staged.layout().ubc;
        let src = PageNum::containing(ubc.start);
        let dst = PageNum(src.0 + 1);
        staged.mem_mut().page_mut(src).fill(0x3C);
        staged.protection_mut().set_mode(RioMode::Protected);
        let mut direct = staged.clone();
        for protect_dst in [false, true] {
            for b in [&mut staged, &mut direct] {
                if protect_dst {
                    b.protection_mut().protect(dst);
                }
                b.mem_mut().page_mut(dst).fill(0);
            }
            let data = staged.mem().page(src).to_vec();
            let want = staged.store_bytes(AddrKind::Virtual, dst.base(), &data);
            assert_eq!(direct.copy_page(AddrKind::Virtual, src, dst), want);
            assert_eq!(want.is_err(), protect_dst);
            assert_eq!(direct.stats(), staged.stats());
            assert_eq!(direct.mem().page(dst), staged.mem().page(dst));
        }
    }

    #[test]
    fn stats_count_loads_stores_bytes() {
        let mut b = bus();
        b.store_bytes(AddrKind::Virtual, 0, &[0u8; 100]).unwrap();
        b.load_u64(0).unwrap();
        let s = b.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.bytes_moved, 108);
    }

    #[test]
    fn page_crc_detects_change() {
        let mut b = bus();
        let pn = PageNum::containing(b.layout().ubc.start);
        let before = b.page_crc(pn);
        b.mem_mut().flip_bit(pn.base() + 123, 3);
        assert_ne!(b.page_crc(pn), before);
    }

    #[test]
    fn fault_display_mentions_route() {
        let f = MemFault::ProtectionViolation {
            addr: 0x2000,
            page: PageNum(1),
            kseg: true,
        };
        let s = f.to_string();
        assert!(s.contains("kseg"));
        assert!(s.contains("0x2000"));
    }
}
