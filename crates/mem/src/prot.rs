//! Per-page write protection and the protection setting of §2.1.
//!
//! The protection table models the subset of the page table / TLB state that
//! matters to Rio: one write-permission bit per physical page, plus the one
//! machine-wide [`RioMode`] that decides whether those bits are consulted.
//!
//! * [`RioMode::Unprotected`] — the stock kernel: permission bits are
//!   ignored, and KSEG (physical) stores bypass the TLB as they do on a
//!   stock Alpha.
//! * [`RioMode::Protected`] — the bits are enforced, and the Alpha 21064's
//!   ABOX-register bit forces KSEG addresses through the TLB, so no route
//!   side-steps them. Rio's protection always sets that bit: the only
//!   protected configuration is one with KSEG forced.
//! * [`RioMode::CodePatched`] — the software fallback for CPUs that cannot
//!   map physical addresses through the TLB: every kernel store is preceded
//!   by an inserted check, whatever its route. Functionally equivalent,
//!   20–50% slower; the bus charges a per-store check cost in this mode so
//!   the ablation bench can reproduce that band.
//!
//! The permission bits are a bitmap — one bit per physical page number, in
//! `u64` words, grown when a page beyond its end is first protected — because
//! the bus asks "is this page protected?" on every checked store the
//! interpreter issues, and because every kernel fork clones the table.
//! Pages beyond the bitmap's end are simply unprotected.

use crate::page::PageNum;

/// Which Rio reliability configuration is running, and so how the bus
/// checks stores against file-cache protection (the three columns of
/// Table 1 map to `Unprotected`/`Protected`; a disk-based system uses
/// `Unprotected` with Rio's registry machinery simply absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RioMode {
    /// Warm reboot only — permission bits ignored ("Rio without
    /// protection", middle column of Table 1; also the stock kernel).
    Unprotected,
    /// Full protection: pages write-protected, KSEG forced through the TLB
    /// ("Rio with protection", right column of Table 1).
    Protected,
    /// Software fault isolation fallback (§2.1 code patching, \[Wahbe93\]):
    /// same safety as `Protected` but every store pays a check; 20–50%
    /// slower.
    CodePatched,
}

impl RioMode {
    /// Whether this mode enforces write protection — on every route, KSEG
    /// included.
    #[inline]
    pub fn enforces(&self) -> bool {
        !matches!(self, RioMode::Unprotected)
    }
}

impl std::fmt::Display for RioMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RioMode::Unprotected => "rio-unprotected",
            RioMode::Protected => "rio-protected",
            RioMode::CodePatched => "rio-code-patched",
        };
        f.write_str(s)
    }
}

/// The machine's protection state: permission bits plus the mode that
/// decides whether they are consulted.
///
/// # Example
///
/// ```
/// use rio_mem::{ProtectionTable, RioMode, PageNum};
///
/// let mut prot = ProtectionTable::new(RioMode::Protected);
/// let pn = PageNum(9);
/// prot.protect(pn);
/// assert!(prot.store_would_trap(pn));
/// prot.unprotect(pn);
/// assert!(!prot.store_would_trap(pn));
/// ```
#[derive(Debug, Clone)]
pub struct ProtectionTable {
    mode: RioMode,
    /// Bit `pn % 64` of word `pn / 64` is set while page `pn` is protected.
    protected: Vec<u64>,
}

/// Splits a page number into (word index, bit mask) in the bitmap.
#[inline]
fn bit(pn: PageNum) -> (usize, u64) {
    ((pn.0 / 64) as usize, 1 << (pn.0 % 64))
}

impl ProtectionTable {
    /// Creates a table with the given mode and no pages protected yet.
    pub fn new(mode: RioMode) -> Self {
        ProtectionTable {
            mode,
            protected: Vec::new(),
        }
    }

    /// A table that never traps (stock kernel).
    pub fn disabled() -> Self {
        ProtectionTable::new(RioMode::Unprotected)
    }

    /// Current protection mode.
    #[inline]
    pub fn mode(&self) -> RioMode {
        self.mode
    }

    /// Changes the protection mode.
    pub fn set_mode(&mut self, mode: RioMode) {
        self.mode = mode;
    }

    /// Clears the write-permission bit for a page (page becomes read-only).
    pub fn protect(&mut self, pn: PageNum) {
        let (word, mask) = bit(pn);
        if word >= self.protected.len() {
            self.protected.resize(word + 1, 0);
        }
        self.protected[word] |= mask;
    }

    /// Sets the write-permission bit for a page (page becomes writable).
    pub fn unprotect(&mut self, pn: PageNum) {
        let (word, mask) = bit(pn);
        if let Some(w) = self.protected.get_mut(word) {
            *w &= !mask;
        }
    }

    /// Whether the page's permission bit denies writes.
    #[inline]
    pub fn is_protected(&self, pn: PageNum) -> bool {
        let (word, mask) = bit(pn);
        self.protected.get(word).is_some_and(|w| w & mask != 0)
    }

    /// Number of currently protected pages.
    pub fn protected_count(&self) -> usize {
        self.protected.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Decides whether a store to `pn` traps.
    ///
    /// This is the heart of §2.1: every mode that enforces protection
    /// checks every store, whatever its route — Rio forces KSEG through the
    /// TLB (or checks it in software), so a physical address is no way
    /// round the permission bits.
    #[inline]
    pub fn store_would_trap(&self, pn: PageNum) -> bool {
        self.mode.enforces() && self.is_protected(pn)
    }
}

impl Default for ProtectionTable {
    fn default() -> Self {
        ProtectionTable::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_mode_never_traps() {
        let mut p = ProtectionTable::disabled();
        p.protect(PageNum(1));
        assert!(!p.store_would_trap(PageNum(1)));
    }

    #[test]
    fn enforcing_modes_trap_only_protected_pages() {
        for mode in [RioMode::Protected, RioMode::CodePatched] {
            let mut p = ProtectionTable::new(mode);
            p.protect(PageNum(1));
            assert!(p.store_would_trap(PageNum(1)));
            assert!(!p.store_would_trap(PageNum(2)));
        }
    }

    #[test]
    fn protect_unprotect_round_trip() {
        let mut p = ProtectionTable::new(RioMode::Protected);
        assert_eq!(p.protected_count(), 0);
        p.protect(PageNum(5));
        p.protect(PageNum(5)); // idempotent
        assert_eq!(p.protected_count(), 1);
        assert!(p.is_protected(PageNum(5)));
        p.unprotect(PageNum(5));
        assert!(!p.is_protected(PageNum(5)));
        assert_eq!(p.protected_count(), 0);
    }

    /// The bitmap against the `HashSet<PageNum>` it replaced, under random
    /// protect/unprotect/clone traffic — including pages far beyond the
    /// bitmap's current length, which must read as unprotected and must not
    /// grow it when unprotected.
    #[test]
    fn bitmap_matches_a_hash_set_model() {
        use rio_det::proptest_lite::{check, Config, Gen};
        use rio_det::{pt_assert, pt_assert_eq};
        use std::collections::HashSet;

        fn any_page(g: &mut Gen) -> PageNum {
            PageNum(match g.in_range(0..4u32) {
                0 => g.in_range(0..8u64),
                1 => g.in_range(60..70u64), // around the first word boundary
                2 => g.in_range(0..700u64),
                _ => g.in_range(0..100_000u64),
            })
        }

        check(
            "bitmap_matches_a_hash_set_model",
            Config::with_cases(128),
            |g| {
                let mode = [
                    RioMode::Unprotected,
                    RioMode::Protected,
                    RioMode::CodePatched,
                ][g.in_range(0..3usize)];
                let mut table = ProtectionTable::new(mode);
                let mut model: HashSet<PageNum> = HashSet::new();
                for _ in 0..g.len_between(1, 200) {
                    let pn = any_page(g);
                    match g.in_range(0..5u32) {
                        0 | 1 => {
                            table.protect(pn);
                            model.insert(pn);
                        }
                        2 => {
                            let words = table.protected.len();
                            table.unprotect(pn);
                            model.remove(&pn);
                            pt_assert_eq!(table.protected.len(), words);
                        }
                        3 => {
                            // A clone is a snapshot: changing it leaves the
                            // original alone, and the reverse.
                            let mut fork = table.clone();
                            fork.protect(pn);
                            fork.unprotect(PageNum(pn.0 + 1 + g.in_range(0..70u64)));
                            pt_assert_eq!(table.is_protected(pn), model.contains(&pn));
                            table.unprotect(pn);
                            model.remove(&pn);
                            pt_assert!(fork.is_protected(pn));
                        }
                        _ => {
                            // Idempotence, both ways.
                            let before = (table.is_protected(pn), table.protected_count());
                            if before.0 {
                                table.protect(pn);
                            } else {
                                table.unprotect(pn);
                            }
                            pt_assert_eq!(
                                (table.is_protected(pn), table.protected_count()),
                                before
                            );
                        }
                    }
                    pt_assert_eq!(table.protected_count(), model.len());
                    let probe = any_page(g);
                    for pn in [pn, probe] {
                        let protected = model.contains(&pn);
                        pt_assert_eq!(table.is_protected(pn), protected);
                        pt_assert_eq!(
                            table.store_would_trap(pn),
                            mode != RioMode::Unprotected && protected
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn mode_display_and_enforces() {
        assert!(RioMode::Protected.enforces());
        assert!(RioMode::CodePatched.enforces());
        assert!(!RioMode::Unprotected.enforces());
        assert_eq!(RioMode::Unprotected.to_string(), "rio-unprotected");
        assert_eq!(RioMode::Protected.to_string(), "rio-protected");
        assert_eq!(RioMode::CodePatched.to_string(), "rio-code-patched");
    }
}
