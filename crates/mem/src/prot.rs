//! Per-page write protection and the TLB-bypass controls of §2.1.
//!
//! The protection table models the subset of the page table / TLB state that
//! matters to Rio: one write-permission bit per physical page, plus two
//! machine-wide switches:
//!
//! * `kseg_through_tlb` — the Alpha 21064 ABOX-register bit that forces
//!   physical (KSEG) addresses through the TLB, so they obey the permission
//!   bits. Off by default (stock Digital Unix), on when Rio protection is
//!   enabled.
//! * [`ProtectionMode::CodePatching`] — the software fallback for CPUs that
//!   cannot map physical addresses through the TLB: every kernel store is
//!   preceded by an inserted check. Functionally equivalent, 20–50% slower;
//!   the bus charges a per-store check cost in this mode so the ablation
//!   bench can reproduce that band.
//!
//! The permission bits are a bitmap — one bit per physical page number, in
//! `u64` words, grown when a page beyond its end is first protected — because
//! the bus asks "is this page protected?" on every checked store the
//! interpreter issues, and because every kernel fork clones the table.
//! Pages beyond the bitmap's end are simply unprotected.

use crate::page::PageNum;

/// How stores are checked against file-cache protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtectionMode {
    /// No protection at all: permission bits are ignored (stock kernel, and
    /// the "Rio without protection" configuration).
    #[default]
    Off,
    /// Hardware protection: virtual stores honour permission bits; KSEG
    /// stores honour them only if `kseg_through_tlb` is also set.
    Hardware,
    /// Software fault isolation: like `Hardware` with `kseg_through_tlb`,
    /// but every store pays an extra check cost (code patching, \[Wahbe93\]).
    CodePatching,
}

impl std::fmt::Display for ProtectionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProtectionMode::Off => "off",
            ProtectionMode::Hardware => "hardware",
            ProtectionMode::CodePatching => "code-patching",
        };
        f.write_str(s)
    }
}

/// The machine's protection state: permission bits plus bypass switches.
///
/// # Example
///
/// ```
/// use rio_mem::{ProtectionTable, ProtectionMode, PageNum};
///
/// let mut prot = ProtectionTable::new(ProtectionMode::Hardware, true);
/// let pn = PageNum(9);
/// prot.protect(pn);
/// assert!(prot.store_would_trap(pn, /*kseg=*/ false));
/// prot.unprotect(pn);
/// assert!(!prot.store_would_trap(pn, false));
/// ```
#[derive(Debug, Clone)]
pub struct ProtectionTable {
    mode: ProtectionMode,
    kseg_through_tlb: bool,
    /// Bit `pn % 64` of word `pn / 64` is set while page `pn` is protected.
    protected: Vec<u64>,
}

/// Splits a page number into (word index, bit mask) in the bitmap.
#[inline]
fn bit(pn: PageNum) -> (usize, u64) {
    ((pn.0 / 64) as usize, 1 << (pn.0 % 64))
}

impl ProtectionTable {
    /// Creates a table with the given mode and KSEG policy and no pages
    /// protected yet.
    pub fn new(mode: ProtectionMode, kseg_through_tlb: bool) -> Self {
        ProtectionTable {
            mode,
            kseg_through_tlb,
            protected: Vec::new(),
        }
    }

    /// A table that never traps (stock kernel).
    pub fn disabled() -> Self {
        ProtectionTable::new(ProtectionMode::Off, false)
    }

    /// Current protection mode.
    #[inline]
    pub fn mode(&self) -> ProtectionMode {
        self.mode
    }

    /// Whether KSEG (physical) addresses are forced through the TLB.
    #[inline]
    pub fn kseg_through_tlb(&self) -> bool {
        self.kseg_through_tlb
    }

    /// Sets the KSEG-through-TLB bit (the ABOX trick).
    pub fn set_kseg_through_tlb(&mut self, on: bool) {
        self.kseg_through_tlb = on;
    }

    /// Changes the protection mode.
    pub fn set_mode(&mut self, mode: ProtectionMode) {
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

    /// Decides whether a store to `pn` via the given route traps.
    ///
    /// This is the heart of §2.1: a KSEG store bypasses the permission bits
    /// unless the machine maps KSEG through the TLB (hardware mode with the
    /// ABOX bit, or code patching which checks every store in software).
    #[inline]
    pub fn store_would_trap(&self, pn: PageNum, kseg: bool) -> bool {
        self.route_is_checked(kseg) && self.is_protected(pn)
    }

    /// Whether a store issued by the given route is subject to the
    /// permission bits at all — the page-independent half of
    /// [`ProtectionTable::store_would_trap`], which the bus evaluates once
    /// per store.
    #[inline]
    pub(crate) fn route_is_checked(&self, kseg: bool) -> bool {
        match self.mode {
            ProtectionMode::Off => false,
            ProtectionMode::Hardware => !kseg || self.kseg_through_tlb,
            // Code patching checks every store in software regardless of the
            // address route.
            ProtectionMode::CodePatching => true,
        }
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
    fn off_mode_never_traps() {
        let mut p = ProtectionTable::disabled();
        p.protect(PageNum(1));
        assert!(!p.store_would_trap(PageNum(1), false));
        assert!(!p.store_would_trap(PageNum(1), true));
    }

    #[test]
    fn hardware_mode_traps_virtual_stores() {
        let mut p = ProtectionTable::new(ProtectionMode::Hardware, false);
        p.protect(PageNum(1));
        assert!(p.store_would_trap(PageNum(1), false));
        assert!(!p.store_would_trap(PageNum(2), false));
    }

    #[test]
    fn kseg_bypasses_unless_mapped_through_tlb() {
        let mut p = ProtectionTable::new(ProtectionMode::Hardware, false);
        p.protect(PageNum(1));
        // Without the ABOX bit, physical addresses slip past protection —
        // the vulnerability Rio closes.
        assert!(!p.store_would_trap(PageNum(1), true));
        p.set_kseg_through_tlb(true);
        assert!(p.store_would_trap(PageNum(1), true));
    }

    #[test]
    fn code_patching_checks_all_routes() {
        let mut p = ProtectionTable::new(ProtectionMode::CodePatching, false);
        p.protect(PageNum(1));
        assert!(p.store_would_trap(PageNum(1), false));
        assert!(p.store_would_trap(PageNum(1), true));
    }

    #[test]
    fn protect_unprotect_round_trip() {
        let mut p = ProtectionTable::new(ProtectionMode::Hardware, true);
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
                    ProtectionMode::Off,
                    ProtectionMode::Hardware,
                    ProtectionMode::CodePatching,
                ][g.in_range(0..3usize)];
                let through_tlb = g.bool();
                let mut table = ProtectionTable::new(mode, through_tlb);
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
                        for kseg in [false, true] {
                            let checked = match mode {
                                ProtectionMode::Off => false,
                                ProtectionMode::Hardware => !kseg || through_tlb,
                                ProtectionMode::CodePatching => true,
                            };
                            pt_assert_eq!(table.store_would_trap(pn, kseg), checked && protected);
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn display_modes() {
        assert_eq!(ProtectionMode::Off.to_string(), "off");
        assert_eq!(ProtectionMode::Hardware.to_string(), "hardware");
        assert_eq!(ProtectionMode::CodePatching.to_string(), "code-patching");
    }
}
