//! The protection manager: write windows over protected file-cache pages.
//!
//! §2.1: *"File cache procedures must enable the write-permission bit in the
//! page table before writing a page and disable writes afterwards. The only
//! time a file cache page is vulnerable to an unauthorized store is while it
//! is being written."* The manager implements exactly that discipline and
//! counts window toggles so the cost model can charge them (they are the
//! entire overhead of Rio-with-protection, measured "essentially zero" in
//! Table 2 because windows amortize over 8 KB block writes).

use rio_mem::{MemBus, PageNum};

// The protection setting is defined beside the table the bus consults
// (`rio_mem::ProtectionTable`) and re-exported here, where the kernel's
// policy names it.
pub use rio_mem::RioMode;

/// Window-toggle counters (feed the cost model and Table 2's overhead rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtectionStats {
    /// Write windows opened (each is one protect + one unprotect).
    pub windows_opened: u64,
}

/// Maintains the protected state of file-cache and registry pages.
#[derive(Debug, Clone)]
pub struct ProtectionManager {
    mode: RioMode,
    stats: ProtectionStats,
}

impl ProtectionManager {
    /// A manager for the given mode (call [`ProtectionManager::install`]
    /// to apply it to a machine).
    pub fn new(mode: RioMode) -> Self {
        ProtectionManager {
            mode,
            stats: ProtectionStats::default(),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> RioMode {
        self.mode
    }

    /// Window counters so far.
    pub fn stats(&self) -> ProtectionStats {
        self.stats
    }

    /// Applies the mode to a machine at boot: sets the bus's protection
    /// mode (which, when it enforces, forces KSEG through the TLB) and
    /// write-protects every file-cache and registry page.
    pub fn install(&self, bus: &mut MemBus) {
        let layout = *bus.layout();
        let prot = bus.protection_mut();
        prot.set_mode(self.mode);
        if self.mode.enforces() {
            for region in [layout.buffer_cache, layout.ubc, layout.registry] {
                for pn in region.page_numbers() {
                    prot.protect(pn);
                }
            }
        }
    }

    /// Opens a write window on one page (pairs with
    /// [`ProtectionManager::window_close`]). Prefer
    /// [`ProtectionManager::with_window`] where a closure suffices; the
    /// open/close pair exists for callers that must interleave the window
    /// with other mutable state (the kernel's interpreted `bcopy`).
    pub fn window_open(&mut self, bus: &mut MemBus, page: PageNum) {
        if self.mode.enforces() {
            self.stats.windows_opened += 1;
            bus.protection_mut().unprotect(page);
        }
    }

    /// Closes a write window opened by [`ProtectionManager::window_open`].
    pub fn window_close(&mut self, bus: &mut MemBus, page: PageNum) {
        if self.mode.enforces() {
            bus.protection_mut().protect(page);
        }
    }

    /// Opens a write window on a page: clears its permission bit, runs `f`,
    /// and re-protects. In [`RioMode::Unprotected`] it just runs `f`.
    ///
    /// The window is re-closed even if `f` returns an error, mirroring the
    /// kernel's unwind discipline.
    pub fn with_window<R>(
        &mut self,
        bus: &mut MemBus,
        page: PageNum,
        f: impl FnOnce(&mut MemBus) -> R,
    ) -> R {
        if !self.mode.enforces() {
            return f(bus);
        }
        self.window_open(bus, page);
        let out = f(bus);
        self.window_close(bus, page);
        out
    }

    /// Opens a window spanning several pages (block writes that straddle a
    /// page boundary; metadata shadow copies).
    pub fn with_window_span<R>(
        &mut self,
        bus: &mut MemBus,
        pages: &[PageNum],
        f: impl FnOnce(&mut MemBus) -> R,
    ) -> R {
        if !self.mode.enforces() {
            return f(bus);
        }
        self.stats.windows_opened += 1;
        for &p in pages {
            bus.protection_mut().unprotect(p);
        }
        let out = f(bus);
        for &p in pages {
            bus.protection_mut().protect(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_mem::{AddrKind, MemConfig};

    #[test]
    fn install_protects_file_cache_and_registry() {
        let mut bus = MemBus::new(MemConfig::small());
        ProtectionManager::new(RioMode::Protected).install(&mut bus);
        let l = *bus.layout();
        for region in [l.buffer_cache, l.ubc, l.registry] {
            assert!(bus.store_u8(AddrKind::Virtual, region.start, 1).is_err());
            assert!(bus.store_u8(AddrKind::Kseg, region.start, 1).is_err());
        }
        // Heap/stack/text remain writable.
        for region in [l.heap, l.stack, l.text] {
            assert!(bus.store_u8(AddrKind::Virtual, region.start, 1).is_ok());
        }
    }

    #[test]
    fn unprotected_mode_never_traps() {
        let mut bus = MemBus::new(MemConfig::small());
        ProtectionManager::new(RioMode::Unprotected).install(&mut bus);
        let addr = bus.layout().ubc.start;
        assert!(bus.store_u8(AddrKind::Virtual, addr, 1).is_ok());
        assert!(bus.store_u8(AddrKind::Kseg, addr, 1).is_ok());
    }

    #[test]
    fn window_opens_and_recloses() {
        let mut bus = MemBus::new(MemConfig::small());
        let mut mgr = ProtectionManager::new(RioMode::Protected);
        mgr.install(&mut bus);
        let addr = bus.layout().ubc.start;
        let pn = PageNum::containing(addr);
        mgr.with_window(&mut bus, pn, |bus| {
            bus.store_u8(AddrKind::Virtual, addr, 0x7E).unwrap();
        });
        assert_eq!(bus.mem().read_u8(addr), 0x7E);
        // Closed again.
        assert!(bus.store_u8(AddrKind::Virtual, addr, 1).is_err());
        assert_eq!(mgr.stats().windows_opened, 1);
    }

    #[test]
    fn window_recloses_even_on_inner_error() {
        let mut bus = MemBus::new(MemConfig::small());
        let mut mgr = ProtectionManager::new(RioMode::Protected);
        mgr.install(&mut bus);
        let open_page = PageNum::containing(bus.layout().ubc.start);
        let other = bus.layout().buffer_cache.start;
        // Inner write to a *different* protected page fails; window still
        // closes.
        let res = mgr.with_window(&mut bus, open_page, |bus| {
            bus.store_u8(AddrKind::Virtual, other, 1)
        });
        assert!(res.is_err());
        assert!(bus
            .store_u8(AddrKind::Virtual, open_page.base(), 1)
            .is_err());
    }

    #[test]
    fn span_window_covers_multiple_pages() {
        let mut bus = MemBus::new(MemConfig::small());
        let mut mgr = ProtectionManager::new(RioMode::Protected);
        mgr.install(&mut bus);
        let start = bus.layout().ubc.start;
        let pages = [
            PageNum::containing(start),
            PageNum::containing(start + rio_mem::PAGE_SIZE as u64),
        ];
        mgr.with_window_span(&mut bus, &pages, |bus| {
            bus.store_bytes(
                AddrKind::Virtual,
                start + rio_mem::PAGE_SIZE as u64 - 4,
                &[9u8; 8],
            )
            .unwrap();
        });
        assert_eq!(bus.mem().read_u8(start + rio_mem::PAGE_SIZE as u64), 9);
        assert!(bus.store_u8(AddrKind::Virtual, start, 1).is_err());
    }

    #[test]
    fn unprotected_windows_cost_nothing() {
        let mut bus = MemBus::new(MemConfig::small());
        let mut mgr = ProtectionManager::new(RioMode::Unprotected);
        mgr.install(&mut bus);
        mgr.with_window(&mut bus, PageNum(0), |_| ());
        assert_eq!(mgr.stats().windows_opened, 0);
    }

    #[test]
    fn code_patched_installs_patching_mode() {
        let mut bus = MemBus::new(MemConfig::small());
        ProtectionManager::new(RioMode::CodePatched).install(&mut bus);
        assert_eq!(bus.protection().mode(), RioMode::CodePatched);
        // Stores to unprotected pages succeed but are counted as checks.
        bus.store_u8(AddrKind::Virtual, bus.layout().heap.start, 1)
            .unwrap();
        assert_eq!(bus.stats().patch_checks, 1);
    }
}
