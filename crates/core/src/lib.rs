//! The Rio file cache core: registry, protection, atomic metadata updates,
//! and warm reboot — the paper's contribution (§2).
//!
//! Rio rests on two mechanisms:
//!
//! 1. **Protection** ([`ProtectionManager`]): file-cache and registry pages
//!    are write-protected; legitimate writers open a brief per-page write
//!    window. Combined with forcing KSEG physical addresses through the TLB
//!    (see [`rio_mem::ProtectionTable`]), no wild kernel store can reach the
//!    file cache without trapping.
//! 2. **Warm reboot** ([`warm`]): a protected [`Registry`] records, for
//!    every file-cache buffer, where it lives in physical memory and which
//!    file bytes it holds (40 bytes per 8 KB page, §2.2). After a crash the
//!    booting system scans the preserved memory image, restores metadata
//!    blocks to their disk addresses, and hands file pages to a user-level
//!    replay process.
//!
//! Atomic metadata updates (§2.3) use [`shadow`]: before mutating a
//! metadata buffer, its contents are copied to a shadow page and the
//! registry entry is atomically repointed at the shadow; a crash mid-update
//! recovers the old consistent copy.
//!
//! # Example: a registry entry surviving a "crash"
//!
//! ```
//! use rio_core::{Registry, RegistryEntry, EntryFlags, ProtectionManager, RioMode};
//! use rio_mem::{MemBus, MemConfig, PageNum};
//!
//! let mut bus = MemBus::new(MemConfig::small());
//! let registry = Registry::new(*bus.layout());
//! let mut prot = ProtectionManager::new(RioMode::Protected);
//! prot.install(&mut bus);
//!
//! // Register a dirty file page.
//! let page = PageNum::containing(bus.layout().ubc.start);
//! let slot = registry.slot_for_page(page).unwrap();
//! let entry = RegistryEntry {
//!     flags: EntryFlags::VALID | EntryFlags::DIRTY,
//!     phys_page: page.0 as u32,
//!     dev: 1,
//!     ino: 42,
//!     offset: 0,
//!     size: 8192,
//!     crc: bus.page_crc(page),
//! };
//! registry.write_entry(&mut bus, &mut prot, slot, &entry).unwrap();
//!
//! // "Crash": take the memory image; scan it like the warm reboot does.
//! let image = bus.into_image();
//! let recovery = rio_core::warm::scan_registry(&image);
//! assert_eq!(recovery.file_pages.len(), 1);
//! assert_eq!(recovery.file_pages[0].ino, 42);
//! ```

#![forbid(unsafe_code)]

pub mod protection;
pub mod registry;
pub mod shadow;
pub mod warm;

pub use protection::{ProtectionManager, ProtectionStats, RioMode};
pub use registry::{EntryFlags, Registry, RegistryEntry, RegistryError, ENTRY_BYTES, REG_MAGIC};
pub use shadow::ShadowPool;
pub use warm::{
    commit_replayed, commit_restored, scan_registry, RecoveredFilePage, RecoveredMetadata,
    Recovery, WarmRebootStats,
};
