//! Simulated physical memory, address translation, and write protection for
//! the Rio file cache reproduction.
//!
//! The Rio paper (ASPLOS 1996) protects the in-memory file cache by keeping
//! its pages write-protected in the page table and by forcing *physical*
//! ("KSEG") addresses — which on the DEC Alpha normally bypass the TLB —
//! through the TLB so that no store can side-step the permission bits.
//!
//! This crate models exactly that hardware surface:
//!
//! * [`PhysMem`] — a byte-addressable physical memory image, divided into
//!   the regions the simulated kernel uses (text, heap, stack, buffer cache,
//!   UBC, registry). The image is what survives a crash.
//! * [`ProtectionTable`] — per-page write-permission bits plus the one
//!   [`RioMode`] that decides how stores are checked: not at all, by the
//!   TLB with KSEG forced through it (the Alpha ABOX-register trick from
//!   §2.1 of the paper), or by code patching (the ablation study).
//! * [`MemBus`] — the only path by which simulated *kernel code* touches
//!   memory. Stores carry an [`AddrKind`] (virtual vs. KSEG) and fail with
//!   [`MemFault::ProtectionViolation`] when they hit a protected page while
//!   protection is enforced, by either route.
//! * [`crc32`] — the checksum used to detect direct corruption of file-cache
//!   pages (§3.2 of the paper).
//!
//! # Example
//!
//! ```
//! use rio_mem::{MemBus, MemConfig, AddrKind, MemFault};
//!
//! # fn main() -> Result<(), MemFault> {
//! let mut bus = MemBus::new(MemConfig::small());
//! let page = bus.layout().ubc.start;
//!
//! // An unprotected page accepts stores.
//! bus.store_u8(AddrKind::Virtual, page, 0xAB)?;
//!
//! // Enable protection, protect the page, and the same store traps.
//! let pn = bus.layout().page_of(page);
//! bus.protection_mut().set_mode(rio_mem::RioMode::Protected);
//! bus.protection_mut().protect(pn);
//! assert!(matches!(
//!     bus.store_u8(AddrKind::Virtual, page, 0xCD),
//!     Err(MemFault::ProtectionViolation { .. })
//! ));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod bus;
pub mod checksum;
pub mod layout;
pub mod page;
pub mod phys;
pub mod prot;

pub use bus::{AccessStats, AddrKind, MemBus, MemFault, SpanCompare};
pub use checksum::{
    crc32, crc32_append_sector, crc32_bytewise, crc32_combine, crc32_update, CrcShift,
};
pub use layout::{MemConfig, MemLayout, Region};
pub use page::{sector_mask, PageNum, PAGE_SIZE, SECTOR_BYTES};
pub use phys::PhysMem;
pub use prot::{ProtectionTable, RioMode};
