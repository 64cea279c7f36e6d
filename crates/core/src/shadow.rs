//! Shadow pages: atomic metadata updates (§2.3).
//!
//! *"When the system wants to write to metadata in the buffer cache, it
//! first copies the contents to a shadow page and changes the registry
//! entry to point to the shadow. When it finishes writing, it atomically
//! points the registry entry back to the original buffer."*
//!
//! A crash in the middle of a metadata update therefore recovers the
//! *shadow* — the last consistent contents — instead of a half-mutated
//! buffer. The pool reserves its pages from the tail of the buffer-cache
//! region, so shadows enjoy the same write protection as the buffers they
//! guard.

use crate::protection::ProtectionManager;
use crate::registry::{EntryFlags, Registry, RegistryEntry};
use rio_mem::{AddrKind, MemBus, MemFault, MemLayout, PageNum, PAGE_SIZE};

/// A pool of reserved shadow pages.
#[derive(Debug, Clone)]
pub struct ShadowPool {
    free: Vec<PageNum>,
    reserved: Vec<PageNum>,
}

impl ShadowPool {
    /// Reserves the last `count` pages of the buffer-cache region.
    ///
    /// The kernel must exclude these pages from its buffer-slot allocator;
    /// [`ShadowPool::reserved_pages`] reports them.
    ///
    /// # Panics
    ///
    /// Panics if the buffer cache has fewer than `count + 1` pages.
    pub fn new(layout: &MemLayout, count: usize) -> Self {
        let total = (layout.buffer_cache.len() / PAGE_SIZE as u64) as usize;
        assert!(total > count, "buffer cache too small for {count} shadows");
        let first = layout.buffer_cache.start / PAGE_SIZE as u64;
        let reserved: Vec<PageNum> = (0..count)
            .map(|i| PageNum(first + (total - count + i) as u64))
            .collect();
        ShadowPool {
            free: reserved.clone(),
            reserved,
        }
    }

    /// Pages owned by the pool (excluded from normal buffer allocation).
    pub fn reserved_pages(&self) -> &[PageNum] {
        &self.reserved
    }

    /// Number of shadows currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Starts an atomic update of the metadata buffer described by `slot`:
    /// copies the buffer to a shadow page and repoints the registry entry.
    ///
    /// Returns the shadow page to pass to [`ShadowPool::end_atomic`], or
    /// `None` if the pool is exhausted (the kernel then falls back to a
    /// non-atomic update — same behaviour as a stock kernel).
    ///
    /// # Errors
    ///
    /// Bus faults propagate (only possible when fault injection has damaged
    /// protection state).
    pub fn begin_atomic(
        &mut self,
        bus: &mut MemBus,
        prot: &mut ProtectionManager,
        registry: &Registry,
        slot: u64,
        entry: &mut RegistryEntry,
    ) -> Result<Option<PageNum>, MemFault> {
        let Some(shadow) = self.free.pop() else {
            return Ok(None);
        };
        let orig = registry.page_for_slot(slot);
        // Copy current (consistent) contents into the shadow.
        prot.with_window(bus, shadow, |bus| {
            bus.copy_page(AddrKind::Virtual, orig, shadow)
        })?;
        // Atomically repoint the entry: a single entry write flips the
        // SHADOW bit and the shadow page number together.
        entry.flags = entry.flags.with(EntryFlags::SHADOW);
        entry.offset = shadow.0;
        registry.write_entry(bus, prot, slot, entry)?;
        Ok(Some(shadow))
    }

    /// Finishes an atomic update: repoints the entry back at the original
    /// buffer and returns the shadow to the pool. The caller has already
    /// set `entry.crc` to the CRC of the buffer's new contents — it knows
    /// what it wrote, so it need not re-hash the page
    /// ([`Registry::update_crc`] is the whole-page form).
    ///
    /// # Errors
    ///
    /// Bus faults propagate, as in [`ShadowPool::begin_atomic`].
    pub fn end_atomic(
        &mut self,
        bus: &mut MemBus,
        prot: &mut ProtectionManager,
        registry: &Registry,
        slot: u64,
        entry: &mut RegistryEntry,
        shadow: PageNum,
    ) -> Result<(), MemFault> {
        entry.flags = entry.flags.without(EntryFlags::SHADOW);
        entry.offset = 0;
        registry.write_entry(bus, prot, slot, entry)?;
        self.free.push(shadow);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::RioMode;
    use rio_mem::{crc32, MemConfig};

    fn setup() -> (MemBus, Registry, ProtectionManager, ShadowPool) {
        let mut bus = MemBus::new(MemConfig::small());
        let registry = Registry::new(*bus.layout());
        let prot = ProtectionManager::new(RioMode::Protected);
        prot.install(&mut bus);
        let pool = ShadowPool::new(bus.layout(), 4);
        (
            bus,
            registry,
            ProtectionManager::new(RioMode::Protected),
            pool,
        )
    }

    fn metadata_entry(registry: &Registry, slot: u64, crc: u32) -> RegistryEntry {
        RegistryEntry {
            flags: EntryFlags::VALID | EntryFlags::DIRTY | EntryFlags::METADATA,
            phys_page: registry.page_for_slot(slot).0 as u32,
            dev: 1,
            ino: 9, // disk block number for metadata
            offset: 0,
            size: PAGE_SIZE as u32,
            crc,
        }
    }

    #[test]
    fn pool_reserves_tail_of_buffer_cache() {
        let bus = MemBus::new(MemConfig::small());
        let pool = ShadowPool::new(bus.layout(), 3);
        assert_eq!(pool.available(), 3);
        let last = PageNum::containing(bus.layout().buffer_cache.end - 1);
        assert!(pool.reserved_pages().contains(&last));
    }

    #[test]
    fn atomic_update_protocol_round_trips() {
        let (mut bus, registry, mut prot, mut pool) = setup();
        let slot = 0u64;
        let orig = registry.page_for_slot(slot);

        // Seed original contents + entry.
        prot.with_window(&mut bus, orig, |bus| {
            bus.store_bytes(AddrKind::Virtual, orig.base(), &[7u8; 64])
        })
        .unwrap();
        let crc = crc32(bus.mem().page(orig));
        let mut entry = metadata_entry(&registry, slot, crc);
        registry
            .write_entry(&mut bus, &mut prot, slot, &entry)
            .unwrap();

        // Begin: registry points at the shadow with old contents.
        let shadow = pool
            .begin_atomic(&mut bus, &mut prot, &registry, slot, &mut entry)
            .unwrap()
            .expect("pool non-empty");
        assert_eq!(pool.available(), 3);
        let mid = registry.read_entry(bus.mem(), slot).unwrap().unwrap();
        assert!(mid.flags.contains(EntryFlags::SHADOW));
        assert_eq!(mid.offset, shadow.0);
        assert_eq!(bus.mem().page(shadow)[..64], [7u8; 64]);

        // Mutate the original ("the write").
        prot.with_window(&mut bus, orig, |bus| {
            bus.store_bytes(AddrKind::Virtual, orig.base(), &[8u8; 64])
        })
        .unwrap();

        // End: entry points back carrying the CRC the caller computed,
        // shadow freed.
        entry.crc = crc32(bus.mem().page(orig));
        assert_ne!(entry.crc, crc, "the write changed the page");
        pool.end_atomic(&mut bus, &mut prot, &registry, slot, &mut entry, shadow)
            .unwrap();
        assert_eq!(pool.available(), 4);
        let fin = registry.read_entry(bus.mem(), slot).unwrap().unwrap();
        assert!(!fin.flags.contains(EntryFlags::SHADOW));
        assert_eq!(fin.offset, 0);
        assert_eq!(fin.crc, entry.crc, "end_atomic stores the caller's CRC");
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let (mut bus, registry, mut prot, mut pool) = setup();
        let mut taken = Vec::new();
        for slot in 0..4 {
            let mut e = metadata_entry(&registry, slot, 0);
            registry.write_entry(&mut bus, &mut prot, slot, &e).unwrap();
            taken.push(
                pool.begin_atomic(&mut bus, &mut prot, &registry, slot, &mut e)
                    .unwrap()
                    .unwrap(),
            );
        }
        let mut e = metadata_entry(&registry, 4, 0);
        registry.write_entry(&mut bus, &mut prot, 4, &e).unwrap();
        assert_eq!(
            pool.begin_atomic(&mut bus, &mut prot, &registry, 4, &mut e)
                .unwrap(),
            None
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn oversized_pool_panics() {
        let bus = MemBus::new(MemConfig::small());
        let total = (bus.layout().buffer_cache.len() / PAGE_SIZE as u64) as usize;
        ShadowPool::new(bus.layout(), total);
    }
}
