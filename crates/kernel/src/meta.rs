//! Metadata operations: buffer cache, inodes, block bitmap, directories,
//! and the AdvFS-style journal.
//!
//! Every metadata mutation funnels through `Kernel::meta_update`, which
//! implements the full §2.3 discipline when Rio is on — registry entry,
//! shadow-paged atomicity, per-page write windows — and the policy's
//! write-back rule (synchronous / journaled / delayed / never) otherwise.

use crate::error::{KernelError, PanicReason};
use crate::kernel::Kernel;
use crate::machine::Machine;
use crate::ondisk::{
    DirEntry, FileType, Inode, DIRENTS_PER_BLOCK, DIRENT_BYTES, INODE_BYTES, MAX_FILE_BLOCKS,
    NDIRECT, NINDIRECT,
};
use crate::policy::MetadataPolicy;
use rio_core::{EntryFlags, RegistryEntry};
use rio_disk::BLOCK_SIZE;
use rio_mem::{AddrKind, PageNum, PAGE_SIZE};

impl Kernel {
    /// Maps an internal panic reason to the syscall error, crashing the
    /// system (shorthand used throughout the kernel).
    pub(crate) fn die(&mut self, reason: PanicReason) -> KernelError {
        self.panic_from(reason)
    }

    /// Acquires a kernel lock; a lock assertion failure crashes the system.
    pub(crate) fn lock(&mut self, id: crate::locks::LockId) -> Result<(), KernelError> {
        let m = &mut self.machine;
        let r = m.locks.acquire(m.bus.mem_mut(), &mut m.hooks, id);
        r.map_err(|e| self.panic_from(e))
    }

    /// Releases a kernel lock. Skipped once the system has crashed (the
    /// unwinding path of a dying kernel does not bother).
    pub(crate) fn unlock(&mut self, id: crate::locks::LockId) -> Result<(), KernelError> {
        if self.is_crashed() {
            return Ok(());
        }
        let m = &mut self.machine;
        let r = m.locks.release(m.bus.mem_mut(), &mut m.hooks, id);
        r.map_err(|e| self.panic_from(e))
    }

    /// Bounds-checks a disk block number before any device access: a wild
    /// block number (corrupted pointer) must crash the kernel, not the
    /// simulator.
    pub(crate) fn check_block(&mut self, block: u64) -> Result<(), KernelError> {
        if block >= self.geometry.num_blocks {
            return Err(self.die(PanicReason::Consistency(
                "block number out of range".to_owned(),
            )));
        }
        Ok(())
    }

    /// Runs `f` on the machine behind a one-page write window on a
    /// file-cache page. The window opens only when Rio enforces
    /// protection; otherwise `f` just runs.
    pub(crate) fn with_fc_window<R>(
        &mut self,
        page: PageNum,
        f: impl FnOnce(&mut Machine) -> R,
    ) -> R {
        let Some(rio) = self.rio.as_mut().filter(|rio| rio.prot.mode().enforces()) else {
            return f(&mut self.machine);
        };
        rio.prot.window_open(&mut self.machine.bus, page);
        let out = f(&mut self.machine);
        rio.prot.window_close(&mut self.machine.bus, page);
        out
    }

    /// Stores bytes into a file-cache page through the protected path.
    pub(crate) fn fc_store(
        &mut self,
        page: PageNum,
        addr: u64,
        bytes: &[u8],
    ) -> Result<(), KernelError> {
        self.with_fc_window(page, |m| m.bus.store_bytes(AddrKind::Virtual, addr, bytes))
            .map_err(|f| self.die(PanicReason::Mem(f)))
    }

    /// Writes a page's registry entry (no-op when Rio is off).
    ///
    /// File (non-metadata) entries are written through to the decoded-entry
    /// cache, so the flag flips in `write_one_page` never re-decode the
    /// 40-byte encoding on the next read. Metadata entries are *not* cached:
    /// the shadow-atomic protocol mutates them through `rio-core` directly,
    /// and a cached copy would go stale mid-update.
    pub(crate) fn rio_write_entry(
        &mut self,
        page: PageNum,
        entry: &RegistryEntry,
    ) -> Result<(), KernelError> {
        let Some(rio) = self.rio.as_mut() else {
            return Ok(());
        };
        let Some(slot) = rio.registry.slot_for_page(page) else {
            return Err(self.die(PanicReason::Consistency(
                "registry: page not covered".to_owned(),
            )));
        };
        let res = rio
            .registry
            .write_entry(&mut self.machine.bus, &mut rio.prot, slot, entry);
        if res.is_ok() {
            if entry.flags.contains(EntryFlags::METADATA) {
                rio.entry_cache.remove(&page);
            } else {
                rio.entry_cache.insert(page, *entry);
            }
        }
        res.map_err(|f| self.die(PanicReason::Mem(f)))
    }

    /// Reads a page's registry entry; a corrupt entry crashes the kernel.
    ///
    /// Served from the decoded-entry cache when possible (file pages only;
    /// see [`Kernel::rio_write_entry`]) — the in-memory encoding is the
    /// crash-surviving mirror, not the hot-path source of truth.
    pub(crate) fn rio_read_entry(
        &mut self,
        page: PageNum,
    ) -> Result<Option<RegistryEntry>, KernelError> {
        let Some(rio) = self.rio.as_ref() else {
            return Ok(None);
        };
        if let Some(e) = rio.entry_cache.get(&page) {
            return Ok(Some(*e));
        }
        let Some(slot) = rio.registry.slot_for_page(page) else {
            return Ok(None);
        };
        match rio.registry.read_entry(self.machine.bus.mem(), slot) {
            Ok(Some(e)) => {
                if !e.flags.contains(EntryFlags::METADATA) {
                    self.rio
                        .as_mut()
                        .expect("rio checked")
                        .entry_cache
                        .insert(page, e);
                }
                Ok(Some(e))
            }
            Ok(None) => Ok(None),
            Err(_) => Err(self.die(PanicReason::Consistency(
                "registry: corrupt entry".to_owned(),
            ))),
        }
    }

    /// Clears a page's registry entry (eviction, unlink).
    pub(crate) fn rio_clear_entry(&mut self, page: PageNum) -> Result<(), KernelError> {
        self.crc_cache.invalidate_page(page);
        let Some(rio) = self.rio.as_mut() else {
            return Ok(());
        };
        rio.entry_cache.remove(&page);
        let Some(slot) = rio.registry.slot_for_page(page) else {
            return Ok(());
        };
        rio.registry
            .clear_entry(&mut self.machine.bus, &mut rio.prot, slot)
            .map_err(|f| self.die(PanicReason::Mem(f)))
    }

    /// Ensures a metadata block is resident in the buffer cache, returning
    /// its page. `zero_fill` skips the disk read for a freshly allocated
    /// block and zeroes the page instead.
    pub(crate) fn bget(&mut self, block: u64, zero_fill: bool) -> Result<PageNum, KernelError> {
        self.check_block(block)?;
        if let Some(page) = self.bufcache.lookup(block) {
            return Ok(page);
        }
        self.machine.clock.charge_page_op();
        let (page, evicted) = self.bufcache.insert(block);
        if let Some(ev) = evicted {
            if ev.dirty {
                // Overflow write-back: allowed even under Rio (§2.3 — disk
                // writes happen only when the cache overflows). Synchronous:
                // once the frame is reused the queued write would be the
                // block's only copy, and a crash loses queued writes.
                self.stats.overflow_writebacks += 1;
                self.bwrite(ev.key, ev.page);
            }
            self.wait_frame_flush(ev.page);
            self.rio_clear_entry(ev.page)?;
        }
        if zero_fill {
            self.with_fc_window(page, |m| m.bzero(page.base(), PAGE_SIZE as u64))
                .map_err(|e| self.die(e))?;
        } else {
            let data = self.machine.bread(block);
            self.fc_store(page, page.base(), &data)?;
        }
        // Register the (clean) resident block.
        if self.rio.is_some() {
            let crc = self.meta_page_crc(page, PAGE_SIZE as u32);
            self.rio_write_entry(
                page,
                &RegistryEntry {
                    flags: EntryFlags::VALID | EntryFlags::METADATA,
                    phys_page: page.0 as u32,
                    dev: 1,
                    ino: block,
                    offset: 0,
                    size: PAGE_SIZE as u32,
                    crc,
                },
            )?;
        }
        Ok(page)
    }

    /// CRC of a metadata page's first `valid` bytes *as memory holds them
    /// now*, re-hashing only the sectors some store has touched since the
    /// page's CRC was last derived: the sector cache, told what the
    /// written-sector log saw (`crc_cache` module docs, metadata column).
    /// The one consumer of [`rio_mem::PhysMem::take_written`].
    fn meta_page_crc(&mut self, page: PageNum, valid: u32) -> u32 {
        let written = self.machine.bus.mem_mut().take_written(page);
        self.crc_cache.note_sectors(page, written);
        self.crc_cache
            .prefix_crc(self.machine.bus.mem(), page, valid)
    }

    /// The single funnel for metadata mutation: updates `bytes` at `off`
    /// within `block`, with Rio's shadow-atomic protocol and the policy's
    /// write-back rule.
    pub(crate) fn meta_update(
        &mut self,
        block: u64,
        off: usize,
        bytes: &[u8],
    ) -> Result<(), KernelError> {
        self.meta_update_inner(block, off, bytes, false, true)
    }

    /// As [`Kernel::meta_update`] for an ordering-noncritical update (file
    /// size/mtime, block pointers, allocation bitmap): real FFS writes
    /// these asynchronously even under synchronous-metadata policy — only
    /// name-space changes (dir entries, inode create/free) are ordered
    /// \[Ganger94\].
    pub(crate) fn meta_update_async(
        &mut self,
        block: u64,
        off: usize,
        bytes: &[u8],
    ) -> Result<(), KernelError> {
        self.meta_update_inner(block, off, bytes, false, false)
    }

    /// As [`Kernel::meta_update`] for a freshly allocated (zero-filled)
    /// block.
    pub(crate) fn meta_update_fresh(
        &mut self,
        block: u64,
        off: usize,
        bytes: &[u8],
    ) -> Result<(), KernelError> {
        self.meta_update_inner(block, off, bytes, true, true)
    }

    fn meta_update_inner(
        &mut self,
        block: u64,
        off: usize,
        bytes: &[u8],
        fresh: bool,
        critical: bool,
    ) -> Result<(), KernelError> {
        self.lock(crate::locks::LockId::Buf)?;
        let r = self.meta_update_locked(block, off, bytes, fresh, critical);
        self.unlock(crate::locks::LockId::Buf)?;
        r
    }

    fn meta_update_locked(
        &mut self,
        block: u64,
        off: usize,
        bytes: &[u8],
        fresh: bool,
        critical: bool,
    ) -> Result<(), KernelError> {
        assert!(off + bytes.len() <= BLOCK_SIZE, "update within one block");
        let page = self.bget(block, fresh)?;
        self.machine.clock.charge_page_op();

        // §2.3 atomic update: copy to shadow, repoint registry, mutate,
        // repoint back.
        let mut shadow_ctx = None;
        if self.rio.is_some() {
            let mut entry = self
                .rio_read_entry(page)?
                .ok_or_else(|| {
                    PanicReason::Consistency("registry: missing metadata entry".to_owned())
                })
                .map_err(|e| self.die(e))?;
            entry.flags = entry.flags.with(EntryFlags::DIRTY);
            let rio = self.rio.as_mut().expect("rio checked");
            let slot = rio.registry.slot_for_page(page).expect("covered");
            let shadow = rio
                .shadows
                .begin_atomic(
                    &mut self.machine.bus,
                    &mut rio.prot,
                    &rio.registry,
                    slot,
                    &mut entry,
                )
                .map_err(|f| self.die(PanicReason::Mem(f)))?;
            shadow_ctx = Some((slot, entry, shadow));
        }

        self.fc_store(page, page.base() + off as u64, bytes)?;

        if let Some((slot, mut entry, shadow)) = shadow_ctx {
            entry.crc = self.meta_page_crc(page, entry.size);
            let rio = self.rio.as_mut().expect("rio checked");
            let committed_shadow = shadow.is_some();
            let res = match shadow {
                Some(sh) => rio.shadows.end_atomic(
                    &mut self.machine.bus,
                    &mut rio.prot,
                    &rio.registry,
                    slot,
                    &mut entry,
                    sh,
                ),
                // Pool exhausted: non-atomic fallback, still the new CRC.
                None => {
                    rio.registry
                        .write_entry(&mut self.machine.bus, &mut rio.prot, slot, &entry)
                }
            };
            res.map_err(|f| self.die(PanicReason::Mem(f)))?;
            if committed_shadow {
                self.stats.shadow_commits += 1;
                if rio_obs::is_enabled() {
                    rio_obs::emit(
                        rio_obs::EventCategory::ShadowCommit,
                        rio_obs::Payload::Block { block, aux: slot },
                    );
                }
            }
        }
        self.bufcache.mark_dirty(block);

        // Policy write-back. Only ordering-critical updates pay the
        // synchronous write under MetadataPolicy::Sync.
        match self.policy.metadata {
            MetadataPolicy::Sync if !critical => {
                // A stock kernel would bwrite this non-critical update too;
                // the policy leaves it delayed-dirty (§3.2 conversion).
                self.note_bwrite_converted(block);
            }
            MetadataPolicy::Sync => {
                self.bwrite(block, page);
                self.bufcache.mark_clean(block);
            }
            MetadataPolicy::Journal => {
                self.journal_append(page);
            }
            MetadataPolicy::Delayed | MetadataPolicy::Never => {
                self.note_bwrite_converted(block);
            }
        }
        Ok(())
    }

    /// Records one bwrite→bdwrite conversion: a metadata update that a
    /// stock sync-metadata kernel would have pushed synchronously stays a
    /// delayed write under this policy.
    fn note_bwrite_converted(&mut self, block: u64) {
        self.stats.bwrite_to_bdwrite += 1;
        if rio_obs::is_enabled() {
            rio_obs::emit(
                rio_obs::EventCategory::BwriteConverted,
                rio_obs::Payload::Block { block, aux: 0 },
            );
        }
    }

    // ------------------------------------------------------------------
    // Inodes
    // ------------------------------------------------------------------

    /// Reads an inode that must be live; a free or corrupt record panics
    /// (a referenced-but-free inode is file-system corruption).
    pub(crate) fn read_inode(&mut self, ino: u64) -> Result<Inode, KernelError> {
        match self.read_inode_opt(ino)? {
            Some(i) => Ok(i),
            None => Err(self.die(PanicReason::Consistency(
                "inode table: reference to free inode".to_owned(),
            ))),
        }
    }

    /// Reads an inode record; `None` if free.
    pub(crate) fn read_inode_opt(&mut self, ino: u64) -> Result<Option<Inode>, KernelError> {
        if ino == 0 || ino >= self.geometry.num_inodes {
            return Err(self.die(PanicReason::Consistency(
                "inode number out of range".to_owned(),
            )));
        }
        let (block, off) = self.geometry.inode_location(ino);
        let page = self.bget(block, false)?;
        let rec = self
            .machine
            .bus
            .mem()
            .slice(page.base() + off as u64, INODE_BYTES as u64);
        match Inode::decode(rec) {
            Ok(i) => Ok(i),
            Err(()) => Err(self.die(PanicReason::Consistency(
                "inode table: bad inode magic".to_owned(),
            ))),
        }
    }

    /// Writes an inode record through the metadata path (ordering-critical:
    /// inode creation and similar name-space changes).
    pub(crate) fn write_inode(&mut self, ino: u64, inode: &Inode) -> Result<(), KernelError> {
        let (block, off) = self.geometry.inode_location(ino);
        self.meta_update(block, off, &inode.encode())
    }

    /// Writes an inode record without the synchronous-ordering obligation
    /// (size/mtime/block-pointer updates on the data path).
    pub(crate) fn write_inode_async(&mut self, ino: u64, inode: &Inode) -> Result<(), KernelError> {
        let (block, off) = self.geometry.inode_location(ino);
        self.meta_update_async(block, off, &inode.encode())
    }

    /// Allocates a fresh inode of the given type.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoInodes`] when the table is full.
    pub(crate) fn alloc_inode(&mut self, itype: FileType) -> Result<u64, KernelError> {
        self.machine.clock.charge_page_op();
        let g = self.geometry;
        // One look-up per inode block, then a scan of its records.
        let mut ino = 1;
        while ino < g.num_inodes {
            let (block, off) = g.inode_location(ino);
            let page = self.bget(block, false)?;
            let here = (((BLOCK_SIZE - off) / INODE_BYTES) as u64).min(g.num_inodes - ino);
            let records = self
                .machine
                .bus
                .mem()
                .slice(page.base() + off as u64, here * INODE_BYTES as u64);
            // A free record has a zero magic.
            let free = records
                .chunks_exact(INODE_BYTES)
                .position(|rec| rec[..4] == [0; 4]);
            if let Some(i) = free {
                return self.claim_inode(ino + i as u64, itype);
            }
            ino += here;
        }
        Err(KernelError::NoInodes)
    }

    /// Writes a fresh inode of type `itype` into the free record `ino`.
    fn claim_inode(&mut self, ino: u64, itype: FileType) -> Result<u64, KernelError> {
        let mut inode = Inode::empty(itype);
        inode.mtime = self.machine.clock.now().as_micros();
        if itype == FileType::Dir {
            inode.nlink = 2;
        }
        self.write_inode(ino, &inode)?;
        Ok(ino)
    }

    /// [`Kernel::alloc_inode`] as first written — one `bget` per candidate
    /// inode. The definition the block-at-a-time scan is tested against.
    #[cfg(test)]
    fn alloc_inode_reference(&mut self, itype: FileType) -> Result<u64, KernelError> {
        self.machine.clock.charge_page_op();
        for ino in 1..self.geometry.num_inodes {
            let (block, off) = self.geometry.inode_location(ino);
            let page = self.bget(block, false)?;
            let magic_bytes = self.machine.bus.mem().slice(page.base() + off as u64, 4);
            if magic_bytes.iter().all(|&b| b == 0) {
                return self.claim_inode(ino, itype);
            }
        }
        Err(KernelError::NoInodes)
    }

    /// Frees an inode (zeroes its record).
    pub(crate) fn free_inode(&mut self, ino: u64) -> Result<(), KernelError> {
        let (block, off) = self.geometry.inode_location(ino);
        self.meta_update(block, off, &[0u8; INODE_BYTES])
    }

    // ------------------------------------------------------------------
    // Block bitmap
    // ------------------------------------------------------------------

    /// Allocates up to `n` data blocks as one extent: the `n` lowest free
    /// blocks in ascending order — exactly the blocks `n` first-fit
    /// allocations in a row would choose — with one bitmap update per
    /// bitmap block they fall in. When the disk runs out part-way, the
    /// blocks it had are returned (and stay allocated); the caller sees
    /// the shortfall.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSpace`] when not one block is free.
    pub(crate) fn alloc_blocks(&mut self, n: usize) -> Result<Vec<u64>, KernelError> {
        debug_assert!(n > 0, "an extent of no blocks");
        self.machine.clock.charge_page_op();
        let g = self.geometry;
        let mut got = Vec::with_capacity(n);
        // One look-up per bitmap block, then a scan of its bytes; the last
        // bitmap block tracks fewer blocks than it has bits.
        let mut b = g.data_start;
        while b < g.num_blocks && got.len() < n {
            let (bm_block, from) = g.bitmap_location(b);
            let page = self.bget(bm_block, false)?;
            let here = ((8 * BLOCK_SIZE - from) as u64).min(g.num_blocks - b);
            let bitmap = self.machine.bus.mem().page(page);
            let mut bits = Vec::new();
            let mut at = from;
            while got.len() + bits.len() < n {
                let Some(bit) = first_clear_bit(bitmap, at, from + here as usize) else {
                    break;
                };
                bits.push(bit);
                at = bit + 1;
            }
            if let (Some(&lo), Some(&hi)) = (bits.first(), bits.last()) {
                let (lo, hi) = (lo / 8, hi / 8);
                let mut bytes = bitmap[lo..=hi].to_vec();
                for &bit in &bits {
                    bytes[bit / 8 - lo] |= 1 << (bit % 8);
                }
                self.meta_update_async(bm_block, lo, &bytes)?;
                got.extend(bits.iter().map(|&bit| b + (bit - from) as u64));
            }
            b += here;
        }
        if got.is_empty() {
            return Err(KernelError::NoSpace);
        }
        Ok(got)
    }

    /// One-block [`Kernel::alloc_blocks`] as first written — one `bget` per
    /// candidate bit. The definition the block-at-a-time scan is tested
    /// against.
    #[cfg(test)]
    fn alloc_block_reference(&mut self) -> Result<u64, KernelError> {
        self.machine.clock.charge_page_op();
        let g = self.geometry;
        for b in g.data_start..g.num_blocks {
            let (bm_block, bit) = g.bitmap_location(b);
            let page = self.bget(bm_block, false)?;
            let byte_addr = page.base() + (bit / 8) as u64;
            let byte = self.machine.bus.mem().read_u8(byte_addr);
            if byte & (1 << (bit % 8)) == 0 {
                let new = byte | (1 << (bit % 8));
                self.meta_update_async(bm_block, bit / 8, &[new])?;
                return Ok(b);
            }
        }
        Err(KernelError::NoSpace)
    }

    /// Frees a set of data blocks, coalescing bitmap updates per bitmap
    /// block (one metadata write per touched bitmap block, as FFS does).
    pub(crate) fn free_blocks(&mut self, blocks: &[u64]) -> Result<(), KernelError> {
        use std::collections::BTreeMap;
        let g = self.geometry;
        let mut per_bitmap: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for &b in blocks {
            if b < g.data_start || b >= g.num_blocks {
                return Err(self.die(PanicReason::Consistency(
                    "freeing non-data block".to_owned(),
                )));
            }
            let (bm_block, bit) = g.bitmap_location(b);
            per_bitmap.entry(bm_block).or_default().push(bit);
        }
        for (bm_block, bits) in per_bitmap {
            let page = self.bget(bm_block, false)?;
            let mut data = self.machine.bus.mem().page(page).to_vec();
            for bit in bits {
                let mask = 1u8 << (bit % 8);
                if data[bit / 8] & mask == 0 {
                    return Err(self.die(PanicReason::Consistency("freeing free block".to_owned())));
                }
                data[bit / 8] &= !mask;
            }
            self.meta_update_async(bm_block, 0, &data)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // File block mapping
    // ------------------------------------------------------------------

    /// The disk block backing file page `idx` of `inode`, if allocated.
    pub(crate) fn file_block(
        &mut self,
        inode: &Inode,
        idx: u64,
    ) -> Result<Option<u64>, KernelError> {
        if idx >= MAX_FILE_BLOCKS {
            return Err(KernelError::FileTooBig);
        }
        let raw = if (idx as usize) < NDIRECT {
            inode.direct[idx as usize]
        } else {
            if inode.indirect == 0 {
                return Ok(None);
            }
            self.check_block(inode.indirect)?;
            let page = self.bget(inode.indirect, false)?;
            let slot = (idx as usize - NDIRECT) * 8;
            self.machine.bus.mem().read_u64(page.base() + slot as u64)
        };
        if raw == 0 {
            return Ok(None);
        }
        if raw < self.geometry.data_start || raw >= self.geometry.num_blocks {
            return Err(self.die(PanicReason::Consistency(
                "inode: bad block pointer".to_owned(),
            )));
        }
        Ok(Some(raw))
    }

    /// Records `blocks` as the backing store of the file pages `first`,
    /// `first + 1`, …, through the metadata path: one inode write when a
    /// direct pointer changes or the indirect block is new, and one update
    /// of the indirect block's slots when the run reaches past the direct
    /// pointers. A run that first enters the indirect range allocates the
    /// indirect block here, after the run's own blocks.
    pub(crate) fn set_file_blocks(
        &mut self,
        ino: u64,
        inode: &mut Inode,
        first: u64,
        blocks: &[u64],
    ) -> Result<(), KernelError> {
        let end = first + blocks.len() as u64;
        if end > MAX_FILE_BLOCKS {
            return Err(KernelError::FileTooBig);
        }
        let split = (NDIRECT as u64).clamp(first, end);
        let (direct, indirect) = blocks.split_at((split - first) as usize);
        if !direct.is_empty() {
            inode.direct[first as usize..split as usize].copy_from_slice(direct);
        }
        if indirect.is_empty() {
            return self.write_inode_async(ino, inode);
        }
        if inode.indirect == 0 {
            let ib = self.alloc_blocks(1)?[0];
            // Fresh indirect block: zero-filled.
            self.meta_update_fresh(ib, 0, &[0u8; 8])?;
            inode.indirect = ib;
            self.write_inode_async(ino, inode)?;
        } else if !direct.is_empty() {
            self.write_inode_async(ino, inode)?;
        }
        let slots: Vec<u8> = indirect.iter().flat_map(|b| b.to_le_bytes()).collect();
        self.meta_update_async(inode.indirect, (split as usize - NDIRECT) * 8, &slots)
    }

    /// All allocated blocks of a file (for unlink), including the indirect
    /// block itself as the second element of the tuple.
    pub(crate) fn collect_file_blocks(
        &mut self,
        inode: &Inode,
    ) -> Result<(Vec<u64>, Option<u64>), KernelError> {
        let mut blocks = Vec::new();
        for &d in &inode.direct {
            if d != 0 {
                blocks.push(d);
            }
        }
        if inode.indirect != 0 {
            self.check_block(inode.indirect)?;
            let page = self.bget(inode.indirect, false)?;
            for i in 0..NINDIRECT {
                let v = self
                    .machine
                    .bus
                    .mem()
                    .read_u64(page.base() + (i * 8) as u64);
                if v != 0 {
                    blocks.push(v);
                }
            }
            return Ok((blocks, Some(inode.indirect)));
        }
        Ok((blocks, None))
    }

    // ------------------------------------------------------------------
    // Directories
    // ------------------------------------------------------------------

    /// Number of directory entries to scan per block — the off-by-one fault
    /// (§3.1) skews this bound, making the scan read one slot too many
    /// (garbage past the block) or too few (missing the last entry).
    fn dirents_scan_bound(&mut self) -> usize {
        (DIRENTS_PER_BLOCK as i64 + self.machine.hooks.dirents_scan_skew() as i64) as usize
    }

    /// Looks a name up in a directory. Returns `(ino, dir block, slot
    /// offset)` of the entry.
    pub(crate) fn dir_lookup(
        &mut self,
        dir_ino: u64,
        name: &str,
    ) -> Result<Option<(u64, u64, usize)>, KernelError> {
        let dir = self.read_inode(dir_ino)?;
        if dir.itype != FileType::Dir {
            return Err(KernelError::NotDir);
        }
        self.machine.clock.charge_namei(1);
        let nblocks = dir.size.div_ceil(BLOCK_SIZE as u64);
        let bound = self.dirents_scan_bound();
        for bi in 0..nblocks {
            let Some(block) = self.file_block(&dir, bi)? else {
                continue;
            };
            let page = self.bget(block, false)?;
            for slot in 0..bound {
                let addr = page.base() + (slot * DIRENT_BYTES) as u64;
                if !self.machine.bus.mem().in_bounds(addr, DIRENT_BYTES as u64) {
                    return Err(self.die(PanicReason::Mem(rio_mem::MemFault::BadAddress {
                        addr,
                        len: DIRENT_BYTES as u64,
                    })));
                }
                let rec = self.machine.bus.mem().slice(addr, DIRENT_BYTES as u64);
                if let Some(ino) = DirEntry::ino_if_named(rec, name) {
                    return Ok(Some((ino, block, slot * DIRENT_BYTES)));
                }
            }
        }
        Ok(None)
    }

    /// Inserts a directory entry, extending the directory when full.
    pub(crate) fn dir_insert(
        &mut self,
        dir_ino: u64,
        name: &str,
        ino: u64,
    ) -> Result<(), KernelError> {
        let mut dir = self.read_inode(dir_ino)?;
        if dir.itype != FileType::Dir {
            return Err(KernelError::NotDir);
        }
        let entry = DirEntry {
            ino,
            name: name.to_owned(),
        };
        let nblocks = dir.size.div_ceil(BLOCK_SIZE as u64);
        // Find a free slot in existing blocks.
        for bi in 0..nblocks {
            let Some(block) = self.file_block(&dir, bi)? else {
                continue;
            };
            let page = self.bget(block, false)?;
            for slot in 0..DIRENTS_PER_BLOCK {
                let addr = page.base() + (slot * DIRENT_BYTES) as u64;
                let ino_field = self.machine.bus.mem().read_u8(addr) as u32
                    | (self.machine.bus.mem().read_u8(addr + 1) as u32) << 8
                    | (self.machine.bus.mem().read_u8(addr + 2) as u32) << 16
                    | (self.machine.bus.mem().read_u8(addr + 3) as u32) << 24;
                if ino_field == 0 {
                    return self.meta_update(block, slot * DIRENT_BYTES, &entry.encode());
                }
            }
        }
        // Extend the directory with a new block.
        let block = self.alloc_blocks(1)?[0];
        self.set_file_blocks(dir_ino, &mut dir, nblocks, &[block])?;
        dir.size += BLOCK_SIZE as u64;
        dir.mtime = self.machine.clock.now().as_micros();
        self.write_inode(dir_ino, &dir)?;
        self.meta_update_fresh(block, 0, &entry.encode())
    }

    /// Removes a directory entry by name.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] when absent.
    pub(crate) fn dir_remove(&mut self, dir_ino: u64, name: &str) -> Result<u64, KernelError> {
        match self.dir_lookup(dir_ino, name)? {
            Some((ino, block, off)) => {
                self.meta_update(block, off, &[0u8; DIRENT_BYTES])?;
                Ok(ino)
            }
            None => Err(KernelError::NotFound),
        }
    }

    /// All live entries of a directory.
    pub(crate) fn dir_entries_of(&mut self, dir_ino: u64) -> Result<Vec<DirEntry>, KernelError> {
        let dir = self.read_inode(dir_ino)?;
        if dir.itype != FileType::Dir {
            return Err(KernelError::NotDir);
        }
        let mut out = Vec::new();
        let nblocks = dir.size.div_ceil(BLOCK_SIZE as u64);
        for bi in 0..nblocks {
            let Some(block) = self.file_block(&dir, bi)? else {
                continue;
            };
            let page = self.bget(block, false)?;
            for slot in 0..DIRENTS_PER_BLOCK {
                let addr = page.base() + (slot * DIRENT_BYTES) as u64;
                let rec = self.machine.bus.mem().slice(addr, DIRENT_BYTES as u64);
                if let Some(e) = DirEntry::decode(rec) {
                    out.push(e);
                }
            }
        }
        Ok(out)
    }

    /// Resolves an absolute path to `(parent inode, leaf name, leaf inode
    /// if it exists)`. The caller — the `Namei` phase of
    /// [`crate::preempt`] — holds `Fs`.
    pub(crate) fn namei_locked(
        &mut self,
        path: &str,
    ) -> Result<(u64, String, Option<u64>), KernelError> {
        let components = crate::path::split_path(path)?;
        if components.is_empty() {
            return Err(KernelError::InvalidPath); // "/" itself has no parent
        }
        self.machine.clock.charge_namei(components.len() as u64);
        let mut dir = crate::ondisk::ROOT_INO;
        for comp in &components[..components.len() - 1] {
            match self.dir_lookup(dir, comp)? {
                Some((ino, _, _)) => {
                    let inode = self.read_inode(ino)?;
                    if inode.itype != FileType::Dir {
                        return Err(KernelError::NotDir);
                    }
                    dir = ino;
                }
                None => return Err(KernelError::NotFound),
            }
        }
        let leaf = components.last().expect("non-empty").clone();
        let target = self.dir_lookup(dir, &leaf)?.map(|(ino, _, _)| ino);
        Ok((dir, leaf, target))
    }
}

/// The lowest clear bit of `bitmap` in `[from, to)`, least significant bit
/// of each byte first. Full bytes cost one compare.
fn first_clear_bit(bitmap: &[u8], from: usize, to: usize) -> Option<usize> {
    // Bits of the first byte below `from` count as set.
    let mut below = (1u8 << (from % 8)) - 1;
    let bytes = &bitmap[..to.div_ceil(8)];
    for (i, &byte) in bytes.iter().enumerate().skip(from / 8) {
        let ones = (byte | below).trailing_ones() as usize;
        if ones < 8 {
            let bit = i * 8 + ones;
            return (bit < to).then_some(bit);
        }
        below = 0;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use crate::policy::Policy;
    use rio_core::{RioMode, ShadowPool};
    use rio_det::proptest_lite::{check, Config, Gen};
    use rio_det::{pt_assert, pt_assert_eq};
    use rio_mem::crc32_bytewise;

    /// One store the kernel's metadata path never hears about, into `page`
    /// (a resident metadata buffer) or the shadow pool.
    fn wild_store(g: &mut Gen, k: &mut Kernel, page: PageNum) {
        let at = g.in_range(0..PAGE_SIZE as u64 - 8);
        let m = &mut k.machine;
        let rio = k.rio.as_mut().expect("rio kernel");
        // The first buffer has no buffer below it to overrun from.
        let kinds = if page.base() == m.bus.layout().buffer_cache.start {
            3u32
        } else {
            4
        };
        match g.in_range(0..kinds) {
            // Electrical: no bus, no window.
            0 => m
                .bus
                .mem_mut()
                .flip_bit(page.base() + at, g.in_range(0..8u8)),
            // A bus store that finds the window open.
            1 => {
                let v = g.u64();
                rio.prot
                    .with_window(&mut m.bus, page, |bus| {
                        bus.store_u64(AddrKind::Virtual, page.base() + at, v)
                    })
                    .expect("window open");
            }
            // A scribble on a shadow page: not this page's business.
            2 => {
                let Some(&shadow) = rio.shadows.reserved_pages().first() else {
                    return;
                };
                m.bus.mem_mut().write_u64(shadow.base() + at, g.u64());
            }
            // A bcopy into the buffer below that runs over into this one.
            _ => {
                let below = PageNum(page.0 - 1);
                let (over, src) = (g.in_range(1..700u64), m.bus.layout().heap.start);
                rio.prot.window_open(&mut m.bus, below);
                rio.prot.window_open(&mut m.bus, page);
                m.bcopy(src, page.base() - 40, 40 + over)
                    .expect("both windows open");
                rio.prot.window_close(&mut m.bus, page);
                rio.prot.window_close(&mut m.bus, below);
            }
        }
    }

    /// After every registration and every commit the registry holds the CRC
    /// of the page *as memory holds it* — what `Registry::update_crc` over
    /// the whole page stored — whatever wild stores came in between, on the
    /// shadow route and on the pool-exhausted one, across frame reuse.
    #[test]
    fn registry_crc_of_a_metadata_page_is_the_crc_of_memory() {
        check(
            "registry_crc_is_crc_of_memory",
            Config::with_cases(48),
            |g| {
                let mode = if g.bool() {
                    RioMode::Protected
                } else {
                    RioMode::Unprotected
                };
                let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(mode)))
                    .expect("fresh kernel");
                let exhausted = g.bool();
                if exhausted {
                    let layout = *k.machine.bus.layout();
                    k.rio.as_mut().expect("rio kernel").shadows = ShadowPool::new(&layout, 0);
                }
                // More blocks than the buffer cache has frames, all made
                // resident once, so the updates below keep evicting.
                let blocks: Vec<u64> = (0..k.bufcache.capacity() as u64 + 6)
                    .map(|i| k.geometry.data_start + i)
                    .collect();
                for &b in &blocks {
                    k.bget(b, true).expect("bget");
                }
                let registered = |k: &mut Kernel, page: PageNum| {
                    let entry = k
                        .rio_read_entry(page)
                        .expect("readable")
                        .expect("registered");
                    (entry, crc32_bytewise(k.machine.bus.mem().page(page)))
                };
                let mut commits = 0;
                for _ in 0..g.len_between(4, 48) {
                    let block = blocks[g.in_range(0..blocks.len())];
                    if let Some(page) = k.bufcache.peek(block) {
                        for _ in 0..g.in_range(0..4u32) {
                            wild_store(g, &mut k, page);
                        }
                    } else if g.bool() {
                        // Registration alone, into a reused frame.
                        let page = k.bget(block, g.bool()).expect("bget");
                        let (entry, crc) = registered(&mut k, page);
                        pt_assert_eq!(entry.crc, crc);
                        continue;
                    }
                    let off = g.in_range(0..BLOCK_SIZE);
                    let bytes = g.bytes(1, (BLOCK_SIZE - off).min(700));
                    k.meta_update(block, off, &bytes).expect("meta_update");
                    commits += 1;
                    let page = k.bufcache.peek(block).expect("just updated");
                    let (entry, crc) = registered(&mut k, page);
                    pt_assert_eq!(entry.crc, crc);
                    pt_assert!(!entry.flags.contains(EntryFlags::SHADOW));
                    pt_assert!(entry.flags.contains(EntryFlags::DIRTY));
                }
                pt_assert_eq!(k.stats.shadow_commits, if exhausted { 0 } else { commits });
                Ok(())
            },
        );
    }

    /// A bit string whose first zero is at a chosen place — the very first
    /// bit, either side of a block boundary, nowhere, or anywhere — with
    /// ones at a random density after it.
    fn occupancy(g: &mut Gen, len: u64, boundary: u64) -> Vec<bool> {
        let first_free = match g.in_range(0..5u32) {
            0 => 0,
            1 => boundary + g.in_range(0..3u64) - 1,
            2 => len,
            _ => g.in_range(0..len),
        };
        let density = g.in_range(0..4u32);
        (0..len)
            .map(|i| i < first_free || (i > first_free && g.in_range(0..3u32) < density))
            .collect()
    }

    /// `alloc_blocks` / `alloc_inode` scan a block per look-up; the per-bit
    /// scans they replaced are the definition. Over bitmaps and inode
    /// tables with a full first block and a partial last one, with other
    /// buffer-cache traffic in between, both must choose the same block or
    /// inode (or `NoSpace` / `NoInodes`) and leave the same machine, the
    /// same clock and the same buffer-cache eviction order. Then an extent
    /// of `n` blocks must be the blocks `n` first-fit allocations in a row
    /// choose — as many as there are — and leave the same bitmap.
    #[test]
    fn block_at_a_time_allocators_match_the_per_bit_scans() {
        use crate::ondisk::{DiskGeometry, INODES_PER_BLOCK};
        const BITS: u64 = 8 * BLOCK_SIZE as u64;
        check(
            "allocators == per-bit references",
            Config::with_cases(48),
            |g| {
                // Two bitmap blocks and three inode blocks, the last of each
                // partial: bits and records past the end read as free and must
                // never be handed out.
                let blocks = BITS + g.in_range(70..300u64);
                let inodes = 2 * INODES_PER_BLOCK + g.in_range(1..INODES_PER_BLOCK);
                let mut config = KernelConfig::small(Policy::rio(RioMode::Protected));
                config.geometry = DiskGeometry::new(blocks, inodes, 0);
                config.machine.disk_blocks = blocks;
                let geo = config.geometry;
                let mut machine = crate::machine::Machine::new(&config.machine);
                Kernel::format(&mut machine.disk, &geo);

                let taken = occupancy(g, blocks - geo.data_start, BITS - geo.data_start);
                for bm in 0..2 {
                    let mut bitmap = machine.disk.peek(geo.bitmap_start + bm).to_vec();
                    for (b, _) in (geo.data_start..blocks).zip(&taken).filter(|(_, &t)| t) {
                        let (block, bit) = geo.bitmap_location(b);
                        if block == geo.bitmap_start + bm {
                            bitmap[bit / 8] |= 1 << (bit % 8);
                        }
                    }
                    machine.disk.poke(geo.bitmap_start + bm, &bitmap);
                }
                let live = occupancy(g, inodes - 1, INODES_PER_BLOCK - 1);
                for ib in 0..geo.inode_len {
                    let mut table = machine.disk.peek(geo.inode_start + ib).to_vec();
                    // The root's record too: the scans start at inode 1.
                    for (ino, &l) in (1..inodes).zip(&live) {
                        let (block, off) = geo.inode_location(ino);
                        if block == geo.inode_start + ib {
                            let rec = if l {
                                Inode::empty(FileType::File).encode()
                            } else {
                                [0; INODE_BYTES]
                            };
                            table[off..off + INODE_BYTES].copy_from_slice(&rec);
                        }
                    }
                    machine.disk.poke(geo.inode_start + ib, &table);
                }

                let mut new = Kernel::mount(machine, &config).expect("mount");
                let mut old = new.clone();
                for _ in 0..g.len_between(1, 24) {
                    match g.in_range(0..3u32) {
                        0 => pt_assert_eq!(
                            new.alloc_blocks(1).map(|b| b[0]),
                            old.alloc_block_reference()
                        ),
                        1 => pt_assert_eq!(
                            new.alloc_inode(FileType::File),
                            old.alloc_inode_reference(FileType::File)
                        ),
                        // Unrelated metadata traffic: LRU stamps between scans.
                        _ => {
                            let block = g.in_range(geo.inode_start..geo.data_start + 40);
                            pt_assert_eq!(new.bget(block, false), old.bget(block, false));
                        }
                    }
                }
                crate::sched::tests::same_machine(&new, &old)?;
                pt_assert_eq!(new.machine.clock.now(), old.machine.clock.now());
                pt_assert_eq!(new.bufcache.lru_order(), old.bufcache.lru_order());

                let n = g.in_range(2..48usize);
                let want: Vec<u64> = (0..n)
                    .map_while(|_| old.alloc_block_reference().ok())
                    .collect();
                match new.alloc_blocks(n) {
                    Ok(got) => pt_assert_eq!(got, want),
                    Err(e) => {
                        pt_assert_eq!(e, KernelError::NoSpace);
                        pt_assert!(want.is_empty());
                    }
                }
                for bm in geo.bitmap_start..geo.bitmap_start + 2 {
                    let (p_new, p_old) =
                        (new.bget(bm, false).unwrap(), old.bget(bm, false).unwrap());
                    pt_assert!(
                        new.machine.bus.mem().page(p_new) == old.machine.bus.mem().page(p_old)
                    );
                }
                Ok(())
            },
        );
    }

    /// A cluster backs a file's pages where a page at a time would: the
    /// same data blocks, the same indirect block, the same disk once the
    /// metadata is out — whatever order the pages were dirtied in, with
    /// some already backed, and with runs that first enter the indirect
    /// range.
    #[test]
    fn a_cluster_backs_pages_where_a_page_at_a_time_would() {
        check("cluster == page at a time", Config::with_cases(64), |g| {
            let config = KernelConfig::small(Policy::rio(RioMode::Protected));
            let mut k = Kernel::mkfs_and_mount(&config).expect("mkfs");
            let fd = k.create("/f").expect("create");
            let ino = k.stat("/f").expect("stat").ino;
            let write = |k: &mut Kernel, g: &mut Gen, pidx: u64| {
                let data = g.bytes(1, PAGE_SIZE);
                k.pwrite(fd, pidx * PAGE_SIZE as u64, &data)
                    .expect("pwrite");
            };
            let nd = NDIRECT as u64;
            // The shape the property must not miss: a run that reaches
            // past the direct pointers of a file with no indirect block.
            let crossing = g.in_range(0..3u32) == 0;
            let dirty: Vec<u64> = if crossing {
                (nd - 2..nd + 3).collect()
            } else {
                // Some pages already backed; another file's blocks between.
                for _ in 0..g.in_range(0..4u32) {
                    let pidx = g.in_range(0..nd + 12);
                    write(&mut k, g, pidx);
                    k.flush_file_pages(ino, false).expect("flush");
                }
                let other = k.create("/g").expect("create");
                k.write(other, &g.bytes(1, 3 * PAGE_SIZE)).expect("write");
                let other = k.stat("/g").expect("stat").ino;
                k.flush_file_pages(other, false).expect("flush");
                // Dirtied in any order.
                let mut dirty: Vec<u64> = (0..nd + 12).filter(|_| g.bool()).collect();
                for i in (1..dirty.len()).rev() {
                    dirty.swap(i, g.in_range(0..=i));
                }
                dirty
            };
            for &pidx in &dirty {
                write(&mut k, g, pidx);
            }

            let mut paged = k.clone();
            paged.flush_file_pages(ino, false).expect("page at a time");
            let commits = k.stats.shadow_commits;
            k.cluster_file_pages(ino).expect("cluster");
            pt_assert_eq!(k.read_inode(ino).unwrap(), paged.read_inode(ino).unwrap());
            if crossing {
                // Three bitmap updates (the extent to the first indirect
                // page, the indirect block, the rest), the fresh indirect
                // block, one inode write, one slot update per extent.
                pt_assert_eq!(k.stats.shadow_commits - commits, 7);
                let inode = k.read_inode(ino).unwrap();
                let first_indirect = k.file_block(&inode, nd).unwrap().unwrap();
                pt_assert_eq!(inode.indirect, first_indirect + 1);
            }
            for kernel in [&mut k, &mut paged] {
                kernel.flush_everything(true).expect("sync");
            }
            for b in 0..k.machine.disk.num_blocks() {
                pt_assert!(
                    k.machine.disk.peek(b) == paged.machine.disk.peek(b),
                    "block {b}"
                );
            }
            Ok(())
        });
    }
}
