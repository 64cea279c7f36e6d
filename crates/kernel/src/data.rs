//! The file-data path: UBC management, writes, and reads.
//!
//! This is the code §2 is about. File pages live in the UBC region of
//! simulated memory and — as on the paper's Digital Unix — are addressed
//! with **KSEG physical addresses**, which is why stock protection cannot
//! cover them and Rio has to force KSEG through the TLB. Every byte a user
//! writes travels: user buffer → kmalloc'd staging area (heap) →
//! interpreted `bcopy` → UBC page behind a protection window, with the
//! registry's CHANGING/DIRTY discipline around the copy.

use crate::cache::ClusterRun;
use crate::error::{KernelError, PanicReason};
use crate::kernel::Kernel;
use crate::ondisk::{FileType, Inode};
use crate::policy::DataPolicy;
use rio_core::{EntryFlags, RegistryEntry};
use rio_cpu::kseg_addr;
use rio_mem::{PageNum, PAGE_SIZE};

/// A read or write in progress: the self-contained cursor a continuation
/// carries across yields. A write's user bytes already live in the
/// kernel-heap staging area, so nothing borrows the caller's buffer; a
/// read's collect there. `len == 0` on a read means it was past EOF and
/// no staging was allocated.
#[derive(Debug, Clone)]
pub(crate) struct IoJob {
    pub(crate) ino: u64,
    pub(crate) offset: u64,
    /// Heap address of the staged copyin / copyout.
    pub(crate) staging: u64,
    /// Effective byte count (post activation-record re-read; for a read,
    /// post EOF clamp).
    pub(crate) len: usize,
    /// Bytes copied into / out of the UBC so far.
    pub(crate) done: usize,
    /// The inode as read at prep time (block mapping for `ubc_get`).
    pub(crate) inode: Inode,
}

impl Kernel {
    /// Ensures the UBC holds file page `pidx` of inode `ino`, returning its
    /// memory page. Missing backing blocks read as zeroes (holes / fresh
    /// pages).
    pub(crate) fn ubc_get(
        &mut self,
        ino: u64,
        pidx: u64,
        inode: &Inode,
    ) -> Result<PageNum, KernelError> {
        let key = (ino, pidx);
        if let Some(page) = self.ubc.lookup(key) {
            return Ok(page);
        }
        self.machine.clock.charge_page_op();
        let (page, evicted) = self.ubc.insert(key);
        if let Some(ev) = evicted {
            if ev.dirty {
                // Overflow write-back (the only disk writes Rio ever does).
                // Synchronous: the frame is about to be reused, so the
                // write must be durable before the page's last copy goes.
                self.stats.overflow_writebacks += 1;
                self.flush_one_ubc_page(ev.key, ev.page, true)?;
            }
            self.wait_frame_flush(ev.page);
            self.rio_clear_entry(ev.page)?;
        }
        let backing = self.file_block(inode, pidx)?;
        match backing {
            Some(block) => {
                let data = self.machine.bread(block);
                self.fc_store(page, page.base(), &data)?;
            }
            None => {
                self.with_fc_window(page, |m| m.bzero(page.base(), PAGE_SIZE as u64))
                    .map_err(|e| self.die(e))?;
            }
        }
        let valid = Self::valid_bytes(inode.size, pidx);
        self.ubc.set_valid(key, valid);
        if self.rio.is_some() {
            // Fresh contents in a (possibly reused) frame: any cached
            // sector CRCs for it are for the previous tenant.
            self.crc_cache.invalidate_page(page);
            let crc = self.page_crc_prefix(page, valid);
            self.rio_write_entry(
                page,
                &RegistryEntry {
                    flags: EntryFlags::VALID,
                    phys_page: page.0 as u32,
                    dev: 1,
                    ino,
                    offset: pidx * PAGE_SIZE as u64,
                    size: valid,
                    crc,
                },
            )?;
        }
        Ok(page)
    }

    fn valid_bytes(file_size: u64, pidx: u64) -> u32 {
        let start = pidx * PAGE_SIZE as u64;
        file_size.saturating_sub(start).min(PAGE_SIZE as u64) as u32
    }

    /// CRC of a UBC page's valid prefix, served from the sector checksum
    /// cache: only sectors written since the last derivation are re-hashed,
    /// and the page CRC is spliced together with `crc32_combine`'s shift
    /// operator — bit-identical to `crc32(&page[..valid])` over the
    /// legitimately written contents.
    pub(crate) fn page_crc_prefix(&mut self, page: PageNum, valid: u32) -> u32 {
        self.crc_cache
            .prefix_crc(self.machine.bus.mem(), page, valid)
    }

    /// Best-effort block lookup used by the panic flush: reads whatever the
    /// caches/disk currently claim without mutating anything.
    pub(crate) fn lookup_file_block_quiet(&self, ino: u64, pidx: u64) -> Result<Option<u64>, ()> {
        if ino == 0 || ino >= self.geometry.num_inodes {
            return Err(());
        }
        let (block, off) = self.geometry.inode_location(ino);
        let rec = match self.bufcache.peek(block) {
            Some(page) => self
                .machine
                .bus
                .mem()
                .slice(page.base() + off as u64, crate::ondisk::INODE_BYTES as u64)
                .to_vec(),
            None => self.machine.disk.peek(block)[off..off + crate::ondisk::INODE_BYTES].to_vec(),
        };
        let inode = Inode::decode(&rec).map_err(|_| ())?.ok_or(())?;
        if (pidx as usize) < crate::ondisk::NDIRECT {
            let b = inode.direct[pidx as usize];
            return Ok(
                (b != 0 && b >= self.geometry.data_start && b < self.geometry.num_blocks)
                    .then_some(b),
            );
        }
        Ok(None) // indirect lookups are skipped on the dying path
    }

    /// Writes one dirty UBC page to its backing block — `bwrite` if
    /// `wait`, `bawrite` otherwise — allocating the block (and updating
    /// metadata) if the file never had one.
    pub(crate) fn flush_one_ubc_page(
        &mut self,
        key: (u64, u64),
        page: PageNum,
        wait: bool,
    ) -> Result<(), KernelError> {
        let (ino, pidx) = key;
        let mut inode = self.read_inode(ino)?;
        let block = match self.file_block(&inode, pidx)? {
            Some(b) => b,
            None => {
                let b = self.alloc_blocks(1)?[0];
                self.set_file_blocks(ino, &mut inode, pidx, &[b])?;
                b
            }
        };
        if !wait {
            self.bawrite_pages(block, &[key]);
            return Ok(());
        }
        self.bwrite(block, page);
        self.ubc.mark_clean(key);
        // The write is durable: the registry entry really is clean.
        self.rio_clear_dirty(page)
    }

    /// Write setup: activation record, inode read, staging copyin. The
    /// returned cursor is self-contained (the user bytes live in the
    /// staged heap copy), so a continuation can carry it across yields.
    pub(crate) fn write_prep(
        &mut self,
        ino: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<IoJob, KernelError> {
        // Save parameters in the kernel-stack activation record and re-read
        // them: stack corruption becomes wrong-parameter I/O (§3.2 indirect
        // corruption).
        self.machine.push_act_record(ino, offset, data.len() as u64);
        let (ino, offset, len) = self.machine.read_act_record().map_err(|e| self.die(e))?;
        let len = (len as usize).min(data.len());
        let data = &data[..len];

        let inode = self.read_inode(ino)?;
        if inode.itype != FileType::File {
            return Err(KernelError::IsDir);
        }
        if offset + data.len() as u64 > crate::ondisk::MAX_FILE_BLOCKS * PAGE_SIZE as u64 {
            return Err(KernelError::FileTooBig);
        }

        // Stage the user bytes in the kernel heap (copyin).
        let staging = self.kmalloc_traced(data.len().max(1) as u64)?;
        self.machine.bus.mem_mut().write_bytes(staging, data);
        Ok(IoJob {
            ino,
            offset,
            staging,
            len,
            done: 0,
            inode,
        })
    }

    /// Copies one page's worth of staged bytes into the UBC, with the full
    /// registry CHANGING/DIRTY discipline. Advances the cursor.
    pub(crate) fn write_one_page(&mut self, job: &mut IoJob) -> Result<(), KernelError> {
        let (ino, offset, staging, data_len, done) =
            (job.ino, job.offset, job.staging, job.len, job.done);
        {
            let abs = offset + done as u64;
            let pidx = abs / PAGE_SIZE as u64;
            let in_page = (abs % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data_len - done);
            let page = self.ubc_get(ino, pidx, &job.inode)?;
            let key = (ino, pidx);

            // Registry: mark CHANGING before touching the page (§3.2).
            let had_entry = self.rio.is_some();
            let mut entry = if had_entry {
                let mut e = self
                    .rio_read_entry(page)?
                    .ok_or_else(|| {
                        PanicReason::Consistency("registry: missing file entry".to_owned())
                    })
                    .map_err(|e| self.die(e))?;
                e.flags = e.flags.with(EntryFlags::DIRTY).with(EntryFlags::CHANGING);
                self.rio_write_entry(page, &e)?;
                Some(e)
            } else {
                None
            };

            // The copy itself: interpreted bcopy to a KSEG address, behind
            // a one-page window. Copy-overrun and off-by-one faults extend
            // it; protection traps what escapes the window.
            let effective = self
                .with_fc_window(page, |m| {
                    m.bcopy(
                        staging + done as u64,
                        kseg_addr(page.base() + in_page as u64),
                        n as u64,
                    )
                })
                .map_err(|e| self.die(e))?;
            self.machine.clock.charge_page_op();

            // Registry: record the new contents, clear CHANGING.
            let new_valid = self.ubc.valid(key).max((in_page + n) as u32);
            self.ubc.set_valid(key, new_valid);
            self.ubc.mark_dirty(key);
            if let Some(e) = entry.as_mut() {
                // Sector cache: exactly the bytes the (possibly
                // hook-extended) copy touched in this page are now stale.
                // An overrun past the page end lands in a page whose cache
                // is *not* told — so its derived CRC keeps describing the
                // legitimate contents and the warm-reboot scan flags the
                // damage.
                self.crc_cache.note_write(
                    page,
                    in_page,
                    (in_page + effective as usize).min(PAGE_SIZE),
                );
                // Rio: permanent the moment the copy lands.
                e.flags = e.flags.without(EntryFlags::CHANGING);
                e.size = new_valid;
                e.crc = self.page_crc_prefix(page, new_valid);
                let e = *e;
                self.rio_write_entry(page, &e)?;
            }
            job.done = done + n;
        }
        Ok(())
    }

    /// Write teardown: staging free, inode size/mtime update, data policy
    /// (clustered flush, dirty throttle).
    ///
    /// The inode is re-read for the size update, not written back from
    /// the copy captured at [`Kernel::write_prep`]: a writer can lose the
    /// CPU mid-job to the `update` daemon or another client whose flush
    /// assigns backing blocks to this file, and the stale copy would
    /// discard those pointers.
    pub(crate) fn write_finish(&mut self, job: &IoJob) -> Result<(), KernelError> {
        let IoJob {
            ino,
            offset,
            staging,
            len,
            ..
        } = *job;
        let mut inode = self.read_inode(ino)?;
        self.kfree_traced(staging)?;

        // Metadata: size and mtime (ordering-noncritical, as in FFS).
        let new_size = inode.size.max(offset + len as u64);
        inode.size = new_size;
        if !self.preserve_mtime_on_write {
            inode.mtime = self.machine.clock.now().as_micros();
        }
        self.write_inode_async(ino, &inode)?;

        // Data policy.
        self.apply_data_policy(ino, offset, len as u64)?;
        Ok(())
    }

    fn apply_data_policy(&mut self, ino: u64, offset: u64, len: u64) -> Result<(), KernelError> {
        match self.policy.data {
            DataPolicy::WriteThrough => {
                // Every dirty page of this file goes out now, synchronously.
                self.flush_file_pages(ino, true)?;
                Ok(())
            }
            DataPolicy::AsyncClustered { cluster_bytes } => {
                // A non-sequential write ends the run, and so does a full
                // cluster's worth of bytes.
                let run = self.ubc.cluster_run(ino).unwrap_or(ClusterRun {
                    pending: 0,
                    end: offset,
                });
                let pending = run.pending + len;
                let due = pending >= cluster_bytes || run.end != offset;
                let pending = if due { 0 } else { pending };
                let end = offset + len;
                self.ubc.set_cluster_run(ino, ClusterRun { pending, end });
                if due {
                    self.cluster_file_pages(ino)?;
                }
                Ok(())
            }
            DataPolicy::Delayed | DataPolicy::Never => Ok(()),
        }?;
        self.maybe_throttle()
    }

    /// Blocks the writer when too much dirty data has accumulated: classic
    /// kernels bound dirty buffers, so a delayed-write system periodically
    /// stalls behind its own flush — a cost Rio never pays.
    fn maybe_throttle(&mut self) -> Result<(), KernelError> {
        let Some(limit) = self.policy.throttle_dirty_bytes else {
            return Ok(());
        };
        // A striped array drains D queues in parallel, so the kernel can
        // safely let proportionally more dirty data accumulate before
        // stalling writers (×1 on the classic single-spindle disk).
        let limit = limit * self.machine.disk.devices() as u64;
        let dirty = self.ubc.dirty_count() as u64 * PAGE_SIZE as u64;
        if dirty <= limit {
            return Ok(());
        }
        self.flush_everything(false)?;
        self.stall_until_drained();
        Ok(())
    }

    /// Flushes all dirty UBC pages of one file a page at a time, oldest
    /// first, as `bwrite` / `bawrite` write one buffer each; `wait` makes
    /// it synchronous (write-through) — `fsync` waits once at its end.
    pub(crate) fn flush_file_pages(&mut self, ino: u64, wait: bool) -> Result<(), KernelError> {
        for key in self.ubc.file_dirty_keys(ino) {
            let page = self.ubc.peek(key).expect("dirty key is resident");
            self.flush_one_ubc_page(key, page, wait)?;
        }
        Ok(())
    }

    /// Queues all dirty UBC pages of one file to the disk as one cluster:
    /// the write path's asynchronous flush — the clustered data policy's
    /// 64 KB flush and the warm reboot's write-behind — as FFS's
    /// `cluster_write` is (McVoy & Kleiman 1991). The file's unbacked pages are
    /// allocated as one extent and mapped with one metadata update per
    /// stretch of consecutive pages, and each run of pages whose blocks
    /// are contiguous goes to the disk as one command. The blocks, and so
    /// the disk's bytes, are the ones [`Kernel::flush_file_pages`] would
    /// give. A volume that fills part-way leaves the pages it could not
    /// place dirty and returns [`KernelError::NoSpace`] once the placed
    /// ones are queued.
    pub(crate) fn cluster_file_pages(&mut self, ino: u64) -> Result<(), KernelError> {
        let keys = self.ubc.file_dirty_keys(ino);
        if keys.is_empty() {
            return Ok(());
        }
        let mut inode = self.read_inode(ino)?;
        let mut blocks = Vec::with_capacity(keys.len());
        for &(_, pidx) in &keys {
            blocks.push(self.file_block(&inode, pidx)?);
        }
        let backed = self.back_pages(ino, &mut inode, &keys, &mut blocks);
        // Every page with a block goes out, those placed before the volume
        // filled included.
        let mut i = 0;
        while i < keys.len() {
            let Some(first) = blocks[i] else {
                i += 1;
                continue;
            };
            let end = (i + 1..keys.len())
                .find(|&j| blocks[j] != Some(first + (j - i) as u64))
                .unwrap_or(keys.len());
            self.bawrite_pages(first, &keys[i..end]);
            i = end;
        }
        backed
    }

    /// Drops page `pidx` of `ino` from the cache, registry entry and all,
    /// if it is still dirty — a page a cluster could not place. Returns
    /// whether it did.
    pub(crate) fn drop_dirty_page(&mut self, ino: u64, pidx: u64) -> Result<bool, KernelError> {
        let key = (ino, pidx);
        if !self.ubc.is_dirty(key) {
            return Ok(false);
        }
        if let Some(page) = self.ubc.remove(key) {
            self.rio_clear_entry(page)?;
        }
        Ok(true)
    }

    /// Gives every page of `keys` without a block (`blocks[i] == None`) one,
    /// in order, allocating them as one extent. Per-page allocation would
    /// take the indirect block right after the data block of the first
    /// page that needs it, so the extent splits there and the indirect
    /// block lands where it would. Stops at the first error, leaving the
    /// pages it could not place without a block.
    fn back_pages(
        &mut self,
        ino: u64,
        inode: &mut Inode,
        keys: &[(u64, u64)],
        blocks: &mut [Option<u64>],
    ) -> Result<(), KernelError> {
        let unbacked: Vec<usize> = (0..keys.len()).filter(|&i| blocks[i].is_none()).collect();
        let mut rest = &unbacked[..];
        while !rest.is_empty() {
            let take = match inode.indirect {
                0 => rest
                    .iter()
                    .position(|&i| keys[i].1 >= crate::ondisk::NDIRECT as u64)
                    .map_or(rest.len(), |p| p + 1),
                _ => rest.len(),
            };
            let (extent, later) = rest.split_at(take);
            let got = self.alloc_blocks(extent.len())?;
            let placed = &extent[..got.len()];
            // One mapping update per stretch of consecutive pages.
            let mut s = 0;
            while s < placed.len() {
                let e = (s + 1..placed.len())
                    .find(|&e| keys[placed[e]].1 != keys[placed[e - 1]].1 + 1)
                    .unwrap_or(placed.len());
                self.set_file_blocks(ino, inode, keys[placed[s]].1, &got[s..e])?;
                for (&i, &b) in placed[s..e].iter().zip(&got[s..e]) {
                    blocks[i] = Some(b);
                }
                s = e;
            }
            if got.len() < extent.len() {
                return Err(KernelError::NoSpace);
            }
            rest = later;
        }
        Ok(())
    }

    /// Read setup: activation record, inode read, EOF clamp, staging
    /// allocation. See [`Kernel::write_prep`] for the continuation
    /// contract.
    pub(crate) fn read_prep(
        &mut self,
        ino: u64,
        offset: u64,
        len: usize,
    ) -> Result<IoJob, KernelError> {
        self.machine.push_act_record(ino, offset, len as u64);
        let (ino, offset, len64) = self.machine.read_act_record().map_err(|e| self.die(e))?;
        let len = len64 as usize;

        let inode = self.read_inode(ino)?;
        if inode.itype != FileType::File {
            return Err(KernelError::IsDir);
        }
        let end = (offset + len as u64).min(inode.size);
        if offset >= end {
            return Ok(IoJob {
                ino,
                offset,
                staging: 0,
                len: 0,
                done: 0,
                inode,
            });
        }
        let total = (end - offset) as usize;
        let staging = self.kmalloc_traced(total.max(1) as u64)?;
        Ok(IoJob {
            ino,
            offset,
            staging,
            len: total,
            done: 0,
            inode,
        })
    }

    /// Copies one page's worth of file bytes out to the staging area.
    pub(crate) fn read_one_page(&mut self, job: &mut IoJob) -> Result<(), KernelError> {
        let abs = job.offset + job.done as u64;
        let pidx = abs / PAGE_SIZE as u64;
        let in_page = (abs % PAGE_SIZE as u64) as usize;
        let n = (PAGE_SIZE - in_page).min(job.len - job.done);
        let page = self.ubc_get(job.ino, pidx, &job.inode)?;
        // Copy out through the interpreted bcopy (KSEG source; heap
        // destination needs no window).
        self.machine
            .bcopy(
                kseg_addr(page.base() + in_page as u64),
                job.staging + job.done as u64,
                n as u64,
            )
            .map_err(|e| self.die(e))?;
        self.machine.clock.charge_page_op();
        job.done += n;
        Ok(())
    }

    /// Read teardown: extract the result and free the staging area.
    pub(crate) fn read_finish(&mut self, job: &IoJob) -> Result<Vec<u8>, KernelError> {
        if job.len == 0 {
            return Ok(Vec::new());
        }
        // The staging buffer is a heap kmalloc of up to a whole file: it
        // can straddle page boundaries, so copy out rather than borrow.
        let out = self.machine.bus.mem().to_vec(job.staging, job.len as u64);
        self.kfree_traced(job.staging)?;
        Ok(out)
    }

    /// kmalloc with fault-hook plumbing: delivers any due premature free
    /// scheduled by the allocation fault (§3.1).
    pub(crate) fn kmalloc_traced(&mut self, size: u64) -> Result<u64, KernelError> {
        self.lock(crate::locks::LockId::Alloc)?;
        let r = self.kmalloc_locked(size);
        self.unlock(crate::locks::LockId::Alloc)?;
        r
    }

    fn kmalloc_locked(&mut self, size: u64) -> Result<u64, KernelError> {
        let m = &mut self.machine;
        let addr = m
            .alloc
            .kmalloc(m.bus.mem_mut(), size)
            .map_err(|e| self.panic_from(e))?;
        let due = self.machine.hooks.on_kmalloc(addr);
        if let Some(victim) = due {
            // The injected bug frees a live block; the allocator may hand
            // it out again while the original owner still uses it.
            let m = &mut self.machine;
            m.alloc
                .kfree(m.bus.mem_mut(), victim)
                .map_err(|e| self.panic_from(e))?;
        }
        Ok(addr)
    }

    /// kfree that crashes the kernel on allocator assertion failures
    /// (double free — the usual end of a premature-free injection).
    pub(crate) fn kfree_traced(&mut self, addr: u64) -> Result<(), KernelError> {
        self.lock(crate::locks::LockId::Alloc)?;
        let m = &mut self.machine;
        let r = m
            .alloc
            .kfree(m.bus.mem_mut(), addr)
            .map_err(|e| self.panic_from(e));
        self.unlock(crate::locks::LockId::Alloc)?;
        r
    }
}
