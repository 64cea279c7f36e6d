//! fsync, system-wide flush, and the `update` daemon.

use crate::error::KernelError;
use crate::kernel::Kernel;
use rio_disk::SimTime;

impl Kernel {
    /// Makes one file durable: flush its dirty data pages and its inode
    /// block, synchronously.
    pub(crate) fn fsync_ino(&mut self, ino: u64) -> Result<(), KernelError> {
        self.flush_file_pages(ino, false)?;
        // Inode block (and any dirty metadata it shares a block with).
        let (block, _) = self.geometry.inode_location(ino);
        if self.bufcache.is_dirty(block) {
            if let Some(page) = self.bufcache.peek(block) {
                let now = self.machine.clock.now();
                let done = self.machine.disk.submit_write_from(
                    block,
                    self.machine.bus.mem().page(page),
                    now,
                    false,
                );
                self.bufcache.mark_clean(block);
                self.note_frame_flush(page, done);
            }
        }
        // Wait for everything queued to settle — fsync's contract.
        let now = self.machine.clock.now();
        let done = self.machine.disk.idle_at(now);
        self.machine.disk.sync(now);
        self.machine.clock.wait_until(done);
        self.stats.sync_waits += 1;
        // Everything submitted above is durable now: retire the registry
        // DIRTY bits the async page flushes left pending.
        self.retire_ubc_writebacks()?;
        Ok(())
    }

    /// Flushes all dirty metadata and data. `wait` makes it synchronous
    /// (the `sync` syscall); the `update` daemon passes `false`.
    pub(crate) fn flush_everything(&mut self, wait: bool) -> Result<(), KernelError> {
        // File data first: flushing can allocate backing blocks (delayed
        // allocation), which dirties inode and bitmap blocks — so metadata
        // must go out after the data pass or the pointer updates would
        // never reach the disk.
        let dirty = self.ubc.dirty_keys();
        for key in dirty {
            if let Some(page) = self.ubc.peek(key) {
                self.flush_one_ubc_page(key, page, false)?;
            }
        }
        let now = self.machine.clock.now();
        for block in self.bufcache.dirty_keys() {
            if let Some(page) = self.bufcache.peek(block) {
                let done = self.machine.disk.submit_write_from(
                    block,
                    self.machine.bus.mem().page(page),
                    now,
                    false,
                );
                self.bufcache.mark_clean(block);
                self.note_frame_flush(page, done);
            }
        }
        if wait {
            let now = self.machine.clock.now();
            let done = self.machine.disk.idle_at(now);
            self.machine.disk.sync(now);
            self.machine.clock.wait_until(done);
            self.stats.sync_waits += 1;
            self.retire_ubc_writebacks()?;
        }
        Ok(())
    }

    /// §2.3 future-work extension: once the disk has been idle for the
    /// configured period and dirty data exists, trickle a few pages out
    /// asynchronously. Nothing blocks; a busy disk defers the trickle.
    pub(crate) fn maybe_idle_writeback(&mut self) -> Result<(), KernelError> {
        let Some(after) = self.policy.idle_writeback_after else {
            return Ok(());
        };
        let now = self.machine.clock.now();
        // The disk's queue-drain time is also the moment it last worked:
        // idle duration is measured from there.
        let last_busy = self.machine.disk.idle_at(rio_disk::SimTime::ZERO);
        if last_busy > now || now.saturating_sub(last_busy) < after {
            return Ok(());
        }
        // Trickle: a small batch of the oldest dirty pages, plus dirty
        // metadata blocks, submitted asynchronously.
        let batch: Vec<(u64, u64)> = self.ubc.dirty_keys().into_iter().take(4).collect();
        for key in batch {
            if let Some(page) = self.ubc.peek(key) {
                self.flush_one_ubc_page(key, page, false)?;
            }
        }
        for block in self.bufcache.dirty_keys().into_iter().take(4) {
            if let Some(page) = self.bufcache.peek(block) {
                let now = self.machine.clock.now();
                let done = self.machine.disk.submit_write_from(
                    block,
                    self.machine.bus.mem().page(page),
                    now,
                    false,
                );
                self.bufcache.mark_clean(block);
                self.note_frame_flush(page, done);
            }
        }
        Ok(())
    }

    /// Advances simulated time to `t`, running the background daemons at
    /// the instants they fall due *inside* the gap.
    ///
    /// The per-syscall hooks (`maybe_update` / `maybe_idle_writeback` /
    /// `maybe_checkpoint`) only run at syscall entry, so a workload that
    /// idles via the raw [`crate::clock::Clock::idle_until`] produces no
    /// trickle writeback until its *next* syscall — and a crash inside the
    /// gap finds the dirty data still in memory, as if the daemons never
    /// existed. This is the kernel-honest idle path: it steps through the
    /// gap, firing each daemon at its due time, so an "idle gap then
    /// crash" leaves exactly the disk image a periodically-scheduled
    /// daemon would have produced.
    ///
    /// # Errors
    ///
    /// [`KernelError::Crashed`] once the system is down, or any daemon
    /// flush error.
    pub fn idle_until(&mut self, t: SimTime) -> Result<(), KernelError> {
        if self.is_crashed() {
            return Err(KernelError::Crashed);
        }
        loop {
            // Fire everything due at the current instant first.
            self.maybe_update()?;
            self.maybe_idle_writeback()?;
            self.maybe_checkpoint()?;
            let now = self.machine.clock.now();
            if now >= t {
                break;
            }
            // Hop to the earliest daemon due-time strictly inside the gap.
            let mut next = t;
            if let Some(due) = self.next_update {
                if due > now {
                    next = next.min(due);
                }
            }
            if let Some(due) = self.next_checkpoint {
                if due > now {
                    next = next.min(due);
                }
            }
            if let Some(after) = self.policy.idle_writeback_after {
                let has_dirty =
                    self.ubc.dirty_count() > 0 || !self.bufcache.dirty_keys().is_empty();
                if has_dirty {
                    let due = self.machine.disk.idle_at(SimTime::ZERO) + after;
                    if due > now {
                        next = next.min(due);
                    }
                }
            }
            // `next > now` always holds (every candidate above is filtered
            // on it and `t > now` here), so the loop strictly advances.
            self.machine.clock.idle_until(next);
        }
        Ok(())
    }

    /// Phoenix-style checkpoint (\[Gait90\], §6): walks every CHANGING file
    /// page, re-checksums it, and clears the flag — only now do the pages
    /// written since the previous checkpoint become recoverable. Charges a
    /// per-page cost modelling Phoenix's copy-on-write page duplication.
    pub fn checkpoint_now(&mut self) -> Result<u64, KernelError> {
        use rio_core::EntryFlags;
        let mut committed = 0u64;
        let keys: Vec<(u64, u64)> = self.ubc.keys().collect();
        for key in keys {
            let Some(page) = self.ubc.peek(key) else {
                continue;
            };
            let Some(mut entry) = self.rio_read_entry(page)? else {
                continue;
            };
            if !entry.flags.contains(EntryFlags::CHANGING) {
                continue;
            }
            entry.flags = entry.flags.without(EntryFlags::CHANGING);
            let valid = (entry.size as usize).min(rio_mem::PAGE_SIZE) as u32;
            // Sector cache: only the sectors dirtied since the previous
            // checkpoint are re-hashed — the Phoenix walk is O(dirty) too.
            entry.crc = self.page_crc_prefix(page, valid);
            self.rio_write_entry(page, &entry)?;
            // Phoenix keeps a duplicate of every modified page: charge the
            // copy (one page op for the walk, one for the duplication).
            self.machine.clock.charge_page_op();
            self.machine.clock.charge_page_op();
            committed += 1;
        }
        Ok(committed)
    }

    /// Runs the checkpoint when its interval has elapsed.
    pub(crate) fn maybe_checkpoint(&mut self) -> Result<(), KernelError> {
        let Some(due) = self.next_checkpoint else {
            return Ok(());
        };
        let now = self.machine.clock.now();
        if now < due {
            return Ok(());
        }
        let interval = self
            .policy
            .checkpoint_interval
            .expect("checkpoint policy set");
        self.next_checkpoint = Some(now + interval);
        self.checkpoint_now()?;
        Ok(())
    }

    /// Runs the `update` daemon if its interval has elapsed (called from
    /// every syscall entry; classic kernels schedule it every 30 s).
    pub(crate) fn maybe_update(&mut self) -> Result<(), KernelError> {
        let Some(due) = self.next_update else {
            return Ok(());
        };
        let now = self.machine.clock.now();
        if now < due {
            return Ok(());
        }
        let interval = self
            .policy
            .update_interval
            .unwrap_or(SimTime::from_secs(30));
        self.next_update = Some(now + interval);
        self.stats.update_runs += 1;
        self.flush_everything(false)
    }
}
