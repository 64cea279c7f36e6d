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
        self.bawrite_block(self.geometry.inode_location(ino).0);
        // Wait for everything queued to settle — fsync's contract.
        self.drain()
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
        for block in self.bufcache.dirty_keys() {
            self.bawrite_block(block);
        }
        if wait {
            self.drain()?;
        }
        Ok(())
    }

    /// Advances simulated time to `t`, running the `update` daemon at the
    /// instants it falls due *inside* the gap.
    ///
    /// The `update` daemon (`maybe_update`) otherwise runs only at syscall
    /// entry, so a workload that idles via the raw
    /// [`crate::clock::Clock::idle_until`] flushes nothing until its *next*
    /// syscall — and a crash inside the gap finds the dirty data still in
    /// memory, as if the daemon never existed. This is the kernel-honest
    /// idle path: it steps through the gap, running `update` at each due
    /// time, so an "idle gap then crash" leaves exactly the disk image a
    /// periodically-scheduled daemon would have produced.
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
            // Run the daemon if it is due at the current instant first.
            self.maybe_update()?;
            let now = self.machine.clock.now();
            if now >= t {
                break;
            }
            // Hop to the next `update` strictly inside the gap, else to `t`:
            // both are later than `now`, so the loop strictly advances.
            let next = match self.next_update {
                Some(due) if due > now => due.min(t),
                _ => t,
            };
            self.machine.clock.idle_until(next);
        }
        Ok(())
    }

    /// Runs the `update` daemon if its interval has elapsed (called from
    /// every syscall entry; classic kernels schedule it every 30 s).
    pub(crate) fn maybe_update(&mut self) -> Result<(), KernelError> {
        // `next_update` is `Some` exactly when the policy sets an interval.
        let (Some(due), Some(interval)) = (self.next_update, self.policy.update_interval) else {
            return Ok(());
        };
        let now = self.machine.clock.now();
        if now < due {
            return Ok(());
        }
        self.next_update = Some(now + interval);
        self.stats.update_runs += 1;
        self.flush_everything(false)
    }
}
