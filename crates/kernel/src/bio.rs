//! Buffer I/O: the only kernel code that issues a timed disk request or
//! waits on one, and the keeper of the three rules that make a write the
//! kernel has waited on survive a crash (DESIGN.md §4.6):
//!
//! 1. a write the kernel waited on is hardened (`wait_hardened`);
//! 2. a frame is never reused while a write from it is in flight
//!    ([`Kernel::wait_frame_flush`] on the [`InFlight`] record);
//! 3. an async UBC write-back keeps its registry DIRTY bit until it
//!    completes ([`Kernel::retire_ubc_writebacks`]).
//!
//! Untimed whole-disk access (mkfs's `poke` / `peek`, fsck's and the
//! metadata restore's `try_*`) stays with its callers.

use crate::cache::MixMap;
use crate::error::KernelError;
use crate::kernel::Kernel;
use crate::machine::Machine;
use rio_core::EntryFlags;
use rio_disk::SimTime;
use rio_mem::PageNum;

/// The disk writes in flight from cache frames: one record per frame,
/// plus the DIRTY retirements in the order their writes were queued.
/// Host-side; dies with the kernel at a crash.
#[derive(Debug, Clone, Default)]
pub(crate) struct InFlight {
    /// Keyed by frame, so a frame with nothing in flight costs one lookup;
    /// never iterated. A record lives until the frame is evicted.
    frames: MixMap<PageNum, FrameIo>,
    /// Async UBC write-backs whose page keeps its DIRTY bit until `done`:
    /// at most one per frame (the one its record says `retiring`).
    retirements: Vec<Retirement>,
}

/// What a frame has in flight.
#[derive(Debug, Clone, Copy)]
struct FrameIo {
    /// Completion time of the newest-finishing write sourced from the
    /// frame since it last took a new block.
    done: SimTime,
    /// Whether `InFlight::retirements` holds the frame's DIRTY retirement.
    retiring: bool,
}

/// One async UBC write-back between submit and completion.
#[derive(Debug, Clone, Copy)]
struct Retirement {
    key: (u64, u64),
    page: PageNum,
    done: SimTime,
}

impl Machine {
    /// bread: reads `block`, sleeping until the read completes. A
    /// `Machine` function because mount reads the superblock before a
    /// [`Kernel`] exists.
    pub(crate) fn bread(&mut self, block: u64) -> Vec<u8> {
        let (data, done) = self.disk.read(block, self.clock.now(), false);
        self.clock.wait_until(done);
        data
    }
}

impl Kernel {
    /// bwrite: writes frame `page` to `block` and sleeps until the write
    /// completes (rule 1).
    pub(crate) fn bwrite(&mut self, block: u64, page: PageNum) {
        let done = self.submit(block, page, false);
        self.wait_hardened(done);
    }

    /// Queues frame `page` onto `block` as a command of its own.
    fn submit(&mut self, block: u64, page: PageNum, force_sequential: bool) -> SimTime {
        let now = self.machine.clock.now();
        let data = self.machine.bus.mem().page(page);
        self.machine
            .disk
            .submit_write_from(block, data, now, force_sequential)
    }

    /// Sleeps until `done`, counts the wait, and — the kernel has observed
    /// the write complete — hardens everything finished by then (rule 1).
    fn wait_hardened(&mut self, done: SimTime) {
        self.machine.clock.wait_until(done);
        self.stats.sync_waits += 1;
        self.machine.disk.harden_until(done);
    }

    /// bawrite of a metadata block: queues it if it is resident and dirty,
    /// and marks it clean.
    pub(crate) fn bawrite_block(&mut self, block: u64) {
        if let Some(page) = self
            .bufcache
            .peek(block)
            .filter(|_| self.bufcache.is_dirty(block))
        {
            self.bawrite(block, &[page]);
            self.bufcache.mark_clean(block);
        }
    }

    /// bawrite of the resident UBC pages `keys` onto the contiguous blocks
    /// from `first` as one disk command. Marks them clean; under Rio each
    /// keeps its registry DIRTY bit until its write completes (rule 3),
    /// replacing any retirement its frame still had.
    pub(crate) fn bawrite_pages(&mut self, first: u64, keys: &[(u64, u64)]) {
        let pages: Vec<PageNum> = keys
            .iter()
            .map(|&k| self.ubc.peek(k).expect("a page written back is resident"))
            .collect();
        let done = self.bawrite(first, &pages);
        let InFlight {
            frames,
            retirements,
        } = &mut self.inflight;
        for ((&key, page), done) in keys.iter().zip(pages).zip(done) {
            self.ubc.mark_clean(key);
            if self.rio.is_none() {
                continue;
            }
            let frame = frames.get_mut(&page).expect("bawrite recorded the frame");
            if frame.retiring {
                retirements.retain(|r| r.page != page);
            }
            frame.retiring = true;
            retirements.push(Retirement { key, page, done });
        }
    }

    /// Queues frames `pages` onto the contiguous blocks from `first` as one
    /// disk command without waiting, and records each frame's write for
    /// eviction to wait on (rule 2). Returns each block's completion time.
    fn bawrite(&mut self, first: u64, pages: &[PageNum]) -> Vec<SimTime> {
        let now = self.machine.clock.now();
        let mem = self.machine.bus.mem();
        let data: Vec<&[u8]> = pages.iter().map(|&p| mem.page(p)).collect();
        let done = self.machine.disk.submit_write_run(first, &data, now);
        for (&page, &done) in pages.iter().zip(&done) {
            let frame = self.inflight.frames.entry(page).or_insert(FrameIo {
                done,
                retiring: false,
            });
            frame.done = frame.done.max(done);
        }
        done
    }

    /// bwait before frame `page` is reused: sleeps until any write still
    /// in flight from it completes (rule 2) and drops the page's pending
    /// DIRTY retirement — the frame's registry entry is about to go.
    pub(crate) fn wait_frame_flush(&mut self, page: PageNum) {
        let Some(frame) = self.inflight.frames.remove(&page) else {
            return;
        };
        if frame.retiring {
            self.inflight.retirements.retain(|r| r.page != page);
        }
        if frame.done > self.machine.clock.now() {
            self.wait_hardened(frame.done);
        }
    }

    /// `fsync` / `sync`: sleeps until the queue drains, lands it on the
    /// platter, then retires the DIRTY bits of every write it held — at
    /// the drained instant, which under the scheduler's deferred clock is
    /// later than `clock.now()`.
    ///
    /// # Errors
    ///
    /// Propagates registry access faults (which panic the kernel).
    pub(crate) fn drain(&mut self) -> Result<(), KernelError> {
        let done = self.machine.disk.sync(self.machine.clock.now());
        self.machine.clock.wait_until(done);
        self.stats.sync_waits += 1;
        self.retire_ubc_writebacks(done)
    }

    /// The dirty throttle's stall: sleeps until the queue would drain,
    /// without landing it. Landing it would keep later arrivals from
    /// reordering those writes on a striped disk.
    pub(crate) fn stall_until_drained(&mut self) {
        let drained = self.machine.disk.idle_at(self.machine.clock.now());
        self.machine.clock.wait_until(drained);
        self.stats.sync_waits += 1;
    }

    /// Clears the registry DIRTY bit of every async UBC write-back that
    /// completed by `at` (rule 3). A page evicted or redirtied since its
    /// flush keeps its current state — the next flush queues a fresh
    /// retirement.
    ///
    /// # Errors
    ///
    /// Propagates registry access faults (which panic the kernel).
    pub(crate) fn retire_ubc_writebacks(&mut self, at: SimTime) -> Result<(), KernelError> {
        let due: Vec<Retirement> = self
            .inflight
            .retirements
            .extract_if(.., |r| r.done <= at)
            .collect();
        for r in due {
            if let Some(frame) = self.inflight.frames.get_mut(&r.page) {
                frame.retiring = false;
            }
            if self.ubc.peek(r.key) == Some(r.page) && !self.ubc.is_dirty(r.key) {
                self.rio_clear_dirty(r.page)?;
            }
        }
        Ok(())
    }

    /// Clears DIRTY in `page`'s registry entry, if it has one.
    ///
    /// # Errors
    ///
    /// Propagates registry access faults (which panic the kernel).
    pub(crate) fn rio_clear_dirty(&mut self, page: PageNum) -> Result<(), KernelError> {
        if let Some(mut entry) = self.rio_read_entry(page)? {
            entry.flags = entry.flags.without(EntryFlags::DIRTY);
            self.rio_write_entry(page, &entry)?;
        }
        Ok(())
    }

    /// Appends one page to the journal area (asynchronous, forced
    /// sequential — the AdvFS fast path). The journal slot is not the
    /// frame's block, so nothing is recorded for eviction.
    pub(crate) fn journal_append(&mut self, page: PageNum) {
        if self.geometry.journal_blocks == 0 {
            return;
        }
        let slot = self.geometry.journal_start + self.journal_head % self.geometry.journal_blocks;
        self.journal_head += 1;
        self.submit(slot, page, true);
    }

    /// Best-effort flush of all dirty buffers during panic (no timing — the
    /// machine is dying; we only care what reaches the platters).
    pub(crate) fn panic_flush(&mut self) {
        // Metadata.
        for block in self.bufcache.dirty_keys() {
            if let Some(page) = self.bufcache.peek(block) {
                self.submit(block, page, false);
            }
        }
        // File data: only pages with an assigned disk block can be pushed.
        for key in self.ubc.dirty_keys() {
            if let Some(page) = self.ubc.peek(key) {
                if let Ok(Some(block)) = self.lookup_file_block_quiet(key.0, key.1) {
                    self.submit(block, page, false);
                }
            }
        }
        // The dying system does not wait for completion: whatever was in
        // flight at the end may tear.
        let crash_time = self.machine.disk.idle_at(self.machine.clock.now());
        self.machine.disk.crash(crash_time);
    }
}

#[cfg(test)]
mod tests {
    use crate::kernel::{Fd, Kernel, KernelConfig};
    use crate::policy::Policy;
    use crate::preempt::SyscallOp;
    use crate::sched::{run_preemptive, PreemptClient, PreemptSched, SyscallScript};
    use crate::PanicReason;
    use rio_core::{EntryFlags, RioMode};
    use rio_mem::{PageNum, PAGE_SIZE};

    /// A Rio kernel whose UBC holds `ubc_pages` pages.
    fn rio_kernel(ubc_pages: u64) -> (Kernel, KernelConfig) {
        let mut config = KernelConfig::small(Policy::rio(RioMode::Protected));
        config.machine.mem.ubc_bytes = ubc_pages * PAGE_SIZE as u64;
        (Kernel::mkfs_and_mount(&config).expect("boot"), config)
    }

    /// Crashes `k` where it stands, reboots it warm and reads `/f` back.
    fn crash_and_read(mut k: Kernel, config: &KernelConfig) -> Vec<u8> {
        k.crash_now(PanicReason::Watchdog);
        let (image, disk) = k.into_crash_artifacts();
        let (mut k, _) = Kernel::warm_boot(config, &image, disk).expect("warm boot");
        k.file_contents("/f").expect("read")
    }

    #[test]
    fn a_crash_inside_a_deferred_wait_keeps_the_write_it_waited_on() {
        // Rule 1. A four-page UBC: the second write's page evicts the
        // first, dirty, page with a synchronous write-back, drops its
        // registry entry and reuses the frame. Under the scheduler that
        // wait parks the client without moving the global clock, so a
        // crash at the next pick lands before the write-back completes —
        // yet the platter copy is already the page's only one.
        let (mut k, config) = rio_kernel(4);
        let data: Vec<u8> = (0..4 * PAGE_SIZE)
            .map(|i| (i / PAGE_SIZE) as u8 + 1)
            .collect();
        let mut client: SyscallScript = [
            SyscallOp::Create("/f".into()),
            SyscallOp::Write {
                fd: Fd::LAST_OPENED,
                data: data.clone(),
            },
            SyscallOp::Write {
                fd: Fd::LAST_OPENED,
                data: vec![9; PAGE_SIZE],
            },
        ]
        .into_iter()
        .collect();
        let mut clients: [&mut dyn PreemptClient; 1] = [&mut client];
        let mut sched = PreemptSched::new(1, 0, true);
        while k.stats.overflow_writebacks == 0 {
            sched.step_once(&mut k, &mut clients).expect("step");
        }
        // The second write's page landed in the file cache before the
        // crash, so the warm reboot keeps it too.
        let got = crash_and_read(k, &config);
        assert_eq!(got, [data, vec![9; PAGE_SIZE]].concat());
    }

    #[test]
    fn eviction_waits_for_the_frames_write_before_reusing_it() {
        // Rule 2. /g's fourth page evicts /f's page while the async
        // write-back of it is still queued; once the frame is reused that
        // write is the page's only copy.
        let (mut k, config) = rio_kernel(4);
        let f = k.create("/f").expect("create");
        let g = k.create("/g").expect("create");
        k.write(f, &[0xA5; PAGE_SIZE]).expect("write");
        k.flush_everything(false).expect("flush");
        k.write(g, &[0x5A; 4 * PAGE_SIZE]).expect("write");
        assert_eq!(crash_and_read(k, &config), [0xA5; PAGE_SIZE]);
    }

    #[test]
    fn an_async_write_back_keeps_its_page_dirty_until_it_completes() {
        // Rule 3. A crash right after the submit finds the write in
        // flight: the page must come back from memory, not from the disk.
        let (mut k, config) = rio_kernel(4);
        let f = k.create("/f").expect("create");
        k.write(f, &[0xA5; PAGE_SIZE]).expect("write");
        k.flush_everything(false).expect("flush");
        assert_eq!(crash_and_read(k, &config), [0xA5; PAGE_SIZE]);
    }

    #[test]
    fn a_scheduled_fsync_retires_the_dirty_bits_it_drained() {
        let (mut k, _) = rio_kernel(512);
        k.set_reliability_writes(true);
        let mut client: SyscallScript = [
            SyscallOp::Create("/f".into()),
            SyscallOp::Write {
                fd: Fd::LAST_OPENED,
                data: vec![7; 3 * PAGE_SIZE],
            },
            SyscallOp::Fsync(Fd::LAST_OPENED),
        ]
        .into_iter()
        .collect();
        let mut clients: [&mut dyn PreemptClient; 1] = [&mut client];
        run_preemptive(&mut k, &mut clients, 0, true).expect("run");
        // No syscall after the run: its entry would retire them anyway.
        let ubc: Vec<PageNum> = k.machine.bus.layout().ubc.page_numbers().collect();
        let mut entries = 0;
        for page in ubc {
            if let Some(e) = k.rio_read_entry(page).expect("registry") {
                entries += 1;
                assert!(
                    !e.flags.contains(EntryFlags::DIRTY),
                    "file page at {} still DIRTY after its fsync",
                    e.offset
                );
            }
        }
        assert_eq!(entries, 3);
    }
}
