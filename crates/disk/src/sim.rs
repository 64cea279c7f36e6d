//! The simulated disk: a block store behind one request plane, with
//! asynchronous writes and torn-write crash semantics.
//!
//! [`SimDisk`] is the data half of the drive — block contents, torn
//! flags, the injected-fault tables, the counters. Everything timed
//! (queueing, positioning, completion, what a crash catches mid-flight)
//! is the request plane's, [`crate::array::DiskArray`], of which a disk
//! holds exactly one: one device for [`SimDisk::new`], D for
//! [`SimDisk::new_striped`]. No method here asks which.

use crate::array::DiskArray;
use crate::model::DiskModel;
use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An injected per-block I/O fault (recovery-path fault model).
///
/// Real drives fail in two broad ways during a post-crash restore: a
/// marginal sector that succeeds on retry, and a dead one that never will.
/// Faults are consumed deterministically — a `Transient(n)` fails exactly
/// `n` accesses and then clears — so campaigns that clone the disk replay
/// identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Fails the next `n` accesses, then succeeds forever.
    Transient(u32),
    /// Fails every access.
    Permanent,
}

/// Why a fallible block access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskIoError {
    /// A retry may succeed.
    Transient,
    /// No retry will ever succeed.
    Permanent,
}

impl std::fmt::Display for DiskIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskIoError::Transient => f.write_str("transient I/O error"),
            DiskIoError::Permanent => f.write_str("permanent I/O error"),
        }
    }
}

impl std::error::Error for DiskIoError {}

/// Disk block size in bytes — one 8 KB page, matching the file cache.
pub const BLOCK_SIZE: usize = 8192;

/// One shared block buffer. Platter contents and queued payloads are held
/// behind [`Arc`] so cloning a whole [`SimDisk`] — which the crash
/// campaign's checkpoint engine does once per trial — copies a pointer
/// table, not 16 MB of block data. Writes go copy-on-write through
/// [`Arc::make_mut`]; buffers that turn out to be unshared are recycled
/// through the free list exactly as the old owned buffers were.
pub type BlockBuf = Arc<[u8; BLOCK_SIZE]>;

/// Most freed block buffers one thread keeps for reuse (32 MB).
const BUF_POOL_CAP: usize = 4096;

thread_local! {
    /// Buffers a dropped disk owned alone: a later disk on this thread
    /// writes into them instead of asking the allocator, which would have
    /// handed the memory back to the OS and faulted it in again.
    static FREE_BUFS: RefCell<Vec<BlockBuf>> = const { RefCell::new(Vec::new()) };
}

/// Pops a free-list buffer that is safe to overwrite (uniquely owned), then
/// one this thread recycled from a dropped disk, or allocates a fresh one.
/// Shared buffers (a checkpoint still references them) are dropped, not
/// reused. Every caller overwrites the whole buffer.
fn writable_buf(free: &mut Vec<BlockBuf>) -> BlockBuf {
    while let Some(mut b) = free.pop() {
        if Arc::get_mut(&mut b).is_some() {
            return b;
        }
    }
    match FREE_BUFS.try_with(|f| f.borrow_mut().pop()) {
        Ok(Some(b)) => b,
        _ => Arc::new([0u8; BLOCK_SIZE]),
    }
}

/// A [`BlockBuf`] holding a copy of `data`, recycling from `free`.
fn buf_from(free: &mut Vec<BlockBuf>, data: &[u8]) -> BlockBuf {
    let mut buf = writable_buf(free);
    Arc::get_mut(&mut buf)
        .expect("writable_buf returns unique buffers")
        .copy_from_slice(data);
    buf
}

/// Lands a whole write on the platter: the block takes the payload, its
/// old buffer is recycled, and any tear is healed.
fn land(
    blocks: &mut [BlockBuf],
    torn: &mut [bool],
    free: &mut Vec<BlockBuf>,
    block: u64,
    data: BlockBuf,
) {
    let old = std::mem::replace(&mut blocks[block as usize], data);
    free.push(old);
    torn[block as usize] = false;
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Completed read requests.
    pub reads: u64,
    /// Submitted write requests.
    pub writes: u64,
    /// Bytes written (submitted).
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Writes lost (never started) at a crash.
    pub writes_lost_at_crash: u64,
    /// Blocks torn (mid-write) at a crash.
    pub blocks_torn_at_crash: u64,
}

/// The simulated drive.
///
/// All operations take the current simulated time `now`; the request
/// plane tracks when each head frees up and returns per-request
/// completion times, so callers can model both synchronous waiting (block
/// until completion) and asynchronous overlap (proceed, let the queue
/// drain).
#[derive(Debug, Clone)]
pub struct SimDisk {
    model: DiskModel,
    blocks: Vec<BlockBuf>,
    /// Blocks corrupted by a mid-write crash; cleared when rewritten.
    torn: Vec<bool>,
    /// Retired block buffers, recycled by [`SimDisk::submit_write_from`] so
    /// the steady-state write path performs one copy and no allocation.
    free: Vec<BlockBuf>,
    /// Every queued request, on every device.
    plane: DiskArray,
    /// Injected faults for the fallible (recovery-path) accessors.
    read_faults: BTreeMap<u64, DiskFault>,
    write_faults: BTreeMap<u64, DiskFault>,
    stats: DiskStats,
}

impl SimDisk {
    /// A single-spindle disk with `num_blocks` zeroed blocks, served in
    /// arrival order.
    pub fn new(num_blocks: u64, model: DiskModel) -> Self {
        SimDisk::new_striped(num_blocks, model, 1)
    }

    /// A disk whose blocks are striped round-robin across `devices`
    /// spindles, each with its own queue. The dispatch rule follows from
    /// the device count (see [`crate::array`]): one device serves in
    /// arrival order, more sweep C-LOOK.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is 0 or exceeds
    /// [`crate::array::MAX_DEVICES`].
    pub fn new_striped(num_blocks: u64, model: DiskModel, devices: usize) -> Self {
        // Every block shares one zeroed buffer until first written — a
        // fresh 16 MB disk costs one 8 KB allocation. The shared `Arc` is
        // the point (writes replace the pointer, never the buffer), hence
        // the lint allow.
        #[allow(clippy::rc_clone_in_vec_init)]
        SimDisk {
            model,
            blocks: vec![Arc::new([0u8; BLOCK_SIZE]); num_blocks as usize],
            torn: vec![false; num_blocks as usize],
            free: Vec::new(),
            plane: DiskArray::new(devices),
            read_faults: BTreeMap::new(),
            write_faults: BTreeMap::new(),
            stats: DiskStats::default(),
        }
    }

    /// Number of devices the block space is striped across.
    pub fn devices(&self) -> usize {
        self.plane.devices()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Operation counters so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// The service model in use.
    pub fn model(&self) -> DiskModel {
        self.model
    }

    /// When the queue fully drains (≥ `now`).
    pub fn idle_at(&self, now: SimTime) -> SimTime {
        self.plane.drain_time(now)
    }

    /// Number of writes outstanding (not yet durable) at `now`, without
    /// mutating any disk state: completed-but-unretired requests are
    /// excluded by timestamp, not by retiring them.
    pub fn queue_depth_at(&self, now: SimTime) -> usize {
        self.plane.queue_depth_at(now)
    }

    /// Lands every queued write whose completion time has passed.
    fn retire(&mut self, now: SimTime) {
        self.plane.retire(now, |block, data| {
            land(
                &mut self.blocks,
                &mut self.torn,
                &mut self.free,
                block,
                data,
            )
        });
    }

    /// Submits an asynchronous block write; returns its completion time.
    ///
    /// `force_sequential` marks the request as part of a sequential stream
    /// regardless of head position (journal appends batch this way).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range or `data` is not [`BLOCK_SIZE`]
    /// bytes — the kernel's device driver only issues whole valid blocks,
    /// so a violation is a simulator bug, not a simulated fault.
    pub fn submit_write(
        &mut self,
        block: u64,
        data: Vec<u8>,
        now: SimTime,
        force_sequential: bool,
    ) -> SimTime {
        self.submit_write_from(block, &data, now, force_sequential)
    }

    /// [`SimDisk::submit_write`] from a borrowed buffer: the single copy
    /// into the request queue happens here, so callers writing out of a
    /// live memory image (the UBC flush path) need not clone the page
    /// first.
    ///
    /// # Panics
    ///
    /// As [`SimDisk::submit_write`].
    pub fn submit_write_from(
        &mut self,
        block: u64,
        data: &[u8],
        now: SimTime,
        force_sequential: bool,
    ) -> SimTime {
        let cmd = self.plane.command();
        self.submit_command_write(cmd, block, data, now, force_sequential)
    }

    /// Submits one write command covering the contiguous blocks `first`,
    /// `first + 1`, … — one full block of `pages` each — and returns each
    /// block's completion time.
    ///
    /// The drive streams a command's blocks back to back: a block
    /// dispatched right behind the previous block of its command pays its
    /// transfer only ([`crate::Positioning::Continued`]), so a run costs one
    /// per-request overhead, not one per block. Each block is still its
    /// own request to everything else: it counts as one write, and a crash
    /// mid-run lands the prefix, tears the one block in flight and loses
    /// the rest. On a striped disk the run splits per device, each share
    /// streaming on its own spindle. A one-block run is
    /// [`SimDisk::submit_write_from`].
    ///
    /// # Panics
    ///
    /// As [`SimDisk::submit_write`], for any block of the run.
    pub fn submit_write_run(&mut self, first: u64, pages: &[&[u8]], now: SimTime) -> Vec<SimTime> {
        let cmd = self.plane.command();
        pages
            .iter()
            .zip(first..)
            .map(|(data, block)| self.submit_command_write(cmd, block, data, now, false))
            .collect()
    }

    /// One block of disk command `cmd`.
    fn submit_command_write(
        &mut self,
        cmd: u64,
        block: u64,
        data: &[u8],
        now: SimTime,
        force_sequential: bool,
    ) -> SimTime {
        assert_eq!(data.len(), BLOCK_SIZE, "write must be one full block");
        assert!(block < self.num_blocks(), "block {block} out of range");
        let data = buf_from(&mut self.free, data);
        self.retire(now);
        let end =
            self.plane
                .submit_command_write(cmd, block, data, now, force_sequential, &self.model);
        self.stats.writes += 1;
        self.stats.bytes_written += BLOCK_SIZE as u64;
        if rio_obs::is_enabled() {
            let dev = self.plane.device_of(block);
            rio_obs::histogram_record(
                self.plane.queue_depth_histogram(dev),
                self.plane.device_queue_depth_at(dev, now) as u64,
            );
        }
        end
    }

    /// Reads a block, seeing the latest submitted write (read-after-write
    /// consistency, as a real controller provides). Returns the data and the
    /// time the read completes.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn read(&mut self, block: u64, now: SimTime, force_sequential: bool) -> (Vec<u8>, SimTime) {
        assert!(block < self.num_blocks(), "block {block} out of range");
        self.retire(now);
        let (pending, end) = self
            .plane
            .submit_read(block, now, force_sequential, &self.model);
        self.stats.reads += 1;
        self.stats.bytes_read += BLOCK_SIZE as u64;
        // Latest queued write to this block wins.
        let data = pending
            .as_deref()
            .map(|b| &b[..])
            .unwrap_or(&self.blocks[block as usize][..])
            .to_vec();
        (data, end)
    }

    /// Waits for all pending writes: applies them and returns the time the
    /// queue drained.
    pub fn sync(&mut self, now: SimTime) -> SimTime {
        let done = self.idle_at(now);
        self.retire(done);
        debug_assert_eq!(self.queue_depth_at(done), 0);
        done
    }

    /// Marks every pending write completing by `t` as observed-complete:
    /// the kernel slept in a `biowait` that returned at `t`, so the platter
    /// holds everything that finished first.
    ///
    /// Under the preemptive scheduler the clock runs in deferred-wait mode:
    /// `wait_until` records a wake instead of advancing global time, so a
    /// crash can land at a global instant *before* a write the kernel
    /// already waited on. A real kernel blocked in `biowait` cannot execute
    /// past the completion interrupt — any crash that catches it past the
    /// wait implies every write complete by `t` is durable. `harden_until`
    /// encodes that: [`SimDisk::crash`] applies hardened writes in queue
    /// order instead of tearing or losing them. Timing is untouched (the
    /// request still occupies head time and retires normally), and under
    /// non-deferred execution this is exactly the set a crash-time
    /// retirement would land anyway — a behavioral no-op there.
    pub fn harden_until(&mut self, t: SimTime) {
        self.plane.harden_until(t);
    }

    /// Crashes the system at time `now`.
    ///
    /// * Writes already durable stay, as do writes the kernel observed as
    ///   complete ([`SimDisk::harden_until`]).
    /// * The write in flight on each device (started, not finished) leaves
    ///   a **torn block**: the first half of the new data lands, the second
    ///   half keeps the old contents, and the block is flagged torn.
    /// * Queued writes that never started are lost.
    pub fn crash(&mut self, now: SimTime) {
        let (in_flight, lost) = self.plane.crash(now, |block, data| {
            land(
                &mut self.blocks,
                &mut self.torn,
                &mut self.free,
                block,
                data,
            )
        });
        for (block, data) in in_flight {
            self.poke_torn(block, &data[..]);
            self.free.push(data);
        }
        self.stats.writes_lost_at_crash += lost;
    }

    /// Whether a block was torn by a crash and not yet rewritten.
    pub fn is_torn(&self, block: u64) -> bool {
        self.torn[block as usize]
    }

    /// Post-crash raw block contents (no timing, no queue) — used by
    /// recovery and by corruption checks.
    pub fn peek(&self, block: u64) -> &[u8] {
        &self.blocks[block as usize][..]
    }

    /// Direct block write without timing — used by mkfs and by warm reboot's
    /// metadata restore, both of which run on a healthy booting system where
    /// timing is not being measured.
    pub fn poke(&mut self, block: u64, data: &[u8]) {
        assert_eq!(data.len(), BLOCK_SIZE);
        // Full overwrite: reuse the buffer in place when unshared, else
        // swap in a writable one (no point copying the old contents first).
        match Arc::get_mut(&mut self.blocks[block as usize]) {
            Some(b) => b.copy_from_slice(data),
            None => {
                let buf = buf_from(&mut self.free, data);
                self.blocks[block as usize] = buf;
            }
        }
        self.torn[block as usize] = false;
    }

    /// A [`SimDisk::poke`] interrupted halfway: the first half of `data`
    /// lands, the second half keeps the old contents, and the block is
    /// flagged torn — the crash model for losing power mid-restore.
    pub fn poke_torn(&mut self, block: u64, data: &[u8]) {
        assert_eq!(data.len(), BLOCK_SIZE);
        let half = BLOCK_SIZE / 2;
        Arc::make_mut(&mut self.blocks[block as usize])[..half].copy_from_slice(&data[..half]);
        self.torn[block as usize] = true;
        self.stats.blocks_torn_at_crash += 1;
    }

    /// A [`SimDisk::poke_torn`] that respects the write-fault table: a
    /// crash interrupting a write to an unwritable block changes nothing,
    /// so no tear is recorded either.
    ///
    /// # Errors
    ///
    /// [`DiskIoError`] per the injected fault (the block is untouched).
    pub fn try_poke_torn(&mut self, block: u64, data: &[u8]) -> Result<(), DiskIoError> {
        Self::consume_fault(&mut self.write_faults, block)?;
        self.poke_torn(block, data);
        Ok(())
    }

    /// Injects a fault on the fallible *read* path ([`SimDisk::try_peek`]).
    /// The timed request-queue path is unaffected: the fault model targets
    /// the recovery/fsck accessors, which is where per-block degradation
    /// must be survivable.
    pub fn inject_read_fault(&mut self, block: u64, fault: DiskFault) {
        self.read_faults.insert(block, fault);
    }

    /// Injects a fault on the fallible *write* path ([`SimDisk::try_poke`]).
    pub fn inject_write_fault(&mut self, block: u64, fault: DiskFault) {
        self.write_faults.insert(block, fault);
    }

    /// Consumes one access against a fault table entry.
    fn consume_fault(faults: &mut BTreeMap<u64, DiskFault>, block: u64) -> Result<(), DiskIoError> {
        match faults.get_mut(&block) {
            None => Ok(()),
            Some(DiskFault::Permanent) => {
                rio_obs::emit(
                    rio_obs::EventCategory::DiskDegrade,
                    rio_obs::Payload::Block { block, aux: 0 },
                );
                Err(DiskIoError::Permanent)
            }
            Some(DiskFault::Transient(n)) => {
                let remaining = u64::from(*n);
                if *n <= 1 {
                    faults.remove(&block);
                } else {
                    *n -= 1;
                }
                rio_obs::emit(
                    rio_obs::EventCategory::DiskRetry,
                    rio_obs::Payload::Block {
                        block,
                        aux: remaining,
                    },
                );
                Err(DiskIoError::Transient)
            }
        }
    }

    /// Fallible [`SimDisk::peek`]: consults the injected read-fault table.
    /// A `Transient(n)` fault fails `n` calls and then reads clean.
    ///
    /// # Errors
    ///
    /// [`DiskIoError`] per the injected fault.
    pub fn try_peek(&mut self, block: u64) -> Result<&[u8], DiskIoError> {
        Self::consume_fault(&mut self.read_faults, block)?;
        Ok(self.peek(block))
    }

    /// Fallible [`SimDisk::poke`]: consults the injected write-fault table.
    /// On error the block is untouched.
    ///
    /// # Errors
    ///
    /// [`DiskIoError`] per the injected fault.
    pub fn try_poke(&mut self, block: u64, data: &[u8]) -> Result<(), DiskIoError> {
        Self::consume_fault(&mut self.write_faults, block)?;
        self.poke(block, data);
        Ok(())
    }
}

impl Drop for SimDisk {
    /// Returns the free list and every platter buffer this disk alone
    /// holds to this thread's recycled buffers, for `writable_buf`.
    fn drop(&mut self) {
        let owned = self
            .free
            .drain(..)
            .chain(self.blocks.drain(..))
            .filter_map(|mut b| Arc::get_mut(&mut b).is_some().then_some(b));
        let _ = FREE_BUFS.try_with(|f| {
            let mut free = f.borrow_mut();
            let room = BUF_POOL_CAP.saturating_sub(free.len());
            free.extend(owned.into_iter().take(room));
        });
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(32, DiskModel::paper_scsi())
    }

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut d = disk();
        let done = d.submit_write(5, block_of(0x5A), SimTime::ZERO, false);
        let (data, _) = d.read(5, done, false);
        assert_eq!(data, block_of(0x5A));
    }

    #[test]
    fn submit_write_from_matches_owned_submit_and_recycles_buffers() {
        let mut d = disk();
        let done = d.submit_write_from(5, &block_of(0x5A), SimTime::ZERO, false);
        let (data, _) = d.read(5, done, false);
        assert_eq!(data, block_of(0x5A));
        // The retired block buffer is recycled for the next borrowed write.
        d.sync(done);
        assert_eq!(d.free.len(), 1);
        d.submit_write_from(6, &block_of(0x6B), done, false);
        assert_eq!(d.free.len(), 0);
        let (data, _) = d.read(6, d.idle_at(done), false);
        assert_eq!(data, block_of(0x6B));
    }

    #[test]
    fn read_sees_pending_write_before_completion() {
        let mut d = disk();
        let done = d.submit_write(5, block_of(1), SimTime::ZERO, false);
        // Read issued immediately, before the write is durable.
        let (data, read_done) = d.read(5, SimTime::ZERO, false);
        assert_eq!(data, block_of(1));
        assert!(read_done > done, "read queued behind the write");
    }

    #[test]
    fn transient_fault_fails_n_times_then_clears() {
        let mut d = disk();
        d.poke(3, &block_of(0x33));
        d.inject_read_fault(3, DiskFault::Transient(2));
        assert_eq!(d.try_peek(3).unwrap_err(), DiskIoError::Transient);
        assert_eq!(d.try_peek(3).unwrap_err(), DiskIoError::Transient);
        assert_eq!(d.try_peek(3).unwrap(), block_of(0x33).as_slice());
        // Fault consumed entirely: later reads stay clean.
        assert!(d.try_peek(3).is_ok());
    }

    #[test]
    fn permanent_fault_never_clears_and_blocks_writes() {
        let mut d = disk();
        d.poke(4, &block_of(0x44));
        d.inject_write_fault(4, DiskFault::Permanent);
        for _ in 0..8 {
            assert_eq!(
                d.try_poke(4, &block_of(0x55)).unwrap_err(),
                DiskIoError::Permanent
            );
        }
        // The failed writes never touched the block.
        assert_eq!(d.peek(4), block_of(0x44).as_slice());
        // Reads are independent of the write-fault table.
        assert!(d.try_peek(4).is_ok());
    }

    #[test]
    fn poke_torn_leaves_half_old_half_new_and_flags_torn() {
        let mut d = disk();
        d.poke(7, &block_of(0xAA));
        d.poke_torn(7, &block_of(0xBB));
        let half = BLOCK_SIZE / 2;
        let data = d.peek(7);
        assert!(data[..half].iter().all(|&b| b == 0xBB));
        assert!(data[half..].iter().all(|&b| b == 0xAA));
        assert!(d.is_torn(7));
        assert_eq!(d.stats().blocks_torn_at_crash, 1);
        // A clean full rewrite clears the torn flag again.
        d.poke(7, &block_of(0xCC));
        assert!(!d.is_torn(7));
    }

    #[test]
    fn queue_serializes_requests() {
        let mut d = disk();
        let t1 = d.submit_write(1, block_of(1), SimTime::ZERO, false);
        let t2 = d.submit_write(9, block_of(2), SimTime::ZERO, false);
        assert!(t2 > t1);
        let drained = d.sync(SimTime::ZERO);
        assert_eq!(drained, t2);
        assert_eq!(d.queue_depth_at(drained), 0);
    }

    #[test]
    fn sequential_stream_is_faster_than_random() {
        let mut d1 = disk();
        let mut d2 = disk();
        let mut t_seq = SimTime::ZERO;
        for i in 0..8 {
            t_seq = d1.submit_write(i, block_of(1), SimTime::ZERO, true);
        }
        let mut t_rand = SimTime::ZERO;
        for i in 0..8 {
            t_rand = d2.submit_write((i * 7) % 32, block_of(1), SimTime::ZERO, false);
        }
        assert!(t_seq < t_rand);
    }

    #[test]
    fn consecutive_blocks_auto_detected_as_sequential() {
        let mut d = disk();
        d.submit_write(3, block_of(1), SimTime::ZERO, false);
        let before = d.idle_at(SimTime::ZERO);
        let after = d.submit_write(4, block_of(2), SimTime::ZERO, false);
        // Second request charged no positioning.
        let svc = after.saturating_sub(before);
        assert_eq!(svc, d.model().service_time(BLOCK_SIZE as u64, true));
    }

    #[test]
    fn crash_loses_unstarted_writes() {
        let mut d = disk();
        let first_done = d.submit_write(1, block_of(1), SimTime::ZERO, false);
        d.submit_write(2, block_of(2), SimTime::ZERO, false);
        d.submit_write(3, block_of(3), SimTime::ZERO, false);
        // Crash just after the second write starts: the first is durable,
        // the second is mid-write (torn), the third never started (lost).
        d.crash(first_done + SimTime::from_micros(1));
        assert_eq!(d.peek(1), &block_of(1)[..]);
        assert!(d.is_torn(2), "second write was in flight");
        assert_eq!(d.peek(3), &block_of(0)[..], "third write lost");
        assert_eq!(d.stats().writes_lost_at_crash, 1);
        assert_eq!(d.stats().blocks_torn_at_crash, 1);
    }

    #[test]
    fn torn_block_is_half_new_half_old() {
        let mut d = disk();
        d.poke(7, &block_of(0xEE));
        let start = SimTime::ZERO;
        let end = d.submit_write(7, block_of(0x11), start, false);
        let mid = SimTime::from_micros((start.as_micros() + end.as_micros()) / 2);
        d.crash(mid);
        assert!(d.is_torn(7));
        let data = d.peek(7);
        assert!(data[..BLOCK_SIZE / 2].iter().all(|&b| b == 0x11));
        assert!(data[BLOCK_SIZE / 2..].iter().all(|&b| b == 0xEE));
    }

    /// A dropped disk's buffers come back to the next disk on this thread;
    /// whichever path reuses one, every block reads exactly what the new
    /// disk was given — after retirement and after a crash, where a torn
    /// block keeps its old second half and a lost write leaves zeroes. A
    /// buffer a clone still holds is not recycled.
    #[test]
    fn buffers_recycled_from_a_dropped_disk_hold_only_the_new_writes() {
        let mut old = disk();
        let mut end = SimTime::ZERO;
        for b in 0..old.num_blocks() {
            end = old.submit_write(b, block_of(0xA5), SimTime::ZERO, false);
        }
        old.sync(end);
        let kept = old.clone();
        old.poke(0, &block_of(0x5A)); // now held by `old` alone
        drop(old);
        let mut d = disk();
        let t = d.submit_write(1, block_of(0x11), SimTime::ZERO, false);
        d.poke(2, &block_of(0x22));
        let t = d.sync(t);
        let first_done = d.submit_write(4, block_of(0x44), t, false);
        d.submit_write(1, block_of(0x33), t, false);
        d.submit_write(3, block_of(0x55), t, false);
        d.crash(first_done + SimTime::from_micros(1));
        let mut torn = block_of(0x33);
        torn[BLOCK_SIZE / 2..].fill(0x11);
        for b in 0..d.num_blocks() {
            let want = match b {
                1 => torn.clone(),
                2 => block_of(0x22),
                4 => block_of(0x44),
                _ => block_of(0),
            };
            assert_eq!(d.peek(b), &want[..], "block {b}");
            assert_eq!(d.is_torn(b), b == 1, "block {b}");
            assert_eq!(kept.peek(b), &block_of(0xA5)[..], "clone's block {b}");
        }
    }

    #[test]
    fn rewriting_a_torn_block_clears_the_flag() {
        let mut d = disk();
        let end = d.submit_write(7, block_of(0x11), SimTime::ZERO, false);
        d.crash(SimTime::from_micros(end.as_micros() / 2 + 1));
        assert!(d.is_torn(7));
        let done = d.submit_write(7, block_of(0x22), SimTime::ZERO, false);
        d.sync(done);
        assert!(!d.is_torn(7));
        assert_eq!(d.peek(7), &block_of(0x22)[..]);
    }

    #[test]
    fn sync_drains_everything() {
        let mut d = disk();
        for i in 0..5 {
            d.submit_write(i, block_of(i as u8), SimTime::ZERO, false);
        }
        let t = d.sync(SimTime::ZERO);
        for i in 0..5 {
            assert_eq!(d.peek(i)[0], i as u8);
        }
        assert_eq!(d.idle_at(t), t);
    }

    #[test]
    fn stats_count_operations() {
        let mut d = disk();
        d.submit_write(0, block_of(1), SimTime::ZERO, false);
        d.read(0, SimTime::ZERO, false);
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, BLOCK_SIZE as u64);
        assert_eq!(s.bytes_read, BLOCK_SIZE as u64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_panics() {
        disk().read(99, SimTime::ZERO, false);
    }

    #[test]
    #[should_panic(expected = "full block")]
    fn short_write_panics() {
        disk().submit_write(0, vec![0; 100], SimTime::ZERO, false);
    }
}

#[cfg(test)]
mod observation_tests {
    use super::*;

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    /// Observing the queue must never change disk state, timing, or crash
    /// outcome (a probe that retired what it counted once did).
    #[test]
    fn observation_never_changes_state_or_timing() {
        let script = |d: &mut SimDisk, probe: bool| {
            let e1 = d.submit_write(1, block_of(1), SimTime::ZERO, false);
            if probe {
                for t in [SimTime::ZERO, e1, e1 + SimTime::from_secs(1)] {
                    let _ = d.queue_depth_at(t);
                }
            }
            let e2 = d.submit_write(9, block_of(2), e1, false);
            if probe {
                let _ = d.queue_depth_at(e2);
            }
            // Crash mid-way through the second request.
            let mid = SimTime::from_micros((e1.as_micros() + e2.as_micros()) / 2);
            d.crash(mid);
            (e1, e2)
        };
        let mut observed = SimDisk::new(32, DiskModel::paper_scsi());
        let mut silent = SimDisk::new(32, DiskModel::paper_scsi());
        let to = script(&mut observed, true);
        let ts = script(&mut silent, false);
        assert_eq!(to, ts, "probing shifted request timing");
        assert_eq!(observed.stats(), silent.stats());
        for b in 0..32 {
            assert_eq!(observed.peek(b), silent.peek(b), "block {b}");
            assert_eq!(observed.is_torn(b), silent.is_torn(b), "torn {b}");
        }
    }

    #[test]
    fn queue_depth_at_is_pure_and_time_scoped() {
        let mut d = SimDisk::new(32, DiskModel::paper_scsi());
        let e1 = d.submit_write(1, block_of(1), SimTime::ZERO, false);
        let e2 = d.submit_write(2, block_of(2), SimTime::ZERO, false);
        assert_eq!(d.queue_depth_at(SimTime::ZERO), 2);
        assert_eq!(d.queue_depth_at(e1), 1);
        assert_eq!(d.queue_depth_at(e2), 0);
        // Repeated probes at a late time do not retire anything: the
        // queue still holds both writes for the crash model.
        assert_eq!(d.queue_depth_at(e2), 0);
        d.crash(SimTime::from_micros(e1.as_micros() / 2 + 1));
        assert!(d.is_torn(1), "first write was still in flight at crash");
    }
}

#[cfg(test)]
mod striped_tests {
    use super::*;

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    fn striped() -> SimDisk {
        SimDisk::new_striped(64, DiskModel::paper_scsi(), 4)
    }

    #[test]
    fn one_device_stripe_is_the_fifo_disk() {
        let a = SimDisk::new_striped(32, DiskModel::paper_scsi(), 1);
        assert_eq!(a.devices(), 1);
        let mut a = a;
        let mut b = SimDisk::new(32, DiskModel::paper_scsi());
        let ta = a.submit_write(5, block_of(7), SimTime::ZERO, false);
        let tb = b.submit_write(5, block_of(7), SimTime::ZERO, false);
        assert_eq!(ta, tb);
    }

    #[test]
    fn write_read_round_trips_across_devices() {
        let mut d = striped();
        let mut done = SimTime::ZERO;
        for b in 0..8 {
            done = done.max(d.submit_write(b, block_of(b as u8 + 1), SimTime::ZERO, false));
        }
        for b in 0..8 {
            let (data, _) = d.read(b, done, false);
            assert_eq!(data, block_of(b as u8 + 1), "block {b}");
        }
    }

    #[test]
    fn sequential_global_stream_overlaps_across_spindles() {
        let mut striped4 = striped();
        let mut fifo = SimDisk::new(64, DiskModel::paper_scsi());
        let mut t4 = SimTime::ZERO;
        let mut t1 = SimTime::ZERO;
        for b in 0..8 {
            t4 = t4.max(striped4.submit_write(b, block_of(1), SimTime::ZERO, false));
            t1 = t1.max(fifo.submit_write(b, block_of(1), SimTime::ZERO, false));
        }
        assert!(
            t4 < t1,
            "4 spindles should drain a stream faster: {t4:?} vs {t1:?}"
        );
    }

    #[test]
    fn sync_makes_everything_durable() {
        let mut d = striped();
        for b in 0..12 {
            d.submit_write(b, block_of(b as u8 + 1), SimTime::ZERO, false);
        }
        let t = d.sync(SimTime::ZERO);
        assert_eq!(d.queue_depth_at(t), 0);
        for b in 0..12 {
            assert_eq!(d.peek(b)[0], b as u8 + 1);
        }
    }

    #[test]
    fn crash_tears_at_most_one_write_per_device() {
        let mut d = striped();
        // Two writes per device: the first wave is in flight at the crash
        // instant, the second wave never starts.
        let mut first_wave_end = SimTime::ZERO;
        for b in 0..4 {
            first_wave_end =
                first_wave_end.max(d.submit_write(b, block_of(1), SimTime::ZERO, false));
        }
        for b in 4..8 {
            d.submit_write(b, block_of(2), SimTime::ZERO, false);
        }
        d.crash(SimTime::from_micros(first_wave_end.as_micros() / 2 + 1));
        let s = d.stats();
        assert_eq!(s.blocks_torn_at_crash, 4, "one tear per device");
        assert_eq!(s.writes_lost_at_crash, 4, "second wave lost");
    }

    #[test]
    fn data_plane_helpers_are_device_agnostic() {
        let mut d = striped();
        d.poke(9, &block_of(0x99));
        assert_eq!(d.peek(9), block_of(0x99).as_slice());
        d.inject_read_fault(9, DiskFault::Transient(1));
        assert!(d.try_peek(9).is_err());
        assert!(d.try_peek(9).is_ok());
    }
}

#[cfg(test)]
mod same_block_tests {
    use super::*;

    #[test]
    fn rewriting_the_same_block_pays_rotation() {
        let mut d = SimDisk::new(8, DiskModel::paper_scsi());
        let t1 = d.submit_write(3, vec![1; BLOCK_SIZE], SimTime::ZERO, false);
        let t2 = d.submit_write(3, vec![2; BLOCK_SIZE], SimTime::ZERO, false);
        let svc2 = t2.saturating_sub(t1);
        assert_eq!(
            svc2,
            d.model()
                .service_time_kind(BLOCK_SIZE as u64, crate::model::Positioning::SameBlock)
        );
    }
}

#[cfg(test)]
mod run_tests {
    use super::*;
    use crate::model::Positioning;

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    fn svc(d: &SimDisk, kind: Positioning) -> SimTime {
        d.model().service_time_kind(BLOCK_SIZE as u64, kind)
    }

    /// `n` distinct pages and the slices a run takes.
    fn pages(n: u8) -> Vec<Vec<u8>> {
        (1..=n).map(block_of).collect()
    }

    fn refs(pages: &[Vec<u8>]) -> Vec<&[u8]> {
        pages.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn a_run_pays_one_overhead_and_a_transfer_per_block() {
        let mut d = SimDisk::new(32, DiskModel::paper_scsi());
        let start = d.submit_write(9, block_of(0), SimTime::ZERO, false);
        let data = pages(5);
        let ends = d.submit_write_run(10, &refs(&data), SimTime::ZERO);
        // Block 10 follows block 9 (sequential: an overhead, no seek);
        // blocks 11–14 stream on behind it.
        let transfer = svc(&d, Positioning::Continued);
        let overhead = SimTime::from_micros(d.model().per_request_overhead_us);
        assert_eq!(ends[0], start + overhead + transfer);
        for pair in ends.windows(2) {
            assert_eq!(pair[1], pair[0] + transfer);
        }
        assert_eq!(d.stats().writes, 6, "each block counts as a write");
        // The next run is a command of its own, though its first block
        // follows this run's last one: it pays an overhead again.
        let next = d.submit_write_run(15, &refs(&data[..2]), SimTime::ZERO);
        assert_eq!(next[0], ends[4] + overhead + transfer);
        d.sync(SimTime::ZERO);
        for (block, page) in (10..).zip(&data) {
            assert_eq!(d.peek(block), &page[..]);
        }
    }

    #[test]
    fn a_crash_mid_run_lands_the_prefix_tears_one_block_and_loses_the_rest() {
        let mut d = SimDisk::new(32, DiskModel::paper_scsi());
        let data = pages(6);
        let ends = d.submit_write_run(4, &refs(&data), SimTime::ZERO);
        // Inside block 7's transfer (the run's fourth block).
        d.crash(SimTime::from_micros(
            (ends[2].as_micros() + ends[3].as_micros()) / 2,
        ));
        for (block, page) in (4..7).zip(&data) {
            assert_eq!(d.peek(block), &page[..], "block {block} of the prefix");
            assert!(!d.is_torn(block));
        }
        assert!(d.is_torn(7));
        assert_eq!(d.peek(7)[..BLOCK_SIZE / 2], data[3][..BLOCK_SIZE / 2]);
        for block in 8..10 {
            assert_eq!(d.peek(block), &block_of(0)[..], "block {block} was lost");
        }
        assert_eq!(d.stats().blocks_torn_at_crash, 1);
        assert_eq!(d.stats().writes_lost_at_crash, 2);
    }

    /// At D > 1 the queue sorts: a rewrite of a run's block queued behind
    /// it sits between that block and the run's next one, which then
    /// starts a new command — a fresh overhead.
    #[test]
    fn a_rewrite_sorted_inside_a_run_breaks_the_continuation() {
        let script = |rewrite: bool| {
            let mut d = SimDisk::new_striped(64, DiskModel::paper_scsi(), 2);
            // Busy device 0, so the run's share of it waits in the tail.
            let busy = d.submit_write(0, block_of(9), SimTime::ZERO, false);
            let data = pages(8);
            // Global 20..28: device 0 holds inner 10..14.
            d.submit_write_run(20, &refs(&data), SimTime::ZERO);
            if rewrite {
                d.submit_write(22, block_of(0xEE), SimTime::ZERO, false);
            }
            (busy, d.idle_at(SimTime::ZERO), d)
        };
        let (busy, plain, d) = script(false);
        let (_, rewritten, _) = script(true);
        let cont = svc(&d, Positioning::Continued);
        // Device 0 alone, in sweep order: inner 10 after inner 0 (random),
        // then 11–13 streamed.
        assert_eq!(
            plain,
            busy + svc(&d, Positioning::Random) + cont + cont + cont
        );
        // With the rewrite: 10 random, 11 streamed, the rewrite of 11 a
        // full rotation, then 12 a new command (sequential), 13 streamed.
        assert_eq!(
            rewritten,
            busy + svc(&d, Positioning::Random)
                + cont
                + svc(&d, Positioning::SameBlock)
                + svc(&d, Positioning::Sequential)
                + cont
        );
    }

    /// A one-block run is `submit_write_from`: same completion times, same
    /// bytes, tears and counters after a crash, at one device and at four.
    #[test]
    fn a_one_block_run_is_a_submit_write_from() {
        for devices in [1, 4] {
            let mut run = SimDisk::new_striped(64, DiskModel::paper_scsi(), devices);
            let mut single = run.clone();
            let mut now = SimTime::ZERO;
            for (i, block) in [7u64, 8, 8, 30, 2, 3, 40, 41].into_iter().enumerate() {
                let page = block_of(i as u8 + 1);
                let a = run.submit_write_run(block, &[&page], now);
                let b = single.submit_write_from(block, &page, now, false);
                assert_eq!(a, [b], "block {block} at D = {devices}");
                now += SimTime::from_micros(4_000);
            }
            run.crash(now);
            single.crash(now);
            assert_eq!(run.stats(), single.stats(), "D = {devices}");
            for b in 0..64 {
                assert_eq!(run.peek(b), single.peek(b), "block {b} at D = {devices}");
                assert_eq!(
                    run.is_torn(b),
                    single.is_torn(b),
                    "block {b} at D = {devices}"
                );
            }
        }
    }
}
