//! The request plane: D ≥ 1 independent device queues, one dispatch rule
//! chosen by D.
//!
//! [`DiskArray`] owns the *queue/timing* half of a [`crate::SimDisk`];
//! the data half (block contents, torn flags, fault tables, counters)
//! stays in `SimDisk`, which holds exactly one plane. Global block `b`
//! lives on device `b % D` at inner (per-platter) block `b / D`, so a
//! sequential global stream fans out round-robin across all spindles.
//!
//! # Dispatch rule
//!
//! Each device keeps one queue of its requests in **dispatch order** and
//! a *barrier*: the queue's prefix up to it is committed, the unstarted
//! tail behind it may still be re-ordered.
//!
//! * `D = 1` — **arrival order.** Every request is committed on arrival,
//!   the tail is always empty, and a completion time returned to a caller
//!   never moves: the classic single-spindle FIFO disk, and the model
//!   every single-device exhibit is calibrated on.
//! * `D > 1` — **C-LOOK.** A request is committed once its scheduled
//!   start has passed, as is everything ahead of a read (reads are
//!   synchronous barriers at the OS level). Each write arrival
//!   stable-sorts the tail into an ascending sweep from the head's
//!   position, wrapping to the lowest outstanding block, and re-plans it
//!   — so a returned completion time is a *scheduled estimate* that a
//!   later arrival can shift. Exact durability is always available
//!   through [`DiskArray::drain_time`] plus retirement, which is what
//!   `SimDisk::sync` uses.
//!
//! The rule is a function of D and nothing else; no caller selects it.
//! Arrival order at D = 1 is the model, not a placeholder for C-LOOK: the
//! paper's machine has one spindle and its driver queues in order, and
//! every single-device exhibit is calibrated on that. The heaviest
//! sequential writer, the warm reboot's replay, would not gain from
//! C-LOOK either: it allocates each run of a file's pages as one extent
//! and writes the run behind as one command, so its data arrives in
//! ascending block order, which is the order a sweep would choose.
//!
//! # Positioning
//!
//! Every request belongs to a disk command ([`DiskArray::command`]): a
//! multi-block write submits each of its blocks under one command, every
//! other request is a command of its own. A request is charged
//! [`Positioning::Continued`] — its transfer only — when it follows the
//! previous block of its own command, [`Positioning::Sequential`] when
//! forced or when it follows the device's previous request by one inner
//! block, [`Positioning::SameBlock`] when it rewrites it, and
//! [`Positioning::Random`] otherwise — "previous" being the request
//! ahead of it in dispatch order, or the last retired one when the queue
//! is empty. The rule reads dispatch order, so it holds under both
//! dispatch rules: a C-LOOK sweep that sorts another request between two
//! blocks of a command breaks the stream there, and the next block pays
//! a new command's overhead.
//!
//! # What a crash does
//!
//! Per device, in dispatch order: requests complete by the crash instant
//! are durable, as are writes the kernel observed complete
//! ([`DiskArray::harden_until`]); the one write in flight (started, not
//! finished) tears; writes that never started are lost; the queue and
//! head state reset. At most one write tears per device.

use crate::model::{DiskModel, Positioning};
use crate::sim::{BlockBuf, BLOCK_SIZE};
use crate::time::SimTime;
use std::collections::VecDeque;

/// Maximum devices per array (bounded so per-device observability names
/// can be interned as constants — no allocation on the submit path).
pub const MAX_DEVICES: usize = 8;

/// Interned per-device queue-depth histogram names (`D > 1`).
const DEV_QUEUE_DEPTH: [&str; MAX_DEVICES] = [
    "disk.queue_depth.dev0",
    "disk.queue_depth.dev1",
    "disk.queue_depth.dev2",
    "disk.queue_depth.dev3",
    "disk.queue_depth.dev4",
    "disk.queue_depth.dev5",
    "disk.queue_depth.dev6",
    "disk.queue_depth.dev7",
];

/// Where a device's head is once a request is served: the request's inner
/// block and the command it belonged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeadAt {
    inner: u64,
    cmd: u64,
}

/// One queued request on one device.
#[derive(Debug, Clone)]
struct Req {
    /// Inner (per-device) block number.
    inner: u64,
    /// Global block number (what the caller addressed).
    global: u64,
    /// The disk command this block belongs to: every block of one
    /// multi-block write shares it, every other request has its own.
    cmd: u64,
    /// Payload for writes; `None` marks a read occupying head time.
    data: Option<BlockBuf>,
    /// Submitted as part of a forced-sequential stream.
    force_sequential: bool,
    /// Scheduled head start.
    start: SimTime,
    /// Scheduled completion.
    end: SimTime,
    /// The submitter observed completion (`biowait`): the crash model
    /// applies this write fully (see [`crate::SimDisk::harden_until`]).
    hardened: bool,
}

/// One device: its requests in dispatch order, and the head state left
/// behind by already-retired requests.
///
/// `queue[..barrier]` is what the head has committed to: at D = 1 every
/// request on arrival, at D > 1 everything up to the last read, and every
/// request it has started. Behind the barrier lies the unstarted tail,
/// which a C-LOOK insert re-sorts and re-plans whole. That tail is short:
/// a traced `server-ufs` run (seed 1996) queues 5.1 writes per device at
/// a submit on average and 137 at most, so one linear pass is all it
/// needs.
#[derive(Debug, Clone, Default)]
struct Device {
    /// Every outstanding request, in dispatch order.
    queue: VecDeque<Req>,
    /// Length of the committed prefix of `queue`.
    barrier: usize,
    /// The last *retired* request (head position when the queue is
    /// empty).
    retired: Option<HeadAt>,
    /// Completion time of the last retired request.
    retired_until: SimTime,
}

/// A write torn by a crash: `(global block, payload)` — the caller applies
/// the half-old/half-new tear.
pub type TornWrite = (u64, BlockBuf);

/// The request plane. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct DiskArray {
    devices: Vec<Device>,
    /// Commands issued so far: the id source for [`DiskArray::command`].
    commands: u64,
}

impl DiskArray {
    /// A plane of `devices` empty queues.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= devices <= MAX_DEVICES`.
    pub fn new(devices: usize) -> Self {
        assert!(
            (1..=MAX_DEVICES).contains(&devices),
            "device count {devices} outside 1..={MAX_DEVICES}"
        );
        DiskArray {
            devices: (0..devices).map(|_| Device::default()).collect(),
            commands: 0,
        }
    }

    /// A new disk command: the id every block of one multi-block write is
    /// submitted under ([`DiskArray::submit_command_write`]).
    pub fn command(&mut self) -> u64 {
        self.commands += 1;
        self.commands
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.devices.len()
    }

    /// Device index for a global block.
    pub fn device_of(&self, block: u64) -> usize {
        (block % self.devices.len() as u64) as usize
    }

    fn inner_of(&self, block: u64) -> u64 {
        block / self.devices.len() as u64
    }

    /// When every queue drains (≥ `now`).
    pub fn drain_time(&self, now: SimTime) -> SimTime {
        self.devices
            .iter()
            .map(Device::busy_until)
            .fold(now, SimTime::max)
    }

    /// Outstanding writes across all devices at `now` (non-mutating).
    pub fn queue_depth_at(&self, now: SimTime) -> usize {
        (0..self.devices.len())
            .map(|d| self.device_queue_depth_at(d, now))
            .sum()
    }

    /// Outstanding writes on one device at `now` (non-mutating).
    pub fn device_queue_depth_at(&self, dev: usize, now: SimTime) -> usize {
        self.devices[dev]
            .queue
            .iter()
            .filter(|r| r.data.is_some() && r.end > now)
            .count()
    }

    /// Name of the histogram device `dev`'s queue depth is recorded
    /// under: the single spindle keeps the unsuffixed name.
    pub fn queue_depth_histogram(&self, dev: usize) -> &'static str {
        if self.devices.len() == 1 {
            "disk.queue_depth"
        } else {
            DEV_QUEUE_DEPTH[dev]
        }
    }

    /// Retires every request complete by `now`, handing each durable
    /// write to `durable` as `(global block, payload)` — device by device,
    /// in dispatch order within a device (a block maps to exactly one
    /// device, so cross-device application order cannot affect final
    /// contents).
    pub fn retire(&mut self, now: SimTime, mut durable: impl FnMut(u64, BlockBuf)) {
        for dev in &mut self.devices {
            // Whatever is complete has started, so lies in the committed
            // prefix.
            dev.commit_started(now);
            while let Some(front) = dev.queue.front() {
                if front.end > now {
                    break;
                }
                let r = dev.queue.pop_front().expect("front exists");
                dev.barrier -= 1;
                dev.retired = Some(r.head_at());
                dev.retired_until = r.end;
                if let Some(data) = r.data {
                    durable(r.global, data);
                }
            }
        }
    }

    /// Submits a write of `block` as a command of its own; returns its
    /// scheduled completion time.
    pub fn submit_write(
        &mut self,
        block: u64,
        data: BlockBuf,
        now: SimTime,
        force_sequential: bool,
        model: &DiskModel,
    ) -> SimTime {
        let cmd = self.command();
        self.submit_command_write(cmd, block, data, now, force_sequential, model)
    }

    /// Submits a write of `block` as part of command `cmd` (from
    /// [`DiskArray::command`]); returns its scheduled completion time. The
    /// block is its own request — it retires, tears or is lost on its own
    /// — but when it is dispatched right behind the previous block of the
    /// same command it is charged [`Positioning::Continued`].
    pub fn submit_command_write(
        &mut self,
        cmd: u64,
        block: u64,
        data: BlockBuf,
        now: SimTime,
        force_sequential: bool,
        model: &DiskModel,
    ) -> SimTime {
        let dev = self.device_of(block);
        let inner = self.inner_of(block);
        let req = Req {
            inner,
            global: block,
            cmd,
            data: Some(data),
            force_sequential,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            hardened: false,
        };
        let arrival_order = self.devices.len() == 1;
        let d = &mut self.devices[dev];
        if arrival_order {
            d.push_committed(req, now, model)
        } else {
            d.insert_clook(req, now, model)
        }
    }

    /// Submits a read of `block`; returns `(latest queued payload if any,
    /// completion time)`. The read commits the device's queue order (no later
    /// write may be scheduled ahead of it).
    pub fn submit_read(
        &mut self,
        block: u64,
        now: SimTime,
        force_sequential: bool,
        model: &DiskModel,
    ) -> (Option<BlockBuf>, SimTime) {
        let dev = self.device_of(block);
        let inner = self.inner_of(block);
        let cmd = self.command();
        let d = &mut self.devices[dev];
        // Read-after-write: the latest queued write to this block wins.
        let pending = d
            .queue
            .iter()
            .rev()
            .find(|r| r.global == block && r.data.is_some())
            .and_then(|r| r.data.clone());
        // The read commits the queue: everything unstarted dispatches in
        // its current sweep order ahead of the read, then the read.
        let read = Req {
            inner,
            global: block,
            cmd,
            data: None,
            force_sequential,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            hardened: false,
        };
        (pending, d.push_committed(read, now, model))
    }

    /// Marks every queued write completing by `t` as observed-complete by
    /// the kernel (see [`crate::SimDisk::harden_until`]).
    pub fn harden_until(&mut self, t: SimTime) {
        for dev in &mut self.devices {
            for r in dev
                .queue
                .iter_mut()
                .filter(|r| r.data.is_some() && r.end <= t)
            {
                r.hardened = true;
            }
        }
    }

    /// Crash at `now`. `durable` receives every write that survives
    /// whole — those complete by `now` (as [`DiskArray::retire`] hands
    /// them over), then, device by device in dispatch order, those the
    /// kernel observed complete. Returns the per-device
    /// in-flight writes (to be torn *after* the durable ones land — a
    /// hardened request completes no later than the waited instant and an
    /// in-flight one ends after it, so on any one block the tear is the
    /// later write) and the count of unstarted writes lost. Queues and
    /// head state are reset.
    pub fn crash(
        &mut self,
        now: SimTime,
        mut durable: impl FnMut(u64, BlockBuf),
    ) -> (Vec<TornWrite>, u64) {
        self.retire(now, &mut durable);
        let mut torn = Vec::new();
        let mut lost = 0u64;
        for dev in &mut self.devices {
            while let Some(r) = dev.queue.pop_front() {
                let Some(data) = r.data else { continue };
                if r.hardened {
                    durable(r.global, data);
                } else if r.start < now && now < r.end {
                    torn.push((r.global, data));
                } else {
                    lost += 1;
                }
            }
            *dev = Device::default();
        }
        (torn, lost)
    }
}

/// Positioning class of `req` given the request dispatched ahead of it on
/// the device.
fn positioning(prev: Option<HeadAt>, req: &Req) -> Positioning {
    let prev_inner = prev.map(|p| p.inner);
    if prev
        == Some(HeadAt {
            inner: req.inner.wrapping_sub(1),
            cmd: req.cmd,
        })
    {
        Positioning::Continued
    } else if req.force_sequential || prev_inner == Some(req.inner.wrapping_sub(1)) {
        Positioning::Sequential
    } else if prev_inner == Some(req.inner) {
        Positioning::SameBlock
    } else {
        Positioning::Random
    }
}

impl Req {
    fn head_at(&self) -> HeadAt {
        HeadAt {
            inner: self.inner,
            cmd: self.cmd,
        }
    }

    /// Schedules the request to start at `start`, dispatched behind
    /// `prev`; returns its completion time.
    fn plan(&mut self, prev: Option<HeadAt>, start: SimTime, model: &DiskModel) -> SimTime {
        let kind = positioning(prev, self);
        self.start = start;
        self.end = start + model.service_time_kind(BLOCK_SIZE as u64, kind);
        self.end
    }
}

impl Device {
    fn busy_until(&self) -> SimTime {
        self.queue.back().map_or(self.retired_until, |r| r.end)
    }

    /// Head state ahead of `queue[idx]`: `(the request dispatched before
    /// it, when the head frees up)`.
    fn boundary(&self, idx: usize) -> (Option<HeadAt>, SimTime) {
        match idx.checked_sub(1) {
            Some(i) => (Some(self.queue[i].head_at()), self.queue[i].end),
            None => (self.retired, self.retired_until),
        }
    }

    /// Moves the barrier past every request the head has started by
    /// `now` and returns it. Schedule times ascend along the queue, so
    /// the started requests are a prefix.
    fn commit_started(&mut self, now: SimTime) -> usize {
        let started = self.queue.partition_point(|r| r.start <= now);
        self.barrier = self.barrier.max(started);
        self.barrier
    }

    /// Appends `req`, schedules it behind everything queued and commits
    /// the whole queue; returns its completion time, which no later
    /// arrival can move.
    fn push_committed(&mut self, mut req: Req, now: SimTime, model: &DiskModel) -> SimTime {
        let (prev, free_at) = self.boundary(self.queue.len());
        let end = req.plan(prev, free_at.max(now), model);
        self.queue.push_back(req);
        self.barrier = self.queue.len();
        end
    }

    /// Adds `req` to the unstarted tail, stable-sorts the tail into a
    /// C-LOOK sweep — ascending from one past the head, then wrapping to
    /// the lowest block — and re-plans it. Returns the new request's
    /// completion time.
    fn insert_clook(&mut self, req: Req, now: SimTime, model: &DiskModel) -> SimTime {
        let committed = self.commit_started(now);
        let (mut prev, free_at) = self.boundary(committed);
        let head = prev.map_or(0, |b| b.inner.wrapping_add(1));
        let sweep = |r: &Req| (r.inner < head, r.inner);
        let key = sweep(&req);
        self.queue.push_back(req);
        let tail = &mut self.queue.make_contiguous()[committed..];
        tail.sort_by_key(sweep);
        let mut cursor = free_at.max(now);
        for r in tail.iter_mut() {
            cursor = r.plan(prev, cursor, model);
            prev = Some(r.head_at());
        }
        // The sort is stable, so the new request is the last of its key.
        tail[tail.partition_point(|r| sweep(r) <= key) - 1].end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A write made durable: `(global block, payload)`.
    type RetiredWrite = (u64, BlockBuf);

    fn model() -> DiskModel {
        DiskModel::paper_scsi()
    }

    /// [`DiskArray::retire`], collected.
    fn retire(a: &mut DiskArray, now: SimTime) -> Vec<RetiredWrite> {
        let mut out = Vec::new();
        a.retire(now, |block, data| out.push((block, data)));
        out
    }

    /// [`DiskArray::crash`] as `(writes made durable, torn, lost)`.
    fn crash(a: &mut DiskArray, now: SimTime) -> (Vec<RetiredWrite>, Vec<TornWrite>, u64) {
        let mut durable = Vec::new();
        let (torn, lost) = a.crash(now, |block, data| durable.push((block, data)));
        (durable, torn, lost)
    }

    fn block_of(byte: u8) -> BlockBuf {
        std::sync::Arc::new([byte; BLOCK_SIZE])
    }

    #[test]
    fn striping_maps_blocks_round_robin() {
        let a = DiskArray::new(4);
        assert_eq!(a.device_of(0), 0);
        assert_eq!(a.device_of(1), 1);
        assert_eq!(a.device_of(5), 1);
        assert_eq!(a.inner_of(5), 1);
        assert_eq!(a.inner_of(8), 2);
    }

    #[test]
    fn writes_to_distinct_devices_overlap() {
        let mut a = DiskArray::new(4);
        // Four blocks on four different devices: all four finish at the
        // same time a single one would.
        let mut ends = Vec::new();
        for b in 0..4u64 {
            ends.push(a.submit_write(b, block_of(1), SimTime::ZERO, false, &model()));
        }
        assert!(ends.windows(2).all(|w| w[0] == w[1]), "{ends:?}");
        // The same four blocks on one device would serialize.
        let mut f = DiskArray::new(2);
        let e0 = f.submit_write(0, block_of(1), SimTime::ZERO, false, &model());
        let e2 = f.submit_write(2, block_of(1), SimTime::ZERO, false, &model());
        assert!(e2 > e0, "same device serializes");
    }

    #[test]
    fn clook_reorders_unstarted_tail_into_ascending_sweep() {
        let mut a = DiskArray::new(2);
        // All blocks even → device 0. Submit far blocks first, then a near
        // one; the near one must NOT jump ahead of the in-flight first
        // request, but the unstarted tail is swept in ascending order.
        let e_far = a.submit_write(40, block_of(1), SimTime::ZERO, false, &model());
        let e_mid = a.submit_write(80, block_of(2), SimTime::ZERO, false, &model());
        // Block 60 (inner 30) sorts between inner 20 and inner 40 in the
        // sweep, so its completion lands before the (re-planned) inner 40.
        let e_near = a.submit_write(60, block_of(3), SimTime::ZERO, false, &model());
        let e_mid_after = a.drain_time(SimTime::ZERO);
        assert!(e_near > e_far, "cannot pass the in-flight request");
        assert!(e_near < e_mid_after, "swept ahead of the farther block");
        // Retirement applies every payload exactly once.
        let retired = retire(&mut a, e_mid_after);
        assert_eq!(retired.len(), 3);
        let _ = e_mid;
    }

    #[test]
    fn one_device_dispatches_in_arrival_order() {
        // The same three arrivals as the sweep test above, on one device:
        // the near block queues behind both earlier ones, and no
        // completion time already handed out moves.
        let mut a = DiskArray::new(1);
        let e_far = a.submit_write(40, block_of(1), SimTime::ZERO, false, &model());
        let e_mid = a.submit_write(80, block_of(2), SimTime::ZERO, false, &model());
        let e_near = a.submit_write(60, block_of(3), SimTime::ZERO, false, &model());
        assert!(
            e_far < e_mid && e_mid < e_near,
            "{e_far:?} {e_mid:?} {e_near:?}"
        );
        assert_eq!(a.drain_time(SimTime::ZERO), e_near);
        let order: Vec<u64> = retire(&mut a, e_near).iter().map(|w| w.0).collect();
        assert_eq!(order, [40, 80, 60]);
        assert_eq!(a.queue_depth_histogram(0), "disk.queue_depth");
        assert_eq!(
            DiskArray::new(2).queue_depth_histogram(1),
            "disk.queue_depth.dev1"
        );
    }

    #[test]
    fn read_commits_the_queue_and_sees_pending_writes() {
        let mut a = DiskArray::new(2);
        a.submit_write(0, block_of(0xAB), SimTime::ZERO, false, &model());
        let (data, end) = a.submit_read(0, SimTime::ZERO, false, &model());
        assert_eq!(data.unwrap(), block_of(0xAB));
        // A later write to a lower block cannot be scheduled before the
        // read barrier.
        let e = a.submit_write(2, block_of(1), SimTime::ZERO, false, &model());
        assert!(e > end, "write scheduled after the read barrier");
    }

    #[test]
    fn crash_tears_per_device_in_flight_and_loses_unstarted() {
        let mut a = DiskArray::new(2);
        let first = a.submit_write(0, block_of(1), SimTime::ZERO, false, &model());
        a.submit_write(2, block_of(2), SimTime::ZERO, false, &model());
        a.submit_write(1, block_of(3), SimTime::ZERO, false, &model()); // device 1
                                                                        // Crash mid-way through device 0's second request; device 1's
                                                                        // single request (same duration as device 0's first) is durable.
        let (durable, torn, lost) = crash(&mut a, first + SimTime::from_micros(1));
        let durable: Vec<u64> = durable.iter().map(|w| w.0).collect();
        assert_eq!(
            durable,
            [0, 1],
            "both first requests completed; nothing was waited on"
        );
        assert_eq!(torn.len(), 1, "device 0's in-flight write tears");
        assert_eq!(torn[0].0, 2);
        assert_eq!(lost, 0);
    }

    #[test]
    fn hardened_writes_survive_a_crash_intact() {
        let mut a = DiskArray::new(2);
        let e0 = a.submit_write(0, block_of(1), SimTime::ZERO, false, &model());
        a.submit_write(2, block_of(2), SimTime::ZERO, false, &model());
        a.harden_until(e0);
        // Crash before anything starts: block 0's write was observed
        // complete by the kernel, block 2's (ending later) was not.
        let (hardened, torn, lost) = crash(&mut a, SimTime::ZERO);
        assert_eq!(hardened.len(), 1);
        assert_eq!(hardened[0].0, 0);
        assert_eq!(hardened[0].1, block_of(1));
        assert!(torn.is_empty());
        assert_eq!(lost, 1, "the unwaited write is still lost");
    }

    /// FNV-1a: folds `v`'s little-endian bytes into `h`.
    fn fold(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a list of durable or torn writes. Every payload in these
    /// streams is a uniform fill, so its first byte names it.
    fn fold_writes(h: &mut u64, writes: &[RetiredWrite]) {
        fold(h, writes.len() as u64);
        for (block, data) in writes {
            fold(h, *block);
            fold(h, u64::from(data[0]));
        }
    }

    /// Drives one seeded op stream through a four-device plane and folds
    /// every value it returns into `h`: write and read ends, read
    /// payloads, retire batches, crash triage, and after each op the
    /// drain time and queue depth. A write op is a burst of single-block
    /// commands, or with `runs` one multi-block command over consecutive
    /// blocks (which stripes into per-device streams).
    fn fold_stream(h: &mut u64, seed: u64, burst: usize, ops: usize, runs: bool) {
        // A tiny splitmix-based generator keeps this self-contained.
        let mut state = seed;
        let mut rng = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let m = model();
        let mut a = DiskArray::new(4);
        let mut now = SimTime::ZERO;
        let mut payload = 0u8;
        for _ in 0..ops {
            match rng() % 10 {
                0..=5 => {
                    let n = rng() as usize % burst + 1;
                    let (cmd, first) = if runs {
                        (a.command(), rng() % 512)
                    } else {
                        (0, 0)
                    };
                    for k in 0..n as u64 {
                        let block = if runs { first + k } else { rng() % 512 };
                        payload = payload.wrapping_add(1);
                        let end = if runs {
                            a.submit_command_write(cmd, block, block_of(payload), now, false, &m)
                        } else {
                            a.submit_write(block, block_of(payload), now, false, &m)
                        };
                        fold(h, end.0);
                    }
                }
                6 => {
                    let (data, end) = a.submit_read(rng() % 512, now, false, &m);
                    fold(h, data.map_or(0, |d| 1 + u64::from(d[0])));
                    fold(h, end.0);
                }
                7 => {
                    now += SimTime::from_micros(rng() % 30_000);
                    fold_writes(h, &retire(&mut a, now));
                }
                8 => a.harden_until(now + SimTime::from_micros(rng() % 10_000)),
                _ => {
                    now += SimTime::from_micros(rng() % 3_000);
                    if rng() % 8 == 0 {
                        let (durable, torn, lost) = crash(&mut a, now);
                        fold_writes(h, &durable);
                        fold_writes(h, &torn);
                        fold(h, lost);
                    }
                }
            }
            fold(h, a.drain_time(now).0);
            fold(h, a.queue_depth_at(now) as u64);
        }
        let end = a.drain_time(now);
        fold_writes(h, &retire(&mut a, end));
    }

    /// The head passes a block that still has a queued duplicate write,
    /// which demotes the duplicate to the end of the sweep at the next
    /// insert. Folds every write end, retire batch and the final drain.
    fn fold_same_block_resubmission(h: &mut u64) {
        let m = model();
        let mut a = DiskArray::new(2);
        let seq = [
            // Two writes to the same block (device 0, inner 5), then far
            // blocks; let time pass so the first starts; then insert
            // again with the advanced head.
            (10u64, 0u64),
            (10, 0),
            (40, 0),
            (80, 0),
            (10, 14_000),
            (20, 14_000),
            (60, 28_000),
            (10, 28_000),
        ];
        for (payload, &(block, at)) in (1u8..).zip(&seq) {
            let now = SimTime::from_micros(at);
            fold_writes(h, &retire(&mut a, now));
            fold(
                h,
                a.submit_write(block, block_of(payload), now, false, &m).0,
            );
        }
        let end = a.drain_time(SimTime::from_micros(28_000));
        fold(h, end.0);
        fold_writes(h, &retire(&mut a, end));
    }

    /// Pins the C-LOOK schedule: every value the plane returns over
    /// seeded write bursts at queue depths 4, 64 and 1024, seeded
    /// multi-block commands, and a same-block resubmission, folded into
    /// one hash. A change to dispatch order, positioning, pinning, read
    /// barriers, hardening or crash triage moves it.
    #[test]
    fn clook_schedule_digest_is_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..8 {
            fold_stream(&mut h, seed, 4, 400, false);
        }
        for seed in 100..104 {
            fold_stream(&mut h, seed, 64, 120, false);
        }
        fold_stream(&mut h, 7, 1024, 24, false);
        for seed in 200..204 {
            fold_stream(&mut h, seed, 16, 200, true);
        }
        fold_same_block_resubmission(&mut h);
        assert_eq!(h, 0x70d1_c55c_5b3b_3905, "schedule digest {h:#018x}");
    }

    #[test]
    fn queue_depth_at_is_non_mutating_and_time_scoped() {
        let mut a = DiskArray::new(2);
        let e0 = a.submit_write(0, block_of(1), SimTime::ZERO, false, &model());
        let e1 = a.submit_write(1, block_of(2), SimTime::ZERO, false, &model());
        assert_eq!(a.queue_depth_at(SimTime::ZERO), 2);
        assert_eq!(a.queue_depth_at(e0.max(e1)), 0);
        // Probing did not retire anything.
        assert_eq!(retire(&mut a, e0.max(e1)).len(), 2);
    }
}
