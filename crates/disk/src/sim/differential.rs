//! The single-spindle FIFO disk as it was before the request plane took
//! `D = 1`, kept as the reference a one-device [`SimDisk`] is compared
//! against: its own `pending` queue, `busy_until` and `last_block`, no
//! [`crate::array::DiskArray`] anywhere in it.

use super::{DiskStats, SimDisk, BLOCK_SIZE};
use crate::model::{DiskModel, Positioning};
use crate::time::SimTime;
use rio_det::proptest_lite::{check, Config, Gen};
use rio_det::{pt_assert, pt_assert_eq};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct PendingWrite {
    block: u64,
    data: Vec<u8>,
    start: SimTime,
    end: SimTime,
    hardened: bool,
}

#[derive(Debug, Clone)]
struct FifoDisk {
    model: DiskModel,
    blocks: Vec<Vec<u8>>,
    torn: Vec<bool>,
    pending: VecDeque<PendingWrite>,
    busy_until: SimTime,
    last_block: Option<u64>,
    stats: DiskStats,
}

impl FifoDisk {
    fn new(num_blocks: u64, model: DiskModel) -> Self {
        FifoDisk {
            model,
            blocks: vec![vec![0u8; BLOCK_SIZE]; num_blocks as usize],
            torn: vec![false; num_blocks as usize],
            pending: VecDeque::new(),
            busy_until: SimTime::ZERO,
            last_block: None,
            stats: DiskStats::default(),
        }
    }

    fn idle_at(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now)
    }

    fn queue_depth_at(&self, now: SimTime) -> usize {
        self.pending.iter().filter(|w| w.end > now).count()
    }

    fn apply_completed(&mut self, now: SimTime) {
        while let Some(front) = self.pending.front() {
            if front.end > now {
                break;
            }
            let w = self.pending.pop_front().expect("front exists");
            self.blocks[w.block as usize] = w.data;
            self.torn[w.block as usize] = false;
        }
    }

    fn positioning(&self, block: u64, force_sequential: bool) -> Positioning {
        if force_sequential || self.last_block == Some(block.wrapping_sub(1)) {
            Positioning::Sequential
        } else if self.last_block == Some(block) {
            Positioning::SameBlock
        } else {
            Positioning::Random
        }
    }

    /// Head time for the next request to `block`: `(start, end)`.
    fn occupy(&mut self, block: u64, now: SimTime, force_sequential: bool) -> (SimTime, SimTime) {
        let kind = self.positioning(block, force_sequential);
        let start = self.busy_until.max(now);
        let end = start + self.model.service_time_kind(BLOCK_SIZE as u64, kind);
        self.busy_until = end;
        self.last_block = Some(block);
        (start, end)
    }

    fn submit_write(
        &mut self,
        block: u64,
        data: &[u8],
        now: SimTime,
        force_sequential: bool,
    ) -> SimTime {
        self.apply_completed(now);
        let (start, end) = self.occupy(block, now, force_sequential);
        self.stats.writes += 1;
        self.stats.bytes_written += BLOCK_SIZE as u64;
        self.pending.push_back(PendingWrite {
            block,
            data: data.to_vec(),
            start,
            end,
            hardened: false,
        });
        end
    }

    fn read(&mut self, block: u64, now: SimTime, force_sequential: bool) -> (Vec<u8>, SimTime) {
        self.apply_completed(now);
        let (_, end) = self.occupy(block, now, force_sequential);
        self.stats.reads += 1;
        self.stats.bytes_read += BLOCK_SIZE as u64;
        let data = self
            .pending
            .iter()
            .rev()
            .find(|w| w.block == block)
            .map_or(&self.blocks[block as usize], |w| &w.data)
            .clone();
        (data, end)
    }

    fn sync(&mut self, now: SimTime) -> SimTime {
        let done = self.idle_at(now);
        self.apply_completed(done);
        assert!(self.pending.is_empty());
        done
    }

    fn harden_until(&mut self, t: SimTime) {
        for w in self.pending.iter_mut().filter(|w| w.end <= t) {
            w.hardened = true;
        }
    }

    fn crash(&mut self, now: SimTime) {
        self.apply_completed(now);
        while let Some(w) = self.pending.pop_front() {
            if w.hardened {
                self.blocks[w.block as usize] = w.data;
                self.torn[w.block as usize] = false;
            } else if w.start < now && now < w.end {
                let half = BLOCK_SIZE / 2;
                self.blocks[w.block as usize][..half].copy_from_slice(&w.data[..half]);
                self.torn[w.block as usize] = true;
                self.stats.blocks_torn_at_crash += 1;
            } else {
                self.stats.writes_lost_at_crash += 1;
            }
        }
        self.busy_until = SimTime::ZERO;
        self.last_block = None;
    }
}

const BLOCKS: u64 = 12;

/// Platter contents, torn flags, counters, drain time and queue depth of
/// the two disks agree.
fn same_state(new: &SimDisk, old: &FifoDisk, now: SimTime) -> Result<(), String> {
    pt_assert_eq!(new.stats(), old.stats);
    pt_assert_eq!(new.idle_at(now), old.idle_at(now));
    pt_assert_eq!(new.queue_depth_at(now), old.queue_depth_at(now));
    for b in 0..BLOCKS {
        pt_assert!(
            new.peek(b) == &old.blocks[b as usize][..],
            "block {b} differs"
        );
        pt_assert_eq!(new.is_torn(b), old.torn[b as usize]);
    }
    Ok(())
}

#[test]
fn one_device_plane_is_the_fifo_disk() {
    let model = DiskModel::paper_scsi();
    // One random access, the scale `now` advances on: steps shorter than
    // a service time keep several writes queued, longer ones drain them.
    let service = model.service_time(BLOCK_SIZE as u64, false).as_micros();
    check(
        "SimDisk at D = 1 == the FIFO reference",
        Config::with_cases(192),
        |g: &mut Gen| {
            let mut new = SimDisk::new(BLOCKS, model);
            let mut old = FifoDisk::new(BLOCKS, model);
            let mut now = SimTime::ZERO;
            let mut payload = 0u8;
            let mut ends: Vec<SimTime> = Vec::new();
            for _ in 0..g.len_between(1, 80) {
                match g.in_range(0..10u32) {
                    // Writes dominate, on few enough blocks that same-block
                    // rewrites, neighbours and far seeks all occur.
                    0..=3 => {
                        let block = g.in_range(0..BLOCKS);
                        let force = g.in_range(0..8u32) == 0;
                        payload = payload.wrapping_add(1);
                        let data = [payload; BLOCK_SIZE];
                        let e_new = new.submit_write_from(block, &data, now, force);
                        let e_old = old.submit_write(block, &data, now, force);
                        pt_assert_eq!(e_new, e_old);
                        ends.push(e_new);
                    }
                    // A read — often of a block with a write still queued.
                    4 => {
                        let block = g.in_range(0..BLOCKS);
                        let force = g.in_range(0..8u32) == 0;
                        let (d_new, e_new) = new.read(block, now, force);
                        let (d_old, e_old) = old.read(block, now, force);
                        pt_assert_eq!(e_new, e_old);
                        pt_assert!(d_new == d_old, "read payload of block {block}");
                    }
                    5 => {
                        let d_new = new.sync(now);
                        pt_assert_eq!(d_new, old.sync(now));
                        now = d_new;
                    }
                    // A `biowait` on one earlier write: everything complete
                    // by then is hardened, whatever the clock says.
                    6 if !ends.is_empty() => {
                        let t = ends[g.in_range(0..ends.len())];
                        new.harden_until(t);
                        old.harden_until(t);
                    }
                    // A crash: with hardened, in-flight and unstarted
                    // writes queued whenever the steps above left them.
                    7 => {
                        now += SimTime::from_micros(g.in_range(0..service));
                        new.crash(now);
                        old.crash(now);
                        ends.clear();
                    }
                    _ => now += SimTime::from_micros(g.in_range(0..2 * service)),
                }
                same_state(&new, &old, now)?;
            }
            Ok(())
        },
    );
}

#[test]
fn crashes_over_a_full_queue_match_the_reference() {
    // The interleavings the property must not be left to find by luck.
    // Four writes queued at once, the last two rewriting the first's
    // block. Either the kernel waited on the second (deferred: the clock
    // never got there) and the crash lands inside the first — both land
    // whole, the rest are lost; or nothing was waited on and the crash
    // lands inside the third — two durable, one torn, one lost.
    let model = DiskModel::paper_scsi();
    for waited in [true, false] {
        let mut new = SimDisk::new(BLOCKS, model);
        let mut old = FifoDisk::new(BLOCKS, model);
        let mut ends = Vec::new();
        for (block, byte) in [(3u64, 1u8), (4, 2), (3, 3), (3, 4)] {
            let data = [byte; BLOCK_SIZE];
            let e = new.submit_write_from(block, &data, SimTime::ZERO, false);
            assert_eq!(e, old.submit_write(block, &data, SimTime::ZERO, false));
            ends.push(e);
        }
        let at = if waited {
            new.harden_until(ends[1]);
            old.harden_until(ends[1]);
            SimTime::from_micros(ends[0].as_micros() / 2)
        } else {
            ends[1] + SimTime::from_micros(1)
        };
        new.crash(at);
        old.crash(at);
        same_state(&new, &old, at).unwrap();
        let s = new.stats();
        assert_eq!(new.peek(4), &[2u8; BLOCK_SIZE][..], "second write whole");
        if waited {
            assert_eq!(
                new.peek(3),
                &[1u8; BLOCK_SIZE][..],
                "in flight, but waited on"
            );
            assert_eq!((s.blocks_torn_at_crash, s.writes_lost_at_crash), (0, 2));
        } else {
            assert!(new.is_torn(3), "the third write was in flight");
            assert_eq!((s.blocks_torn_at_crash, s.writes_lost_at_crash), (1, 1));
        }
    }
}
