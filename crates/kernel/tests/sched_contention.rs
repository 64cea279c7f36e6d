//! `throttle_dirty_bytes` under multi-client contention.
//!
//! N writers against a saturated device must block deterministically and
//! in a fair order: the dirty-throttle stall is a deferred disk wait at
//! the end of the write that crossed the bound, so the scheduler parks
//! the throttled client, lets the others run, and wakes blocked clients
//! as their flushes drain — first stalled, first woken.

use rio_disk::SimTime;
use rio_kernel::{
    client_refs, run_preemptive, DataPolicy, Fd, Kernel, KernelConfig, MetadataPolicy, Policy,
    SyscallOp, SyscallScript,
};

/// Delayed writes with a tight dirty bound: two pages of slack, then the
/// writer stalls behind a full flush — the classic self-throttling UFS.
fn throttled_policy() -> Policy {
    Policy {
        data: DataPolicy::Delayed,
        metadata: MetadataPolicy::Delayed,
        fsync_on_close: false,
        update_interval: Some(SimTime::from_secs(300)),
        rio: None,
        throttle_dirty_bytes: Some(2 * 8192),
    }
}

/// Creates `/w{id}`, then writes it a page at a time.
fn page_writer(id: usize, pages: u32) -> SyscallScript {
    let write = SyscallOp::Write {
        fd: Fd::LAST_OPENED,
        data: vec![id as u8 + 1; 8192],
    };
    std::iter::once(SyscallOp::Create(format!("/w{id}")))
        .chain(std::iter::repeat_n(write, pages as usize))
        .collect()
}

fn kernel(devices: usize) -> Kernel {
    let mut config = KernelConfig::small(throttled_policy());
    config.machine.disk_devices = devices;
    let mut k = Kernel::mkfs_and_mount(&config).unwrap();
    // Warm the metadata caches (root directory, bitmaps, inode block): a
    // cold create sleeps in namei holding `Fs`, which costs its holder and
    // each contender a different number of quanta. The throttle is what
    // is under test here, so every create is one quantum.
    let fd = k.create("/warm").unwrap();
    k.close(fd).unwrap();
    k
}

struct Run {
    quanta: Vec<u32>,
    idle_hops: u64,
    sync_waits: u64,
    end: SimTime,
}

fn run(clients: usize, pages: u32, devices: usize, seed: u64) -> Run {
    let mut k = kernel(devices);
    let mut writers: Vec<SyscallScript> = (0..clients).map(|i| page_writer(i, pages)).collect();
    let trace = run_preemptive(&mut k, &mut client_refs(&mut writers), seed, true).unwrap();
    // Every byte written is verifiable afterwards.
    for (i, _) in (0..clients).enumerate() {
        let data = k.file_contents(&format!("/w{i}")).unwrap();
        assert_eq!(data.len(), pages as usize * 8192);
        assert!(data.iter().all(|&b| b == i as u8 + 1), "client {i} data");
    }
    Run {
        quanta: trace.quanta,
        idle_hops: trace.idle_hops,
        sync_waits: k.stats().sync_waits,
        end: k.machine.clock.now(),
    }
}

#[test]
fn contended_throttle_is_deterministic() {
    for devices in [1, 4] {
        let a = run(4, 6, devices, 42);
        let b = run(4, 6, devices, 42);
        assert_eq!(a.quanta, b.quanta, "same seed, same interleaving");
        assert_eq!(a.end, b.end, "same seed, same finish time");
        assert_eq!(a.sync_waits, b.sync_waits);
        // The device was actually saturated: writers stalled, and at some
        // point everyone was blocked at once.
        assert!(
            a.sync_waits > 0,
            "{devices} device(s): the throttle must have engaged"
        );
        assert!(
            a.idle_hops > 0,
            "{devices} device(s): all clients blocked together at least once"
        );
    }
}

#[test]
fn blocked_writers_wake_in_fair_rotor_order() {
    const CLIENTS: usize = 4;
    for devices in [1usize, 4] {
        // The dirty bound scales with the device count; so does the work,
        // to keep the same number of stalls per client.
        let pages = 6 * devices as u32;
        let r = run(CLIENTS, pages, devices, 7);
        // A quantum is one syscall here: the create is warm, and a write's
        // only wait — the throttle stall — trails its last phase, with
        // `Ubc` already released. Same script per client → same quantum
        // count per client: nobody starves, nobody gets extra turns.
        let mut counts = [0u32; CLIENTS];
        for &q in &r.quanta {
            counts[q as usize] += 1;
        }
        assert_eq!(counts, [1 + pages; CLIENTS], "equal work, equal quanta");
        // Fairness of the wake order. The bound is global — `slack` dirty
        // pages, then the write that crosses it flushes *everyone's* pages
        // and stalls its writer until that flush drains — so any
        // `slack + 1` consecutive writes contain a stall. While client X
        // is stalled, another client can stall at most once more (a later
        // stall drains no earlier than X's, so it cannot wake first):
        // at most `(slack + 1) · (n − 1)` quanta by others until all are
        // parked. When X's wake-up comes due, clients due at the same
        // instant (or still on their create) may sit ahead of it in rotor
        // order: `n − 1` more. A starving scheduler would show unbounded
        // gaps instead.
        let slack = 2 * devices;
        let max_gap = (slack + 2) * (CLIENTS - 1) + 1;
        let mut last_seen = [None::<usize>; CLIENTS];
        for (pos, &q) in r.quanta.iter().enumerate() {
            if let Some(prev) = last_seen[q as usize] {
                let gap = pos - prev;
                assert!(
                    gap <= max_gap,
                    "{devices} device(s): client {q} waited {gap} quanta between turns"
                );
            }
            last_seen[q as usize] = Some(pos);
        }
    }
}

#[test]
fn striped_devices_relax_the_throttle() {
    // maybe_throttle scales its dirty bound by the device count: a 4-way
    // array drains four queues in parallel, so the same workload stalls
    // less often and finishes sooner.
    let narrow = run(4, 6, 1, 9);
    let wide = run(4, 6, 4, 9);
    assert!(
        wide.sync_waits < narrow.sync_waits,
        "4 devices should stall less: {} vs {}",
        wide.sync_waits,
        narrow.sync_waits
    );
    assert!(
        wide.end < narrow.end,
        "4 devices should finish sooner: {:?} vs {:?}",
        wide.end,
        narrow.end
    );
}
