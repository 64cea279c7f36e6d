//! Probes: host time per isolated call into one layer's public API — the
//! median over many calls, so each layer has a number of its own that an
//! optimisation of that layer should move. They absorb the shapes of
//! `--bin bench` and `--bin write_bench`, which never had JSON output.
//!
//! A probe's value is the median of `SAMPLES` samples, each the mean of a
//! batch of calls sized so one sample runs for tens of microseconds or
//! more (the clock read must not be the measurement).

use crate::stats::median;
use crate::workload::table2_config;
use rio_baselines::rio_with_protection;
use rio_core::{warm, EntryFlags, ProtectionManager, Registry, RegistryEntry, RioMode};
use rio_det::DetRng;
use rio_disk::{DiskModel, SimDisk, SimTime, BLOCK_SIZE};
use rio_faults::{inject, workload_seed, CampaignConfig, FaultType, PreparedTrial, SystemKind};
use rio_kernel::{
    Fd, Kernel, KernelConfig, Machine, MachineConfig, Policy, PreemptClient, PreemptSched,
    SchedStep, SyscallOp, SyscallRet,
};
use rio_mem::{crc32, MemBus, PhysMem, PAGE_SIZE};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 15;

/// Median over samples of the mean time of `calls` back-to-back calls,
/// in ns per call. One untimed batch warms caches and lazy state.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..calls {
        f();
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// As [`per_call_ns`] for calls that consume an input: `make` is not
/// timed, `f` is.
fn per_call_ns_with<S>(calls: usize, mut make: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let samples: Vec<f64> = (0..=SAMPLES)
        .map(|_| {
            let mut ns = 0u128;
            for _ in 0..calls {
                let input = make();
                let t = Instant::now();
                f(input);
                ns += t.elapsed().as_nanos();
            }
            ns as f64 / calls as f64
        })
        .skip(1) // the first batch is the warm-up
        .collect();
    median(&samples)
}

/// A warm 3-page file under Rio with protection — `write_bench`'s
/// fixture: the pure in-memory write path.
fn warm_kernel() -> (Kernel, Fd) {
    let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(RioMode::Protected)))
        .expect("mkfs");
    let fd = k.create("/bench.dat").expect("create");
    for _ in 0..3 {
        k.write(fd, &[0x42u8; PAGE_SIZE]).expect("write");
    }
    (k, fd)
}

/// The cheapest client the scheduler can run: open a file, close it,
/// repeat. Every op completes within its quantum, so a step is one
/// pick plus one syscall continuation.
struct OpenClose {
    left: usize,
    fd: Option<Fd>,
}

impl PreemptClient for OpenClose {
    fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp> {
        if let Some(fd) = self.fd.take() {
            return Some(SyscallOp::Close(fd));
        }
        if let Some(SyscallRet::Fd(fd)) = prev {
            self.fd = Some(*fd);
            return self.next_op(None);
        }
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(SyscallOp::Open("/bench.dat".to_owned()))
    }
}

/// ns per `PreemptSched::step_once` with `clients` runnable clients.
fn sched_step_ns(base: &Kernel, clients: usize) -> f64 {
    const STEPS: usize = 4096;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut k = base.clone();
            let mut fleet: Vec<OpenClose> = (0..clients)
                .map(|_| OpenClose {
                    left: STEPS / clients + 1,
                    fd: None,
                })
                .collect();
            let mut refs: Vec<&mut dyn PreemptClient> = fleet
                .iter_mut()
                .map(|c| c as &mut dyn PreemptClient)
                .collect();
            let mut sched = PreemptSched::new(clients, 1, false);
            let t = Instant::now();
            let mut steps = 0;
            while steps < STEPS {
                match sched
                    .step_once(&mut k, &mut refs)
                    .expect("probe clients do not crash")
                {
                    SchedStep::Done => break,
                    _ => steps += 1,
                }
            }
            t.elapsed().as_nanos() as f64 / steps as f64
        })
        .collect();
    median(&samples)
}

/// ns per request for "submit `depth` writes, then retire them all",
/// through `SimDisk` (not `DiskArray`, so a one-request-plane refactor
/// keeps this compiling). Every block is written once beforehand so the
/// buffer free list is in its steady state, and every depth issues the
/// same number of requests per sample.
fn disk_submit_retire_ns(devices: usize, depth: usize) -> f64 {
    const BLOCKS: u64 = 8192;
    const REQUESTS: usize = 4096;
    let mut disk = SimDisk::new_striped(BLOCKS, DiskModel::paper_scsi(), devices);
    for b in 0..BLOCKS {
        disk.poke(b, &[b as u8; BLOCK_SIZE]);
    }
    let data = [0x5Au8; BLOCK_SIZE];
    let mut rng = DetRng::seed_from_u64(depth as u64);
    let mut now = SimTime::ZERO;
    per_call_ns(REQUESTS / depth, || {
        for _ in 0..depth {
            disk.submit_write_from(rng.gen_range(0..BLOCKS), &data, now, false);
        }
        now = disk.sync(now);
    }) / depth as f64
}

/// Runs every probe; returns values by catalogue name, in the
/// catalogue's unit.
pub fn run_all() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_owned(), v);
    };

    // rio-cpu: the interpreted data-path routines over one 8 KB page.
    let mut m = Machine::new(&MachineConfig::small());
    let src = m.bus.layout().heap.start + PAGE_SIZE as u64;
    let dst = m.bus.layout().ubc.start;
    let len = PAGE_SIZE as u64;
    put(
        "cpu.bcopy_8k_ns",
        per_call_ns(8, || {
            black_box(m.bcopy(src, dst, len).expect("bcopy"));
        }),
    );
    put(
        "cpu.bzero_8k_ns",
        per_call_ns(8, || m.bzero(dst, len).expect("bzero")),
    );
    put(
        "cpu.bcmp_8k_ns",
        per_call_ns(8, || {
            black_box(m.bcmp(dst, dst + len, len).expect("bcmp"));
        }),
    );

    // rio-mem.
    let page = vec![0xA7u8; PAGE_SIZE];
    put(
        "mem.crc32_8k_ns",
        per_call_ns(64, || {
            black_box(crc32(black_box(&page)));
        }),
    );
    // Fork of a populated Table 2 image: the clone, the first write
    // into it, and dropping it.
    let mem_config = table2_config(&rio_with_protection(), 1).machine.mem;
    let mut image = PhysMem::new(mem_config);
    for pn in image.layout().ubc.page_numbers() {
        image.page_mut(pn)[0] = pn.0 as u8;
    }
    let first = image.layout().ubc.start;
    put(
        "mem.image_fork_us",
        per_call_ns(4, || {
            let mut fork = image.clone();
            fork.write_u8(first, 1);
            black_box(fork);
        }) / 1e3,
    );

    // rio-core: one registry entry update under protection; the warm
    // reboot's scan of a worst-case image (every UBC page dirty) at the
    // Table 2 machine's size.
    let mut bus = MemBus::new(mem_config);
    let registry = Registry::new(*bus.layout());
    let mut prot = ProtectionManager::new(RioMode::Protected);
    prot.install(&mut bus);
    let entry = |slot: u64| RegistryEntry {
        flags: EntryFlags::VALID | EntryFlags::DIRTY,
        phys_page: registry.page_for_slot(slot).0 as u32,
        dev: 1,
        ino: slot + 1,
        offset: 0,
        size: PAGE_SIZE as u32,
        crc: 0,
    };
    let e3 = entry(3);
    put(
        "core.registry_write_entry_ns",
        per_call_ns(64, || {
            registry
                .write_entry(&mut bus, &mut prot, 3, black_box(&e3))
                .expect("write_entry");
        }),
    );
    for slot in 0..registry.num_entries() {
        let mut e = entry(slot);
        registry
            .update_crc(&mut bus, &mut prot, slot, &mut e)
            .expect("update_crc");
    }
    let dirty_image = bus.into_image();
    put(
        "core.scan_registry_full_ms",
        per_call_ns(1, || {
            black_box(warm::scan_registry(black_box(&dirty_image)));
        }) / 1e6,
    );

    // rio-kernel: `write_bench`'s four shapes, a page read, a
    // create+unlink pair, and a fork (clone + first write + drop).
    for (name, offset, len) in [
        ("kernel.pwrite_100b_ns", 1000, 100),
        ("kernel.pwrite_512b_ns", 1536, 512),
        ("kernel.pwrite_8k_ns", 0, PAGE_SIZE),
        ("kernel.pwrite_span_4k_ns", 6144, 4096),
    ] {
        let (mut k, fd) = warm_kernel();
        let data = vec![0x7Au8; len];
        put(
            name,
            per_call_ns(16, || {
                black_box(k.pwrite(fd, offset, &data).expect("pwrite"));
            }),
        );
    }
    let (mut k, fd) = warm_kernel();
    put(
        "kernel.pread_8k_ns",
        per_call_ns(16, || {
            black_box(k.pread(fd, 0, PAGE_SIZE).expect("pread"));
        }),
    );
    put(
        "kernel.create_unlink_us",
        per_call_ns(8, || {
            let fd = k.create("/probe.tmp").expect("create");
            k.close(fd).expect("close");
            k.unlink("/probe.tmp").expect("unlink");
        }) / 1e3,
    );
    put(
        "kernel.fork_us",
        per_call_ns(8, || {
            let mut fork = k.clone();
            fork.pwrite(fd, 0, &[1u8; 100]).expect("pwrite");
            black_box(fork);
        }) / 1e3,
    );
    for clients in [1, 64, 1024] {
        put(
            &format!("kernel.sched_step_ns.c{clients}"),
            sched_step_ns(&k, clients),
        );
    }

    // rio-disk.
    for devices in [1, 4] {
        for depth in [4, 64, 1024] {
            put(
                &format!("disk.submit_retire_ns.dev{devices}.d{depth}"),
                disk_submit_retire_ns(devices, depth),
            );
        }
    }
    let mut disk = SimDisk::new(8192, DiskModel::paper_scsi());
    for b in 0..disk.num_blocks() {
        disk.poke(b, &[b as u8; BLOCK_SIZE]);
    }
    put(
        "disk.fork_us",
        per_call_ns(8, || {
            let mut fork = disk.clone();
            fork.poke(0, &[1u8; BLOCK_SIZE]);
            black_box(fork);
        }) / 1e3,
    );

    // rio-faults: the checkpoint engine's three costs.
    let system = SystemKind::RioWithProtection;
    let (wl, warmup) = (
        workload_seed(1996, system),
        CampaignConfig::paper(1996).warmup_ops,
    );
    put(
        "faults.prepare_ms",
        per_call_ns(1, || {
            black_box(PreparedTrial::prepare(system, wl, warmup));
        }) / 1e6,
    );
    let cp = PreparedTrial::prepare(system, wl, warmup);
    put(
        "faults.fork_us",
        per_call_ns(16, || {
            black_box(cp.fork());
        }) / 1e3,
    );
    // One `inject` call, averaged over the 13 fault types, on a fresh
    // fork of a warm kernel each time (the fork is not timed).
    let (warm, _) = warm_kernel();
    let mut rng = DetRng::seed_from_u64(7);
    let mut next = 0;
    put(
        "faults.inject_us",
        per_call_ns_with(
            FaultType::ALL.len(),
            || {
                next += 1;
                (warm.clone(), FaultType::ALL[next % FaultType::ALL.len()])
            },
            |(mut k, fault)| {
                inject(&mut k, fault, &mut rng);
                black_box(k);
            },
        ) / 1e3,
    );

    // rio-obs: a histogram record (every server request pays one) and
    // an event emit with a session open.
    let mut h = rio_obs::Histogram::default();
    let mut x = 1u64;
    put(
        "obs.hist_record_ns",
        per_call_ns(4096, || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(black_box(x >> 40));
        }),
    );
    black_box(&h);
    rio_obs::start(rio_obs::DEFAULT_CAPACITY);
    put(
        "obs.emit_ns",
        per_call_ns(4096, || {
            rio_obs::emit(
                rio_obs::EventCategory::Syscall,
                rio_obs::Payload::Count {
                    value: black_box(1),
                },
            );
        }),
    );
    let _ = rio_obs::finish();
    out
}

#[cfg(test)]
mod tests {
    use crate::catalog::PER_LAYER;

    #[test]
    fn every_probe_in_the_catalogue_is_measured() {
        let probes = super::run_all();
        for (name, v) in &probes {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} missing from the catalogue"
            );
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        assert_eq!(probes.len(), 29);
    }
}
