//! The self-contained benchmark suite (Criterion's replacement).
//!
//! Covers the four retired Criterion benches in one binary:
//!
//! * micro — interpreted `bcopy`, CRC32 checksumming, registry entry
//!   updates, the warm-reboot scan, debit/credit commits per policy;
//! * performance — the per-policy `cp -r`/`rm -rf` cost behind Table 2;
//! * protection overhead — the same write loop under all three Rio
//!   protection modes (§4 and the §2.1 code-patching ablation);
//! * reliability — one full crash trial per system and fault injection
//!   setup cost.
//!
//! Host time here is a proxy for how much simulated machinery each path
//! exercises; the simulated seconds the paper reports come from the
//! `table1`/`table2`/`overhead` binaries. Knobs: `RIO_BENCH_ITERS`,
//! `RIO_BENCH_WARMUP`, `RIO_BENCH_FILTER`.

use std::hint::black_box;

use rio_bench::runner::Runner;
use rio_core::{warm, EntryFlags, ProtectionManager, Registry, RegistryEntry, RioMode};
use rio_cpu::{Cpu, KernelRoutines, Reg, RoutineStore};
use rio_det::DetRng;
use rio_faults::campaign::trial_seed;
use rio_faults::{drive, inject, workload_seed, FaultType, PreparedTrial, SystemKind};
use rio_kernel::{Kernel, KernelConfig, Policy};
use rio_mem::{crc32, MemBus, MemConfig};
use rio_workloads::{CpRm, CpRmConfig, DebitCredit, DebitCreditConfig};

fn bench_micro(r: &mut Runner) {
    // Interpreted bcopy of one 8 KB page.
    let mut bus = MemBus::new(MemConfig::small());
    let mut store = RoutineStore::new(bus.layout().text);
    let routines = KernelRoutines::install_all(&mut bus, &mut store).unwrap();
    let src = bus.layout().heap.start + 8192;
    let dst = bus.layout().ubc.start;
    let mut cpu = Cpu::new();
    r.bench_bytes("interpreter/bcopy_8k", 8192, || {
        cpu.set_reg(Reg(1), src);
        cpu.set_reg(Reg(2), dst);
        cpu.set_reg(Reg(3), 8192);
        black_box(cpu.run(&mut bus, &store, routines.bcopy, 100_000));
    });

    // CRC32 over one page.
    let page = vec![0xA7u8; 8192];
    r.bench_bytes("checksum/crc32_8k", 8192, || {
        black_box(crc32(black_box(&page)));
    });

    // One registry entry update under protection.
    let mut bus = MemBus::new(MemConfig::small());
    let registry = Registry::new(*bus.layout());
    let mut prot = ProtectionManager::new(RioMode::Protected);
    prot.install(&mut bus);
    let entry = RegistryEntry {
        flags: EntryFlags::VALID | EntryFlags::DIRTY,
        phys_page: registry.page_for_slot(3).0 as u32,
        dev: 1,
        ino: 9,
        offset: 0,
        size: 8192,
        crc: 0x1234,
    };
    r.bench("registry/write_entry", || {
        registry
            .write_entry(&mut bus, &mut prot, 3, black_box(&entry))
            .unwrap();
    });

    // Warm-reboot scan of a worst-case image (every UBC page dirty).
    let mut bus = MemBus::new(MemConfig::small());
    let registry = Registry::new(*bus.layout());
    let mut prot = ProtectionManager::new(RioMode::Unprotected);
    prot.install(&mut bus);
    for slot in 0..registry.num_entries() {
        let page = registry.page_for_slot(slot);
        let mut e = RegistryEntry {
            flags: EntryFlags::VALID | EntryFlags::DIRTY,
            phys_page: page.0 as u32,
            dev: 1,
            ino: slot,
            offset: 0,
            size: 8192,
            crc: 0,
        };
        registry.update_crc(&mut bus, &mut prot, slot, &mut e).unwrap();
    }
    let image = bus.into_image();
    r.bench("warm_reboot/scan_registry_full", || {
        black_box(warm::scan_registry(black_box(&image)));
    });
}

/// The §7 transaction-processing comparison: debit/credit commits under
/// Rio vs. a write-through disk ("order of magnitude for synchronous
/// semantics").
fn bench_debit_credit(r: &mut Runner) {
    for policy in [Policy::rio(RioMode::Protected), Policy::disk_write_through()] {
        let name = format!("debit_credit_commits/{}", policy.name);
        r.bench(&name, || {
            let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(policy.clone())).unwrap();
            let mut db = DebitCredit::new(DebitCreditConfig {
                transactions: 20,
                accounts: 64,
                ..DebitCreditConfig::small(3)
            });
            db.setup(&mut k).unwrap();
            black_box(db.run(&mut k).unwrap());
        });
    }
}

/// Per-policy workload cost behind Table 2.
fn bench_table2_cprm(r: &mut Runner) {
    let tiny = CpRmConfig {
        dirs: 2,
        files_per_dir: 6,
        ..CpRmConfig::small(42)
    };
    for policy in rio_baselines::table2_policies() {
        let name = format!("table2_cprm/{}", policy.name);
        let cfg = tiny.clone();
        r.bench(&name, || {
            let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(policy.clone())).unwrap();
            let w = CpRm::new(cfg.clone());
            w.setup(&mut k).unwrap();
            black_box(w.run(&mut k).unwrap());
        });
    }
}

/// The same write loop under all three Rio protection modes (§4 overhead,
/// §2.1 code-patching ablation).
fn bench_protection_modes(r: &mut Runner) {
    fn write_loop(mode: RioMode) -> u64 {
        let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(mode))).unwrap();
        let data = vec![0x3Cu8; 8192];
        let fd = k.create("/loop").unwrap();
        for _ in 0..16 {
            k.write(fd, &data).unwrap();
        }
        k.close(fd).unwrap();
        k.machine.clock.now().as_micros()
    }
    for mode in [RioMode::Unprotected, RioMode::Protected, RioMode::CodePatched] {
        let name = format!("protection_modes/{mode}");
        r.bench(&name, || {
            black_box(write_loop(black_box(mode)));
        });
    }
}

/// One full crash trial (boot → warm up → inject → crash → reboot →
/// verify) per system, and the fault-injection setup cost per fault.
fn bench_reliability(r: &mut Runner) {
    for system in SystemKind::ALL {
        let name = format!("table1_trial/{}", system.label());
        let mut attempt = 0u64;
        r.bench(&name, || {
            attempt += 1;
            let steady = PreparedTrial::prepare(system, workload_seed(0, system), 25);
            let inject_seed = trial_seed(0, FaultType::CopyOverrun, system, attempt);
            black_box(drive(steady, FaultType::CopyOverrun, inject_seed, 250));
        });
    }
    for fault in [FaultType::KernelText, FaultType::Pointer, FaultType::DeleteBranch] {
        let name = format!("fault_injection/{}", fault.label());
        r.bench(&name, || {
            let mut k = Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(
                RioMode::Unprotected,
            )))
            .unwrap();
            let mut rng = DetRng::seed_from_u64(7);
            inject(&mut k, fault, &mut rng);
            black_box(k);
        });
    }
}

fn main() {
    let mut r = Runner::from_env();
    eprintln!("running benchmarks (RIO_BENCH_FILTER to select, RIO_BENCH_ITERS to scale)...");
    bench_micro(&mut r);
    bench_debit_credit(&mut r);
    bench_table2_cprm(&mut r);
    bench_protection_modes(&mut r);
    bench_reliability(&mut r);
    println!("{}", r.render());
}
