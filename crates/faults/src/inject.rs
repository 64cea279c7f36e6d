//! The thirteen fault models.

use rio_cpu::{Instr, Opcode, Reg, INSTR_BYTES};
use rio_det::DetRng;
use rio_kernel::{Cadence, Kernel, OffByOne, OverrunSpec};

/// The paper's thirteen fault types, in Table 1 row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultType {
    /// Flip bits in kernel text.
    KernelText,
    /// Flip bits in the kernel heap.
    KernelHeap,
    /// Flip bits in the kernel stack.
    KernelStack,
    /// Change the destination register of instructions.
    DestinationReg,
    /// Change a source register of instructions.
    SourceReg,
    /// Delete branch instructions.
    DeleteBranch,
    /// Delete random instructions.
    DeleteRandomInst,
    /// Delete the initialization prologue of a routine.
    Initialization,
    /// Delete the instruction that most recently formed a load/store base
    /// register (pointer corruption).
    Pointer,
    /// kmalloc prematurely frees a live allocation.
    Allocation,
    /// bcopy occasionally copies extra bytes.
    CopyOverrun,
    /// Comparisons off by one (`<` ↔ `<=`).
    OffByOne,
    /// Lock acquire/release silently do nothing.
    Synchronization,
}

impl FaultType {
    /// All thirteen, in the paper's Table 1 order.
    pub const ALL: [FaultType; 13] = [
        FaultType::KernelText,
        FaultType::KernelHeap,
        FaultType::KernelStack,
        FaultType::DestinationReg,
        FaultType::SourceReg,
        FaultType::DeleteBranch,
        FaultType::DeleteRandomInst,
        FaultType::Initialization,
        FaultType::Pointer,
        FaultType::Allocation,
        FaultType::CopyOverrun,
        FaultType::OffByOne,
        FaultType::Synchronization,
    ];

    /// The Table 1 row label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultType::KernelText => "kernel text",
            FaultType::KernelHeap => "kernel heap",
            FaultType::KernelStack => "kernel stack",
            FaultType::DestinationReg => "destination reg.",
            FaultType::SourceReg => "source reg.",
            FaultType::DeleteBranch => "delete branch",
            FaultType::DeleteRandomInst => "delete random inst.",
            FaultType::Initialization => "initialization",
            FaultType::Pointer => "pointer",
            FaultType::Allocation => "allocation",
            FaultType::CopyOverrun => "copy overrun",
            FaultType::OffByOne => "off-by-one",
            FaultType::Synchronization => "synchronization",
        }
    }

    /// Stable machine-readable name (CLI arguments, JSON keys).
    pub fn slug(&self) -> &'static str {
        match self {
            FaultType::KernelText => "kernel_text",
            FaultType::KernelHeap => "kernel_heap",
            FaultType::KernelStack => "kernel_stack",
            FaultType::DestinationReg => "destination_reg",
            FaultType::SourceReg => "source_reg",
            FaultType::DeleteBranch => "delete_branch",
            FaultType::DeleteRandomInst => "delete_random_inst",
            FaultType::Initialization => "initialization",
            FaultType::Pointer => "pointer",
            FaultType::Allocation => "allocation",
            FaultType::CopyOverrun => "copy_overrun",
            FaultType::OffByOne => "off_by_one",
            FaultType::Synchronization => "synchronization",
        }
    }

    /// Parses a [`FaultType::slug`] back to the fault type.
    pub fn from_slug(s: &str) -> Option<FaultType> {
        FaultType::ALL.iter().copied().find(|f| f.slug() == s)
    }
}

impl std::fmt::Display for FaultType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How many faults each injection plants (the paper's "we inject 20 faults
/// for each run to increase the chances that a fault will be triggered").
pub const FAULTS_PER_RUN: usize = 20;

/// Draws one overrun length from the §3.1 distribution: 50% one byte,
/// 44% 2–1024 bytes, 6% 2–4 KB.
pub fn overrun_length(rng: &mut DetRng) -> u64 {
    let p: u32 = rng.gen_range(0..100);
    if p < 50 {
        1
    } else if p < 94 {
        rng.gen_range(2..=1024)
    } else {
        rng.gen_range(2048..=4096)
    }
}

/// Traces one planted fault instance (no-op unless a trace session is
/// open on this thread).
fn trace_fault(payload: rio_obs::Payload) {
    if rio_obs::is_enabled() {
        rio_obs::emit(rio_obs::EventCategory::FaultInjected, payload);
    }
}

fn random_instr_index(k: &Kernel, rng: &mut DetRng) -> u64 {
    rng.gen_range(0..k.machine.store.installed_instrs())
}

fn patch_decoded(
    k: &mut Kernel,
    idx: u64,
    f: impl FnOnce(&mut Instr, &mut DetRng),
    rng: &mut DetRng,
) {
    // `store` and `bus` are disjoint `Machine` fields, so the routine
    // directory can patch text in place without being cloned first.
    let m = &mut k.machine;
    if let Ok(mut instr) = m.store.read_instr(m.bus.mem(), idx) {
        f(&mut instr, rng);
        m.store.patch_instr(m.bus.mem_mut(), idx, instr);
    }
}

/// Plants `FAULTS_PER_RUN` instances of one fault type into a live kernel.
///
/// Bit-level and instruction-level faults mutate simulated memory / kernel
/// text immediately; behavioural faults arm the kernel's
/// [`rio_kernel::FaultHooks`] with the paper's trigger cadences.
pub fn inject(k: &mut Kernel, fault: FaultType, rng: &mut DetRng) {
    match fault {
        FaultType::KernelText => {
            // Flip bits within installed routine bytes — the live-code
            // portion of the text region (the rest of the region holds no
            // code at all in this simulator).
            let bytes = k.machine.store.installed_instrs() * INSTR_BYTES;
            let base = k.machine.store.text_base();
            for _ in 0..FAULTS_PER_RUN {
                let addr = base + rng.gen_range(0..bytes);
                let bit = rng.gen_range(0..8);
                k.machine.bus.mem_mut().flip_bit(addr, bit);
                trace_fault(rio_obs::Payload::Addr {
                    addr,
                    aux: bit as u64,
                });
            }
        }
        FaultType::KernelHeap => {
            let region = k.machine.bus.layout().heap;
            for _ in 0..FAULTS_PER_RUN {
                let addr = rng.gen_range(region.start..region.end);
                let bit = rng.gen_range(0..8);
                k.machine.bus.mem_mut().flip_bit(addr, bit);
                trace_fault(rio_obs::Payload::Addr {
                    addr,
                    aux: bit as u64,
                });
            }
        }
        FaultType::KernelStack => {
            let region = k.machine.bus.layout().stack;
            for _ in 0..FAULTS_PER_RUN {
                let addr = rng.gen_range(region.start..region.end);
                let bit = rng.gen_range(0..8);
                k.machine.bus.mem_mut().flip_bit(addr, bit);
                trace_fault(rio_obs::Payload::Addr {
                    addr,
                    aux: bit as u64,
                });
            }
        }
        FaultType::DestinationReg => {
            for _ in 0..FAULTS_PER_RUN {
                let idx = random_instr_index(k, rng);
                patch_decoded(
                    k,
                    idx,
                    |i, rng| {
                        i.rd = Reg(rng.gen_range(0..32));
                    },
                    rng,
                );
                trace_fault(rio_obs::Payload::Count { value: idx });
            }
        }
        FaultType::SourceReg => {
            for _ in 0..FAULTS_PER_RUN {
                let idx = random_instr_index(k, rng);
                patch_decoded(
                    k,
                    idx,
                    |i, rng| {
                        if rng.gen_bool(0.5) {
                            i.rs1 = Reg(rng.gen_range(0..32));
                        } else {
                            i.rs2 = Reg(rng.gen_range(0..32));
                        }
                    },
                    rng,
                );
                trace_fault(rio_obs::Payload::Count { value: idx });
            }
        }
        FaultType::DeleteBranch => {
            // Collect branch positions, then NOP a sample of them.
            let m = &mut k.machine;
            let branches: Vec<u64> = (0..m.store.installed_instrs())
                .filter(|&i| {
                    m.store
                        .read_instr(m.bus.mem(), i)
                        .map(|ins| ins.op.is_branch())
                        .unwrap_or(false)
                })
                .collect();
            for _ in 0..FAULTS_PER_RUN {
                if branches.is_empty() {
                    break;
                }
                let idx = branches[rng.gen_range(0..branches.len())];
                m.store.patch_instr(m.bus.mem_mut(), idx, Instr::nop());
                trace_fault(rio_obs::Payload::Count { value: idx });
            }
        }
        FaultType::DeleteRandomInst => {
            let m = &mut k.machine;
            for _ in 0..FAULTS_PER_RUN {
                let idx = rng.gen_range(0..m.store.installed_instrs());
                m.store.patch_instr(m.bus.mem_mut(), idx, Instr::nop());
                trace_fault(rio_obs::Payload::Count { value: idx });
            }
        }
        FaultType::Initialization => {
            // Delete the register-initializing prologue of routines
            // ([Kao93], [Lee93]): the first couple of instructions.
            let m = &mut k.machine;
            let routines: Vec<_> = m.store.routines().map(|(_, h)| h).collect();
            for _ in 0..FAULTS_PER_RUN.min(routines.len() * 2) {
                let h = routines[rng.gen_range(0..routines.len())];
                let off = rng.gen_range(0..2.min(h.len));
                m.store
                    .patch_instr(m.bus.mem_mut(), h.first_index + off, Instr::nop());
                trace_fault(rio_obs::Payload::Count {
                    value: h.first_index + off,
                });
            }
        }
        FaultType::Pointer => {
            // Find a load/store; delete the most recent earlier instruction
            // that modifies its base register ([Sullivan91b], [Lee93]).
            let m = &mut k.machine;
            for _ in 0..FAULTS_PER_RUN {
                let idx = rng.gen_range(0..m.store.installed_instrs());
                let Ok(ins) = m.store.read_instr(m.bus.mem(), idx) else {
                    continue;
                };
                if !ins.op.is_mem() {
                    continue;
                }
                let base = ins.rs1;
                // Scan backwards for the defining instruction.
                let mut j = idx;
                while j > 0 {
                    j -= 1;
                    if let Ok(prev) = m.store.read_instr(m.bus.mem(), j) {
                        let writes_base = prev.rd == base
                            && !matches!(
                                prev.op,
                                Opcode::St8 | Opcode::St64 | Opcode::Chk | Opcode::Halt
                            );
                        if writes_base {
                            m.store.patch_instr(m.bus.mem_mut(), j, Instr::nop());
                            trace_fault(rio_obs::Payload::Count { value: j });
                            break;
                        }
                    }
                }
            }
        }
        FaultType::Allocation => {
            // "every 1000-4000 times malloc is called" — scaled to our
            // workload's allocation volume.
            let every = rng.gen_range(30..120);
            k.machine.hooks.alloc_premature_free = Some(Cadence::every(every));
            trace_fault(rio_obs::Payload::Count { value: every });
        }
        FaultType::CopyOverrun => {
            let lengths: Vec<u64> = (0..8).map(|_| overrun_length(rng)).collect();
            let every = rng.gen_range(60..240);
            k.machine.hooks.copy_overrun = Some(OverrunSpec::new(Cadence::every(every), lengths));
            trace_fault(rio_obs::Payload::Count { value: every });
        }
        FaultType::OffByOne => {
            let dir = if rng.gen_bool(0.5) {
                OffByOne::OneMore
            } else {
                OffByOne::OneLess
            };
            let every = rng.gen_range(150..500);
            k.machine.hooks.off_by_one = Some((dir, Cadence::every(every)));
            trace_fault(rio_obs::Payload::Count { value: every });
        }
        FaultType::Synchronization => {
            let every = rng.gen_range(30..120);
            k.machine.hooks.lock_skip = Some(Cadence::every(every));
            trace_fault(rio_obs::Payload::Count { value: every });
        }
    }
}

/// Outage-window memory decay: flips `flips` bits in the preserved image's
/// file-cache regions (buffer cache and UBC pages) — DRAM cells rotting
/// between the crash and the warm reboot. The registry's per-page CRC must
/// quarantine every decayed page rather than silently restore it; decay in
/// the registry itself is caught by the magic/consistency checks.
pub fn decay_image(image: &mut rio_mem::PhysMem, rng: &mut DetRng, flips: u64) {
    let layout = *image.layout();
    let regions = [layout.buffer_cache, layout.ubc];
    for _ in 0..flips {
        let which: u64 = rng.gen_range(0..2);
        let r = regions[which as usize];
        let addr = rng.gen_range(r.start..r.end);
        image.flip_bit(addr, rng.gen_range(0..8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::RioMode;
    use rio_kernel::{KernelConfig, Policy};

    fn kernel() -> Kernel {
        Kernel::mkfs_and_mount(&KernelConfig::small(Policy::rio(RioMode::Unprotected))).unwrap()
    }

    #[test]
    fn all_thirteen_labels_are_unique() {
        let mut labels: Vec<_> = FaultType::ALL.iter().map(|f| f.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 13);
    }

    #[test]
    fn slugs_round_trip() {
        for f in FaultType::ALL {
            assert_eq!(FaultType::from_slug(f.slug()), Some(f));
        }
        assert_eq!(FaultType::from_slug("bogus"), None);
    }

    #[test]
    fn overrun_distribution_matches_paper_bands() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut one = 0;
        let mut small = 0;
        let mut large = 0;
        for _ in 0..10_000 {
            match overrun_length(&mut rng) {
                1 => one += 1,
                2..=1024 => small += 1,
                2048..=4096 => large += 1,
                other => panic!("impossible length {other}"),
            }
        }
        assert!((4500..5500).contains(&one), "one-byte {one}");
        assert!((3900..4900).contains(&small), "small {small}");
        assert!((400..800).contains(&large), "large {large}");
    }

    #[test]
    fn text_flips_change_installed_bytes() {
        let mut k = kernel();
        let base = k.machine.store.text_base();
        let len = k.machine.store.installed_instrs() * INSTR_BYTES;
        let before = k.machine.bus.mem().to_vec(base, len);
        let mut rng = DetRng::seed_from_u64(2);
        inject(&mut k, FaultType::KernelText, &mut rng);
        let after = k.machine.bus.mem().to_vec(base, len);
        assert_ne!(before, after);
    }

    #[test]
    fn behavioural_faults_arm_hooks() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut k = kernel();
        inject(&mut k, FaultType::CopyOverrun, &mut rng);
        assert!(k.machine.hooks.copy_overrun.is_some());
        inject(&mut k, FaultType::Allocation, &mut rng);
        assert!(k.machine.hooks.alloc_premature_free.is_some());
        inject(&mut k, FaultType::OffByOne, &mut rng);
        assert!(k.machine.hooks.off_by_one.is_some());
        inject(&mut k, FaultType::Synchronization, &mut rng);
        assert!(k.machine.hooks.lock_skip.is_some());
    }

    #[test]
    fn delete_branch_removes_branches() {
        let mut k = kernel();
        let count_branches = |k: &Kernel| {
            let m = &k.machine;
            (0..m.store.installed_instrs())
                .filter(|&i| {
                    m.store
                        .read_instr(m.bus.mem(), i)
                        .map(|ins| ins.op.is_branch())
                        .unwrap_or(false)
                })
                .count()
        };
        let before = count_branches(&k);
        let mut rng = DetRng::seed_from_u64(4);
        inject(&mut k, FaultType::DeleteBranch, &mut rng);
        assert!(count_branches(&k) < before);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let snapshot = |seed: u64| {
            let mut k = kernel();
            let mut rng = DetRng::seed_from_u64(seed);
            inject(&mut k, FaultType::SourceReg, &mut rng);
            let base = k.machine.store.text_base();
            let len = k.machine.store.installed_instrs() * INSTR_BYTES;
            k.machine.bus.mem().to_vec(base, len)
        };
        assert_eq!(snapshot(7), snapshot(7));
        assert_ne!(snapshot(7), snapshot(8));
    }
}
