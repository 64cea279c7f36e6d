//! The simulated machine: memory + CPU + disk + clock + fault hooks, and
//! the kernel's wrappers around the interpreted data-path routines.
//!
//! The wrappers are where three of the §3.1 high-level faults live:
//! `bcopy` consults the copy-overrun and off-by-one hooks before running
//! the interpreted routine, and the syscall **activation record** — the
//! kernel's saved parameters, stored in the simulated stack region — is how
//! kernel-stack bit flips propagate into wrong-parameter I/O.

use crate::alloc::{heap_map, KernelAlloc};
use crate::clock::Clock;
use crate::error::PanicReason;
use crate::hooks::FaultHooks;
use crate::locks::LockSet;
use rio_cpu::{Cpu, KernelRoutines, Outcome, Reg, RoutineStore};
use rio_disk::{DiskModel, SimDisk};
use rio_mem::{MemBus, MemConfig};

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Memory sizing.
    pub mem: MemConfig,
    /// Disk size in blocks.
    pub disk_blocks: u64,
    /// Number of devices the block space is striped across (the request
    /// plane, [`rio_disk::DiskArray`], serves one device in arrival order
    /// and sweeps more C-LOOK).
    pub disk_devices: usize,
}

impl MachineConfig {
    /// Test/campaign configuration: small memory, 16 MB disk.
    pub fn small() -> Self {
        MachineConfig {
            mem: MemConfig::small(),
            disk_blocks: 2048,
            disk_devices: 1,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::small()
    }
}

/// The hardware state of one simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Memory bus (physical memory + protection).
    pub bus: MemBus,
    /// CPU register file / interpreter.
    pub cpu: Cpu,
    /// Kernel text directory.
    pub store: RoutineStore,
    /// Installed data-path routines.
    pub routines: KernelRoutines,
    /// The disk.
    pub disk: SimDisk,
    /// Simulated clock.
    pub clock: Clock,
    /// High-level fault hooks (armed by the injector).
    pub hooks: FaultHooks,
    /// Kernel heap allocator.
    pub alloc: KernelAlloc,
    /// Kernel locks.
    pub locks: LockSet,
    /// Routine invocations so far (drives scratch-register pollution).
    invocations: u64,
}

/// Number of cold (never-dispatched) copies of the routine set installed
/// as fault-site padding.
pub const COLD_PADDING_COPIES: usize = 20;

/// Byte offsets of the fields of the syscall activation record within the
/// stack region (a frame the kernel pushes on syscall entry and re-reads
/// mid-operation, giving stack corruption a realistic propagation path).
pub mod act_record {
    /// Inode number parameter.
    pub const INO: u64 = 0;
    /// Byte-offset parameter.
    pub const OFFSET: u64 = 8;
    /// Length parameter.
    pub const LEN: u64 = 16;
    /// Frame magic (validated on re-read).
    pub const MAGIC_OFF: u64 = 24;
    /// Expected magic value.
    pub const MAGIC: u64 = 0x5249_4F53_5953_4341; // "RIOSYSCA"
}

impl Machine {
    /// Boots the hardware: zeroed memory, routines installed in kernel
    /// text, an empty disk of the paper's SCSI class
    /// ([`DiskModel::paper_scsi`]), clock at zero, no faults armed.
    pub fn new(config: &MachineConfig) -> Self {
        let mut bus = MemBus::new(config.mem);
        let mut store = RoutineStore::new(bus.layout().text);
        let routines =
            KernelRoutines::install_all(&mut bus, &mut store).expect("text sized for routines");
        // Cold-code padding: a real kernel's text is overwhelmingly code
        // that rarely runs, so most injected text/instruction faults land
        // harmlessly (the paper discards about half its runs for exactly
        // this reason). We install many cold copies of the routines that
        // are never dispatched, so random fault sites have realistic odds
        // of hitting live code.
        for i in 0..COLD_PADDING_COPIES {
            let name = format!("cold{i}");
            KernelRoutines::install_all(&mut bus, &mut store)
                .unwrap_or_else(|_| panic!("text sized for padding {name}"));
        }
        let heap = bus.layout().heap;
        let locks = LockSet::init(bus.mem_mut());
        let alloc = KernelAlloc::new(heap.start + heap_map::ARENA_OFFSET, heap.end);
        // Integrity-probe canary: a fixed pattern the kernel re-copies and
        // re-checks at every syscall entry.
        for i in 0..heap_map::CANARY_LEN {
            bus.mem_mut().write_u8(
                heap.start + heap_map::CANARY_OFFSET + i,
                0xC3 ^ (i as u8).wrapping_mul(7),
            );
        }
        Machine {
            bus,
            cpu: Cpu::new(),
            store,
            routines,
            disk: SimDisk::new_striped(
                config.disk_blocks,
                DiskModel::paper_scsi(),
                config.disk_devices,
            ),
            clock: Clock::new(),
            hooks: FaultHooks::none(),
            alloc,
            locks,
            invocations: 0,
        }
    }

    /// Caller-saved scratch registers (r10-r15) are clobbered by whatever
    /// kernel code ran since the last routine call; model that with
    /// deterministic garbage. This is what makes the skipped-initialization
    /// fault behave realistically: an uninitialized length register holds
    /// unpredictable junk, usually producing a wild access (quick crash, or
    /// a protection save) rather than a stable silent no-op.
    fn pollute_scratch(&mut self) {
        self.invocations += 1;
        let mut x = self.invocations.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        for r in 10..16u8 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.cpu.set_reg(Reg(r), x);
        }
    }

    /// The kernel's self-check, run at every syscall entry. A production
    /// kernel's data paths (networking, VM, scheduling) exercise `bcopy`
    /// constantly and their consistency checks stop a sick system within
    /// moments — §3.3 credits exactly this "multitude of consistency
    /// checks" for memory's unexpected safety. Our kernel's only bcopy
    /// users are file operations, so we model the rest of the kernel with
    /// this probe: copy a canary through the (possibly corrupted) data
    /// path and panic on any discrepancy.
    ///
    /// # Errors
    ///
    /// [`PanicReason`] when the data path is broken (system crashes).
    pub fn integrity_probe(&mut self) -> Result<(), PanicReason> {
        let heap = self.bus.layout().heap.start;
        let canary = heap + heap_map::CANARY_OFFSET;
        let scratch = heap + heap_map::SCRATCH_OFFSET;
        self.bzero(scratch, heap_map::CANARY_LEN)?;
        self.bcopy(canary, scratch, heap_map::CANARY_LEN)?;
        match self.bcmp(canary, scratch, heap_map::CANARY_LEN)? {
            true => Ok(()),
            false => Err(PanicReason::Consistency(
                "kernel memory consistency check failed".to_owned(),
            )),
        }
    }

    fn finish(&mut self, outcome: Outcome, steps: u64) -> Result<(), PanicReason> {
        self.clock.charge_steps(steps);
        match outcome {
            Outcome::Done => Ok(()),
            Outcome::Panic(cause) => Err(cause.into()),
            Outcome::StepLimit => Err(PanicReason::Watchdog),
        }
    }

    /// Runs `bcopy` (interpreted, or as its summary when that is provably
    /// the same — [`rio_cpu::routines`]), applying the copy-overrun and
    /// off-by-one fault hooks to the length. Returns the **effective**
    /// length the routine was asked to copy (post-hooks), which callers use
    /// to track exactly which bytes a (possibly faulty) copy touched.
    ///
    /// Addresses may carry the KSEG tag (see [`rio_cpu::kseg_addr`]); the
    /// caller must have opened protection windows for the *intended*
    /// destination pages — an overrun beyond them traps, which is the
    /// §3.3 protection save.
    ///
    /// # Errors
    ///
    /// [`PanicReason`] when the routine panics (the kernel crashes).
    pub fn bcopy(&mut self, src: u64, dst: u64, len: u64) -> Result<u64, PanicReason> {
        let effective = self.hooks.bcopy_len(len);
        let limit = effective * 8 + 1_000;
        self.pollute_scratch();
        let run = self.routines.bcopy(
            &mut self.cpu,
            &mut self.bus,
            &self.store,
            src,
            dst,
            effective,
            limit,
        );
        self.finish(run.outcome, run.steps)?;
        Ok(effective)
    }

    /// Runs `bzero`, as [`Machine::bcopy`] runs `bcopy`.
    ///
    /// # Errors
    ///
    /// As [`Machine::bcopy`].
    pub fn bzero(&mut self, dst: u64, len: u64) -> Result<(), PanicReason> {
        let limit = len * 8 + 1_000;
        self.pollute_scratch();
        let run = self
            .routines
            .bzero(&mut self.cpu, &mut self.bus, &self.store, dst, len, limit);
        self.finish(run.outcome, run.steps)
    }

    /// Runs `bcmp`, as [`Machine::bcopy`] runs `bcopy`; `Ok(true)` means equal.
    ///
    /// # Errors
    ///
    /// As [`Machine::bcopy`].
    pub fn bcmp(&mut self, a: u64, b: u64, len: u64) -> Result<bool, PanicReason> {
        let limit = len * 12 + 1_000;
        self.pollute_scratch();
        let run = self
            .routines
            .bcmp(&mut self.cpu, &mut self.bus, &self.store, a, b, len, limit);
        self.finish(run.outcome, run.steps)?;
        Ok(self.cpu.reg(Reg(10)) == 0)
    }

    /// Pushes the syscall activation record to the simulated stack.
    pub fn push_act_record(&mut self, ino: u64, offset: u64, len: u64) {
        let base = self.bus.layout().stack.start;
        let mem = self.bus.mem_mut();
        mem.write_u64(base + act_record::INO, ino);
        mem.write_u64(base + act_record::OFFSET, offset);
        mem.write_u64(base + act_record::LEN, len);
        mem.write_u64(base + act_record::MAGIC_OFF, act_record::MAGIC);
    }

    /// Re-reads the activation record mid-operation, validating its magic.
    /// Returns `(ino, offset, len)` — possibly corrupted by stack faults,
    /// which is the point: the kernel then acts on bad parameters
    /// (indirect corruption, §3.2).
    ///
    /// # Errors
    ///
    /// Kernel panic when the frame magic is corrupt.
    pub fn read_act_record(&self) -> Result<(u64, u64, u64), PanicReason> {
        let base = self.bus.layout().stack.start;
        let mem = self.bus.mem();
        if mem.read_u64(base + act_record::MAGIC_OFF) != act_record::MAGIC {
            return Err(PanicReason::Consistency(
                "trap: corrupted kernel stack frame".to_owned(),
            ));
        }
        Ok((
            mem.read_u64(base + act_record::INO),
            mem.read_u64(base + act_record::OFFSET),
            mem.read_u64(base + act_record::LEN),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{Cadence, OverrunSpec};
    use rio_cpu::kseg_addr;
    use rio_mem::PageNum;

    fn machine() -> Machine {
        Machine::new(&MachineConfig::small())
    }

    #[test]
    fn bcopy_moves_bytes_and_charges_time() {
        let mut m = machine();
        let src = m.bus.layout().heap.start + 16384;
        let dst = m.bus.layout().ubc.start;
        m.bus.mem_mut().write_bytes(src, b"rio file cache");
        let before = m.clock.now();
        m.bcopy(src, dst, 8192).unwrap();
        assert_eq!(m.bus.mem().slice(dst, 14), b"rio file cache");
        assert!(m.clock.now() > before, "interpreted steps charged");
    }

    #[test]
    fn overrun_hook_extends_copy() {
        let mut m = machine();
        m.hooks.copy_overrun = Some(OverrunSpec::new(Cadence::every(1), vec![4]));
        let src = m.bus.layout().heap.start + 4096;
        let dst = m.bus.layout().ubc.start;
        m.bus.mem_mut().fill(src, 20, 0x77);
        m.bcopy(src, dst, 8).unwrap();
        // 8 requested, 12 copied.
        assert_eq!(m.bus.mem().read_u8(dst + 11), 0x77);
    }

    #[test]
    fn overrun_into_protected_page_is_trapped() {
        let mut m = machine();
        // Protect everything in the UBC except the first page (the write
        // window), then overrun past the page boundary.
        m.bus.protection_mut().set_mode(rio_mem::RioMode::Protected);
        let second = PageNum::containing(m.bus.layout().ubc.start + 8192);
        m.bus.protection_mut().protect(second);
        m.hooks.copy_overrun = Some(OverrunSpec::new(Cadence::every(1), vec![100]));
        let src = m.bus.layout().heap.start + 4096;
        let dst = kseg_addr(m.bus.layout().ubc.start + 8192 - 50);
        m.bus.mem_mut().fill(src, 150, 0x77);
        let stores = m.bus.stats().stores;
        let err = m.bcopy(src, dst, 50).unwrap_err();
        // A span with a protected page in it is the interpreter's: it
        // stores every byte before the page and traps on the page's first.
        assert_eq!(
            err,
            PanicReason::Mem(rio_mem::MemFault::ProtectionViolation {
                addr: second.base(),
                page: second,
                kseg: true
            })
        );
        assert!(m
            .bus
            .mem()
            .slice(second.base() - 50, 50)
            .iter()
            .all(|&b| b == 0x77));
        assert_eq!(
            m.bus.stats().stores - stores,
            2 + 6 + 1,
            "2 to align, 6 words, the trapped one"
        );
        // The protected page is untouched.
        assert_eq!(m.bus.mem().read_u8(second.base()), 0);
    }

    #[test]
    fn a_flipped_bit_in_live_bcopy_text_sends_the_call_to_the_interpreter() {
        let mut m = machine();
        let src = m.bus.layout().heap.start + 16384;
        let dst = m.bus.layout().ubc.start + 3;
        m.bus.mem_mut().fill(src, 700, 0x5A);
        // Pristine text: summarised, so nothing is decoded.
        m.bcopy(src, dst, 600).unwrap();
        assert_eq!(m.cpu.decode_misses(), 0);

        // `addi rem, rem, -64` in `bulk` becomes `-63`: still decodes, still
        // halts, copies more than it was asked to. (Immediate: bytes 4..8.)
        let at = m
            .store
            .instr_addr(m.routines.bcopy.first_index + 4 + 9 + 1 + 16 + 2)
            + 4;
        m.bus.mem_mut().flip_bit(at, 0);
        let mut want = m.clone();
        want.pollute_scratch();
        for (r, v) in [(1, src), (2, dst), (3, 600)] {
            want.cpu.set_reg(Reg(r), v);
        }
        let run = want.cpu.run(
            &mut want.bus,
            &want.store,
            want.routines.bcopy,
            600 * 8 + 1_000,
        );
        want.clock.charge_steps(run.steps);

        let got = m.bcopy(src, dst, 600);
        assert_eq!(got.is_ok(), run.is_done(), "{got:?} vs {run:?}");
        assert!(m.cpu.decode_misses() > 0, "the interpreter ran");
        assert_eq!(m.cpu.steps(), want.cpu.steps());
        for r in 0..32 {
            assert_eq!(m.cpu.reg(Reg(r)), want.cpu.reg(Reg(r)), "r{r}");
        }
        assert_eq!(m.bus.stats(), want.bus.stats());
        assert_eq!(m.clock.now(), want.clock.now());
        for pn in m.bus.layout().ubc.page_numbers().take(2) {
            assert!(m.bus.mem().page(pn) == want.bus.mem().page(pn), "{pn}");
        }
        // And it is not what the installed routine does.
        let mut pristine = machine();
        pristine.bus.mem_mut().fill(src, 700, 0x5A);
        pristine.bcopy(src, dst, 600).unwrap();
        pristine.bcopy(src, dst, 600).unwrap();
        assert_ne!(pristine.cpu.steps(), m.cpu.steps());
    }

    #[test]
    fn bzero_and_bcmp_work() {
        let mut m = machine();
        let a = m.bus.layout().heap.start + 8192;
        let b = a + 4096;
        m.bus.mem_mut().fill(a, 64, 3);
        m.bus.mem_mut().fill(b, 64, 3);
        assert!(m.bcmp(a, b, 64).unwrap());
        m.bzero(a, 64).unwrap();
        assert!(!m.bcmp(a, b, 64).unwrap());
    }

    #[test]
    fn act_record_round_trips_and_detects_corruption() {
        let mut m = machine();
        m.push_act_record(7, 8192, 100);
        assert_eq!(m.read_act_record().unwrap(), (7, 8192, 100));
        // Corrupt the magic: detected.
        let base = m.bus.layout().stack.start;
        m.bus.mem_mut().flip_bit(base + act_record::MAGIC_OFF, 5);
        assert!(m.read_act_record().is_err());
    }

    #[test]
    fn act_record_parameter_corruption_goes_undetected() {
        // The dangerous case: a flipped *parameter* (not magic) silently
        // yields wrong I/O parameters — indirect corruption.
        let mut m = machine();
        m.push_act_record(7, 8192, 100);
        let base = m.bus.layout().stack.start;
        m.bus.mem_mut().flip_bit(base + act_record::OFFSET + 1, 5);
        let (ino, off, len) = m.read_act_record().unwrap();
        assert_eq!((ino, len), (7, 100));
        assert_ne!(off, 8192);
    }

    #[test]
    fn wild_bcopy_crashes_with_illegal_address() {
        let mut m = machine();
        let err = m
            .bcopy(m.bus.layout().heap.start, 0xDEAD_0000_0000, 8)
            .unwrap_err();
        assert!(matches!(err, PanicReason::Mem(_)));
    }
}
