//! Kernel-text management and the standard data-path routines.
//!
//! [`RoutineStore`] owns the kernel text region: routines are assembled once
//! at "boot" and their encoded instructions written into simulated memory,
//! where they are exposed to text-targeting faults for the rest of the run.
//! [`KernelRoutines`] installs the four routines every kernel build uses:
//! `bcopy`, `bzero`, `bcmp`, and `fill_pattern`.

use crate::asm::{AsmError, Assembler};
use crate::interp::{Cpu, RunResult};
use crate::isa::{DecodeError, Instr, Reg, INSTR_BYTES};
use rio_mem::{MemBus, PhysMem, Region};
use std::sync::Arc;

/// Identifies an installed routine: where it starts and how long it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoutineHandle {
    /// Absolute index of the routine's first instruction in kernel text.
    pub first_index: u64,
    /// Length in instructions.
    pub len: u64,
}

impl RoutineHandle {
    /// Whether the absolute instruction index belongs to this routine.
    pub fn contains(&self, index: u64) -> bool {
        index >= self.first_index && index < self.first_index + self.len
    }
}

/// Errors installing a routine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// Kernel text region is full.
    TextFull,
    /// The routine failed to assemble.
    Asm(AsmError),
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::TextFull => f.write_str("kernel text region full"),
            InstallError::Asm(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl std::error::Error for InstallError {}

impl From<AsmError> for InstallError {
    fn from(e: AsmError) -> Self {
        InstallError::Asm(e)
    }
}

/// Owns the kernel text region and the directory of installed routines.
#[derive(Debug, Clone)]
pub struct RoutineStore {
    text: Region,
    installed: u64,
    /// Written at boot only; shared so that forking a machine does not
    /// copy the directory.
    names: Arc<Vec<(String, RoutineHandle)>>,
}

impl RoutineStore {
    /// A store over the given text region with nothing installed.
    pub fn new(text: Region) -> Self {
        RoutineStore {
            text,
            installed: 0,
            names: Arc::default(),
        }
    }

    /// First byte address of kernel text.
    pub fn text_base(&self) -> u64 {
        self.text.start
    }

    /// Number of instructions installed so far (the valid PC range is
    /// `0..installed_instrs()`).
    pub fn installed_instrs(&self) -> u64 {
        self.installed
    }

    /// Byte address of the instruction at an absolute index.
    pub fn instr_addr(&self, index: u64) -> u64 {
        self.text.start + index * INSTR_BYTES
    }

    /// Assembles and installs a routine, writing its encoding into text.
    ///
    /// # Errors
    ///
    /// [`InstallError::Asm`] if assembly fails, [`InstallError::TextFull`]
    /// if the text region cannot hold the routine.
    pub fn install(
        &mut self,
        bus: &mut MemBus,
        name: &str,
        asm: Assembler,
    ) -> Result<RoutineHandle, InstallError> {
        let code = asm.assemble()?;
        let needed = code.len() as u64 * INSTR_BYTES;
        let offset = self.installed * INSTR_BYTES;
        if offset + needed > self.text.len() {
            return Err(InstallError::TextFull);
        }
        let handle = RoutineHandle {
            first_index: self.installed,
            len: code.len() as u64,
        };
        for (i, instr) in code.iter().enumerate() {
            let addr = self.instr_addr(handle.first_index + i as u64);
            bus.mem_mut().write_bytes(addr, &instr.encode());
        }
        self.installed += code.len() as u64;
        Arc::make_mut(&mut self.names).push((name.to_owned(), handle));
        Ok(handle)
    }

    /// Looks up an installed routine by name.
    pub fn find(&self, name: &str) -> Option<RoutineHandle> {
        self.names
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| *h)
    }

    /// Installed routines in installation order.
    pub fn routines(&self) -> impl Iterator<Item = (&str, RoutineHandle)> {
        self.names.iter().map(|(n, h)| (n.as_str(), *h))
    }

    /// Decodes the instruction currently stored at an absolute index
    /// (which may be corrupted and fail to decode).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the stored bytes are not a valid instruction.
    pub fn read_instr(&self, mem: &PhysMem, index: u64) -> Result<Instr, DecodeError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(mem.slice(self.instr_addr(index), INSTR_BYTES));
        Instr::decode(raw)
    }

    /// Overwrites the instruction at an absolute index — the primitive the
    /// instruction-level fault models use.
    pub fn patch_instr(&self, mem: &mut PhysMem, index: u64, instr: Instr) {
        mem.write_bytes(self.instr_addr(index), &instr.encode());
    }
}

/// Handles for the standard kernel data-path routines.
///
/// Register ABI: arguments in `r1..r4`, result in `r10`, scratch `r11..r15`.
#[derive(Debug, Clone, Copy)]
pub struct KernelRoutines {
    /// `bcopy(r1=src, r2=dst, r3=len)` — byte copy, 8 bytes at a time.
    pub bcopy: RoutineHandle,
    /// `bzero(r1=dst, r2=len)` — zero fill.
    pub bzero: RoutineHandle,
    /// `bcmp(r1=a, r2=b, r3=len) -> r10` — 0 if equal, 1 if different.
    pub bcmp: RoutineHandle,
    /// `fill_pattern(r1=dst, r2=len, r3=seed)` — xorshift pattern fill.
    pub fill_pattern: RoutineHandle,
}

impl KernelRoutines {
    /// Assembles and installs all standard routines into kernel text.
    ///
    /// # Errors
    ///
    /// [`InstallError`] if text is too small (never with default configs).
    pub fn install_all(bus: &mut MemBus, store: &mut RoutineStore) -> Result<Self, InstallError> {
        Ok(KernelRoutines {
            bcopy: store.install(bus, "bcopy", Self::asm_bcopy())?,
            bzero: store.install(bus, "bzero", Self::asm_bzero())?,
            bcmp: store.install(bus, "bcmp", Self::asm_bcmp())?,
            fill_pattern: store.install(bus, "fill_pattern", Self::asm_fill_pattern())?,
        })
    }

    /// `bcopy`: copy `r3` bytes from `r1` to `r2`.
    ///
    /// Word-wide fast path: byte-copies until `dst` is 8-aligned, then moves
    /// 64-byte blocks (eight unrolled `ld64`/`st64` pairs), then 8-byte
    /// words, then a byte tail. Destination alignment keeps every wide store
    /// inside one page, and stores run in ascending address order — so a
    /// copy that runs into a protected or out-of-bounds page faults on
    /// exactly the same byte, with exactly the same earlier bytes already
    /// written, as the bytewise loop would.
    fn asm_bcopy() -> Assembler {
        let (src, dst, len) = (Reg(1), Reg(2), Reg(3));
        let (data, rem, c8, c64, seven, t) =
            (Reg(11), Reg(12), Reg(13), Reg(14), Reg(10), Reg(15));
        let mut a = Assembler::new();
        // Initialization prologue (the "initialization" fault deletes these).
        a.mov(rem, len);
        a.li(c8, 8);
        a.li(c64, 64);
        a.li(seven, 7);
        // Head: byte copy until the destination is 8-aligned.
        a.bind_name("align");
        a.bltu(rem, c8, "tail");
        a.and(t, dst, seven);
        a.beq(t, Reg::ZERO, "bulk");
        a.ld8(data, src, 0);
        a.st8(dst, 0, data);
        a.addi(src, src, 1);
        a.addi(dst, dst, 1);
        a.addi(rem, rem, -1);
        a.jmp("align");
        // Bulk: 64 bytes per iteration, ascending 8-byte stores.
        a.bind_name("bulk");
        a.bltu(rem, c64, "wide");
        for off in (0..64).step_by(8) {
            a.ld64(data, src, off);
            a.st64(dst, off, data);
        }
        a.addi(src, src, 64);
        a.addi(dst, dst, 64);
        a.addi(rem, rem, -64);
        a.jmp("bulk");
        // Word loop for the 8..64-byte remainder.
        a.bind_name("wide");
        a.bltu(rem, c8, "tail");
        a.ld64(data, src, 0);
        a.st64(dst, 0, data);
        a.addi(src, src, 8);
        a.addi(dst, dst, 8);
        a.addi(rem, rem, -8);
        a.jmp("wide");
        a.bind_name("tail");
        a.beq(rem, Reg::ZERO, "done");
        a.ld8(data, src, 0);
        a.st8(dst, 0, data);
        a.addi(src, src, 1);
        a.addi(dst, dst, 1);
        a.addi(rem, rem, -1);
        a.jmp("tail");
        a.bind_name("done");
        a.halt();
        a
    }

    /// `bzero`: zero `r2` bytes at `r1`. Same structure as `bcopy`: aligned
    /// head, 64-byte unrolled bulk, word loop, byte tail — same
    /// fault-on-the-same-byte guarantee.
    fn asm_bzero() -> Assembler {
        let (dst, len) = (Reg(1), Reg(2));
        let (c8, c64, seven, t) = (Reg(13), Reg(14), Reg(10), Reg(15));
        let mut a = Assembler::new();
        a.li(c8, 8);
        a.li(c64, 64);
        a.li(seven, 7);
        a.bind_name("align");
        a.bltu(len, c8, "tail");
        a.and(t, dst, seven);
        a.beq(t, Reg::ZERO, "bulk");
        a.st8(dst, 0, Reg::ZERO);
        a.addi(dst, dst, 1);
        a.addi(len, len, -1);
        a.jmp("align");
        a.bind_name("bulk");
        a.bltu(len, c64, "wide");
        for off in (0..64).step_by(8) {
            a.st64(dst, off, Reg::ZERO);
        }
        a.addi(dst, dst, 64);
        a.addi(len, len, -64);
        a.jmp("bulk");
        a.bind_name("wide");
        a.bltu(len, c8, "tail");
        a.st64(dst, 0, Reg::ZERO);
        a.addi(dst, dst, 8);
        a.addi(len, len, -8);
        a.jmp("wide");
        a.bind_name("tail");
        a.beq(len, Reg::ZERO, "done");
        a.st8(dst, 0, Reg::ZERO);
        a.addi(dst, dst, 1);
        a.addi(len, len, -1);
        a.jmp("tail");
        a.bind_name("done");
        a.halt();
        a
    }

    /// `bcmp`: compare `r3` bytes at `r1` and `r2`; `r10 = 0` iff equal.
    /// Word-wide: compares 8 bytes per iteration (loads never need
    /// alignment — only equality matters), byte loop for the tail.
    fn asm_bcmp() -> Assembler {
        let (pa, pb, len, res) = (Reg(1), Reg(2), Reg(3), Reg(10));
        let (da, db, c8) = (Reg(11), Reg(12), Reg(13));
        let mut a = Assembler::new();
        a.li(res, 0);
        a.li(c8, 8);
        a.bind_name("wide");
        a.bltu(len, c8, "tail");
        a.ld64(da, pa, 0);
        a.ld64(db, pb, 0);
        a.bne(da, db, "diff");
        a.addi(pa, pa, 8);
        a.addi(pb, pb, 8);
        a.addi(len, len, -8);
        a.jmp("wide");
        a.bind_name("tail");
        a.beq(len, Reg::ZERO, "done");
        a.ld8(da, pa, 0);
        a.ld8(db, pb, 0);
        a.bne(da, db, "diff");
        a.addi(pa, pa, 1);
        a.addi(pb, pb, 1);
        a.addi(len, len, -1);
        a.jmp("tail");
        a.bind_name("diff");
        a.li(res, 1);
        a.bind_name("done");
        a.halt();
        a
    }

    /// `fill_pattern`: xorshift64-derived byte stream from seed `r3`.
    fn asm_fill_pattern() -> Assembler {
        let (dst, len, state) = (Reg(1), Reg(2), Reg(3));
        let tmp = Reg(11);
        let mut a = Assembler::new();
        a.bind_name("loop");
        a.beq(len, Reg::ZERO, "done");
        // xorshift64: s ^= s<<13; s ^= s>>7; s ^= s<<17
        a.shli(tmp, state, 13);
        a.xor(state, state, tmp);
        a.shri(tmp, state, 7);
        a.xor(state, state, tmp);
        a.shli(tmp, state, 17);
        a.xor(state, state, tmp);
        a.st8(dst, 0, state);
        a.addi(dst, dst, 1);
        a.addi(len, len, -1);
        a.jmp("loop");
        a.bind_name("done");
        a.halt();
        a
    }
}

/// Runs `bcopy` with the given physical/KSEG-tagged addresses.
///
/// Convenience wrapper used by the kernel; returns the raw [`RunResult`] so
/// callers can charge CPU time and convert panics into kernel crashes.
#[allow(clippy::too_many_arguments)] // mirrors the routine's register ABI
pub fn run_bcopy(
    cpu: &mut Cpu,
    bus: &mut MemBus,
    store: &RoutineStore,
    routines: &KernelRoutines,
    src: u64,
    dst: u64,
    len: u64,
    step_limit: u64,
) -> RunResult {
    cpu.set_reg(Reg(1), src);
    cpu.set_reg(Reg(2), dst);
    cpu.set_reg(Reg(3), len);
    cpu.run(bus, store, routines.bcopy, step_limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_mem::{AddrKind, MemConfig};

    fn machine() -> (MemBus, RoutineStore, KernelRoutines, Cpu) {
        let mut bus = MemBus::new(MemConfig::small());
        let mut store = RoutineStore::new(bus.layout().text);
        let routines = KernelRoutines::install_all(&mut bus, &mut store).unwrap();
        (bus, store, routines, Cpu::new())
    }

    #[test]
    fn bcopy_copies_exactly() {
        let (mut bus, store, r, mut cpu) = machine();
        let src = bus.layout().heap.start;
        let dst = bus.layout().ubc.start;
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        bus.store_bytes(AddrKind::Virtual, src, &data).unwrap();
        let res = run_bcopy(&mut cpu, &mut bus, &store, &r, src, dst, 1000, 100_000);
        assert!(res.is_done());
        assert_eq!(bus.mem().slice(dst, 1000), &data[..]);
        // Byte after the copy untouched.
        assert_eq!(bus.mem().read_u8(dst + 1000), 0);
    }

    #[test]
    fn bcopy_exact_for_all_alignments_and_lengths() {
        let (mut bus, store, r, mut cpu) = machine();
        let src0 = bus.layout().heap.start + 4096;
        let dst0 = bus.layout().ubc.start + 4096;
        let pattern: Vec<u8> = (0..700u32).map(|i| (i * 13 % 251) as u8 + 1).collect();
        for s in 0..8u64 {
            for d in 0..8u64 {
                for len in [0u64, 1, 7, 8, 9, 63, 64, 65, 100, 511, 512] {
                    bus.mem_mut().fill(dst0 - 16, 700 + 32, 0);
                    bus.mem_mut()
                        .write_bytes(src0 + s, &pattern[..len as usize]);
                    let res = run_bcopy(
                        &mut cpu, &mut bus, &store, &r, src0 + s, dst0 + d, len, 100_000,
                    );
                    assert!(res.is_done(), "s={s} d={d} len={len}");
                    assert_eq!(
                        bus.mem().slice(dst0 + d, len),
                        &pattern[..len as usize],
                        "s={s} d={d} len={len}"
                    );
                    // Bytes on either side untouched.
                    assert_eq!(bus.mem().read_u8(dst0 + d + len), 0);
                    assert_eq!(bus.mem().read_u8(dst0 + d - 1), 0);
                }
            }
        }
    }

    #[test]
    fn wide_bcopy_traps_on_the_exact_boundary_byte() {
        // The §3.3 guarantee the word-wide path must preserve: a copy that
        // runs into a protected page writes every byte before the page,
        // faults at the page base, and leaves the protected page untouched —
        // byte-identical to what the bytewise loop would do.
        let (mut bus, store, r, mut cpu) = machine();
        bus.protection_mut()
            .set_mode(rio_mem::ProtectionMode::Hardware);
        bus.protection_mut().set_kseg_through_tlb(true);
        let second = rio_mem::PageNum::containing(bus.layout().ubc.start + 8192);
        bus.protection_mut().protect(second);
        let src = bus.layout().heap.start + 4096;
        bus.mem_mut().fill(src, 300, 0x77);
        for misalign in [0u64, 1, 3, 7] {
            let before = 131 + misalign; // bytes before the boundary
            let start = second.base() - before;
            bus.mem_mut().fill(start, before, 0);
            let res = run_bcopy(
                &mut cpu,
                &mut bus,
                &store,
                &r,
                src,
                crate::kseg_addr(start),
                300,
                100_000,
            );
            match res.outcome {
                crate::interp::Outcome::Panic(crate::interp::PanicCause::MemFault(
                    rio_mem::MemFault::ProtectionViolation { addr, page, .. },
                )) => {
                    assert_eq!(addr, second.base(), "fault on the boundary byte");
                    assert_eq!(page, second);
                }
                ref other => panic!("expected protection fault, got {other:?}"),
            }
            assert!(
                bus.mem().slice(start, before).iter().all(|&b| b == 0x77),
                "every byte before the boundary written (misalign {misalign})"
            );
            assert_eq!(bus.mem().read_u8(second.base()), 0, "protected page clean");
        }
    }

    #[test]
    fn bzero_exact_for_all_alignments_and_lengths() {
        let (mut bus, store, r, mut cpu) = machine();
        let dst0 = bus.layout().heap.start + 4096;
        for d in 0..8u64 {
            for len in [0u64, 1, 7, 8, 9, 63, 64, 65, 100, 511, 512] {
                bus.mem_mut().fill(dst0 - 16, 700 + 32, 0xFF);
                cpu.set_reg(Reg(1), dst0 + d);
                cpu.set_reg(Reg(2), len);
                let res = cpu.run(&mut bus, &store, r.bzero, 100_000);
                assert!(res.is_done(), "d={d} len={len}");
                assert!(
                    bus.mem().slice(dst0 + d, len).iter().all(|&b| b == 0),
                    "d={d} len={len}"
                );
                assert_eq!(bus.mem().read_u8(dst0 + d + len), 0xFF);
                assert_eq!(bus.mem().read_u8(dst0 + d - 1), 0xFF);
            }
        }
    }

    #[test]
    fn wide_bcmp_catches_single_byte_differences_everywhere() {
        let (mut bus, store, r, mut cpu) = machine();
        let a = bus.layout().heap.start + 4096;
        let b = a + 8192;
        for len in [1u64, 7, 8, 9, 64, 100] {
            for diff_at in 0..len {
                bus.mem_mut().fill(a, len, 0x5C);
                bus.mem_mut().fill(b, len, 0x5C);
                bus.mem_mut().write_u8(b + diff_at, 0x5D);
                cpu.set_reg(Reg(1), a);
                cpu.set_reg(Reg(2), b);
                cpu.set_reg(Reg(3), len);
                assert!(cpu.run(&mut bus, &store, r.bcmp, 100_000).is_done());
                assert_eq!(cpu.reg(Reg(10)), 1, "len={len} diff_at={diff_at}");
            }
            bus.mem_mut().fill(b, len, 0x5C);
            cpu.set_reg(Reg(1), a);
            cpu.set_reg(Reg(2), b);
            cpu.set_reg(Reg(3), len);
            assert!(cpu.run(&mut bus, &store, r.bcmp, 100_000).is_done());
            assert_eq!(cpu.reg(Reg(10)), 0, "len={len} equal");
        }
    }

    #[test]
    fn bcopy_zero_length_is_a_noop() {
        let (mut bus, store, r, mut cpu) = machine();
        let dst = bus.layout().ubc.start;
        let res = run_bcopy(&mut cpu, &mut bus, &store, &r, 0, dst, 0, 1000);
        assert!(res.is_done());
        assert_eq!(bus.mem().read_u8(dst), 0);
    }

    #[test]
    fn bzero_clears() {
        let (mut bus, store, r, mut cpu) = machine();
        let dst = bus.layout().heap.start + 100;
        bus.mem_mut().fill(dst, 50, 0xFF);
        cpu.set_reg(Reg(1), dst);
        cpu.set_reg(Reg(2), 37);
        let res = cpu.run(&mut bus, &store, r.bzero, 10_000);
        assert!(res.is_done());
        assert!(bus.mem().slice(dst, 37).iter().all(|&b| b == 0));
        assert_eq!(bus.mem().read_u8(dst + 37), 0xFF);
    }

    #[test]
    fn bcmp_detects_equality_and_difference() {
        let (mut bus, store, r, mut cpu) = machine();
        let a = bus.layout().heap.start;
        let b = a + 4096;
        bus.mem_mut().write_bytes(a, b"identical bytes!");
        bus.mem_mut().write_bytes(b, b"identical bytes!");
        cpu.set_reg(Reg(1), a);
        cpu.set_reg(Reg(2), b);
        cpu.set_reg(Reg(3), 16);
        assert!(cpu.run(&mut bus, &store, r.bcmp, 10_000).is_done());
        assert_eq!(cpu.reg(Reg(10)), 0);
        bus.mem_mut().write_u8(b + 7, b'X');
        cpu.set_reg(Reg(1), a);
        cpu.set_reg(Reg(2), b);
        cpu.set_reg(Reg(3), 16);
        assert!(cpu.run(&mut bus, &store, r.bcmp, 10_000).is_done());
        assert_eq!(cpu.reg(Reg(10)), 1);
    }

    #[test]
    fn fill_pattern_is_deterministic_and_seed_sensitive() {
        let (mut bus, store, r, mut cpu) = machine();
        let d1 = bus.layout().heap.start;
        let d2 = d1 + 8192;
        for (dst, seed) in [(d1, 42u64), (d2, 42u64)] {
            cpu.set_reg(Reg(1), dst);
            cpu.set_reg(Reg(2), 256);
            cpu.set_reg(Reg(3), seed);
            assert!(cpu.run(&mut bus, &store, r.fill_pattern, 100_000).is_done());
        }
        assert_eq!(bus.mem().slice(d1, 256), bus.mem().slice(d2, 256));
        cpu.set_reg(Reg(1), d2);
        cpu.set_reg(Reg(2), 256);
        cpu.set_reg(Reg(3), 43);
        assert!(cpu.run(&mut bus, &store, r.fill_pattern, 100_000).is_done());
        assert_ne!(bus.mem().slice(d1, 256), bus.mem().slice(d2, 256));
    }

    #[test]
    fn routines_are_found_by_name() {
        let (mut bus, mut store) = {
            let bus = MemBus::new(MemConfig::small());
            let store = RoutineStore::new(bus.layout().text);
            (bus, store)
        };
        let r = KernelRoutines::install_all(&mut bus, &mut store).unwrap();
        assert_eq!(store.find("bcopy"), Some(r.bcopy));
        assert_eq!(store.find("missing"), None);
        assert_eq!(store.routines().count(), 4);
    }

    #[test]
    fn handles_do_not_overlap() {
        let (_, store, r, _) = machine();
        let hs = [r.bcopy, r.bzero, r.bcmp, r.fill_pattern];
        for (i, a) in hs.iter().enumerate() {
            for b in &hs[i + 1..] {
                assert!(
                    a.first_index + a.len <= b.first_index
                        || b.first_index + b.len <= a.first_index
                );
            }
        }
        assert_eq!(store.installed_instrs(), hs.iter().map(|h| h.len).sum::<u64>());
    }

    #[test]
    fn read_and_patch_instr_round_trip() {
        let (mut bus, store, r, _) = machine();
        let idx = r.bcopy.first_index;
        let orig = store.read_instr(bus.mem(), idx).unwrap();
        store.patch_instr(bus.mem_mut(), idx, Instr::nop());
        let now = store.read_instr(bus.mem(), idx).unwrap();
        assert_eq!(now, Instr::nop());
        assert_ne!(orig, now);
    }

    #[test]
    fn text_full_is_reported() {
        let bus = MemBus::new(MemConfig::small());
        let tiny = Region {
            start: bus.layout().text.start,
            end: bus.layout().text.start + 16, // two instructions
        };
        let mut bus = bus;
        let mut store = RoutineStore::new(tiny);
        let mut asm = Assembler::new();
        asm.nop();
        asm.nop();
        asm.halt();
        assert_eq!(
            store.install(&mut bus, "big", asm),
            Err(InstallError::TextFull)
        );
    }
}
