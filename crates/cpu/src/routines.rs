//! Kernel-text management and the standard data-path routines.
//!
//! [`RoutineStore`] owns the kernel text region: routines are assembled once
//! at "boot" and their encoded instructions written into simulated memory,
//! where they are exposed to text-targeting faults for the rest of the run.
//! [`KernelRoutines`] installs the four routines every kernel build uses:
//! `bcopy`, `bzero`, `bcmp`, and `fill_pattern`.
//!
//! # Assembly and summary
//!
//! The **assembly** (`asm_bcopy`, `asm_bzero`, `asm_bcmp`) is the definition
//! of each routine: it is what sits in simulated text, what faults corrupt,
//! and what [`Cpu::run`] interprets. Beside it each of the three routines
//! the kernel dispatches has a **summary** — the closed form of what the
//! interpreter computes from that assembly when nothing can go wrong: the
//! bytes, the step count, the final registers and the bus counters, worked
//! out from `(src, dst, len)` one loop at a time from the per-loop step
//! counts written next to the assembly, with no opcode dispatch.
//! [`KernelRoutines::bcopy`], [`KernelRoutines::bzero`] and
//! [`KernelRoutines::bcmp`] take the summary exactly when the call's own
//! inputs show that all of this holds, and call [`Cpu::run`] otherwise:
//!
//! * **(a)** the routine's bytes in simulated text read as installed
//!   ([`RoutineStore::reads_as_installed`]; pristine text also keeps control
//!   inside the routine);
//! * **(b)** every byte of the source and destination spans is in bounds;
//! * **(c)** no page of the destination span traps a store (write-protected
//!   while the mode enforces protection, by either route);
//! * **(d)** the destination span is disjoint from kernel text and from the
//!   source span, so no store changes what a later fetch or load reads;
//! * **(e)** the walk's step count is within the caller's step limit (for
//!   `bcmp`, whose walk ends at the first difference, the longest walk —
//!   equal spans — is what must fit, so that the loads can be charged by
//!   the same bus call that finds the difference).
//!
//! (b)–(d) are judged by the [`MemBus`] span entry points, which also move
//! the bytes and charge the counters. So the interpreter still decides every
//! run over corrupted text, every protection trap (the §3.3 copy-overrun
//! save included), every illegal address and every watchdog expiry, and
//! there is nothing to configure. `routines/differential.rs` holds summary
//! and interpreter equal — result, registers, counters, memory image — over
//! randomly drawn calls on both sides of every precondition.

use crate::asm::{AsmError, Assembler};
use crate::interp::{Cpu, Outcome, RunResult};
use crate::isa::{decompose_addr, DecodeError, Instr, Reg, INSTR_BYTES};
use rio_mem::{MemBus, PhysMem, Region, PAGE_SIZE};
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
    /// The bytes [`RoutineStore::install`] wrote, from the start of text —
    /// what text reads as until something corrupts or patches it. Written
    /// at boot only and shared, like `names`.
    encoding: Arc<Vec<u8>>,
}

impl RoutineStore {
    /// A store over the given text region with nothing installed.
    pub fn new(text: Region) -> Self {
        RoutineStore {
            text,
            installed: 0,
            names: Arc::default(),
            encoding: Arc::default(),
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
        let encoding = Arc::make_mut(&mut self.encoding);
        for instr in &code {
            encoding.extend_from_slice(&instr.encode());
        }
        bus.mem_mut()
            .write_bytes(self.text.start + offset, &encoding[offset as usize..]);
        self.installed += code.len() as u64;
        Arc::make_mut(&mut self.names).push((name.to_owned(), handle));
        Ok(handle)
    }

    /// Looks up an installed routine by name.
    pub fn find(&self, name: &str) -> Option<RoutineHandle> {
        self.names.iter().find(|(n, _)| n == name).map(|(_, h)| *h)
    }

    /// Installed routines in installation order.
    pub fn routines(&self) -> impl Iterator<Item = (&str, RoutineHandle)> {
        self.names.iter().map(|(n, h)| (n.as_str(), *h))
    }

    /// Whether every byte of `routine` in simulated text still equals what
    /// [`RoutineStore::install`] wrote there — no fault, patch or wild store
    /// has changed it (or one has, and put the same bytes back). A handle
    /// this store did not install reads as not installed.
    pub fn reads_as_installed(&self, mem: &PhysMem, routine: RoutineHandle) -> bool {
        if routine.first_index.saturating_add(routine.len) > self.installed {
            return false;
        }
        let start = routine.first_index * INSTR_BYTES;
        let mut installed =
            &self.encoding[start as usize..][..(routine.len * INSTR_BYTES) as usize];
        // A borrow of simulated memory cannot span two pages.
        let mut addr = self.text.start + start;
        while !installed.is_empty() {
            let n = (PAGE_SIZE - addr as usize % PAGE_SIZE).min(installed.len());
            let (piece, rest) = installed.split_at(n);
            if mem.slice(addr, n as u64) != piece {
                return false;
            }
            addr += n as u64;
            installed = rest;
        }
        true
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
    ///
    /// Steps per loop ([`BCOPY_STEPS`]): prologue 4; `align` 9 per byte
    /// moved (3 to test, 6 to move), leaving in 1 (`bltu` to `tail`) or 3
    /// (`beq` to `bulk`); `bulk` 21 per 64 bytes; `wide` 7 per word; `tail`
    /// 7 per byte; each of those three 1 to leave; `halt` 1.
    fn asm_bcopy() -> Assembler {
        let (src, dst, len) = (Reg(1), Reg(2), Reg(3));
        let (data, rem, c8, c64, seven, t) = (Reg(11), Reg(12), Reg(13), Reg(14), Reg(10), Reg(15));
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
    ///
    /// Steps per loop ([`BZERO_STEPS`]): prologue 3; `align` 7 per byte (3
    /// to test, 4 to store), leaving in 1 or 3 as in `bcopy`; `bulk` 12 per
    /// 64 bytes; `wide` 5 per word; `tail` 5 per byte; each of those three
    /// 1 to leave; `halt` 1.
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
    ///
    /// Steps per loop (the `BCMP_*` constants): prologue 2; `wide` and `tail` each 8
    /// per equal pair (1 to test, 3 to load and compare, 4 to advance), 1 to
    /// leave, and 4 for the pair that differs (test, two loads, taken
    /// `bne`); `diff` 1; `halt` 1.
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

/// Steps the interpreter spends per iteration of each loop of `bcopy` or
/// `bzero`, as counted on its assembly.
struct LoopSteps {
    prologue: u64,
    /// `align`, per byte.
    head: u64,
    /// `bulk`, per 64 bytes.
    bulk: u64,
    /// `wide`, per 8 bytes.
    wide: u64,
    /// `tail`, per byte.
    tail: u64,
}

/// See `asm_bcopy`.
const BCOPY_STEPS: LoopSteps = LoopSteps {
    prologue: 4,
    head: 9,
    bulk: 21,
    wide: 7,
    tail: 7,
};
/// See `asm_bzero`.
const BZERO_STEPS: LoopSteps = LoopSteps {
    prologue: 3,
    head: 7,
    bulk: 12,
    wide: 5,
    tail: 5,
};

/// `bcmp`'s steps, see `asm_bcmp`: its prologue; one iteration of `wide` or
/// `tail` over a pair that is equal; over the pair that differs (test, two
/// loads, taken `bne`); `diff` and `halt` after that.
const BCMP_PROLOGUE: u64 = 2;
const BCMP_EQUAL_PAIR: u64 = 8;
const BCMP_DIFFERING_PAIR: u64 = 4;
const BCMP_DIFF_AND_HALT: u64 = 2;

/// What walking `align` → `bulk` → `wide` → `tail` → `halt` over `len`
/// bytes at `dst` costs and leaves behind (`bcopy` and `bzero` share the
/// shape and differ in [`LoopSteps`]).
struct Walk {
    steps: u64,
    /// Iterations' worth of bus accesses: one per byte moved in `align` and
    /// `tail`, one per word in `wide`, eight per `bulk` iteration.
    accesses: u64,
    /// `dst & 7` as the last `and` that ran computed it (`r15`); `None` if
    /// `len < 8`, when `bltu` leaves `align` before the first one.
    and: Option<u64>,
    /// Width in bytes of the last access, 0 if there was none.
    last_width: u64,
}

impl Walk {
    /// `len` must not exceed the size of memory (which also keeps the
    /// arithmetic from overflowing).
    fn of(k: &LoopSteps, dst: u64, len: u64) -> Walk {
        let (mut dst, mut rem) = (dst, len);
        let mut w = Walk {
            steps: k.prologue,
            accesses: 0,
            and: None,
            last_width: 0,
        };
        // `align`: a byte at a time until `dst` is 8-aligned, ≤ 7 times.
        while rem >= 8 && dst & 7 != 0 {
            w.and = Some(dst & 7);
            w.steps += k.head;
            w.accesses += 1;
            w.last_width = 1;
            dst = dst.wrapping_add(1);
            rem -= 1;
        }
        if rem >= 8 {
            // `bltu` falls through, `and` gives 0, `beq` leaves for `bulk`.
            w.and = Some(0);
            w.steps += 3;
            w.steps += rem / 64 * k.bulk + 1;
            w.accesses += rem / 64 * 8;
            rem %= 64;
            w.steps += rem / 8 * k.wide + 1;
            w.accesses += rem / 8;
            rem %= 8;
            w.last_width = 8;
        } else {
            w.steps += 1; // `bltu` leaves for `tail`
        }
        w.steps += rem * k.tail + 1;
        w.accesses += rem;
        if rem > 0 {
            w.last_width = 1;
        }
        w.steps += 1; // `halt`
        w
    }

    /// The scratch registers both routines leave the same way: the three
    /// constants of the prologue and the last `and`, if one ran.
    fn leave_scratch(&self, cpu: &mut Cpu) {
        cpu.set_reg(Reg(10), 7);
        cpu.set_reg(Reg(13), 8);
        cpu.set_reg(Reg(14), 64);
        if let Some(t) = self.and {
            cpu.set_reg(Reg(15), t);
        }
    }
}

/// A routine's summary: from the argument registers and (a) to the steps it
/// ran, or `None` — with nothing changed — if (b)–(e) do not all hold.
type Summary = fn(&mut Cpu, &mut MemBus, u64) -> Option<u64>;

/// The value a load of `width` (1 or 8) bytes at `addr` leaves in a register.
fn loaded(bus: &MemBus, addr: u64, width: u64) -> u64 {
    if width == 8 {
        bus.mem().read_u64(addr)
    } else {
        bus.mem().read_u8(addr) as u64
    }
}

/// `asm_bcopy` over `(r1, r2, r3)`.
fn bcopy_summary(cpu: &mut Cpu, bus: &mut MemBus, step_limit: u64) -> Option<u64> {
    let (src, dst, len) = (cpu.reg(Reg(1)), cpu.reg(Reg(2)), cpu.reg(Reg(3)));
    if len > bus.mem().len() {
        return None;
    }
    let walk = Walk::of(&BCOPY_STEPS, dst, len);
    let ((_, src_phys), (kind, dst_phys)) = (decompose_addr(src), decompose_addr(dst));
    if walk.steps > step_limit || !bus.copy_span(kind, src_phys, dst_phys, len, walk.accesses) {
        return None;
    }
    cpu.set_reg(Reg(1), src.wrapping_add(len));
    cpu.set_reg(Reg(2), dst.wrapping_add(len));
    if walk.last_width > 0 {
        // `data` holds the last load, which ended at the span's last byte.
        cpu.set_reg(
            Reg(11),
            loaded(bus, src_phys + len - walk.last_width, walk.last_width),
        );
    }
    cpu.set_reg(Reg(12), 0);
    walk.leave_scratch(cpu);
    Some(walk.steps)
}

/// `asm_bzero` over `(r1, r2)`.
fn bzero_summary(cpu: &mut Cpu, bus: &mut MemBus, step_limit: u64) -> Option<u64> {
    let (dst, len) = (cpu.reg(Reg(1)), cpu.reg(Reg(2)));
    if len > bus.mem().len() {
        return None;
    }
    let walk = Walk::of(&BZERO_STEPS, dst, len);
    let (kind, dst_phys) = decompose_addr(dst);
    if walk.steps > step_limit || !bus.fill_span(kind, dst_phys, len, 0, walk.accesses) {
        return None;
    }
    cpu.set_reg(Reg(1), dst.wrapping_add(len));
    cpu.set_reg(Reg(2), 0);
    walk.leave_scratch(cpu);
    Some(walk.steps)
}

/// `asm_bcmp` over `(r1, r2, r3)`, with (e) judged on the longest walk (see
/// the module docs).
fn bcmp_summary(cpu: &mut Cpu, bus: &mut MemBus, step_limit: u64) -> Option<u64> {
    let (a, b, len) = (cpu.reg(Reg(1)), cpu.reg(Reg(2)), cpu.reg(Reg(3)));
    if len > bus.mem().len() {
        return None;
    }
    // Equal spans: every pair, 1 step to leave each loop, `halt`.
    let equal_walk = |pairs: u64| BCMP_PROLOGUE + pairs * BCMP_EQUAL_PAIR + 1 + 1 + 1;
    if equal_walk(len / 8 + len % 8) > step_limit {
        return None;
    }
    let (a_phys, b_phys) = (decompose_addr(a).1, decompose_addr(b).1);
    let cmp = bus.compare_spans(a_phys, b_phys, len)?;
    let pairs = cmp.words + cmp.bytes;
    let (steps, advanced) = match (cmp.differ, cmp.bytes) {
        (false, _) => (equal_walk(pairs), len),
        // A difference found in `wide` leaves without taking either loop's
        // exit; one found in `tail` has taken `wide`'s.
        (true, tail_pairs) => (
            BCMP_PROLOGUE
                + (pairs - 1) * BCMP_EQUAL_PAIR
                + u64::from(tail_pairs > 0)
                + BCMP_DIFFERING_PAIR
                + BCMP_DIFF_AND_HALT,
            if tail_pairs > 0 {
                8 * cmp.words + cmp.bytes - 1
            } else {
                8 * (cmp.words - 1)
            },
        ),
    };
    cpu.set_reg(Reg(1), a.wrapping_add(advanced));
    cpu.set_reg(Reg(2), b.wrapping_add(advanced));
    cpu.set_reg(Reg(3), len - advanced);
    cpu.set_reg(Reg(10), cmp.differ as u64);
    // `da`, `db`: the last pair loaded, differing or not.
    let last = match (cmp.words, cmp.bytes) {
        (0, 0) => None,
        (words, 0) => Some((8 * (words - 1), 8)),
        (words, bytes) => Some((8 * words + bytes - 1, 1)),
    };
    if let Some((at, width)) = last {
        cpu.set_reg(Reg(11), loaded(bus, a_phys + at, width));
        cpu.set_reg(Reg(12), loaded(bus, b_phys + at, width));
    }
    cpu.set_reg(Reg(13), 8);
    Some(steps)
}

impl KernelRoutines {
    /// The run of `routine` over the registers as they stand, by `summary`,
    /// if (a)–(e) hold (module docs); `None`, with nothing changed, if not.
    fn summarise(
        cpu: &mut Cpu,
        bus: &mut MemBus,
        store: &RoutineStore,
        routine: RoutineHandle,
        summary: Summary,
        step_limit: u64,
    ) -> Option<RunResult> {
        if !store.reads_as_installed(bus.mem(), routine) {
            return None;
        }
        let steps = summary(cpu, bus, step_limit)?;
        cpu.count_steps(steps);
        Some(RunResult {
            outcome: Outcome::Done,
            steps,
        })
    }

    /// One dispatched call: the summary when it applies, [`Cpu::run`] —
    /// untouched — when it does not.
    fn call(
        cpu: &mut Cpu,
        bus: &mut MemBus,
        store: &RoutineStore,
        routine: RoutineHandle,
        summary: Summary,
        step_limit: u64,
    ) -> RunResult {
        Self::summarise(cpu, bus, store, routine, summary, step_limit)
            .unwrap_or_else(|| cpu.run(bus, store, routine, step_limit))
    }

    /// Runs `bcopy(src, dst, len)`; addresses may carry the KSEG tag.
    ///
    /// Returns the raw [`RunResult`] so callers can charge CPU time and
    /// convert panics into kernel crashes.
    #[allow(clippy::too_many_arguments)] // mirrors the routine's register ABI
    pub fn bcopy(
        &self,
        cpu: &mut Cpu,
        bus: &mut MemBus,
        store: &RoutineStore,
        src: u64,
        dst: u64,
        len: u64,
        step_limit: u64,
    ) -> RunResult {
        cpu.set_reg(Reg(1), src);
        cpu.set_reg(Reg(2), dst);
        cpu.set_reg(Reg(3), len);
        Self::call(cpu, bus, store, self.bcopy, bcopy_summary, step_limit)
    }

    /// Runs `bzero(dst, len)`; as [`KernelRoutines::bcopy`].
    pub fn bzero(
        &self,
        cpu: &mut Cpu,
        bus: &mut MemBus,
        store: &RoutineStore,
        dst: u64,
        len: u64,
        step_limit: u64,
    ) -> RunResult {
        cpu.set_reg(Reg(1), dst);
        cpu.set_reg(Reg(2), len);
        Self::call(cpu, bus, store, self.bzero, bzero_summary, step_limit)
    }

    /// Runs `bcmp(a, b, len)`, leaving 0 in `r10` iff the spans are equal;
    /// as [`KernelRoutines::bcopy`].
    #[allow(clippy::too_many_arguments)] // mirrors the routine's register ABI
    pub fn bcmp(
        &self,
        cpu: &mut Cpu,
        bus: &mut MemBus,
        store: &RoutineStore,
        a: u64,
        b: u64,
        len: u64,
        step_limit: u64,
    ) -> RunResult {
        cpu.set_reg(Reg(1), a);
        cpu.set_reg(Reg(2), b);
        cpu.set_reg(Reg(3), len);
        Self::call(cpu, bus, store, self.bcmp, bcmp_summary, step_limit)
    }
}

#[cfg(test)]
mod differential;

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

    /// Interprets `bcopy`: the tests below pin the assembly, which is what
    /// the summaries are held equal to (`routines/differential.rs`).
    #[allow(clippy::too_many_arguments)]
    fn run_bcopy(
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
                        &mut cpu,
                        &mut bus,
                        &store,
                        &r,
                        src0 + s,
                        dst0 + d,
                        len,
                        100_000,
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
        bus.protection_mut().set_mode(rio_mem::RioMode::Protected);
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
        assert_eq!(
            store.installed_instrs(),
            hs.iter().map(|h| h.len).sum::<u64>()
        );
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
