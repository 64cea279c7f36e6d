//! The instruction interpreter.
//!
//! Every fetch reads the encoded instruction bytes out of simulated kernel
//! text *at execution time*, so faults injected into text (bit flips,
//! rewritten operands, deleted branches) take effect exactly when the
//! corrupted instruction is next executed. Every load and store goes through
//! the [`MemBus`], so protection and illegal-address machine checks apply.
//!
//! Decoding is memoised per instruction index, and the memo is validated by
//! that same fetch: it is used only when the 8 bytes read from text at `pc`
//! on *this* step equal the word the memoised decoding came from, otherwise
//! the word is decoded and the entry replaced. `Instr::decode` is a pure
//! function of the word, so a hit and a decode cannot disagree and nothing
//! ever has to invalidate the memo — whoever changes text (the injector,
//! `patch_instr`, a wild store in the middle of a run) is seen at the next
//! fetch of that word, as before. The plain fetch→decode→execute loop this
//! replaced is kept, for tests only, in `interp/differential.rs` as the
//! reference the memoised loop is checked against.
//!
//! This loop is the only implementation of instruction semantics. The
//! kernel's three dispatched routines also have *summaries*
//! ([`crate::routines`]): closed forms of what this loop computes from their
//! assembly, taken only when the routine's text reads as installed and the
//! call's spans, protection state and step limit leave the loop nothing to
//! decide. A summary dispatches no opcode; whenever one of its preconditions
//! fails the call comes here untouched, and a differential property holds
//! the two equal.

use crate::isa::{decompose_addr, Instr, Opcode, Reg, INSTR_BYTES, NUM_REGS};
use crate::routines::{RoutineHandle, RoutineStore};
use rio_mem::{AddrKind, MemBus, MemFault};

/// Why a routine stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Reached `Halt` normally.
    Done,
    /// The machine panicked (the kernel turns this into a system crash).
    Panic(PanicCause),
    /// The step budget ran out — a runaway loop; the kernel's watchdog
    /// treats this as a hang.
    StepLimit,
}

/// The machine-level cause of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicCause {
    /// Fetched bytes did not decode (illegal opcode / register).
    IllegalInstruction {
        /// Absolute instruction index of the bad fetch.
        index: u64,
        /// Human-readable decode failure.
        reason: String,
    },
    /// The program counter left the kernel text region.
    IllegalPc(i64),
    /// A load or store faulted (illegal address or protection violation).
    MemFault(MemFault),
    /// A `Chk` consistency check failed with this code.
    ConsistencyCheck(i32),
}

impl std::fmt::Display for PanicCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PanicCause::IllegalInstruction { index, reason } => {
                write!(f, "illegal instruction at #{index}: {reason}")
            }
            PanicCause::IllegalPc(pc) => write!(f, "pc {pc} outside kernel text"),
            PanicCause::MemFault(m) => write!(f, "{m}"),
            PanicCause::ConsistencyCheck(c) => write!(f, "kernel consistency check {c} failed"),
        }
    }
}

/// Result of running a routine: what happened and how much work it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Terminal condition.
    pub outcome: Outcome,
    /// Instructions executed (feeds the CPU-time cost model).
    pub steps: u64,
}

impl RunResult {
    /// Whether the routine completed normally.
    pub fn is_done(&self) -> bool {
        self.outcome == Outcome::Done
    }
}

/// Architectural register file plus execution engine.
///
/// Besides the registers the CPU carries a **decode memo** — for each
/// absolute instruction index, the last raw word that decoded there and what
/// it decoded to — and two work counters. A clone (a forked kernel) inherits
/// all three.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// `regs[0]` is never written, so it reads as the hardwired zero.
    regs: [u64; NUM_REGS],
    /// `(raw word, its decoding)` by absolute instruction index, grown on
    /// the first decode at an index. Only successful decodes are stored, and
    /// an entry is used only when the word fetched *now* equals its raw
    /// word; the all-zero filler is itself a true entry (word 0 is `Nop`).
    decoded: Vec<(u64, Instr)>,
    steps: u64,
    decode_misses: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// A CPU with all registers zero.
    pub fn new() -> Self {
        Cpu {
            regs: [0; NUM_REGS],
            decoded: Vec::new(),
            steps: 0,
            decode_misses: 0,
        }
    }

    /// Reads a register (`r0` always reads 0).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.0 as usize]
    }

    /// Writes a register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    /// Instructions executed so far: by every [`Cpu::run`], and by every
    /// routine call that ran as its summary.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Counts `steps` instructions as executed: a routine summary
    /// (`routines.rs`) accounting for the steps [`Cpu::run`] would have
    /// taken.
    pub(crate) fn count_steps(&mut self, steps: u64) {
        self.steps += steps;
    }

    /// Fetches that had to run the decoder: the word at that index was new,
    /// or differed from the memoised one (text was patched or corrupted).
    pub fn decode_misses(&self) -> u64 {
        self.decode_misses
    }

    /// Register read for a decoded operand. Decode admits only indices
    /// below [`NUM_REGS`], so the mask changes nothing — it lets the
    /// compiler drop the bounds check.
    #[inline(always)]
    fn get(&self, r: Reg) -> u64 {
        self.regs[r.0 as usize % NUM_REGS]
    }

    /// Register write for a decoded operand (see [`Cpu::get`]).
    #[inline(always)]
    fn set(&mut self, r: Reg, v: u64) {
        if r.0 != 0 {
            self.regs[r.0 as usize % NUM_REGS] = v;
        }
    }

    /// Executes `routine` until halt, panic, or `step_limit` instructions.
    ///
    /// The program counter is an absolute instruction index into kernel
    /// text; a wild branch may land in *another* routine's code and keep
    /// executing — the same variety of failure a real kernel exhibits —
    /// until it leaves text entirely ([`PanicCause::IllegalPc`]).
    pub fn run(
        &mut self,
        bus: &mut MemBus,
        store: &RoutineStore,
        routine: RoutineHandle,
        step_limit: u64,
    ) -> RunResult {
        let text_base = store.text_base();
        let installed = store.installed_instrs();
        let mut pc = routine.first_index as i64;
        let mut steps = 0u64;
        let outcome = loop {
            if steps >= step_limit {
                break Outcome::StepLimit;
            }
            if pc < 0 || pc as u64 >= installed {
                break Outcome::Panic(PanicCause::IllegalPc(pc));
            }
            // Instruction fetch: reads DRAM directly (fetches cannot trap on
            // write protection, and text is always mapped).
            let raw = bus.mem().read_u64(text_base + pc as u64 * INSTR_BYTES);
            let instr = match self.decoded.get(pc as usize) {
                Some(&(word, instr)) if word == raw => instr,
                _ => match self.decode_miss(pc as u64, raw) {
                    Ok(instr) => instr,
                    Err(cause) => break Outcome::Panic(cause),
                },
            };
            steps += 1;
            match self.step(bus, instr, &mut pc) {
                Ok(true) => {}
                Ok(false) => break Outcome::Done,
                Err(cause) => break Outcome::Panic(*cause),
            }
        };
        self.steps += steps;
        RunResult { outcome, steps }
    }

    /// Decodes a word the memo does not hold at `index` and memoises it if
    /// it decodes.
    #[cold]
    fn decode_miss(&mut self, index: u64, raw: u64) -> Result<Instr, PanicCause> {
        self.decode_misses += 1;
        let instr =
            Instr::decode(raw.to_le_bytes()).map_err(|e| PanicCause::IllegalInstruction {
                index,
                reason: e.to_string(),
            })?;
        let index = index as usize;
        if index >= self.decoded.len() {
            self.decoded.resize(index + 1, (0, Instr::nop()));
        }
        self.decoded[index] = (raw, instr);
        Ok(instr)
    }

    /// Executes one decoded instruction; `Ok(false)` is `Halt`.
    #[inline]
    fn step(&mut self, bus: &mut MemBus, i: Instr, pc: &mut i64) -> Result<bool, Box<PanicCause>> {
        let imm64 = i.imm as i64 as u64;
        let mut next = *pc + 1;
        match i.op {
            Opcode::Nop => {}
            Opcode::Li => self.set(i.rd, imm64),
            Opcode::Lih => self.set(i.rd, (self.get(i.rd) << 32) | (i.imm as u32 as u64)),
            Opcode::Mov => self.set(i.rd, self.get(i.rs1)),
            Opcode::Add => self.set(i.rd, self.get(i.rs1).wrapping_add(self.get(i.rs2))),
            Opcode::Addi => self.set(i.rd, self.get(i.rs1).wrapping_add(imm64)),
            Opcode::Sub => self.set(i.rd, self.get(i.rs1).wrapping_sub(self.get(i.rs2))),
            Opcode::And => self.set(i.rd, self.get(i.rs1) & self.get(i.rs2)),
            Opcode::Or => self.set(i.rd, self.get(i.rs1) | self.get(i.rs2)),
            Opcode::Xor => self.set(i.rd, self.get(i.rs1) ^ self.get(i.rs2)),
            Opcode::Shli => self.set(i.rd, self.get(i.rs1) << (i.imm as u32 & 63)),
            Opcode::Shri => self.set(i.rd, self.get(i.rs1) >> (i.imm as u32 & 63)),
            Opcode::Mul => self.set(i.rd, self.get(i.rs1).wrapping_mul(self.get(i.rs2))),
            Opcode::Ld8 => {
                let (_, phys) = self.effective(i);
                let v = bus.load_u8(phys).map_err(mem_fault)?;
                self.set(i.rd, v as u64);
            }
            Opcode::Ld64 => {
                let (_, phys) = self.effective(i);
                let v = bus.load_u64(phys).map_err(mem_fault)?;
                self.set(i.rd, v);
            }
            Opcode::St8 => {
                let (kind, phys) = self.effective(i);
                bus.store_u8(kind, phys, self.get(i.rs2) as u8)
                    .map_err(mem_fault)?;
            }
            Opcode::St64 => {
                let (kind, phys) = self.effective(i);
                bus.store_u64(kind, phys, self.get(i.rs2))
                    .map_err(mem_fault)?;
            }
            Opcode::Beq => {
                if self.get(i.rs1) == self.get(i.rs2) {
                    next = *pc + i.imm as i64;
                }
            }
            Opcode::Bne => {
                if self.get(i.rs1) != self.get(i.rs2) {
                    next = *pc + i.imm as i64;
                }
            }
            Opcode::Bltu => {
                if self.get(i.rs1) < self.get(i.rs2) {
                    next = *pc + i.imm as i64;
                }
            }
            Opcode::Bgeu => {
                if self.get(i.rs1) >= self.get(i.rs2) {
                    next = *pc + i.imm as i64;
                }
            }
            Opcode::Jmp => next = *pc + i.imm as i64,
            Opcode::Chk => {
                if self.get(i.rs1) != self.get(i.rs2) {
                    return Err(Box::new(PanicCause::ConsistencyCheck(i.imm)));
                }
            }
            Opcode::Halt => return Ok(false),
        }
        *pc = next;
        Ok(true)
    }

    /// The access route and physical address of a load/store: `rs1 + imm`.
    #[inline(always)]
    fn effective(&self, i: Instr) -> (AddrKind, u64) {
        decompose_addr(self.get(i.rs1).wrapping_add(i.imm as i64 as u64))
    }
}

/// A faulting load or store ends the run; out of line like every panic.
#[cold]
fn mem_fault(f: MemFault) -> Box<PanicCause> {
    Box::new(PanicCause::MemFault(f))
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use rio_mem::MemConfig;

    fn setup() -> (MemBus, RoutineStore) {
        let bus = MemBus::new(MemConfig::small());
        let store = RoutineStore::new(bus.layout().text);
        (bus, store)
    }

    fn run_asm(asm: Assembler, setup_regs: &[(u8, u64)]) -> (Cpu, MemBus, RunResult) {
        let (mut bus, mut store) = setup();
        let h = store.install(&mut bus, "test", asm).unwrap();
        let mut cpu = Cpu::new();
        for &(r, v) in setup_regs {
            cpu.set_reg(Reg(r), v);
        }
        let res = cpu.run(&mut bus, &store, h, 100_000);
        (cpu, bus, res)
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut asm = Assembler::new();
        asm.li(Reg(1), 6);
        asm.li(Reg(2), 7);
        asm.mul(Reg(10), Reg(1), Reg(2));
        asm.halt();
        let (cpu, _, res) = run_asm(asm, &[]);
        assert!(res.is_done());
        assert_eq!(res.steps, 4);
        assert_eq!(cpu.reg(Reg(10)), 42);
    }

    #[test]
    fn zero_register_is_hardwired() {
        let mut asm = Assembler::new();
        asm.li(Reg(0), 99);
        asm.mov(Reg(10), Reg(0));
        asm.halt();
        let (cpu, _, res) = run_asm(asm, &[]);
        assert!(res.is_done());
        assert_eq!(cpu.reg(Reg(10)), 0);
    }

    #[test]
    fn li64_and_shifts() {
        let mut asm = Assembler::new();
        asm.li64(Reg(1), 0xDEAD_BEEF_0000_1234);
        asm.shri(Reg(10), Reg(1), 32);
        asm.halt();
        let (cpu, _, res) = run_asm(asm, &[]);
        assert!(res.is_done());
        assert_eq!(cpu.reg(Reg(1)), 0xDEAD_BEEF_0000_1234);
        assert_eq!(cpu.reg(Reg(10)), 0xDEAD_BEEF);
    }

    #[test]
    fn loop_counts_down() {
        let mut asm = Assembler::new();
        asm.bind_name("top");
        asm.beq(Reg(1), Reg(0), "done");
        asm.addi(Reg(1), Reg(1), -1);
        asm.addi(Reg(10), Reg(10), 1);
        asm.jmp("top");
        asm.bind_name("done");
        asm.halt();
        let (cpu, _, res) = run_asm(asm, &[(1, 10)]);
        assert!(res.is_done());
        assert_eq!(cpu.reg(Reg(10)), 10);
    }

    #[test]
    fn store_and_load_round_trip_through_bus() {
        let mut asm = Assembler::new();
        asm.st64(Reg(1), 0, Reg(2));
        asm.ld64(Reg(10), Reg(1), 0);
        asm.halt();
        let (mut bus, mut store) = setup();
        let h = store.install(&mut bus, "t", asm).unwrap();
        let mut cpu = Cpu::new();
        let addr = bus.layout().heap.start + 64;
        cpu.set_reg(Reg(1), addr);
        cpu.set_reg(Reg(2), 0xABCD);
        let res = cpu.run(&mut bus, &store, h, 100);
        assert!(res.is_done());
        assert_eq!(cpu.reg(Reg(10)), 0xABCD);
        assert_eq!(bus.mem().read_u64(addr), 0xABCD);
    }

    #[test]
    fn wild_store_is_an_illegal_address_panic() {
        let mut asm = Assembler::new();
        asm.st8(Reg(1), 0, Reg(2));
        asm.halt();
        // Uninitialized-pointer-style wild address, far outside memory.
        let (_, _, res) = run_asm(asm, &[(1, 0x7777_7777_0000)]);
        match res.outcome {
            Outcome::Panic(PanicCause::MemFault(MemFault::BadAddress { .. })) => {}
            other => panic!("expected BadAddress panic, got {other:?}"),
        }
    }

    #[test]
    fn protected_store_is_a_protection_panic() {
        let mut asm = Assembler::new();
        asm.st8(Reg(1), 0, Reg(2));
        asm.halt();
        let (mut bus, mut store) = setup();
        let h = store.install(&mut bus, "t", asm).unwrap();
        let target = bus.layout().ubc.start;
        bus.protection_mut().set_mode(rio_mem::RioMode::Protected);
        bus.protection_mut()
            .protect(rio_mem::PageNum::containing(target));
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg(1), crate::isa::kseg_addr(target));
        let res = cpu.run(&mut bus, &store, h, 100);
        match res.outcome {
            Outcome::Panic(PanicCause::MemFault(MemFault::ProtectionViolation {
                kseg: true,
                ..
            })) => {}
            other => panic!("expected protection panic, got {other:?}"),
        }
    }

    #[test]
    fn chk_failure_panics_with_code() {
        let mut asm = Assembler::new();
        asm.li(Reg(1), 1);
        asm.chk(Reg(1), Reg(0), 77);
        asm.halt();
        let (_, _, res) = run_asm(asm, &[]);
        assert_eq!(
            res.outcome,
            Outcome::Panic(PanicCause::ConsistencyCheck(77))
        );
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let mut asm = Assembler::new();
        asm.bind_name("x");
        asm.jmp("x");
        let (mut bus, mut store) = setup();
        let h = store.install(&mut bus, "spin", asm).unwrap();
        let mut cpu = Cpu::new();
        let res = cpu.run(&mut bus, &store, h, 50);
        assert_eq!(res.outcome, Outcome::StepLimit);
        assert_eq!(res.steps, 50);
    }

    #[test]
    fn branch_off_text_is_illegal_pc() {
        let mut asm = Assembler::new();
        asm.bind_name("self");
        asm.beq(Reg(0), Reg(0), "self"); // placeholder, will patch below
        asm.halt();
        let (mut bus, mut store) = setup();
        let h = store.install(&mut bus, "wild", asm).unwrap();
        // Patch instruction 0 into `jmp -5` (before the start of text).
        let bad = Instr {
            op: Opcode::Jmp,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: -5,
        };
        store.patch_instr(bus.mem_mut(), h.first_index, bad);
        let mut cpu = Cpu::new();
        let res = cpu.run(&mut bus, &store, h, 100);
        assert!(matches!(
            res.outcome,
            Outcome::Panic(PanicCause::IllegalPc(_))
        ));
    }

    #[test]
    fn corrupted_text_decodes_to_illegal_instruction() {
        let mut asm = Assembler::new();
        asm.nop();
        asm.halt();
        let (mut bus, mut store) = setup();
        let h = store.install(&mut bus, "t", asm).unwrap();
        // Corrupt the first instruction's opcode byte to an invalid value.
        let addr = store.text_base() + h.first_index * INSTR_BYTES;
        bus.mem_mut().write_u8(addr, 0xFE);
        let mut cpu = Cpu::new();
        let res = cpu.run(&mut bus, &store, h, 100);
        assert!(matches!(
            res.outcome,
            Outcome::Panic(PanicCause::IllegalInstruction { index: 0, .. })
        ));
    }

    #[test]
    fn panic_cause_displays() {
        let c = PanicCause::ConsistencyCheck(3);
        assert!(c.to_string().contains("consistency check 3"));
        assert!(PanicCause::IllegalPc(-1).to_string().contains("-1"));
    }
}
