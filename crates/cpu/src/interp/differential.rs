//! The interpreter's reference oracle and the differential property that
//! holds [`Cpu::run`] to it.
//!
//! [`Cpu::run_reference`] is the loop `run` replaced, kept as it was: fetch
//! the 8 bytes at `pc`, decode them, execute, with no memo, the `r0` branch
//! on register reads and the by-value step result. The property drives both
//! loops over two identical machines — random programs, raw garbage words,
//! text corrupted between runs of a memoised routine, stores that rewrite
//! the running routine, wild branches past the memo's end, step limits on
//! either side of the run's natural length — and requires the same
//! [`RunResult`], registers, bus counters and memory image after every run.

use super::*;
use crate::asm::Assembler;
use rio_det::proptest_lite::{check, Config, Gen, PropResult};
use rio_det::{pt_assert, pt_assert_eq};
use rio_mem::{MemConfig, PageNum, Region, RioMode};

enum StepResult {
    Continue,
    Halt,
    Panic(PanicCause),
}

impl Cpu {
    fn ref_reg(&self, r: Reg) -> u64 {
        if r.0 == 0 {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    /// The plain fetch→decode→execute loop. Touches neither the memo nor the
    /// work counters.
    pub(super) fn run_reference(
        &mut self,
        bus: &mut MemBus,
        store: &RoutineStore,
        routine: RoutineHandle,
        step_limit: u64,
    ) -> RunResult {
        let mut pc = routine.first_index as i64;
        let mut steps = 0u64;
        loop {
            if steps >= step_limit {
                return RunResult {
                    outcome: Outcome::StepLimit,
                    steps,
                };
            }
            if pc < 0 || pc as u64 >= store.installed_instrs() {
                return RunResult {
                    outcome: Outcome::Panic(PanicCause::IllegalPc(pc)),
                    steps,
                };
            }
            let addr = store.text_base() + pc as u64 * INSTR_BYTES;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(bus.mem().slice(addr, INSTR_BYTES));
            let instr = match Instr::decode(raw) {
                Ok(i) => i,
                Err(e) => {
                    return RunResult {
                        outcome: Outcome::Panic(PanicCause::IllegalInstruction {
                            index: pc as u64,
                            reason: e.to_string(),
                        }),
                        steps,
                    }
                }
            };
            steps += 1;
            match self.step_reference(bus, instr, &mut pc) {
                StepResult::Continue => {}
                StepResult::Halt => {
                    return RunResult {
                        outcome: Outcome::Done,
                        steps,
                    }
                }
                StepResult::Panic(cause) => {
                    return RunResult {
                        outcome: Outcome::Panic(cause),
                        steps,
                    }
                }
            }
        }
    }

    fn step_reference(&mut self, bus: &mut MemBus, i: Instr, pc: &mut i64) -> StepResult {
        let imm64 = i.imm as i64 as u64;
        let mut next = *pc + 1;
        match i.op {
            Opcode::Nop => {}
            Opcode::Li => self.set_reg(i.rd, imm64),
            Opcode::Lih => {
                let v = (self.ref_reg(i.rd) << 32) | (i.imm as u32 as u64);
                self.set_reg(i.rd, v);
            }
            Opcode::Mov => self.set_reg(i.rd, self.ref_reg(i.rs1)),
            Opcode::Add => {
                self.set_reg(i.rd, self.ref_reg(i.rs1).wrapping_add(self.ref_reg(i.rs2)))
            }
            Opcode::Addi => self.set_reg(i.rd, self.ref_reg(i.rs1).wrapping_add(imm64)),
            Opcode::Sub => {
                self.set_reg(i.rd, self.ref_reg(i.rs1).wrapping_sub(self.ref_reg(i.rs2)))
            }
            Opcode::And => self.set_reg(i.rd, self.ref_reg(i.rs1) & self.ref_reg(i.rs2)),
            Opcode::Or => self.set_reg(i.rd, self.ref_reg(i.rs1) | self.ref_reg(i.rs2)),
            Opcode::Xor => self.set_reg(i.rd, self.ref_reg(i.rs1) ^ self.ref_reg(i.rs2)),
            Opcode::Shli => self.set_reg(i.rd, self.ref_reg(i.rs1) << (i.imm as u32 & 63)),
            Opcode::Shri => self.set_reg(i.rd, self.ref_reg(i.rs1) >> (i.imm as u32 & 63)),
            Opcode::Mul => {
                self.set_reg(i.rd, self.ref_reg(i.rs1).wrapping_mul(self.ref_reg(i.rs2)))
            }
            Opcode::Ld8 => {
                let (_, phys) = decompose_addr(self.ref_reg(i.rs1).wrapping_add(imm64));
                match bus.load_u8(phys) {
                    Ok(v) => self.set_reg(i.rd, v as u64),
                    Err(f) => return StepResult::Panic(PanicCause::MemFault(f)),
                }
            }
            Opcode::Ld64 => {
                let (_, phys) = decompose_addr(self.ref_reg(i.rs1).wrapping_add(imm64));
                match bus.load_u64(phys) {
                    Ok(v) => self.set_reg(i.rd, v),
                    Err(f) => return StepResult::Panic(PanicCause::MemFault(f)),
                }
            }
            Opcode::St8 => {
                let (kind, phys) = decompose_addr(self.ref_reg(i.rs1).wrapping_add(imm64));
                if let Err(f) = bus.store_u8(kind, phys, self.ref_reg(i.rs2) as u8) {
                    return StepResult::Panic(PanicCause::MemFault(f));
                }
            }
            Opcode::St64 => {
                let (kind, phys) = decompose_addr(self.ref_reg(i.rs1).wrapping_add(imm64));
                if let Err(f) = bus.store_u64(kind, phys, self.ref_reg(i.rs2)) {
                    return StepResult::Panic(PanicCause::MemFault(f));
                }
            }
            Opcode::Beq => {
                if self.ref_reg(i.rs1) == self.ref_reg(i.rs2) {
                    next = *pc + i.imm as i64;
                }
            }
            Opcode::Bne => {
                if self.ref_reg(i.rs1) != self.ref_reg(i.rs2) {
                    next = *pc + i.imm as i64;
                }
            }
            Opcode::Bltu => {
                if self.ref_reg(i.rs1) < self.ref_reg(i.rs2) {
                    next = *pc + i.imm as i64;
                }
            }
            Opcode::Bgeu => {
                if self.ref_reg(i.rs1) >= self.ref_reg(i.rs2) {
                    next = *pc + i.imm as i64;
                }
            }
            Opcode::Jmp => next = *pc + i.imm as i64,
            Opcode::Chk => {
                if self.ref_reg(i.rs1) != self.ref_reg(i.rs2) {
                    return StepResult::Panic(PanicCause::ConsistencyCheck(i.imm));
                }
            }
            Opcode::Halt => return StepResult::Halt,
        }
        *pc = next;
        StepResult::Continue
    }
}

/// Ten pages in all, so comparing whole memory images after every run is
/// cheap. Text is one page: 1024 instruction slots.
fn tiny() -> MemConfig {
    MemConfig {
        text_bytes: 8192,
        heap_bytes: 16384,
        stack_bytes: 8192,
        buffer_cache_bytes: 8192,
        ubc_bytes: 32768,
        registry_bytes: 8192,
    }
}

const RUN_CAP: u64 = 2048;

fn word(i: Instr) -> u64 {
    u64::from_le_bytes(i.encode())
}

fn instr(op: Opcode, rd: u8, rs1: u8, rs2: u8, imm: i32) -> Instr {
    Instr {
        op,
        rd: Reg(rd),
        rs1: Reg(rs1),
        rs2: Reg(rs2),
        imm,
    }
}

/// A register index, biased towards a handful so values flow between
/// instructions.
fn any_reg(g: &mut Gen) -> u8 {
    if g.bool() {
        g.in_range(0..6u8)
    } else {
        g.in_range(0..NUM_REGS as u8)
    }
}

/// A valid instruction over all 24 opcodes; branches stay within `span`
/// instructions either way.
fn any_instr(g: &mut Gen, span: u32) -> Instr {
    let op = Opcode::from_u8(g.in_range(0..24u8)).expect("dense opcode space");
    let imm = if op.is_branch() {
        g.in_range(0..=2 * span) as i32 - span as i32
    } else if op.is_mem() {
        g.in_range(0..33u32) as i32 - 16
    } else if g.bool() {
        g.in_range(0..64u32) as i32 - 8
    } else {
        g.u32() as i32
    };
    instr(op, any_reg(g), any_reg(g), any_reg(g), imm)
}

/// One text word: usually a valid instruction, sometimes raw garbage (an
/// illegal opcode, a register index of 32 or more).
fn any_word(g: &mut Gen, span: u32) -> u64 {
    if g.in_range(0..8u32) == 0 {
        g.u64()
    } else {
        word(any_instr(g, span))
    }
}

/// A register value: a small number, an address (of data, near a page end,
/// or of text; virtual or KSEG), or anything at all.
fn any_value(g: &mut Gen, layout: &rio_mem::MemLayout) -> u64 {
    let regions: [Region; 5] = [
        layout.text,
        layout.heap,
        layout.stack,
        layout.buffer_cache,
        layout.ubc,
    ];
    let addr = |g: &mut Gen| {
        let r = regions[g.in_range(0..regions.len())];
        let a = match g.in_range(0..3u32) {
            0 => r.start + g.in_range(0..r.len() / 8) * 8,
            1 => r.start + g.in_range(0..r.len()),
            _ => PageNum::containing(r.start + g.in_range(0..r.len())).end() - g.in_range(0..10u64),
        };
        if g.bool() {
            crate::kseg_addr(a)
        } else {
            a
        }
    };
    match g.in_range(0..8u32) {
        0 | 1 => g.in_range(0..20u64),
        2 => g.u64(),
        _ => addr(g),
    }
}

/// The self-modifying routine. Inputs: `r1`/`r2` = address of and new word
/// for `E` (already executed, inside the loop), `r3`/`r4` = the same for `L`
/// (later in the run), `r6`/`r7` = address and value of a byte store into
/// `L2`, `r5` = iterations.
const SMC_E: u64 = 0;
const SMC_L: u64 = 6;
const SMC_L2: u64 = 7;

fn asm_self_modifying() -> Assembler {
    let mut a = Assembler::new();
    a.bind_name("top");
    a.addi(Reg(10), Reg(10), 1); // E
    a.st64(Reg(1), 0, Reg(2));
    a.st64(Reg(3), 0, Reg(4));
    a.st8(Reg(6), 0, Reg(7));
    a.addi(Reg(5), Reg(5), -1);
    a.bne(Reg(5), Reg::ZERO, "top");
    a.addi(Reg(11), Reg(11), 1); // L
    a.addi(Reg(12), Reg(12), 1); // L2
    a.halt();
    a
}

/// Two identical machines: one driven by `run`, one by `run_reference`.
struct Pair {
    cpu: Cpu,
    bus: MemBus,
    ref_cpu: Cpu,
    ref_bus: MemBus,
    store: RoutineStore,
}

impl Pair {
    fn new(bus: MemBus, store: RoutineStore) -> Pair {
        Pair {
            cpu: Cpu::new(),
            ref_cpu: Cpu::new(),
            ref_bus: bus.clone(),
            bus,
            store,
        }
    }

    fn install_words(
        bus: &mut MemBus,
        store: &mut RoutineStore,
        name: &str,
        words: &[u64],
    ) -> RoutineHandle {
        let mut asm = Assembler::new();
        words.iter().for_each(|_| asm.nop());
        let h = store.install(bus, name, asm).expect("text has room");
        for (i, w) in words.iter().enumerate() {
            bus.mem_mut()
                .write_u64(store.instr_addr(h.first_index + i as u64), *w);
        }
        h
    }

    fn set_reg(&mut self, r: u8, v: u64) {
        self.cpu.set_reg(Reg(r), v);
        self.ref_cpu.set_reg(Reg(r), v);
    }

    fn randomize_regs(&mut self, g: &mut Gen) {
        let layout = *self.bus.layout();
        for r in 1..NUM_REGS as u8 {
            let v = any_value(g, &layout);
            self.set_reg(r, v);
        }
    }

    /// Applies the same direct change to both machines' DRAM.
    fn poke(&mut self, f: impl Fn(&mut rio_mem::PhysMem)) {
        f(self.bus.mem_mut());
        f(self.ref_bus.mem_mut());
    }

    /// Runs `h` on both machines under one step limit — chosen around the
    /// run's natural length, so `StepLimit` lands on its last steps as well
    /// as mid-run — and compares everything observable.
    fn run(&mut self, g: &mut Gen, h: RoutineHandle) -> Result<RunResult, String> {
        let natural = self
            .ref_cpu
            .clone()
            .run_reference(&mut self.ref_bus.clone(), &self.store, h, RUN_CAP)
            .steps;
        let limit = match g.in_range(0..6u32) {
            0 => natural.saturating_sub(1),
            1 => natural,
            2 => natural + 1,
            3 => g.in_range(0..=natural),
            _ => RUN_CAP,
        };
        self.run_with_limit(h, limit)
    }

    fn run_with_limit(&mut self, h: RoutineHandle, limit: u64) -> Result<RunResult, String> {
        let steps_before = self.cpu.steps();
        let want = self
            .ref_cpu
            .run_reference(&mut self.ref_bus, &self.store, h, limit);
        let got = self.cpu.run(&mut self.bus, &self.store, h, limit);
        pt_assert_eq!(got, want);
        pt_assert_eq!(self.cpu.regs, self.ref_cpu.regs);
        pt_assert_eq!(self.bus.stats(), self.ref_bus.stats());
        for pn in 0..self.bus.mem().len() / rio_mem::PAGE_SIZE as u64 {
            pt_assert!(
                self.bus.mem().page(PageNum(pn)) == self.ref_bus.mem().page(PageNum(pn)),
                "memory differs in page {pn} after {want:?}"
            );
        }
        pt_assert_eq!(self.cpu.steps() - steps_before, want.steps);
        Ok(want)
    }
}

fn differential_case(g: &mut Gen) -> PropResult {
    // Machine: random protection state over random data.
    let mut bus = MemBus::new(tiny());
    let layout = *bus.layout();
    let mode = [
        RioMode::Unprotected,
        RioMode::Protected,
        RioMode::CodePatched,
    ][g.in_range(0..3usize)];
    bus.protection_mut().set_mode(mode);
    for pn in 0..bus.mem().len() / rio_mem::PAGE_SIZE as u64 {
        let pn = PageNum(pn);
        if pn != PageNum::containing(layout.text.start) {
            bus.mem_mut().page_mut(pn)[..64].copy_from_slice(&g.bytes(64, 64));
            if g.in_range(0..4u32) == 0 {
                bus.protection_mut().protect(pn);
            }
        }
    }

    // Text: a random program, the self-modifying routine, a cold copy.
    let mut store = RoutineStore::new(layout.text);
    let len = g.len_between(1, 48) as u32;
    let words: Vec<u64> = (0..len).map(|_| any_word(g, len)).collect();
    let a = Pair::install_words(&mut bus, &mut store, "a", &words);
    let smc = store
        .install(&mut bus, "smc", asm_self_modifying())
        .expect("text has room");
    let cold_words: Vec<u64> = (0..g.in_range(8..24u32)).map(|_| any_word(g, 8)).collect();
    let cold = Pair::install_words(&mut bus, &mut store, "cold", &cold_words);
    let mut m = Pair::new(bus, store);

    // Plain runs; the later ones find the memo warm.
    for _ in 0..g.in_range(1..4u32) {
        m.randomize_regs(g);
        m.run(g, a)?;
    }

    // Text corrupted between two runs of an already-memoised routine.
    for _ in 0..3 {
        let memoised = (m.cpu.decoded.len() as u64).clamp(1, a.len);
        let index = a.first_index + g.in_range(0..memoised);
        let at = m.store.instr_addr(index);
        match g.in_range(0..3u32) {
            0 => {
                let new = any_instr(g, len);
                let store = m.store.clone();
                m.poke(|mem| store.patch_instr(mem, index, new));
            }
            1 => {
                let (byte, bit) = (g.in_range(0..8u64), g.in_range(0..8u8));
                m.poke(|mem| mem.flip_bit(at + byte, bit));
            }
            _ => {
                // An illegal opcode byte at the entry point: the run must
                // stop there, before its first step.
                let bad = g.in_range(24..=255u8);
                let entry = m.store.instr_addr(a.first_index);
                m.poke(|mem| mem.write_u8(entry, bad));
                let res = m.run_with_limit(a, RUN_CAP)?;
                pt_assert!(
                    matches!(
                        res.outcome,
                        Outcome::Panic(PanicCause::IllegalInstruction { index, .. })
                            if index == a.first_index
                    ) && res.steps == 0,
                    "expected an illegal instruction at the entry, got {res:?}"
                );
                let good = any_word(g, len);
                m.poke(|mem| mem.write_u64(entry, good));
            }
        }
        if g.bool() {
            m.randomize_regs(g);
        }
        m.run(g, a)?;
    }

    // A run that rewrites its own routine: an instruction it has already
    // executed inside the loop, one it has yet to reach, and a byte of a
    // third. Each run's words differ from what the previous run memoised.
    for _ in 0..g.in_range(2..5u32) {
        m.randomize_regs(g);
        let kseg = |g: &mut Gen, a: u64| if g.bool() { crate::kseg_addr(a) } else { a };
        let e = kseg(g, m.store.instr_addr(smc.first_index + SMC_E));
        let l = kseg(g, m.store.instr_addr(smc.first_index + SMC_L));
        let byte = g.in_range(0..8u64);
        let l2 = kseg(g, m.store.instr_addr(smc.first_index + SMC_L2) + byte);
        let new_e = if g.in_range(0..6u32) == 0 {
            g.u64()
        } else {
            word(instr(
                Opcode::Addi,
                10,
                10,
                0,
                g.in_range(2..1000u32) as i32,
            ))
        };
        for (r, v) in [
            (1, e),
            (2, new_e),
            (3, l),
            (4, any_word(g, 4)),
            (6, l2),
            (7, g.u64()),
        ] {
            m.set_reg(r, v);
        }
        m.set_reg(5, g.in_range(1..5u64));
        m.run(g, smc)?;
    }

    // A wild branch into the cold copy, beyond the memo's current length.
    let target = (m.cpu.decoded.len() as u64).max(cold.first_index) + g.in_range(0..4u64);
    if target < m.store.installed_instrs() {
        let jmp = instr(Opcode::Jmp, 0, 0, 0, (target - a.first_index) as i32);
        let store = m.store.clone();
        m.poke(|mem| store.patch_instr(mem, a.first_index, jmp));
        pt_assert!(target as usize >= m.cpu.decoded.len());
        m.randomize_regs(g);
        m.run(g, a)?;
    }
    Ok(())
}

#[test]
fn memoised_loop_matches_the_reference_loop() {
    check(
        "memoised_loop_matches_the_reference_loop",
        Config::with_cases(256),
        differential_case,
    );
}

fn smc_machine() -> (Pair, RoutineHandle) {
    let mut bus = MemBus::new(tiny());
    let mut store = RoutineStore::new(bus.layout().text);
    let smc = store
        .install(&mut bus, "smc", asm_self_modifying())
        .unwrap();
    (Pair::new(bus, store), smc)
}

/// The case a memo keyed on the index alone gets wrong: `E` runs, is
/// rewritten by the run itself, and runs again.
#[test]
fn self_modifying_loop_sees_the_new_word_at_the_next_fetch() {
    let (mut m, smc) = smc_machine();
    let addr = |i: u64| m.store.instr_addr(smc.first_index + i);
    let (e, l, l2) = (addr(SMC_E), addr(SMC_L), addr(SMC_L2));
    for (r, v) in [
        (1, e),
        (2, word(instr(Opcode::Addi, 10, 10, 0, 100))),
        (3, l),
        (4, word(instr(Opcode::Addi, 11, 11, 0, 7))),
        (5, 3),
        (6, l2 + 4), // low byte of L2's immediate
        (7, 9),
    ] {
        m.set_reg(r, v);
    }
    // Warm the memo with the words as installed, then run for real.
    let res = m.run_with_limit(smc, RUN_CAP).unwrap();
    assert!(res.is_done());
    // Iteration 1 runs `E` as installed (+1), iterations 2 and 3 as
    // rewritten (+100 each); `L` and `L2` run as rewritten.
    assert_eq!(m.cpu.reg(Reg(10)), 201);
    assert_eq!(m.cpu.reg(Reg(11)), 7);
    assert_eq!(m.cpu.reg(Reg(12)), 9);

    // Second run, memo warm with the rewritten words: rewrite them again,
    // `E` to garbage — the machine check names `E`, on the second pass.
    for r in 10..13 {
        m.set_reg(r, 0);
    }
    m.set_reg(2, 0xFFFF_FFFF_FFFF_FFFF);
    m.set_reg(5, 3);
    let res = m.run_with_limit(smc, RUN_CAP).unwrap();
    assert!(matches!(
        res.outcome,
        Outcome::Panic(PanicCause::IllegalInstruction { index, .. }) if index == smc.first_index
    ));
    assert_eq!(res.steps, 6);
    assert_eq!(m.cpu.reg(Reg(10)), 100);
}

#[test]
fn a_rerun_decodes_nothing_and_a_patched_word_decodes_once() {
    let (mut m, smc) = smc_machine();
    let heap = m.bus.layout().heap.start;
    for r in [1, 3, 6] {
        m.set_reg(r, heap); // stores land in the heap: text stays as it is
    }
    m.set_reg(5, 2);
    assert!(m.run_with_limit(smc, RUN_CAP).unwrap().is_done());
    assert_eq!(m.cpu.decode_misses(), smc.len);
    assert_eq!(m.cpu.steps(), 6 * 2 + 3);

    m.set_reg(5, 2);
    assert!(m.run_with_limit(smc, RUN_CAP).unwrap().is_done());
    assert_eq!(
        m.cpu.decode_misses(),
        smc.len,
        "a warm rerun decodes nothing"
    );
    assert_eq!(m.cpu.steps(), 2 * (6 * 2 + 3));

    let store = m.store.clone();
    m.poke(|mem| store.patch_instr(mem, smc.first_index + SMC_L, Instr::nop()));
    m.set_reg(5, 2);
    assert!(m.run_with_limit(smc, RUN_CAP).unwrap().is_done());
    assert_eq!(m.cpu.decode_misses(), smc.len + 1);

    // A word that fails to decode is never memoised: it misses every time.
    let entry = m.store.instr_addr(smc.first_index);
    m.poke(|mem| mem.write_u8(entry, 0xFE));
    for n in 2..4 {
        let res = m.run_with_limit(smc, RUN_CAP).unwrap();
        assert!(matches!(
            res.outcome,
            Outcome::Panic(PanicCause::IllegalInstruction { .. })
        ));
        assert_eq!(m.cpu.decode_misses(), smc.len + n);
    }
}

/// Growing the memo fills the gap with `(0, Nop)`: that is a true entry,
/// because the all-zero word decodes to exactly that instruction.
#[test]
fn memo_filler_is_a_true_entry() {
    assert_eq!(Instr::decode([0; 8]), Ok(Instr::nop()));
    assert_eq!(word(Instr::nop()), 0);
}
