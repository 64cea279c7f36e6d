//! A tiny two-pass assembler for kernel routines.
//!
//! Routines are short, straight-line-plus-loops programs; the assembler
//! provides labels with backward and forward references and convenience
//! methods for each opcode.
//!
//! # Example
//!
//! ```
//! use rio_cpu::{Assembler, Reg};
//!
//! // r10 = number of iterations executed (counts r1 down to zero).
//! let mut asm = Assembler::new();
//! let loop_top = asm.label();
//! asm.bind(loop_top);
//! asm.beq(Reg(1), Reg(0), "done");
//! asm.addi(Reg(1), Reg(1), -1);
//! asm.addi(Reg(10), Reg(10), 1);
//! asm.jmp_to(loop_top);
//! asm.bind_name("done");
//! asm.halt();
//! let code = asm.assemble().unwrap();
//! assert_eq!(code.len(), 5);
//! ```

use crate::isa::{Instr, Opcode, Reg};
use std::collections::HashMap;

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Assembly error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never bound to a position.
    UnboundLabel(String),
    /// A branch displacement does not fit in the 32-bit immediate.
    DisplacementTooLarge,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UnboundLabel(n) => write!(f, "unbound label `{n}`"),
            AsmError::DisplacementTooLarge => f.write_str("branch displacement too large"),
        }
    }
}

impl std::error::Error for AsmError {}

enum Operand {
    Resolved(i32),
    Label(Label),
    Named(String),
}

struct Pending {
    instr: Instr,
    imm: Operand,
}

/// Incremental routine builder. Terminal method: [`Assembler::assemble`].
#[derive(Default)]
pub struct Assembler {
    instrs: Vec<Pending>,
    labels: Vec<Option<usize>>,
    named: HashMap<String, usize>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Allocates a label (bind it later with [`Assembler::bind`]).
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds a label to the current position.
    pub fn bind(&mut self, l: Label) {
        self.labels[l.0] = Some(self.instrs.len());
    }

    /// Binds a string-named label to the current position.
    pub fn bind_name(&mut self, name: &str) {
        self.named.insert(name.to_owned(), self.instrs.len());
    }

    fn push(&mut self, op: Opcode, rd: Reg, rs1: Reg, rs2: Reg, imm: i32) {
        self.instrs.push(Pending {
            instr: Instr {
                op,
                rd,
                rs1,
                rs2,
                imm,
            },
            imm: Operand::Resolved(imm),
        });
    }

    fn push_branch(&mut self, op: Opcode, rs1: Reg, rs2: Reg, target: Operand) {
        self.instrs.push(Pending {
            instr: Instr {
                op,
                rd: Reg::ZERO,
                rs1,
                rs2,
                imm: 0,
            },
            imm: target,
        });
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.push(Opcode::Nop, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0);
    }

    /// `rd = imm` (sign-extended).
    pub fn li(&mut self, rd: Reg, imm: i32) {
        self.push(Opcode::Li, rd, Reg::ZERO, Reg::ZERO, imm);
    }

    /// Loads a full 64-bit constant via `li` + `lih`.
    #[cfg(test)]
    pub fn li64(&mut self, rd: Reg, value: u64) {
        self.li(rd, (value >> 32) as i32);
        self.push(Opcode::Lih, rd, Reg::ZERO, Reg::ZERO, value as u32 as i32);
    }

    /// `rd = rs1`.
    pub fn mov(&mut self, rd: Reg, rs1: Reg) {
        self.push(Opcode::Mov, rd, rs1, Reg::ZERO, 0);
    }

    /// `rd = rs1 + rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Opcode::Add, rd, rs1, rs2, 0);
    }

    /// `rd = rs1 + imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Opcode::Addi, rd, rs1, Reg::ZERO, imm);
    }

    /// `rd = rs1 - rs2`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Opcode::Sub, rd, rs1, rs2, 0);
    }

    /// `rd = rs1 & rs2`.
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Opcode::And, rd, rs1, rs2, 0);
    }

    /// `rd = rs1 | rs2`.
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Opcode::Or, rd, rs1, rs2, 0);
    }

    /// `rd = rs1 ^ rs2`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Opcode::Xor, rd, rs1, rs2, 0);
    }

    /// `rd = rs1 << imm`.
    pub fn shli(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Opcode::Shli, rd, rs1, Reg::ZERO, imm);
    }

    /// `rd = rs1 >> imm` (logical).
    pub fn shri(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Opcode::Shri, rd, rs1, Reg::ZERO, imm);
    }

    /// `rd = rs1 * rs2` (wrapping).
    #[cfg(test)]
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Opcode::Mul, rd, rs1, rs2, 0);
    }

    /// `rd = byte [rs1 + imm]`.
    pub fn ld8(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Opcode::Ld8, rd, rs1, Reg::ZERO, imm);
    }

    /// `rd = u64 [rs1 + imm]`.
    pub fn ld64(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.push(Opcode::Ld64, rd, rs1, Reg::ZERO, imm);
    }

    /// `byte [rs1 + imm] = rs2`.
    pub fn st8(&mut self, rs1: Reg, imm: i32, rs2: Reg) {
        self.push(Opcode::St8, Reg::ZERO, rs1, rs2, imm);
    }

    /// `u64 [rs1 + imm] = rs2`.
    pub fn st64(&mut self, rs1: Reg, imm: i32, rs2: Reg) {
        self.push(Opcode::St64, Reg::ZERO, rs1, rs2, imm);
    }

    /// Branch if equal, to a named label.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: &str) {
        self.push_branch(Opcode::Beq, rs1, rs2, Operand::Named(target.to_owned()));
    }

    /// Branch if not equal, to a named label.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: &str) {
        self.push_branch(Opcode::Bne, rs1, rs2, Operand::Named(target.to_owned()));
    }

    /// Branch if `rs1 < rs2` (unsigned), to a named label.
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, target: &str) {
        self.push_branch(Opcode::Bltu, rs1, rs2, Operand::Named(target.to_owned()));
    }

    /// Unconditional jump to a named label.
    pub fn jmp(&mut self, target: &str) {
        self.push_branch(
            Opcode::Jmp,
            Reg::ZERO,
            Reg::ZERO,
            Operand::Named(target.to_owned()),
        );
    }

    /// Unconditional jump to an allocated [`Label`].
    pub fn jmp_to(&mut self, target: Label) {
        self.push_branch(Opcode::Jmp, Reg::ZERO, Reg::ZERO, Operand::Label(target));
    }

    /// Consistency check: panic with `code` if `rs1 != rs2`.
    #[cfg(test)]
    pub fn chk(&mut self, rs1: Reg, rs2: Reg, code: i32) {
        self.push(Opcode::Chk, Reg::ZERO, rs1, rs2, code);
    }

    /// Normal termination.
    pub fn halt(&mut self) {
        self.push(Opcode::Halt, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0);
    }

    /// Resolves labels and returns the finished instruction sequence.
    ///
    /// # Errors
    ///
    /// [`AsmError::UnboundLabel`] if a referenced label was never bound;
    /// [`AsmError::DisplacementTooLarge`] if a displacement overflows i32
    /// (cannot happen for routines under 2^31 instructions, but checked).
    pub fn assemble(self) -> Result<Vec<Instr>, AsmError> {
        let mut out = Vec::with_capacity(self.instrs.len());
        for (pos, p) in self.instrs.iter().enumerate() {
            let mut instr = p.instr;
            let target = match &p.imm {
                Operand::Resolved(v) => {
                    instr.imm = *v;
                    out.push(instr);
                    continue;
                }
                Operand::Label(l) => {
                    self.labels[l.0].ok_or_else(|| AsmError::UnboundLabel(format!("#{}", l.0)))?
                }
                Operand::Named(n) => *self
                    .named
                    .get(n)
                    .ok_or_else(|| AsmError::UnboundLabel(n.clone()))?,
            };
            let disp = target as i64 - pos as i64;
            instr.imm = i32::try_from(disp).map_err(|_| AsmError::DisplacementTooLarge)?;
            out.push(instr);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut asm = Assembler::new();
        asm.bind_name("top");
        asm.addi(Reg(1), Reg(1), 1); // 0
        asm.beq(Reg(1), Reg(2), "end"); // 1 -> 3, disp +2
        asm.jmp("top"); // 2 -> 0, disp -2
        asm.bind_name("end");
        asm.halt(); // 3
        let code = asm.assemble().unwrap();
        assert_eq!(code[1].imm, 2);
        assert_eq!(code[2].imm, -2);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut asm = Assembler::new();
        asm.jmp("nowhere");
        assert_eq!(
            asm.assemble(),
            Err(AsmError::UnboundLabel("nowhere".to_owned()))
        );
    }

    #[test]
    fn allocated_labels_work() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.jmp_to(l); // 0
        asm.nop(); // 1
        asm.bind(l);
        asm.halt(); // 2
        let code = asm.assemble().unwrap();
        assert_eq!(code[0].imm, 2);
    }

    #[test]
    fn li64_builds_big_constants() {
        let mut asm = Assembler::new();
        asm.li64(Reg(1), 0xDEAD_BEEF_CAFE_F00D);
        asm.halt();
        let code = asm.assemble().unwrap();
        assert_eq!(code.len(), 3); // li + lih + halt
        assert_eq!(code[0].op, Opcode::Li);
        assert_eq!(code[1].op, Opcode::Lih);
    }

    #[test]
    fn len_and_is_empty_track_emission() {
        let mut asm = Assembler::new();
        assert!(asm.is_empty());
        asm.nop();
        assert_eq!(asm.len(), 1);
        assert!(!asm.is_empty());
    }
}
