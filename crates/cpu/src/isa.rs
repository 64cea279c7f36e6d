//! Instruction set: encoding, decoding, and the KSEG address convention.
//!
//! Instructions are a fixed 8 bytes — `[opcode, rd, rs1, rs2, imm:i32-le]` —
//! so kernel-text bit flips hit real instruction bits and decode may fail
//! with an illegal-opcode machine check, matching the paper's observation
//! that "most errors are first detected by issuing an illegal address"
//! (or instruction) on a 64-bit machine.

use rio_mem::AddrKind;

/// Size of one encoded instruction in bytes.
pub const INSTR_BYTES: u64 = 8;

/// Number of architectural registers. `r0` is hardwired to zero.
pub const NUM_REGS: usize = 32;

/// Bit 62 marks an address as KSEG (physical, TLB-bypassing on a stock
/// machine). Mirrors the Alpha convention where the two top address bits
/// select the KSEG window.
pub const KSEG_BIT: u64 = 1 << 62;

/// A register index in `0..NUM_REGS`.
///
/// Register 0 always reads as zero and ignores writes (as on MIPS/Alpha
/// zero registers); fault injection that redirects a destination register
/// to `r0` silently discards a result — a realistic lost-update bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired zero register.
    pub const ZERO: Reg = Reg(0);
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Splits an address value into its access route and physical address.
///
/// Addresses with [`KSEG_BIT`] set are physical (KSEG) accesses; all others
/// are kernel-virtual. In this simulator the kernel's virtual mapping is
/// direct (virtual address == physical address), so translation is the
/// identity — what differs between the two routes is *whether the
/// write-permission bits apply*, which is exactly the distinction §2.1 of
/// the paper turns on.
#[inline]
pub fn decompose_addr(addr: u64) -> (AddrKind, u64) {
    if addr & KSEG_BIT != 0 {
        (AddrKind::Kseg, addr & !KSEG_BIT)
    } else {
        (AddrKind::Virtual, addr)
    }
}

/// Tags a physical address as a KSEG access.
pub fn kseg_addr(phys: u64) -> u64 {
    phys | KSEG_BIT
}

/// Operation codes.
///
/// The numeric values are part of the encoded format (and therefore of the
/// fault surface); keep them dense so that a bit-flipped opcode has a
/// realistic chance of decoding to a *different valid instruction* rather
/// than always faulting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// No operation.
    Nop = 0,
    /// `rd = imm` (sign-extended 32-bit immediate).
    Li = 1,
    /// `rd = (rd << 32) | (imm as u32)` — builds 64-bit constants with `Li`.
    Lih = 2,
    /// `rd = rs1`.
    Mov = 3,
    /// `rd = rs1 + rs2`.
    Add = 4,
    /// `rd = rs1 + imm`.
    Addi = 5,
    /// `rd = rs1 - rs2`.
    Sub = 6,
    /// `rd = rs1 & rs2`.
    And = 7,
    /// `rd = rs1 | rs2`.
    Or = 8,
    /// `rd = rs1 ^ rs2`.
    Xor = 9,
    /// `rd = rs1 << (imm & 63)`.
    Shli = 10,
    /// `rd = rs1 >> (imm & 63)` (logical).
    Shri = 11,
    /// `rd = rs1 * rs2` (wrapping).
    Mul = 12,
    /// `rd = byte at [rs1 + imm]`.
    Ld8 = 13,
    /// `rd = u64 at [rs1 + imm]`.
    Ld64 = 14,
    /// `byte [rs1 + imm] = rs2 as u8`.
    St8 = 15,
    /// `u64 [rs1 + imm] = rs2`.
    St64 = 16,
    /// Branch to `pc + imm` if `rs1 == rs2`.
    Beq = 17,
    /// Branch to `pc + imm` if `rs1 != rs2`.
    Bne = 18,
    /// Branch to `pc + imm` if `rs1 < rs2` (unsigned).
    Bltu = 19,
    /// Branch to `pc + imm` if `rs1 >= rs2` (unsigned).
    Bgeu = 20,
    /// Unconditional branch to `pc + imm`.
    Jmp = 21,
    /// Consistency check: panic with code `imm` if `rs1 != rs2`. Models the
    /// kernel sanity checks that, per §3.3, stop a sick system quickly.
    Chk = 22,
    /// Normal completion of the routine.
    Halt = 23,
}

impl Opcode {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        use Opcode::*;
        Some(match b {
            0 => Nop,
            1 => Li,
            2 => Lih,
            3 => Mov,
            4 => Add,
            5 => Addi,
            6 => Sub,
            7 => And,
            8 => Or,
            9 => Xor,
            10 => Shli,
            11 => Shri,
            12 => Mul,
            13 => Ld8,
            14 => Ld64,
            15 => St8,
            16 => St64,
            17 => Beq,
            18 => Bne,
            19 => Bltu,
            20 => Bgeu,
            21 => Jmp,
            22 => Chk,
            23 => Halt,
            _ => return None,
        })
    }

    /// Whether this opcode is a control-transfer instruction (used by the
    /// "delete branch" fault to pick its victim).
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Opcode::Beq | Opcode::Bne | Opcode::Bltu | Opcode::Bgeu | Opcode::Jmp
        )
    }

    /// Whether this opcode is a memory access.
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            Opcode::Ld8 | Opcode::Ld64 | Opcode::St8 | Opcode::St64
        )
    }
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instr {
    /// Operation.
    pub op: Opcode,
    /// Destination register.
    pub rd: Reg,
    /// First source register (base register for loads/stores).
    pub rs1: Reg,
    /// Second source register (store data register).
    pub rs2: Reg,
    /// Immediate operand (offset, constant, branch displacement in
    /// instructions, or consistency-check code).
    pub imm: i32,
}

impl Instr {
    /// Encodes into the 8-byte wire format.
    pub fn encode(&self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[0] = self.op as u8;
        b[1] = self.rd.0;
        b[2] = self.rs1.0;
        b[3] = self.rs2.0;
        b[4..8].copy_from_slice(&self.imm.to_le_bytes());
        b
    }

    /// Decodes from the wire format.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the opcode byte or a register index is invalid —
    /// the interpreter turns this into an illegal-instruction machine check.
    pub fn decode(bytes: [u8; 8]) -> Result<Instr, DecodeError> {
        let op = Opcode::from_u8(bytes[0]).ok_or(DecodeError::BadOpcode(bytes[0]))?;
        for &r in &bytes[1..4] {
            if r as usize >= NUM_REGS {
                return Err(DecodeError::BadRegister(r));
            }
        }
        Ok(Instr {
            op,
            rd: Reg(bytes[1]),
            rs1: Reg(bytes[2]),
            rs2: Reg(bytes[3]),
            imm: i32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice")),
        })
    }

    /// A no-op instruction (what "delete instruction" faults write).
    pub fn nop() -> Instr {
        Instr {
            op: Opcode::Nop,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            imm: 0,
        }
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} {}, {}, {}, {}",
            self.op, self.rd, self.rs1, self.rs2, self.imm
        )
    }
}

/// Instruction decode failure — an illegal-instruction machine check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Register index out of range.
    BadRegister(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOpcode(b) => write!(f, "illegal opcode {b:#04x}"),
            DecodeError::BadRegister(r) => write!(f, "illegal register index {r}"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let i = Instr {
            op: Opcode::St64,
            rd: Reg(0),
            rs1: Reg(7),
            rs2: Reg(9),
            imm: -24,
        };
        assert_eq!(Instr::decode(i.encode()).unwrap(), i);
    }

    #[test]
    fn all_opcodes_round_trip() {
        for b in 0..=23u8 {
            let op = Opcode::from_u8(b).expect("dense opcode space");
            assert_eq!(op as u8, b);
        }
        assert_eq!(Opcode::from_u8(24), None);
        assert_eq!(Opcode::from_u8(255), None);
    }

    #[test]
    fn decode_rejects_bad_register() {
        let mut b = Instr::nop().encode();
        b[2] = 32;
        assert_eq!(Instr::decode(b), Err(DecodeError::BadRegister(32)));
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let mut b = Instr::nop().encode();
        b[0] = 0xEE;
        assert_eq!(Instr::decode(b), Err(DecodeError::BadOpcode(0xEE)));
    }

    #[test]
    fn kseg_addresses_decompose() {
        let (kind, phys) = decompose_addr(kseg_addr(0x4000));
        assert_eq!(kind, rio_mem::AddrKind::Kseg);
        assert_eq!(phys, 0x4000);
        let (kind, phys) = decompose_addr(0x4000);
        assert_eq!(kind, rio_mem::AddrKind::Virtual);
        assert_eq!(phys, 0x4000);
    }

    #[test]
    fn branch_and_mem_classification() {
        assert!(Opcode::Beq.is_branch());
        assert!(Opcode::Jmp.is_branch());
        assert!(!Opcode::Add.is_branch());
        assert!(Opcode::St8.is_mem());
        assert!(!Opcode::Chk.is_mem());
    }

    #[test]
    fn display_forms_are_nonempty() {
        assert_eq!(Reg(3).to_string(), "r3");
        let i = Instr::nop();
        assert!(i.to_string().contains("Nop"));
        assert!(DecodeError::BadOpcode(0xFF).to_string().contains("0xff"));
    }
}
