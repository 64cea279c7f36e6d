//! A small register-machine CPU for the simulated kernel's data paths.
//!
//! Why simulate a CPU at all? Five of the paper's thirteen fault types
//! (§3.1) operate at the *instruction* level — corrupt a destination or
//! source register, delete a branch, delete a random instruction, skip a
//! variable's initialization — and two more (pointer corruption, kernel-text
//! bit flips) corrupt the bits that instructions or their base registers are
//! made of. Injecting those faithfully requires real instructions whose
//! stores really go through the MMU, so that Rio's write protection can
//! genuinely intercept a wild store produced by a corrupted instruction.
//!
//! The kernel's data-touching hot paths — `bcopy`, `bzero`, `bcmp`,
//! pattern fill — are therefore written in this crate's ISA, encoded into
//! the simulated kernel-text region of [`rio_mem`] memory, and executed by
//! the interpreter with every fetch and every load/store going through the
//! [`MemBus`](rio_mem::MemBus). A bit flip in kernel text changes what the
//! interpreter fetches; a corrupted base register sends a store to a wild
//! address; the MMU decides — exactly as on the paper's Alpha — whether that
//! store lands, raises an illegal-address machine check, or (with Rio
//! protection on) a write-protection trap.
//!
//! When none of that can happen — the routine's text reads exactly as
//! installed and the call's spans are in bounds, unprotected and apart —
//! the kernel's entry points ([`KernelRoutines::bcopy`] and its siblings)
//! skip the dispatch and compute the same steps, registers, counters and
//! bytes in closed form; see [`routines`].
//!
//! # Example
//!
//! ```
//! use rio_cpu::{Assembler, Cpu, Outcome, Reg, RoutineStore};
//! use rio_mem::{MemBus, MemConfig};
//!
//! let mut bus = MemBus::new(MemConfig::small());
//! let mut store = RoutineStore::new(bus.layout().text);
//!
//! // A routine that stores 0x2A to the address in r1.
//! let mut asm = Assembler::new();
//! asm.li(Reg(2), 0x2A);
//! asm.st8(Reg(1), 0, Reg(2));
//! asm.halt();
//! let routine = store.install(&mut bus, "poke", asm).unwrap();
//!
//! let mut cpu = Cpu::new();
//! cpu.set_reg(Reg(1), bus.layout().ubc.start);
//! let run = cpu.run(&mut bus, &store, routine, 1_000);
//! assert_eq!(run.outcome, Outcome::Done);
//! assert_eq!(bus.mem().read_u8(bus.layout().ubc.start), 0x2A);
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod interp;
pub mod isa;
pub mod patch;
pub mod routines;

pub use asm::Assembler;
pub use interp::{Cpu, Outcome, RunResult};
pub use isa::{decompose_addr, kseg_addr, DecodeError, Instr, Opcode, Reg, INSTR_BYTES, KSEG_BIT};
pub use patch::STORE_CHECK_STEPS;
pub use routines::{KernelRoutines, RoutineHandle, RoutineStore};
