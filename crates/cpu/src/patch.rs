//! The store check that code patching puts in front of every kernel store.
//!
//! §2.1: on a CPU that cannot send physical (KSEG) addresses through the
//! TLB, Rio protects the file cache by *code patching* \[Wahbe93\]: every
//! kernel store is preceded by a software check of the target page's
//! permission. The simulated kernel does not rewrite its text; the bus
//! counts each store a patched kernel would check
//! (`AccessStats::patch_checks`) and the clock charges each count as the
//! sequence below, [`STORE_CHECK_STEPS`] interpreted instructions. The
//! sequence is written out here so that cost is the length of real code,
//! not a fitted number.

use crate::asm::Assembler;
use crate::isa::Reg;
use rio_mem::PAGE_SIZE;

/// Instructions [`asm_store_check`] executes when the store may go ahead:
/// what one checked store costs a code-patched kernel.
pub const STORE_CHECK_STEPS: u64 = 4;

/// Emits the check of the store address in `addr`, using `t` as scratch:
///
/// 1. `shli` — drop the two route bits (KSEG is bit 62), so both routes
///    index the same page;
/// 2. `shri` — the physical page number;
/// 3. `ld8` — that page's byte of the protection table at `table` (one
///    byte per page, non-zero when write-protected);
/// 4. `bne` — to `trap` when the page is protected.
///
/// On the fall-through path the store follows.
pub fn asm_store_check(a: &mut Assembler, addr: Reg, t: Reg, table: i32, trap: &str) {
    a.shli(t, addr, 2);
    a.shri(t, t, 2 + PAGE_SIZE.trailing_zeros() as i32);
    a.ld8(t, t, table);
    a.bne(t, Reg::ZERO, trap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Cpu, Outcome, PanicCause};
    use crate::isa::kseg_addr;
    use crate::routines::RoutineStore;
    use rio_mem::{MemBus, MemConfig, PageNum};

    const TRAPPED: i32 = 77;

    #[test]
    fn the_charged_k_is_the_length_of_the_sequence() {
        let mut a = Assembler::new();
        asm_store_check(&mut a, Reg(1), Reg(2), 0, "trap");
        assert_eq!(a.len() as u64, STORE_CHECK_STEPS);
    }

    /// The sequence in front of a byte store, run by the interpreter over
    /// a protection table in heap memory: a protected page branches to the
    /// trap by either route, and an unprotected one pays exactly
    /// [`STORE_CHECK_STEPS`] before its store.
    #[test]
    fn the_sequence_traps_protected_pages_and_costs_k_steps_otherwise() {
        let mut bus = MemBus::new(MemConfig::small());
        let layout = *bus.layout();
        let mut store = RoutineStore::new(layout.text);
        let table = layout.heap.start;
        let protected = layout.ubc.start;
        let open = layout.stack.start;
        bus.mem_mut()
            .write_u8(table + PageNum::containing(protected).0, 1);
        let mut a = Assembler::new();
        asm_store_check(&mut a, Reg(1), Reg(3), table as i32, "trap");
        a.st8(Reg(1), 0, Reg(2));
        a.halt();
        a.bind_name("trap");
        a.chk(Reg(3), Reg::ZERO, TRAPPED);
        let checked = store.install(&mut bus, "checked_store", a).unwrap();

        for (addr, trapped) in [
            (open, false),
            (kseg_addr(open), false),
            (protected, true),
            (kseg_addr(protected), true),
        ] {
            let mut cpu = Cpu::new();
            cpu.set_reg(Reg(1), addr);
            cpu.set_reg(Reg(2), 0x5A);
            let run = cpu.run(&mut bus, &store, checked, 100);
            if trapped {
                let want = Outcome::Panic(PanicCause::ConsistencyCheck(TRAPPED));
                assert_eq!(run.outcome, want, "{addr:#x}");
            } else {
                assert_eq!(run.outcome, Outcome::Done, "{addr:#x}");
                // The check, the store, the halt.
                assert_eq!(run.steps, STORE_CHECK_STEPS + 2);
            }
        }
        assert_eq!(bus.mem().read_u8(open), 0x5A);
        assert_eq!(bus.mem().read_u8(protected), 0);
    }
}
