//! The differential property that holds the routine summaries equal to the
//! interpreter.
//!
//! Each case draws one call — routine, length, misalignments, address
//! routes, protection state, where the spans sit (apart, overlapping, over
//! kernel text, up to and past the last byte of memory), 31 polluted
//! registers, a step limit around the run's length, perhaps one flipped bit
//! of text — and makes it twice on clones of one machine: through the
//! [`KernelRoutines`] entry (summary, else [`Cpu::run`]) and through
//! [`Cpu::run`] alone. Result, registers, bus counters, step counter and the
//! whole memory image must agree. Equality alone would also hold for a
//! summary that never ran, so the case also works out (a)–(e) for itself,
//! from the call and the bus's public state, and requires the summary to
//! have declined when one is false and to have run when all are true.

use super::*;
use crate::isa::{kseg_addr, NUM_REGS};
use rio_det::proptest_lite::{check, Config, Gen, PropResult};
use rio_det::{pt_assert, pt_assert_eq, DetRng};
use rio_mem::{MemConfig, PageNum, RioMode};

const P: u64 = PAGE_SIZE as u64;
const MAX_LEN: u64 = 2 * P + 9;
/// Beyond any routine's run over `MAX_LEN` bytes.
const RUN_CAP: u64 = 1 << 15;

/// Text, a heap to read from, and a UBC to write to that ends at the last
/// byte of memory; ten pages, so whole images compare cheaply.
fn config() -> MemConfig {
    MemConfig {
        text_bytes: P,
        heap_bytes: 4 * P,
        stack_bytes: 0,
        buffer_cache_bytes: P,
        ubc_bytes: 4 * P,
        registry_bytes: 0,
    }
}

#[derive(Clone)]
struct Machine {
    cpu: Cpu,
    bus: MemBus,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Routine {
    Bcopy,
    Bzero,
    Bcmp,
}

/// One call: physical spans and the route tag each address carries. `dst`
/// is the only span of `bzero` and the second span of `bcmp`.
#[derive(Debug, Clone, Copy)]
struct Call {
    routine: Routine,
    src: u64,
    dst: u64,
    len: u64,
    src_kseg: bool,
    dst_kseg: bool,
}

impl Call {
    fn tagged(addr: u64, kseg: bool) -> u64 {
        if kseg {
            kseg_addr(addr)
        } else {
            addr
        }
    }

    fn handle(&self, r: &KernelRoutines) -> RoutineHandle {
        match self.routine {
            Routine::Bcopy => r.bcopy,
            Routine::Bzero => r.bzero,
            Routine::Bcmp => r.bcmp,
        }
    }

    /// Both addresses with their route tags.
    fn addrs(&self) -> (u64, u64) {
        (
            Self::tagged(self.src, self.src_kseg),
            Self::tagged(self.dst, self.dst_kseg),
        )
    }

    /// Sets the argument registers, as the entry points do.
    fn set_args(&self, cpu: &mut Cpu) {
        let (src, dst) = self.addrs();
        let args: &[u64] = match self.routine {
            Routine::Bzero => &[dst, self.len],
            _ => &[src, dst, self.len],
        };
        for (reg, &v) in (1..).zip(args) {
            cpu.set_reg(Reg(reg), v);
        }
    }

    fn via_entry(
        &self,
        m: &mut Machine,
        store: &RoutineStore,
        r: &KernelRoutines,
        limit: u64,
    ) -> RunResult {
        let (src, dst) = self.addrs();
        match self.routine {
            Routine::Bcopy => r.bcopy(&mut m.cpu, &mut m.bus, store, src, dst, self.len, limit),
            Routine::Bzero => r.bzero(&mut m.cpu, &mut m.bus, store, dst, self.len, limit),
            Routine::Bcmp => r.bcmp(&mut m.cpu, &mut m.bus, store, src, dst, self.len, limit),
        }
    }

    fn interpreted(
        &self,
        m: &mut Machine,
        store: &RoutineStore,
        r: &KernelRoutines,
        limit: u64,
    ) -> RunResult {
        self.set_args(&mut m.cpu);
        m.cpu.run(&mut m.bus, store, self.handle(r), limit)
    }

    /// Whether the summary alone accepts the call.
    fn summarised(
        &self,
        m: &mut Machine,
        store: &RoutineStore,
        r: &KernelRoutines,
        limit: u64,
    ) -> bool {
        self.set_args(&mut m.cpu);
        let summary: Summary = match self.routine {
            Routine::Bcopy => bcopy_summary,
            Routine::Bzero => bzero_summary,
            Routine::Bcmp => bcmp_summary,
        };
        KernelRoutines::summarise(
            &mut m.cpu,
            &mut m.bus,
            store,
            self.handle(r),
            summary,
            limit,
        )
        .is_some()
    }

    fn stores(&self) -> bool {
        self.routine != Routine::Bcmp
    }

    fn loads_src(&self) -> bool {
        self.routine != Routine::Bzero
    }

    /// (b): every byte of the spans — for an empty span, its address — in
    /// bounds.
    fn in_bounds(&self, bus: &MemBus) -> bool {
        bus.mem().in_bounds(self.dst, self.len)
            && (!self.loads_src() || bus.mem().in_bounds(self.src, self.len))
    }

    /// (c): no page of the destination span traps a store. Only asked of
    /// spans in bounds.
    fn unprotected(&self, bus: &MemBus) -> bool {
        !self.stores()
            || self.len == 0
            || (self.dst / P..=(self.dst + self.len - 1) / P)
                .all(|pn| !bus.protection().store_would_trap(PageNum(pn)))
    }

    /// (d): the destination span touches neither text nor the source span.
    fn disjoint(&self, bus: &MemBus) -> bool {
        let apart =
            |start: u64, end: u64| self.len == 0 || self.dst + self.len <= start || end <= self.dst;
        let text = bus.layout().text;
        !self.stores()
            || (apart(text.start, text.end)
                && (!self.loads_src() || apart(self.src, self.src + self.len)))
    }
}

fn any_call(g: &mut Gen, bus: &MemBus) -> Call {
    let layout = *bus.layout();
    let end = bus.mem().len();
    let routine = [Routine::Bcopy, Routine::Bzero, Routine::Bcmp][g.in_range(0..3usize)];
    let len = match g.in_range(0..4u32) {
        0 => g.in_range(0..20u64),
        1 => g.in_range(0..300u64),
        2 => {
            [8, 64, 512, P, 2 * P][g.in_range(0..5usize)] + g.in_range(0..10u64)
                - g.in_range(0..2u64)
        }
        _ => g.in_range(0..=MAX_LEN),
    }
    .min(MAX_LEN);
    // Apart, each at its own misalignment.
    let mut src = layout.heap.start + P + g.in_range(0..64u64) * 8 + g.in_range(0..8u64);
    let mut dst = layout.ubc.start + P / 2 + g.in_range(0..64u64) * 8 + g.in_range(0..8u64);
    match g.in_range(0..12u32) {
        // Ending on the last byte of memory, or up to 9 bytes past it.
        0 => dst = end - len,
        1 => dst = end - len + g.in_range(1..10u64),
        2 => src = end - len,
        3 => src = end - len + g.in_range(1..10u64),
        // Overlapping, or only touching, either way round.
        4 | 5 => {
            let delta = g.in_range(0..=len + 8).min(P);
            dst = if g.bool() { src + delta } else { src - delta };
        }
        // Reaching back into kernel text — the routines themselves, for a
        // long span — from the page after it, or stopping just short.
        6 | 7 => dst = layout.text.end - g.in_range(0..=len + 8).min(layout.text.end),
        // Wild (the route tag is `dst_kseg`'s to set).
        8 => dst = (g.u64() >> g.in_range(0..4u32)) & !crate::isa::KSEG_BIT,
        _ => {}
    }
    Call {
        routine,
        src,
        dst,
        len,
        src_kseg: g.bool(),
        dst_kseg: g.bool(),
    }
}

/// Makes `[src, src+len)` read as `[dst, dst+len)` does, writing only the
/// source span: the destination may reach into kernel text, the source
/// never does (`any_call` keeps it at or above the heap). Byte by byte,
/// away from the destination, so that overlapping spans end equal too.
fn make_src_equal_to_dst(bus: &mut MemBus, call: Call) {
    debug_assert!(call.src >= bus.layout().text.end);
    let mem = bus.mem_mut();
    let copy = |i: u64| mem.write_u8(call.src + i, mem.read_u8(call.dst + i));
    if call.src > call.dst {
        (0..call.len).for_each(copy);
    } else {
        (0..call.len).rev().for_each(copy);
    }
}

fn summary_case(base: &(MemBus, RoutineStore, KernelRoutines), g: &mut Gen) -> PropResult {
    let (bus, store, r) = base;
    let mut m = Machine {
        cpu: Cpu::new(),
        bus: bus.clone(),
    };
    let mode = [
        RioMode::Unprotected,
        RioMode::Protected,
        RioMode::CodePatched,
    ][g.in_range(0..3usize)];
    m.bus.protection_mut().set_mode(mode);
    let call = any_call(g, &m.bus);
    let pages = m.bus.mem().len() / P;

    // A protected page inside the destination span, just after it, under
    // the source, or none.
    let inside = call.dst.saturating_add(g.in_range(0..call.len.max(1)));
    let protect = match g.in_range(0..6u32) {
        0 | 1 => PageNum::containing(inside),
        2 => PageNum(call.dst.saturating_add(call.len + P - 1) / P),
        3 => PageNum::containing(call.src),
        _ => PageNum(pages),
    };
    if protect.0 < pages {
        m.bus.protection_mut().protect(protect);
    }

    // bcmp: equal spans half the time, then perhaps one byte changed.
    if call.routine == Routine::Bcmp && call.in_bounds(&m.bus) {
        if g.bool() {
            let bytes = m.bus.mem().to_vec(call.src, call.len);
            m.bus.mem_mut().write_bytes(call.dst, &bytes);
        }
        if call.len > 0 && g.bool() {
            m.bus
                .mem_mut()
                .flip_bit(call.dst + g.in_range(0..call.len), g.in_range(0..8u8));
        }
    }

    // One flipped bit of text: in the routine called, or in one that is not.
    let live = call.handle(r);
    let live_text = (store.instr_addr(live.first_index), live.len * INSTR_BYTES);
    match g.in_range(0..8u32) {
        0 | 1 => {
            let at = live_text.0 + g.in_range(0..live_text.1);
            m.bus.mem_mut().flip_bit(at, g.in_range(0..8u8));
        }
        2 => {
            let other = [r.bcopy, r.bzero, r.bcmp, r.fill_pattern]
                .into_iter()
                .filter(|h| *h != live)
                .nth(g.in_range(0..3usize))
                .expect("three other routines");
            let at = store.instr_addr(other.first_index) + g.in_range(0..other.len * INSTR_BYTES);
            m.bus.mem_mut().flip_bit(at, g.in_range(0..8u8));
        }
        _ => {}
    }

    for reg in 1..NUM_REGS as u8 {
        m.cpu.set_reg(Reg(reg), g.u64());
    }

    // (a)–(d) as this case sees them; (e) needs the run's length, which the
    // interpreter supplies — over equal spans for bcmp, whose (e) is about
    // the walk over equal ones. (a) is read from memory, not from the draw:
    // a bcmp span may reach into the routine itself, so the set-up above
    // can have changed it too.
    let routine_bytes = |bus: &MemBus| bus.mem().to_vec(live_text.0, live_text.1);
    let pristine = routine_bytes(&m.bus) == routine_bytes(bus);
    let preconditions =
        pristine && call.in_bounds(&m.bus) && call.unprotected(&m.bus) && call.disjoint(&m.bus);
    let natural = call.interpreted(&mut m.clone(), store, r, RUN_CAP).steps;
    let longest = if preconditions && call.routine == Routine::Bcmp {
        let mut equal = m.clone();
        make_src_equal_to_dst(&mut equal.bus, call);
        call.interpreted(&mut equal, store, r, RUN_CAP).steps
    } else {
        natural
    };
    let limit = match g.in_range(0..8u32) {
        0 => natural.saturating_sub(1),
        1 => natural,
        2 => natural + 1,
        3 => longest.saturating_sub(1),
        4 => longest,
        5 => longest + 1,
        _ => RUN_CAP,
    };

    let (mut got, mut want, mut alone) = (m.clone(), m.clone(), m.clone());
    let took = call.summarised(&mut alone, store, r, limit);
    pt_assert_eq!(took, preconditions && longest <= limit);

    let got_result = call.via_entry(&mut got, store, r, limit);
    let want_result = call.interpreted(&mut want, store, r, limit);
    pt_assert_eq!(got_result, want_result);
    if took {
        pt_assert!(
            want_result.is_done(),
            "summarised a run that ends in {want_result:?}"
        );
    }
    for reg in 0..NUM_REGS as u8 {
        pt_assert!(
            got.cpu.reg(Reg(reg)) == want.cpu.reg(Reg(reg)),
            "r{reg}: {:#x} != {:#x} after {call:?} (summarised: {took})",
            got.cpu.reg(Reg(reg)),
            want.cpu.reg(Reg(reg))
        );
    }
    pt_assert_eq!(got.bus.stats(), want.bus.stats());
    pt_assert_eq!(got.cpu.steps(), want.cpu.steps());
    for pn in (0..pages).map(PageNum) {
        pt_assert!(
            got.bus.mem().page(pn) == want.bus.mem().page(pn),
            "memory differs in {pn} after {call:?} (summarised: {took})"
        );
    }
    Ok(())
}

/// One machine for every case to clone: routines installed, every page
/// outside text filled with noise, sealed.
fn base() -> (MemBus, RoutineStore, KernelRoutines) {
    let mut bus = MemBus::new(config());
    let mut store = RoutineStore::new(bus.layout().text);
    let routines = KernelRoutines::install_all(&mut bus, &mut store).expect("text has room");
    let mut rng = DetRng::seed_from_u64(15);
    for pn in bus.layout().text.end / P..bus.mem().len() / P {
        rng.fill_bytes(bus.mem_mut().page_mut(PageNum(pn)));
    }
    bus.mem_mut().seal();
    (bus, store, routines)
}

#[test]
fn summaries_match_the_interpreter() {
    let base = base();
    check(
        "summaries_match_the_interpreter",
        Config::with_cases(2500),
        |g| summary_case(&base, g),
    );
}

/// The property above is only as good as its draw: every routine must have
/// been summarised and declined, and every precondition must have been the
/// only false one at least once.
#[test]
fn the_draw_reaches_both_sides_of_every_precondition() {
    let (bus, store, r) = base();
    let mut seen = std::collections::BTreeSet::new();
    check(
        "the_draw_reaches_both_sides",
        Config::with_cases(2500),
        |g| {
            let mut m = Machine {
                cpu: Cpu::new(),
                bus: bus.clone(),
            };
            m.bus.protection_mut().set_mode(RioMode::Protected);
            let call = any_call(g, &m.bus);
            if g.bool() && call.len > 0 && call.in_bounds(&m.bus) {
                m.bus
                    .protection_mut()
                    .protect(PageNum::containing(call.dst + call.len - 1));
            }
            let verdict = match () {
                _ if !call.in_bounds(&m.bus) => "out of bounds",
                _ if !call.unprotected(&m.bus) => "protected",
                _ if !call.disjoint(&m.bus) => "overlapping",
                _ => "clear",
            };
            let took = call.summarised(&mut m, &store, &r, RUN_CAP);
            pt_assert_eq!(took, verdict == "clear");
            seen.insert((format!("{:?}", call.routine), verdict));
            Ok(())
        },
    );
    for routine in ["Bcopy", "Bzero"] {
        for verdict in ["out of bounds", "protected", "overlapping", "clear"] {
            assert!(
                seen.contains(&(routine.to_owned(), verdict)),
                "{routine} never drew {verdict}"
            );
        }
    }
    for verdict in ["out of bounds", "clear"] {
        assert!(
            seen.contains(&("Bcmp".to_owned(), verdict)),
            "Bcmp never drew {verdict}"
        );
    }
}

/// The step counts the issue quotes, and what the summary leaves in the
/// scratch registers it only sometimes writes.
#[test]
fn an_aligned_page_walks_in_the_counted_steps() {
    let (bus, store, r) = base();
    let mut m = Machine {
        cpu: Cpu::new(),
        bus,
    };
    let (src, dst) = (m.bus.layout().heap.start, m.bus.layout().ubc.start);
    for reg in 10..16 {
        m.cpu.set_reg(Reg(reg), 0xAAAA);
    }
    let misses = m.cpu.decode_misses();
    assert_eq!(
        r.bcopy(&mut m.cpu, &mut m.bus, &store, src, dst, P, 2699)
            .steps,
        2699
    );
    assert_eq!(m.cpu.reg(Reg(15)), 0, "the one `and` ran on an aligned dst");
    assert_eq!(m.cpu.reg(Reg(11)), m.bus.mem().read_u64(src + P - 8));
    assert_eq!(
        r.bzero(&mut m.cpu, &mut m.bus, &store, dst, P, 1546).steps,
        1546
    );
    assert_eq!(
        r.bcmp(&mut m.cpu, &mut m.bus, &store, dst, dst + P, P, 8197)
            .steps,
        8
    );
    m.bus.mem_mut().fill(dst + P, P, 0);
    assert_eq!(
        r.bcmp(&mut m.cpu, &mut m.bus, &store, dst, dst + P, P, 8197)
            .steps,
        8197
    );
    assert_eq!(m.cpu.steps(), 2699 + 1546 + 8 + 8197);
    assert_eq!(
        m.cpu.decode_misses(),
        misses,
        "a summarised call decodes nothing"
    );

    // Under 8 bytes `bltu` leaves `align` before the `and`: r15 keeps its
    // pollution, and with no byte at all so does r11.
    m.cpu.set_reg(Reg(15), 0xBBBB);
    m.cpu.set_reg(Reg(11), 0xCCCC);
    assert_eq!(
        r.bcopy(&mut m.cpu, &mut m.bus, &store, src, dst + 1, 0, 100)
            .steps,
        4 + 1 + 1 + 1
    );
    assert_eq!((m.cpu.reg(Reg(15)), m.cpu.reg(Reg(11))), (0xBBBB, 0xCCCC));
    // One step short of the walk, the interpreter runs and reports it.
    let run = r.bcopy(&mut m.cpu, &mut m.bus, &store, src, dst, P, 2698);
    assert_eq!((run.outcome, run.steps), (Outcome::StepLimit, 2698));
}
