//! Simulated time accounting and the cost model behind Table 2.
//!
//! Every kernel operation charges simulated time: interpreter steps for the
//! data paths, fixed CPU costs for syscall entry and per-page processing,
//! protection (window toggles and code-patched store checks, counted where
//! they happen and charged at syscall return), and disk service times (the
//! disk computes its own; the clock just advances to completion for
//! synchronous waits).
//!
//! The constants are calibrated for a mid-1990s workstation (the
//! paper's DEC 3000/600, a 175 MHz Alpha): what matters for reproducing the
//! *shape* of Table 2 is the ratio between CPU/memory costs and mechanical
//! disk latency.

use rio_disk::SimTime;

/// Nanoseconds per interpreted instruction (data-path work; 8 KB copied
/// in 64-byte unrolled blocks of 21 instructions ≈ 107 µs/page at
/// 40 ns/step — the same ~75 MB/s kernel memcpy the pre-unrolled loop
/// modelled at 15 ns/step, so page-copy timings are unchanged).
const CPU_NS_PER_STEP: u64 = 40;
/// Fixed syscall entry/exit cost, microseconds.
const SYSCALL_OVERHEAD_US: u64 = 120;
/// Per-path-component lookup cost, microseconds.
const NAMEI_COMPONENT_US: u64 = 60;
/// Per-page bookkeeping cost beyond the copy itself (page lookup, user
/// crossing, dirty tracking), microseconds.
const PAGE_OP_CPU_US: u64 = 350;
/// Cost of opening+closing one protection window (in-kernel PTE flip;
/// no syscall needed — §6 explains why Rio beats the 7% of
/// \[Sullivan91a\]), microseconds.
const PROTECTION_TOGGLE_US: u64 = 2;

/// The simulated wall clock plus cumulative accounting.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
    /// Sub-microsecond CPU remainder (interpreter steps accumulate in ns).
    ns_residue: u64,
    /// Total CPU time charged.
    cpu_time: SimTime,
    /// Total time spent waiting for the disk.
    disk_wait: SimTime,
    /// Protection time charged so far, nanoseconds.
    protection_ns: u64,
    /// Deferred-wait mode (multi-client scheduling): synchronous disk
    /// waits are *recorded* instead of advancing the clock, so the
    /// scheduler can overlap one client's disk wait with another
    /// client's CPU time. Off by default — single-client paths are
    /// byte-identical to the pre-scheduler kernel.
    deferred: bool,
    /// Latest deferred wake-up time recorded since the last
    /// [`Clock::take_deferred`].
    deferred_until: Option<SimTime>,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total CPU time charged so far.
    pub fn cpu_time(&self) -> SimTime {
        self.cpu_time
    }

    /// Total synchronous disk-wait time so far.
    pub fn disk_wait(&self) -> SimTime {
        self.disk_wait
    }

    /// Protection time charged so far, nanoseconds (see
    /// [`Clock::charge_protection`]).
    pub fn protection_ns(&self) -> u64 {
        self.protection_ns
    }

    /// Simulated time in nanoseconds: [`Clock::now`] plus the CPU
    /// remainder not yet a whole microsecond. Exact, so two runs'
    /// difference in charged CPU can be read to the nanosecond.
    pub fn now_ns(&self) -> u64 {
        self.now.as_micros() * 1_000 + self.ns_residue
    }

    fn charge(&mut self, t: SimTime) {
        self.now += t;
        self.cpu_time += t;
        self.publish();
    }

    /// Publishes the current simulated time to the observability layer so
    /// events emitted anywhere (including clock-less layers like the
    /// memory bus) carry deterministic timestamps. One thread-local read
    /// when tracing is off.
    fn publish(&self) {
        if rio_obs::is_enabled() {
            rio_obs::set_sim_ns(self.now.as_micros().saturating_mul(1_000));
        }
    }

    fn charge_ns(&mut self, ns: u64) {
        let ns = ns + self.ns_residue;
        self.ns_residue = ns % 1_000;
        self.charge(SimTime::from_micros(ns / 1_000));
    }

    /// Charges `n` interpreted instructions.
    pub fn charge_steps(&mut self, n: u64) {
        self.charge_ns(n * CPU_NS_PER_STEP);
    }

    /// Charges a fixed number of microseconds of CPU time.
    pub fn charge_us(&mut self, us: u64) {
        self.charge(SimTime::from_micros(us));
    }

    /// Charges one syscall entry.
    pub fn charge_syscall(&mut self) {
        self.charge_us(SYSCALL_OVERHEAD_US);
    }

    /// Charges a path lookup of `components` components.
    pub fn charge_namei(&mut self, components: u64) {
        self.charge_us(NAMEI_COMPONENT_US * components);
    }

    /// Charges per-page bookkeeping.
    pub fn charge_page_op(&mut self) {
        self.charge_us(PAGE_OP_CPU_US);
    }

    /// Charges protection work: `windows` protection windows at
    /// `PROTECTION_TOGGLE_US` each and `checks` stores checked by a
    /// code-patched kernel at [`rio_cpu::STORE_CHECK_STEPS`] interpreted
    /// steps each (the length of the check sequence, §2.1). The kernel's
    /// one caller is `Kernel::charge_protection`, at every syscall return.
    pub fn charge_protection(&mut self, windows: u64, checks: u64) {
        let ns = windows * PROTECTION_TOGGLE_US * 1_000
            + checks * rio_cpu::STORE_CHECK_STEPS * CPU_NS_PER_STEP;
        if ns > 0 {
            self.protection_ns += ns;
            self.charge_ns(ns);
        }
    }

    /// Blocks until `t` (synchronous disk wait); no-op if `t` has passed.
    ///
    /// In deferred-wait mode the clock does **not** advance: the wake-up
    /// time is recorded for [`Clock::take_deferred`] so a scheduler can
    /// block just this client and run another one in the meantime. The
    /// wait is then not double-charged as global `disk_wait` — it
    /// overlaps other clients' CPU time.
    pub fn wait_until(&mut self, t: SimTime) {
        if self.deferred {
            if t > self.now {
                self.deferred_until = Some(self.deferred_until.map_or(t, |d| d.max(t)));
            }
            return;
        }
        if t > self.now {
            self.disk_wait += t.saturating_sub(self.now);
            self.now = t;
            self.publish();
        }
    }

    /// Switches deferred-wait mode on or off, clearing any pending
    /// deferred wake-up.
    pub fn set_deferred_waits(&mut self, on: bool) {
        self.deferred = on;
        self.deferred_until = None;
    }

    /// Takes the latest wake-up time recorded by a deferred
    /// [`Clock::wait_until`], if any, resetting it.
    pub fn take_deferred(&mut self) -> Option<SimTime> {
        self.deferred_until.take()
    }

    /// Whether a deferred wake-up is pending, without consuming it.
    ///
    /// Continuation phase machines use this to decide mid-phase whether
    /// the work they just did hit a block point (and they should yield)
    /// without disturbing the recorded wake-up the scheduler will take.
    pub fn deferred_pending(&self) -> bool {
        self.deferred_until.is_some()
    }

    /// Advances the wall clock without charging CPU (idle time between
    /// workload phases).
    ///
    /// This is the raw *hardware* clock hop: no kernel daemon runs inside
    /// the skipped gap. Workload code should call `Kernel::idle_until`
    /// instead, which runs the `update` daemon at its due instants across
    /// the gap.
    pub fn idle_until(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
            self.publish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_accumulate_with_residue() {
        let mut c = Clock::new();
        // Steps short of a microsecond charge nothing yet…
        let n = 999 / CPU_NS_PER_STEP;
        c.charge_steps(n);
        assert_eq!(c.now(), SimTime::ZERO);
        // …and their residue carries into the next charge.
        c.charge_steps(n);
        assert_eq!(c.now().as_micros(), 2 * n * CPU_NS_PER_STEP / 1_000);
        assert_eq!(c.cpu_time(), c.now());
    }

    #[test]
    fn protection_charges_windows_and_checks_to_the_nanosecond() {
        let mut c = Clock::new();
        c.charge_steps(1);
        c.charge_protection(3, 10);
        // 3 windows × 2 µs + 10 checks × k × 40 ns, on top of one step.
        let charged = 3 * 2_000 + 10 * rio_cpu::STORE_CHECK_STEPS * 40;
        assert_eq!(c.protection_ns(), charged);
        assert_eq!(c.now_ns(), CPU_NS_PER_STEP + charged);
        assert_eq!(c.cpu_time(), c.now());
        c.charge_protection(0, 0);
        assert_eq!(c.now_ns(), CPU_NS_PER_STEP + charged);
    }

    #[test]
    fn wait_until_counts_disk_wait() {
        let mut c = Clock::new();
        c.charge_us(10);
        c.wait_until(SimTime::from_micros(50));
        assert_eq!(c.now().as_micros(), 50);
        assert_eq!(c.disk_wait().as_micros(), 40);
        // Waiting for the past is free.
        c.wait_until(SimTime::from_micros(20));
        assert_eq!(c.now().as_micros(), 50);
    }

    #[test]
    fn deferred_waits_record_instead_of_advancing() {
        let mut c = Clock::new();
        c.set_deferred_waits(true);
        c.wait_until(SimTime::from_micros(50));
        c.wait_until(SimTime::from_micros(30)); // earlier: max wins
        assert_eq!(c.now(), SimTime::ZERO, "deferred wait must not advance");
        assert_eq!(c.disk_wait(), SimTime::ZERO);
        assert_eq!(c.take_deferred(), Some(SimTime::from_micros(50)));
        assert_eq!(c.take_deferred(), None, "take resets");
        // Back to normal mode: waits advance again.
        c.set_deferred_waits(false);
        c.wait_until(SimTime::from_micros(10));
        assert_eq!(c.now().as_micros(), 10);
    }

    #[test]
    fn idle_does_not_charge_cpu() {
        let mut c = Clock::new();
        c.idle_until(SimTime::from_secs(5));
        assert_eq!(c.now(), SimTime::from_secs(5));
        assert_eq!(c.cpu_time(), SimTime::ZERO);
        assert_eq!(c.disk_wait(), SimTime::ZERO);
    }

    #[test]
    fn named_charges_use_model_constants() {
        let mut c = Clock::new();
        c.charge_syscall();
        assert_eq!(c.now().as_micros(), SYSCALL_OVERHEAD_US);
        let before = c.now();
        c.charge_namei(3);
        assert_eq!(
            c.now().saturating_sub(before).as_micros(),
            3 * NAMEI_COMPONENT_US
        );
    }
}
