//! The scheduler: one deterministic, preemptive, single-CPU scheduler for
//! every multi-client run.
//!
//! The paper's Sdet exhibit (§5) is a *multi-user* benchmark: concurrent
//! scripts contending for the same file cache. Our kernel is a
//! single-threaded simulation, so concurrency is modelled the way a
//! mid-90s big-kernel-lock Unix actually behaved: exactly one client
//! executes kernel code at a time, and the interesting overlap is a
//! blocked client's **disk wait** hiding behind another client's CPU
//! burst.
//!
//! A client ([`PreemptClient`]) is a script that emits one syscall at a
//! time; a client that writes its syscalls ahead of time keeps them in a
//! [`SyscallScript`], whose [`crate::Fd::LAST_OPENED`] placeholder is how
//! an op names a descriptor not yet handed back. [`PreemptSched`] runs
//! each syscall as a resumable continuation
//! ([`crate::preempt::SyscallCont`]) that gives up the CPU at its actual
//! block points — buffer-cache miss, registry I/O, dirty-throttle stall,
//! fsync wait — with kernel state half-mutated and locks
//! ([`crate::preempt`]) legitimately held across the yield. A **quantum**
//! is one such run, from pick to block point.
//!
//! - **One CPU.** Quanta are serialized on the simulated clock. During a
//!   quantum the clock runs in deferred-wait mode
//!   ([`crate::clock::Clock::set_deferred_waits`]): a synchronous disk
//!   wait does not advance global time, it *blocks the client* until the
//!   recorded wake-up, and the CPU goes to the next runnable client.
//! - **The pick.** A rotor sits one past the client that ran last; its
//!   starting position is derived from the seed (splitmix64). Each
//!   decision runs the first *ready* client at or after the rotor,
//!   wrapping once. Ready means: never blocked, or blocked on a disk
//!   wake-up (or open-loop arrival) that has come due, or blocked on a
//!   lock whose FIFO hand-off has reserved it for this client.
//! - **The wake rule.** When nobody is ready the clock hops to the
//!   earliest wake-up through [`Kernel::idle_until`], so background
//!   daemons keep firing on schedule inside the gap. Every client whose
//!   wake-up has come due becomes ready at that instant and the pick
//!   above chooses among them: clients that tie on a wake-up time run in
//!   rotor order, regardless of which of them blocked first.
//! - **Determinism.** Every decision is a pure function of the seed and
//!   of simulated state — the interleaving is byte-identical on any host,
//!   at any `RIO_THREADS`.

use crate::error::KernelError;
use crate::kernel::{Fd, Kernel};
use crate::locks::LockId;
use crate::preempt::{SyscallCont, SyscallOp, SyscallRet, Yield};
use rio_disk::SimTime;
use std::collections::{BTreeSet, VecDeque};

/// What the scheduler did: the quantum order and per-client accounting.
/// Drives the fairness and determinism tests.
#[derive(Debug, Clone, Default)]
pub struct SchedTrace {
    /// Client index of every quantum, in execution order.
    pub quanta: Vec<u32>,
    /// Times the scheduler had to advance the clock because every
    /// unfinished client was blocked on a disk wake-up.
    pub idle_hops: u64,
    /// Simulated time at which each client finished its script.
    pub finish_at: Vec<SimTime>,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One logical client of the preemptive scheduler: a script that emits
/// syscalls one at a time and sees each result before choosing the next.
pub trait PreemptClient {
    /// The next syscall to run, given the previous one's result (`None`
    /// on the first call, or when the previous op failed benignly — the
    /// client tracks which op that was). Returning `None` retires the
    /// client.
    fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp>;

    /// The simulated time at which the client's *next* op arrives.
    /// `None` (the default) means "ready immediately" — the closed-loop
    /// behaviour every pre-existing client keeps. Open-loop workloads
    /// return their seeded arrival time: the scheduler parks the client
    /// until then (or until its current op's trailing wait resolves,
    /// whichever is later) instead of calling [`PreemptClient::next_op`]
    /// back-to-back. Consulted whenever the client has no op in flight:
    /// at scheduler start, after an op completes, and after a benign
    /// failure.
    fn next_op_at(&mut self) -> Option<SimTime> {
        None
    }

    /// Called once per completed op, with the op's result and the
    /// simulated time at which it *truly* finished — including any
    /// trailing deferred wait (fsync drain, dirty-throttle stall), which
    /// `next_op`'s view of the clock would miss. Open-loop workloads
    /// record `at − arrival` as the op's latency; the default does
    /// nothing.
    fn op_completed(&mut self, _ret: &SyscallRet, _at: SimTime) {}
}

/// A queue of syscalls written before they run — the one way a client
/// binds a descriptor it has not been handed yet. An op that names
/// [`Fd::LAST_OPENED`] gets, when it is taken ([`SyscallScript::pop`]),
/// the descriptor the most recent `create` / `open` returned
/// ([`SyscallScript::note`]); before any was returned the placeholder
/// stays, and the op fails as a bad descriptor.
///
/// The same script runs as a scheduled client, one op per
/// [`PreemptClient::next_op`], or op by op through [`Kernel::syscall`]
/// on the blocking clock ([`SyscallOp::as_op_ref`]).
#[derive(Debug, Clone, Default)]
pub struct SyscallScript {
    ops: VecDeque<SyscallOp>,
    last_opened: Option<Fd>,
}

impl SyscallScript {
    /// Queues `op` behind the ops already written.
    pub fn push(&mut self, op: SyscallOp) {
        self.ops.push_back(op);
    }

    /// Whether every written op has been taken.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drops the ops not yet taken.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// The descriptor [`Fd::LAST_OPENED`] binds to now, if any.
    #[must_use]
    pub fn last_opened(&self) -> Option<Fd> {
        self.last_opened
    }

    /// Records a completed op's result: a returned descriptor is the one
    /// later ops' [`Fd::LAST_OPENED`] means.
    pub fn note(&mut self, ret: &SyscallRet) {
        if let SyscallRet::Fd(fd) = ret {
            self.last_opened = Some(*fd);
        }
    }

    /// Takes the next op, its [`Fd::LAST_OPENED`] bound.
    pub fn pop(&mut self) -> Option<SyscallOp> {
        let mut op = self.ops.pop_front()?;
        if let SyscallOp::Close(fd)
        | SyscallOp::Fsync(fd)
        | SyscallOp::Write { fd, .. }
        | SyscallOp::Pwrite { fd, .. }
        | SyscallOp::Read { fd, .. }
        | SyscallOp::Pread { fd, .. } = &mut op
        {
            if *fd == Fd::LAST_OPENED {
                *fd = self.last_opened.unwrap_or(Fd::LAST_OPENED);
            }
        }
        Some(op)
    }
}

/// A script on its own is a closed-loop client that issues its ops in
/// order, whether or not the one before succeeded, and retires when none
/// is left.
impl PreemptClient for SyscallScript {
    fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp> {
        if let Some(ret) = prev {
            self.note(ret);
        }
        self.pop()
    }
}

impl Extend<SyscallOp> for SyscallScript {
    fn extend<I: IntoIterator<Item = SyscallOp>>(&mut self, ops: I) {
        self.ops.extend(ops);
    }
}

impl FromIterator<SyscallOp> for SyscallScript {
    fn from_iter<I: IntoIterator<Item = SyscallOp>>(ops: I) -> Self {
        SyscallScript {
            ops: ops.into_iter().collect(),
            last_opened: None,
        }
    }
}

/// Why a client is not currently on the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// Runnable immediately.
    Ready,
    /// Blocked until this disk wake-up time.
    Disk(SimTime),
    /// Blocked in this lock's FIFO; runnable once the lock is reserved
    /// for the client.
    Lock(LockId),
    /// Script complete.
    Finished,
}

/// Outcome of one [`PreemptSched::step_once`] decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedStep {
    /// This client ran a quantum.
    Ran(u32),
    /// Nobody was runnable; the clock hopped to the earliest disk wake.
    Idle,
    /// Every client has finished its script.
    Done,
}

/// The preemptive continuation scheduler. A quantum ends wherever the
/// syscall actually blocks — so between quanta, clients hold locks and
/// carry half-mutated kernel state in their parked [`SyscallCont`]s.
/// Fault campaigns inject *between* quanta, which is exactly when that
/// in-flight state is exposed.
///
/// Exposed as a stepwise object (not just a run loop) so campaigns can
/// interleave warm-up, injection, and watchdog logic with scheduling.
/// `Clone` freezes the whole scheduling state — parked continuations,
/// rotor, trace — which is how the scale campaign checkpoints a warmed
/// multi-client machine and forks it per trial.
#[derive(Debug, Clone)]
pub struct PreemptSched {
    run: Vec<Run>,
    conts: Vec<Option<SyscallCont>>,
    last_ret: Vec<Option<SyscallRet>>,
    rotor: usize,
    check_invariants: bool,
    /// Clients runnable right now (`Run::Ready`, expired disk waits, and
    /// lock waiters whose reservation came through), keyed by index so
    /// `range(rotor..)` finds the rotor pick in O(log n): a quantum must
    /// not cost O(clients), or a 1000-client run is O(n²).
    ready: BTreeSet<usize>,
    /// Time-ordered wake heap for disk-blocked clients: the earliest
    /// entry is the next wake-up, so expiring waits and idle hops are
    /// O(log n).
    disk_waits: BTreeSet<(SimTime, usize)>,
    /// Retired-client count (O(1) `all_finished`).
    finished: usize,
    /// One-time arrival priming (open-loop clients) done.
    primed: bool,
    /// Re-derive every pick with the O(n) linear scan and assert the
    /// indexed structures agree.
    #[cfg(test)]
    cross_check: bool,
    /// Quantum order and accounting.
    pub trace: SchedTrace,
}

impl PreemptSched {
    /// A scheduler for `n` clients. The rotor's first pick is
    /// seed-derived. `check_invariants` enables the between-quanta
    /// lock-word/owner consistency check — leave it off in fault
    /// campaigns, where injected faults legitimately desynchronize the
    /// two.
    #[must_use]
    pub fn new(n: usize, seed: u64, check_invariants: bool) -> Self {
        PreemptSched {
            run: vec![Run::Ready; n],
            conts: (0..n).map(|_| None).collect(),
            last_ret: (0..n).map(|_| None).collect(),
            rotor: if n == 0 {
                0
            } else {
                (splitmix64(seed) % n as u64) as usize
            },
            check_invariants,
            ready: (0..n).collect(),
            disk_waits: BTreeSet::new(),
            finished: 0,
            primed: false,
            #[cfg(test)]
            cross_check: false,
            trace: SchedTrace {
                finish_at: vec![SimTime::ZERO; n],
                ..SchedTrace::default()
            },
        }
    }

    /// How many clients currently have a parked in-flight syscall.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.conts.iter().filter(|c| c.is_some()).count()
    }

    /// The locks held by client `c`'s parked continuation, if any.
    #[must_use]
    pub fn held_locks(&self, c: usize) -> &[LockId] {
        self.conts[c].as_ref().map_or(&[], |cont| cont.held_locks())
    }

    /// Whether every client has retired.
    #[must_use]
    pub fn all_finished(&self) -> bool {
        self.finished == self.run.len()
    }

    /// Records client `c`'s new run state and files it in the matching
    /// index structure. Lock-blocked clients live in neither set: their
    /// wake-up is the lock hand-off, re-checked each pick (O(#locks)).
    fn park(&mut self, c: usize, state: Run) {
        self.run[c] = state;
        match state {
            Run::Ready => {
                self.ready.insert(c);
            }
            Run::Disk(t) => {
                self.disk_waits.insert((t, c));
            }
            Run::Lock(_) => {}
            Run::Finished => {
                self.finished += 1;
            }
        }
    }

    /// The pick as the module docs define it, by linear scan: first
    /// eligible client at or after the rotor, wrapping once. The
    /// reference the indexed pick is asserted against.
    #[cfg(test)]
    fn reference_pick(&self, kernel: &Kernel, now: SimTime) -> Option<usize> {
        let n = self.run.len();
        (0..n)
            .map(|i| (self.rotor + i) % n)
            .find(|&c| match self.run[c] {
                Run::Ready => true,
                Run::Disk(t) => t <= now,
                Run::Lock(l) => kernel.lock_reserved_for(l) == Some(c as u32),
                Run::Finished => false,
            })
    }

    /// Makes one scheduling decision: runs the first eligible client at
    /// or after the rotor for one quantum, or hops the clock to the
    /// earliest disk wake-up if nobody is runnable.
    ///
    /// # Errors
    ///
    /// A kernel crash (or any client error while the kernel is crashed)
    /// aborts the run; benign syscall errors are absorbed — the failed
    /// op's continuation is dropped and the client is asked for its next
    /// op with `prev = None`.
    ///
    /// # Panics
    ///
    /// On scheduler deadlock (every unfinished client lock-blocked with
    /// no reservation) — impossible by construction, see
    /// [`crate::preempt`] — or, with `check_invariants`, on a lock
    /// word/owner mismatch between quanta.
    pub fn step_once(
        &mut self,
        kernel: &mut Kernel,
        clients: &mut [&mut dyn PreemptClient],
    ) -> Result<SchedStep, KernelError> {
        let n = self.run.len();
        assert_eq!(clients.len(), n, "client count changed mid-run");
        if self.all_finished() {
            return Ok(SchedStep::Done);
        }
        let now = kernel.machine.clock.now();
        if !self.primed {
            // One-time arrival priming: open-loop clients whose first op
            // arrives in the future start parked, not ready.
            self.primed = true;
            for (c, client) in clients.iter_mut().enumerate() {
                if self.run[c] == Run::Ready {
                    if let Some(t) = client.next_op_at() {
                        if t > now {
                            self.ready.remove(&c);
                            self.park(c, Run::Disk(t));
                        }
                    }
                }
            }
        }
        // Expire disk waits that have come due into the ready set.
        while let Some(&(t, c)) = self.disk_waits.first() {
            if t > now {
                break;
            }
            self.disk_waits.pop_first();
            self.ready.insert(c);
        }
        // A lock hand-off makes its reserved waiter runnable. Reservations
        // persist until the reserved client runs, so once inserted the
        // entry never goes stale.
        for l in LockId::ALL {
            if let Some(r) = kernel.lock_reserved_for(l) {
                let c = r as usize;
                if c < n && self.run[c] == Run::Lock(l) {
                    self.ready.insert(c);
                }
            }
        }
        // First ready client at or after the rotor, wrapping once: the
        // smallest index ≥ rotor, else the smallest overall.
        let pick = self
            .ready
            .range(self.rotor..)
            .next()
            .or_else(|| self.ready.iter().next())
            .copied();
        #[cfg(test)]
        if self.cross_check {
            assert_eq!(
                pick,
                self.reference_pick(kernel, now),
                "indexed pick diverged from the linear rotor scan (rotor={}, now={now:?})",
                self.rotor,
            );
        }
        let Some(c) = pick else {
            let wake = self.disk_waits.first().map(|&(t, _)| t);
            let wake = wake.expect(
                "scheduler deadlock: all unfinished clients lock-blocked with no reservation",
            );
            #[cfg(test)]
            if self.cross_check {
                let reference = self
                    .run
                    .iter()
                    .filter_map(|r| match r {
                        Run::Disk(t) => Some(*t),
                        _ => None,
                    })
                    .min();
                assert_eq!(Some(wake), reference, "wake heap diverged from linear min");
            }
            self.trace.idle_hops += 1;
            kernel.idle_until(wake)?;
            return Ok(SchedStep::Idle);
        };
        self.ready.remove(&c);
        if self.conts[c].is_none() {
            let prev = self.last_ret[c].take();
            match clients[c].next_op(prev.as_ref()) {
                None => {
                    self.park(c, Run::Finished);
                    self.trace.finish_at[c] = kernel.machine.clock.now();
                    self.rotor = (c + 1) % n;
                    return Ok(if self.all_finished() {
                        SchedStep::Done
                    } else {
                        SchedStep::Ran(c as u32)
                    });
                }
                Some(op) => self.conts[c] = Some(SyscallCont::new(op)),
            }
        }
        kernel.cur_client = Some(c as u32);
        kernel.machine.clock.set_deferred_waits(true);
        let res = self.conts[c]
            .as_mut()
            .expect("installed above")
            .resume(kernel);
        let deferred = kernel.machine.clock.take_deferred();
        kernel.machine.clock.set_deferred_waits(false);
        kernel.cur_client = None;
        self.trace.quanta.push(c as u32);
        self.rotor = (c + 1) % n;
        match res {
            Ok(Yield::Done(ret)) => {
                self.conts[c] = None;
                // The op truly completes at its trailing deferred wait
                // (fsync drain, throttle stall), not at the quantum end.
                let done_at = deferred.unwrap_or_else(|| kernel.machine.clock.now());
                clients[c].op_completed(&ret, done_at);
                self.last_ret[c] = Some(ret);
                // Park until both the trailing wait and the next op's
                // open-loop arrival (if any) have passed. A trailing wait
                // still blocks the client past the op's completion.
                // (`None` sorts below every time: the later of the two, if
                // there is either.)
                let wake = deferred.max(clients[c].next_op_at());
                self.park(c, wake.map_or(Run::Ready, Run::Disk));
            }
            Ok(Yield::Disk) => {
                let t = deferred.unwrap_or_else(|| kernel.machine.clock.now());
                self.park(c, Run::Disk(t));
            }
            Ok(Yield::Lock(l)) => {
                self.park(c, Run::Lock(l));
            }
            Err(e) => {
                self.conts[c] = None;
                self.last_ret[c] = None;
                if kernel.is_crashed() {
                    return Err(e);
                }
                // Benign failure (Exists, NotFound, ...): the client
                // sees `prev = None` and decides what to do next — at
                // its next open-loop arrival, if it has one.
                let arrival = clients[c].next_op_at();
                self.park(c, arrival.map_or(Run::Ready, Run::Disk));
            }
        }
        if self.check_invariants {
            Self::assert_lock_owner_consistency(kernel);
        }
        Ok(SchedStep::Ran(c as u32))
    }

    /// Between quanta the lock *words* in simulated memory and the
    /// host-side owner table must agree: held iff owned. Fault hooks
    /// (skipped lock ops) legitimately break this, so campaigns run with
    /// the check disabled.
    fn assert_lock_owner_consistency(kernel: &Kernel) {
        if kernel.is_crashed() {
            return;
        }
        for id in LockId::ALL {
            let word = kernel.machine.locks.is_held(kernel.machine.bus.mem(), id);
            let owner = kernel.lock_owner(id);
            assert_eq!(
                word,
                owner.is_some(),
                "{id:?}: lock word ({word}) disagrees with owner table ({owner:?})"
            );
        }
    }
}

/// A fleet of one client type as the slice of trait objects the
/// scheduler takes.
pub fn client_refs<C: PreemptClient>(fleet: &mut [C]) -> Vec<&mut dyn PreemptClient> {
    fleet
        .iter_mut()
        .map(|c| c as &mut dyn PreemptClient)
        .collect()
}

/// Runs `clients` under the preemptive scheduler until every script
/// finishes. Convenience wrapper over [`PreemptSched::step_once`] for
/// fault-free runs (campaigns drive the scheduler stepwise instead).
///
/// # Errors
///
/// The first kernel crash aborts the run.
pub fn run_preemptive(
    kernel: &mut Kernel,
    clients: &mut [&mut dyn PreemptClient],
    seed: u64,
    check_invariants: bool,
) -> Result<SchedTrace, KernelError> {
    let mut sched = PreemptSched::new(clients.len(), seed, check_invariants);
    while !matches!(sched.step_once(kernel, clients)?, SchedStep::Done) {}
    Ok(sched.trace)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernel::{Fd, KernelConfig};
    use crate::policy::Policy;
    use rio_det::proptest_lite::{check, Config, Gen};
    use rio_det::{pt_assert, pt_assert_eq};

    fn kernel(policy: Policy) -> Kernel {
        Kernel::mkfs_and_mount(&KernelConfig::small(policy)).expect("boot")
    }

    /// A scripted [`PreemptClient`]: runs a fixed op list, remembers
    /// results, requires every op to succeed. With `arrivals` it is
    /// open-loop: op `i` is not issued before `arrivals[i]`.
    struct Script {
        script: SyscallScript,
        arrivals: Vec<SimTime>,
        issued: usize,
        rets: Vec<SyscallRet>,
    }

    impl Script {
        fn new(ops: Vec<SyscallOp>) -> Self {
            Script::open_loop(ops, Vec::new())
        }

        fn open_loop(ops: Vec<SyscallOp>, arrivals: Vec<SimTime>) -> Self {
            Script {
                script: ops.into_iter().collect(),
                arrivals,
                issued: 0,
                rets: Vec::new(),
            }
        }

        /// `/c{id}`: create, then `writes` sequential 512-byte writes.
        fn writer(id: usize, writes: usize) -> Self {
            let mut ops = vec![SyscallOp::Create(format!("/c{id}"))];
            ops.resize(
                1 + writes,
                SyscallOp::Write {
                    fd: Fd::LAST_OPENED,
                    data: vec![id as u8 + 1; 512],
                },
            );
            Script::new(ops)
        }
    }

    impl PreemptClient for Script {
        fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp> {
            if self.issued > 0 {
                let prev = prev.expect("scripted ops must succeed");
                self.script.note(prev);
                self.rets.push(prev.clone());
            }
            let op = self.script.pop()?;
            self.issued += 1;
            Some(op)
        }

        fn next_op_at(&mut self) -> Option<SimTime> {
            self.arrivals.get(self.issued).copied()
        }
    }

    #[test]
    fn a_script_binds_the_last_opened_descriptor_when_an_op_is_taken() {
        let write = |fd| SyscallOp::Write { fd, data: vec![7] };
        let mut s: SyscallScript = [
            SyscallOp::Close(Fd::LAST_OPENED),
            write(Fd::LAST_OPENED),
            write(Fd(5)),
        ]
        .into_iter()
        .collect();
        // Nothing opened yet: the placeholder stays (a bad descriptor).
        assert_eq!(s.pop(), Some(SyscallOp::Close(Fd::LAST_OPENED)));
        s.note(&SyscallRet::Unit);
        s.note(&SyscallRet::Fd(Fd(9)));
        assert_eq!(s.last_opened(), Some(Fd(9)));
        assert_eq!(s.pop(), Some(write(Fd(9))));
        // A named descriptor is left alone.
        assert_eq!(s.pop(), Some(write(Fd(5))));
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn round_robin_alternates_unblocked_clients() {
        let mut k = kernel(Policy::rio(rio_core::RioMode::Protected));
        // Warm the metadata caches (root dir, bitmaps, inode block) so no
        // client blocks on a cold disk read.
        k.create("/warm").unwrap();
        let mut scripts = [Script::writer(0, 3), Script::writer(1, 3)];
        let trace = run_preemptive(&mut k, &mut client_refs(&mut scripts), 0, true).unwrap();
        // Rio never blocks these small writes, so strict alternation.
        assert_eq!(trace.quanta.len(), 2 * 4, "one quantum per syscall");
        assert_eq!(trace.idle_hops, 0);
        for w in trace.quanta.windows(2) {
            assert_ne!(
                w[0], w[1],
                "unblocked clients must alternate: {:?}",
                trace.quanta
            );
        }
    }

    #[test]
    fn all_clients_finish_and_times_are_monotonic() {
        let mut k = kernel(Policy::disk_write_through());
        let mut scripts = [
            Script::writer(0, 5),
            Script::writer(1, 2),
            Script::writer(2, 8),
        ];
        let trace = run_preemptive(&mut k, &mut client_refs(&mut scripts), 42, true).unwrap();
        assert_eq!(trace.finish_at.len(), 3);
        let end = k.machine.clock.now();
        for (i, &t) in trace.finish_at.iter().enumerate() {
            assert!(t > SimTime::ZERO, "client {i} never finished");
            assert!(t <= end);
        }
        // Round-robin over equal-cost writes: the shorter script is done
        // first, and the last one to finish ends the run.
        let [a, b, c] = trace.finish_at[..] else {
            unreachable!()
        };
        assert!(
            b < a && a < c,
            "finish order follows script length: {:?}",
            trace.finish_at
        );
        assert_eq!(c, end);
        // Every syscall ran: a quantum each at least (a write-through
        // write's disk wait trails its last phase, so it needs no second
        // one), and the cold creates block mid-syscall on top of that.
        assert!(trace.quanta.len() > 3 + 15, "{}", trace.quanta.len());
        assert!(trace.idle_hops > 0, "write-through must leave the CPU idle");
        for s in &scripts {
            assert!(s.script.is_empty());
            assert_eq!(s.rets.len(), s.issued);
        }
    }

    #[test]
    fn disk_waits_overlap_other_clients_cpu() {
        // Write-through: every write waits for the disk. With the
        // scheduler, a blocked client's wait hides another client's CPU —
        // total time for 2 clients is less than 2× one client.
        let time_for = |clients: usize| {
            let mut k = kernel(Policy::disk_write_through());
            let mut scripts: Vec<Script> = (0..clients).map(|i| Script::writer(i, 6)).collect();
            run_preemptive(&mut k, &mut client_refs(&mut scripts), 0, true).unwrap();
            k.machine.clock.now()
        };
        let (solo, duo) = (time_for(1), time_for(2));
        assert!(
            duo.as_micros() < solo.as_micros() * 2,
            "disk waits should overlap CPU: solo={solo:?} duo={duo:?}"
        );
    }

    #[test]
    fn idle_hop_wakes_tied_clients_in_rotor_order() {
        // The wake rule of the module docs. c2 parks first (its only op
        // arrives at T+100 ms), c1 parks second on the same instant, c0
        // parks last on a later one, leaving the rotor just past c0 — at
        // c1. The idle hop to T+100 ms makes c1 and c2 ready together and
        // the rotor picks c1: position decides, not time spent waiting.
        let seed = (0..).find(|&s| splitmix64(s).is_multiple_of(3)).unwrap();
        let mut k = kernel(Policy::rio(rio_core::RioMode::Protected));
        // Warm the root directory so no listing waits on a cold read.
        k.readdir("/").unwrap();
        let t = k.machine.clock.now();
        let at = |ms: u64| t + SimTime::from_micros(ms * 1000);
        let list = || SyscallOp::Readdir("/".into());
        let mut scripts = [
            Script::open_loop(vec![list(), list(), list()], vec![t, t, at(200)]),
            Script::open_loop(vec![list(), list()], vec![t, at(100)]),
            Script::open_loop(vec![list()], vec![at(100)]),
        ];
        let trace = run_preemptive(&mut k, &mut client_refs(&mut scripts), seed, true).unwrap();
        assert_eq!(trace.quanta, vec![0, 1, 0, 1, 2, 0]);
        assert_eq!(trace.idle_hops, 2);
        assert!(trace.finish_at[0] >= at(200));
    }

    /// `op` through the typed blocking wrapper of the same name.
    fn call_wrapper(k: &mut Kernel, op: &SyscallOp) -> Result<SyscallRet, KernelError> {
        match op {
            SyscallOp::Create(p) => k.create(p).map(SyscallRet::Fd),
            SyscallOp::Open(p) => k.open(p).map(SyscallRet::Fd),
            SyscallOp::Close(fd) => k.close(*fd).map(|()| SyscallRet::Unit),
            SyscallOp::Write { fd, data } => k.write(*fd, data).map(SyscallRet::Size),
            SyscallOp::Pwrite { fd, offset, data } => {
                k.pwrite(*fd, *offset, data).map(SyscallRet::Size)
            }
            SyscallOp::Read { fd, len } => k.read(*fd, *len).map(SyscallRet::Bytes),
            SyscallOp::Pread { fd, offset, len } => {
                k.pread(*fd, *offset, *len).map(SyscallRet::Bytes)
            }
            SyscallOp::Fsync(fd) => k.fsync(*fd).map(|()| SyscallRet::Unit),
            SyscallOp::Sync => k.sync().map(|()| SyscallRet::Unit),
            SyscallOp::Mkdir(p) => k.mkdir(p).map(|()| SyscallRet::Unit),
            SyscallOp::Rmdir(p) => k.rmdir(p).map(|()| SyscallRet::Unit),
            SyscallOp::Unlink(p) => k.unlink(p).map(|()| SyscallRet::Unit),
            SyscallOp::Rename { from, to } => k.rename(from, to).map(|()| SyscallRet::Unit),
            SyscallOp::Readdir(p) => k.readdir(p).map(SyscallRet::Names),
            SyscallOp::Stat(p) => k.stat(p).map(SyscallRet::Stat),
            SyscallOp::PwriteIno { ino, offset, data } => k
                .pwrite_ino(*ino, *offset, data)
                .map(|()| SyscallRet::Size(data.len())),
        }
    }

    /// A script whose ops may fail: it keeps going, and records what each
    /// op returned (`None` for an error — all a client is ever told).
    struct Fuzz {
        script: SyscallScript,
        started: bool,
        rets: Vec<Option<SyscallRet>>,
    }

    impl Fuzz {
        fn new(ops: Vec<SyscallOp>) -> Self {
            Fuzz {
                script: ops.into_iter().collect(),
                started: false,
                rets: Vec::new(),
            }
        }

        /// The same script through the blocking wrappers, up to the first
        /// kernel crash.
        fn run_wrappers(&mut self, k: &mut Kernel) -> Result<(), KernelError> {
            let mut prev = None;
            while let Some(op) = self.next_op(prev.as_ref()) {
                prev = match call_wrapper(k, &op) {
                    Err(e) if k.is_crashed() => return Err(e),
                    r => r.ok(),
                };
            }
            Ok(())
        }

        /// The same script as the one client of a scheduler.
        fn run_scheduled(&mut self, k: &mut Kernel) -> Result<SchedTrace, KernelError> {
            let mut clients: [&mut dyn PreemptClient; 1] = [self];
            // No invariant check: the lock-skip sweep desynchronizes word
            // and owner table on purpose.
            run_preemptive(k, &mut clients, 0, false)
        }
    }

    impl PreemptClient for Fuzz {
        fn next_op(&mut self, prev: Option<&SyscallRet>) -> Option<SyscallOp> {
            if self.started {
                self.rets.push(prev.cloned());
            }
            self.started = true;
            self.script.next_op(prev)
        }
    }

    /// A random op over a namespace small enough that names collide: every
    /// syscall kind, succeeding and failing.
    fn random_op(g: &mut Gen) -> SyscallOp {
        const PATHS: [&str; 8] = [
            "/",
            "/a",
            "/b",
            "/d",
            "/d/x",
            "/d/y",
            "/e",
            "/a/under-a-file",
        ];
        let path = |g: &mut Gen| PATHS[g.in_range(0..PATHS.len())].to_owned();
        let fd = Fd::LAST_OPENED;
        let offset = g.in_range(0..3 * 4096u64);
        match g.in_range(0..18u32) {
            0 | 1 => SyscallOp::Create(path(g)),
            2 => SyscallOp::Open(path(g)),
            3 => SyscallOp::Close(fd),
            4 | 5 => SyscallOp::Write {
                fd,
                data: g.bytes(1, 2 * 4096 + 77),
            },
            6 => SyscallOp::Pwrite {
                fd,
                offset,
                data: g.bytes(1, 4096 + 5),
            },
            7 => SyscallOp::Read {
                fd,
                len: g.in_range(0..5000usize),
            },
            8 => SyscallOp::Pread {
                fd,
                offset,
                len: g.in_range(0..9000usize),
            },
            9 => SyscallOp::Fsync(fd),
            10 => SyscallOp::Mkdir(path(g)),
            11 => SyscallOp::Rmdir(path(g)),
            12 => SyscallOp::Unlink(path(g)),
            13 => SyscallOp::Rename {
                from: path(g),
                to: path(g),
            },
            14 => SyscallOp::Readdir(path(g)),
            15 => SyscallOp::Stat(path(g)),
            // Inodes 1–3 exist after the boot prelude (root, a directory,
            // a file); the rest may or may not, depending on the script.
            16 => SyscallOp::PwriteIno {
                ino: g.in_range(1..9u64),
                offset,
                data: g.bytes(1, 600),
            },
            _ => SyscallOp::Sync,
        }
    }

    /// What a crash would leave behind plus every counter: the memory
    /// image, the disk image and its statistics, the kernel's statistics.
    pub(crate) fn same_machine(a: &Kernel, b: &Kernel) -> Result<(), String> {
        let (ma, mb) = (a.machine.bus.mem(), b.machine.bus.mem());
        pt_assert_eq!(ma.len(), mb.len());
        for pn in 0..ma.len() / rio_mem::PAGE_SIZE as u64 {
            let pn = rio_mem::PageNum(pn);
            pt_assert!(
                ma.page(pn) == mb.page(pn),
                "memory differs in page {pn:?} ({:?})",
                ma.layout().region_of(pn.base())
            );
        }
        let (da, db) = (&a.machine.disk, &b.machine.disk);
        for block in 0..da.num_blocks() {
            pt_assert!(
                da.peek(block) == db.peek(block),
                "disk differs in block {block}"
            );
        }
        pt_assert_eq!(da.stats(), db.stats());
        pt_assert_eq!(a.stats(), b.stats());
        pt_assert_eq!(a.machine.bus.stats(), b.machine.bus.stats());
        Ok(())
    }

    #[test]
    fn one_scheduled_client_is_the_blocking_wrappers() {
        // One client, nobody to contend with: a continuation the scheduler
        // resumes quantum by quantum and the same continuation run straight
        // through by a wrapper are one sequencer, so they must leave the
        // same *machine* — every byte of memory and disk, every counter —
        // and, when neither run slept on the disk, the same clock. (When
        // one did they legitimately differ in time, and in the mtimes
        // stamped from it: the blocking clock sleeps inside the op; the
        // scheduler defers the sleep to the phase's end, so it overlaps
        // the rest of the phase's CPU time and the phase's later disk
        // requests are issued earlier.)
        let (mut cases, mut timed) = (0, 0);
        check(
            "one scheduled client == blocking wrappers",
            Config::default(),
            |g: &mut Gen| {
                let policy = if g.in_range(0..4u32) == 0 {
                    Policy::disk_write_through()
                } else {
                    Policy::rio(rio_core::RioMode::Protected)
                };
                let ops = g.vec(1, 48, random_op);
                cases += 1;
                let boot = || {
                    let mut k = kernel(policy.clone());
                    // Warm the metadata caches so that most Rio scripts never
                    // go to the disk at all.
                    k.mkdir("/d").unwrap();
                    k.create("/a").unwrap();
                    k
                };
                let (mut kw, mut ks) = (boot(), boot());
                let (mut w, mut s) = (Fuzz::new(ops.clone()), Fuzz::new(ops));
                let waited_before = kw.machine.clock.disk_wait();
                let (rw, rs) = (w.run_wrappers(&mut kw), s.run_scheduled(&mut ks));
                let untimed = |rets: &[Option<SyscallRet>]| -> Vec<Option<SyscallRet>> {
                    rets.iter()
                        .map(|r| match r {
                            Some(SyscallRet::Stat(st)) => {
                                Some(SyscallRet::Stat(crate::Stat { mtime: 0, ..*st }))
                            }
                            r => r.clone(),
                        })
                        .collect()
                };
                let wrapper_slept = kw.machine.clock.disk_wait() > waited_before;
                let Ok(trace) = rs else {
                    // There are no open-file reference counts: I/O through a
                    // descriptor whose file was unlinked finds a free inode
                    // and panics. Both drivers must die of it at the same op,
                    // having returned the same values on the way — up to the
                    // mtimes, if the blocking run slept on the disk.
                    pt_assert_eq!(rw.err(), rs.err());
                    if wrapper_slept {
                        pt_assert_eq!(untimed(&w.rets), untimed(&s.rets));
                    } else {
                        pt_assert_eq!(w.rets, s.rets);
                    }
                    return Ok(());
                };
                pt_assert_eq!(rw, Ok(()));
                if wrapper_slept || trace.idle_hops > 0 {
                    pt_assert_eq!(untimed(&w.rets), untimed(&s.rets));
                    pt_assert_eq!(kw.stats(), ks.stats());
                    pt_assert_eq!(kw.machine.disk.stats(), ks.machine.disk.stats());
                } else {
                    timed += 1;
                    pt_assert_eq!(w.rets, s.rets);
                    same_machine(&kw, &ks)?;
                    pt_assert_eq!(kw.machine.clock.now(), ks.machine.clock.now());
                    pt_assert_eq!(kw.machine.clock.cpu_time(), ks.machine.clock.cpu_time());
                }
                Ok(())
            },
        );
        assert!(
            timed * 2 > cases,
            "only {timed} of {cases} cases compared whole machines"
        );
    }

    /// A fixed script over the twelve syscall kinds a memTest issues, long
    /// enough to take `Fs` or `Ubc` ~60 times.
    fn lock_heavy_script() -> Vec<SyscallOp> {
        let mut ops = vec![SyscallOp::Mkdir("/d".into())];
        for i in 0..6 {
            let path = format!("/d/f{i}");
            ops.extend([
                SyscallOp::Create(path.clone()),
                SyscallOp::Write {
                    fd: Fd::LAST_OPENED,
                    data: vec![i as u8; 4096 + 100 * i],
                },
                SyscallOp::Pwrite {
                    fd: Fd::LAST_OPENED,
                    offset: 10,
                    data: vec![0xEE; 64],
                },
                SyscallOp::Fsync(Fd::LAST_OPENED),
                SyscallOp::Close(Fd::LAST_OPENED),
                SyscallOp::Open(path.clone()),
                SyscallOp::Read {
                    fd: Fd::LAST_OPENED,
                    len: 512,
                },
                SyscallOp::Pread {
                    fd: Fd::LAST_OPENED,
                    offset: 4000,
                    len: 300,
                },
                SyscallOp::Close(Fd::LAST_OPENED),
                SyscallOp::Readdir("/d".into()),
            ]);
            if i % 2 == 1 {
                ops.push(SyscallOp::Unlink(path));
            }
        }
        ops.extend([SyscallOp::Mkdir("/e".into()), SyscallOp::Rmdir("/e".into())]);
        ops
    }

    #[test]
    fn skipped_lock_ops_kill_wrappers_and_a_scheduled_client_alike() {
        // §3.1's synchronization fault, on a fixed cadence: whichever way
        // the script is driven, the same lock operation is the one
        // skipped, so the kernel must die of the same assertion after the
        // same number of syscalls. (With a second lock order in the
        // wrappers — `Fs` dropped before the body — it did not.)
        let mut crashes = 0;
        for n in 2..=60 {
            let run = |scheduled: bool| {
                let mut k = kernel(Policy::rio(rio_core::RioMode::Protected));
                k.readdir("/").unwrap();
                k.machine.hooks.lock_skip = Some(crate::hooks::Cadence::every(n));
                let mut script = Fuzz::new(lock_heavy_script());
                let r = if scheduled {
                    script.run_scheduled(&mut k).map(|_| ())
                } else {
                    script.run_wrappers(&mut k)
                };
                assert_eq!(r.is_err(), k.is_crashed(), "n={n}");
                let message = k.crash_info().map(|info| info.reason.message());
                (message, script.rets.len(), k.stats().syscalls)
            };
            let (wrappers, scheduled) = (run(false), run(true));
            assert_eq!(wrappers, scheduled, "lock op skipped every {n}");
            crashes += usize::from(wrappers.0.is_some());
        }
        assert!(
            crashes > 50,
            "the sweep should mostly crash: {crashes} of 59"
        );
    }

    #[test]
    fn benign_errors_leave_every_lock_free() {
        // The error unwind releases what the continuation held, through
        // the wrappers too: no word left set, no owner recorded, and the
        // kernel keeps serving.
        let mut k = kernel(Policy::rio(rio_core::RioMode::Protected));
        k.mkdir("/d").unwrap();
        let fd = k.create("/d/f").unwrap();
        let too_far = crate::ondisk::MAX_FILE_BLOCKS * rio_mem::PAGE_SIZE as u64;
        let cases: [(&str, KernelError, SyscallOp); 12] = [
            (
                "open missing",
                KernelError::NotFound,
                SyscallOp::Open("/nope".into()),
            ),
            (
                "stat under missing",
                KernelError::NotFound,
                SyscallOp::Stat("/nope/x".into()),
            ),
            (
                "rename missing",
                KernelError::NotFound,
                SyscallOp::Rename {
                    from: "/nope".into(),
                    to: "/n2".into(),
                },
            ),
            (
                "create existing",
                KernelError::Exists,
                SyscallOp::Create("/d/f".into()),
            ),
            (
                "rename onto existing",
                KernelError::Exists,
                SyscallOp::Rename {
                    from: "/d/f".into(),
                    to: "/d".into(),
                },
            ),
            (
                "open a directory",
                KernelError::IsDir,
                SyscallOp::Open("/d".into()),
            ),
            (
                "unlink a directory",
                KernelError::IsDir,
                SyscallOp::Unlink("/d".into()),
            ),
            (
                "rmdir a file",
                KernelError::NotDir,
                SyscallOp::Rmdir("/d/f".into()),
            ),
            (
                "walk through a file",
                KernelError::NotDir,
                SyscallOp::Mkdir("/d/f/x".into()),
            ),
            (
                "rmdir non-empty",
                KernelError::NotEmpty,
                SyscallOp::Rmdir("/d".into()),
            ),
            (
                "write to a closed fd",
                KernelError::BadFd,
                SyscallOp::Write {
                    fd: Fd(999),
                    data: vec![1],
                },
            ),
            (
                "pwrite past the largest file",
                KernelError::FileTooBig,
                SyscallOp::Pwrite {
                    fd,
                    offset: too_far,
                    data: vec![1],
                },
            ),
        ];
        for (what, expected, op) in cases {
            assert_eq!(call_wrapper(&mut k, &op), Err(expected), "{what}");
            for id in LockId::ALL {
                assert!(
                    !k.machine.locks.is_held(k.machine.bus.mem(), id),
                    "{what}: {id:?} word"
                );
                assert_eq!(k.lock_owner(id), None, "{what}: {id:?} owner");
            }
            assert!(!k.is_crashed(), "{what}");
            k.stat("/d/f")
                .unwrap_or_else(|e| panic!("{what}: next syscall: {e:?}"));
        }
    }

    #[test]
    fn wrapper_meeting_a_parked_lock_holder_crashes_on_the_word() {
        // A blocking syscall has nobody to queue behind: called between
        // quanta while a parked client sleeps in namei holding `Fs`, it
        // hits the held word and the kernel dies of `simple_lock`, the
        // way a second CPU entering an unlocked kernel would.
        let mut k = kernel(Policy::disk_write_through());
        let mut a = Script::new(vec![SyscallOp::Create("/a".into())]);
        let mut clients: [&mut dyn PreemptClient; 1] = [&mut a];
        let mut sched = PreemptSched::new(1, 0, true);
        assert_eq!(sched.step_once(&mut k, &mut clients), Ok(SchedStep::Ran(0)));
        assert_eq!(
            sched.held_locks(0),
            [LockId::Fs],
            "cold namei parks holding Fs"
        );
        let err = k.create("/b").unwrap_err();
        let reason = crate::PanicReason::Lock("simple_lock: fs lock already held".to_owned());
        assert_eq!(err, KernelError::Panic(reason.clone()));
        assert_eq!(k.crash_info().map(|info| &info.reason), Some(&reason));
    }

    #[test]
    fn cold_namei_blocks_holding_fs_and_contender_queues() {
        // On a cold metadata cache the first client's namei goes to disk
        // holding Fs; the second client's create must hit the FIFO.
        let mut k = kernel(Policy::disk_write_through());
        let mut a = Script::new(vec![SyscallOp::Create("/a".into())]);
        let mut b = Script::new(vec![SyscallOp::Create("/b".into())]);
        let mut clients: [&mut dyn PreemptClient; 2] = [&mut a, &mut b];
        let trace = run_preemptive(&mut k, &mut clients, 0, true).unwrap();
        assert!(k.stats.locks_contended >= 1, "no Fs contention observed");
        assert!(k.stats.locks_acquired >= 2);
        assert!(
            k.lockq.waiters[LockId::Fs.index()].is_empty(),
            "queue must drain"
        );
        assert_eq!(k.lock_owner(LockId::Fs), None, "lock must be released");
        assert!(
            trace.quanta.len() > 4,
            "mid-syscall yields should multiply quanta: {:?}",
            trace.quanta
        );
        let names = k.readdir("/").unwrap();
        assert_eq!(names, vec!["a".to_owned(), "b".to_owned()]);
    }

    /// `/f{i}` then `/d{i}` in the shared root: under write-through both
    /// block on the disk and contend for `Fs`.
    fn create_mkdir_scripts(n: usize) -> Vec<Script> {
        (0..n)
            .map(|i| {
                Script::new(vec![
                    SyscallOp::Create(format!("/f{i}")),
                    SyscallOp::Mkdir(format!("/d{i}")),
                ])
            })
            .collect()
    }

    #[test]
    fn interleaving_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut k = kernel(Policy::disk_write_through());
            let mut scripts = create_mkdir_scripts(3);
            let trace = run_preemptive(&mut k, &mut client_refs(&mut scripts), seed, true).unwrap();
            (trace.quanta, k.machine.clock.now())
        };
        assert_eq!(run(9), run(9), "same seed, same interleaving");
        let (q1, t1) = run(3);
        let (q2, t2) = run(4);
        assert_eq!(u64::from(q1[0]), splitmix64(3) % 3);
        assert_eq!(u64::from(q2[0]), splitmix64(4) % 3);
        assert_eq!(t1, t2, "same work, same total time");
    }

    /// Runs `scripts` with every decision re-derived by linear scan
    /// inside `step_once` — pick against [`PreemptSched::reference_pick`],
    /// idle-hop target against the minimum over all disk-blocked clients.
    fn run_cross_checked(k: &mut Kernel, scripts: &mut [Script], seed: u64) -> SchedTrace {
        let mut sched = PreemptSched::new(scripts.len(), seed, true);
        sched.cross_check = true;
        let mut clients = client_refs(scripts);
        while !matches!(sched.step_once(k, &mut clients).unwrap(), SchedStep::Done) {}
        sched.trace
    }

    #[test]
    fn indexed_pick_matches_linear_scan_at_1_and_64_clients() {
        // Disk and lock blocking both occur (write-through + shared root
        // dir), so all three wake paths are exercised.
        for n in [1usize, 64] {
            let run = || {
                let mut k = kernel(Policy::disk_write_through());
                run_cross_checked(&mut k, &mut create_mkdir_scripts(n), 11).quanta
            };
            let q = run();
            assert_eq!(q, run(), "n={n} not deterministic");
            assert!(q.len() > n, "n={n}: too few quanta: {}", q.len());
        }
    }

    #[test]
    fn indexed_pick_matches_linear_scan_at_1024_open_loop_clients() {
        // 1024 connections, two open → pread → close requests each over
        // 32 shared keys, arriving on their own clocks under Rio: nothing
        // blocks on the disk, so every entry of the wake heap is an
        // arrival. It starts with all 1024 parked, and the arrivals are
        // sparse enough (~10 % CPU) that most requests are reached by an
        // idle hop, each checked against the linear minimum.
        const CLIENTS: usize = 1024;
        let mut k = kernel(Policy::rio(rio_core::RioMode::Protected));
        for key in 0..32 {
            let fd = k.create(&format!("/k{key}")).unwrap();
            k.write(fd, &[key as u8; 4096]).unwrap();
            k.close(fd).unwrap();
        }
        let base = k.machine.clock.now();
        let mut scripts: Vec<Script> = (0..CLIENTS)
            .map(|c| {
                let mut ops = Vec::new();
                let mut arrivals = Vec::new();
                for r in 0..2u64 {
                    let draw = splitmix64(((c as u64) << 1) | r);
                    // A request's later ops arrived with it: due at once.
                    let at = base + SimTime::from_micros(r * 4_000_000 + draw % 4_000_000);
                    ops.extend([
                        SyscallOp::Open(format!("/k{}", (draw >> 32) % 32)),
                        SyscallOp::Pread {
                            fd: Fd::LAST_OPENED,
                            offset: (draw >> 40) % 3840,
                            len: 256,
                        },
                        SyscallOp::Close(Fd::LAST_OPENED),
                    ]);
                    arrivals.extend([at; 3]);
                }
                Script::open_loop(ops, arrivals)
            })
            .collect();
        let trace = run_cross_checked(&mut k, &mut scripts, 13);
        assert_eq!(
            trace.quanta.len(),
            CLIENTS * 6,
            "every syscall of every request ran"
        );
        assert!(
            trace.idle_hops > 100,
            "arrivals must park the fleet: {}",
            trace.idle_hops
        );
        for s in &scripts {
            assert!(matches!(&s.rets[1], SyscallRet::Bytes(b) if b.len() == 256));
        }
    }

    #[test]
    fn preemptive_multi_client_matches_serialized_runs() {
        // Interleaving fault-free clients must not change what ends up in
        // the file system, only when. Compare against the same scripts run one
        // client at a time.
        let script = |i: usize| {
            vec![
                SyscallOp::Create(format!("/f{i}")),
                SyscallOp::Mkdir(format!("/dir{i}")),
            ]
        };
        let write_script = |fd: Fd, i: usize| {
            vec![
                SyscallOp::Write {
                    fd,
                    data: vec![i as u8 + 1; 4096 * 2 + i],
                },
                SyscallOp::Fsync(fd),
                SyscallOp::Close(fd),
            ]
        };
        let run = |preemptive: bool| {
            let mut k = kernel(Policy::disk_write_through());
            // Phase 1: create files (returns per-client fds).
            let mut scripts: Vec<Script> = (0..4).map(|i| Script::new(script(i))).collect();
            if preemptive {
                run_preemptive(&mut k, &mut client_refs(&mut scripts), 5, true).unwrap();
            } else {
                for s in &mut scripts {
                    let mut clients: [&mut dyn PreemptClient; 1] = [s];
                    run_preemptive(&mut k, &mut clients, 5, true).unwrap();
                }
            }
            let fds: Vec<Fd> = scripts
                .iter()
                .map(|s| match s.rets[0] {
                    SyscallRet::Fd(fd) => fd,
                    ref other => panic!("create returned {other:?}"),
                })
                .collect();
            // Phase 2: write + fsync + close.
            let mut scripts: Vec<Script> = fds
                .iter()
                .enumerate()
                .map(|(i, &fd)| Script::new(write_script(fd, i)))
                .collect();
            if preemptive {
                run_preemptive(&mut k, &mut client_refs(&mut scripts), 6, true).unwrap();
            } else {
                for s in &mut scripts {
                    let mut clients: [&mut dyn PreemptClient; 1] = [s];
                    run_preemptive(&mut k, &mut clients, 6, true).unwrap();
                }
            }
            let mut state: Vec<(String, Vec<u8>)> = Vec::new();
            for i in 0..4 {
                let path = format!("/f{i}");
                let data = k.file_contents(&path).unwrap();
                state.push((path, data));
            }
            (state, k.readdir("/").unwrap())
        };
        let inter = run(true);
        let serial = run(false);
        assert_eq!(inter, serial, "interleaving changed the final state");
    }
}
