//! Fault hooks: the high-level software faults of §3.1 that imitate
//! specific kernel programming errors.
//!
//! These faults are behavioural, not bit-level: a `bcopy` that copies too
//! much, a `malloc` that frees a live block early, a comparison that is off
//! by one, lock acquire/release procedures that silently do nothing. The
//! hooks are plain data consulted by the kernel's own code paths; the fault
//! injector (`rio-faults`) arms them with the paper's trigger cadences and
//! length distributions.

/// Fires every `period` invocations (the paper arms bcopy/malloc faults to
/// trigger "every 1000–4000 times it is called"; our scaled workloads use a
/// proportionally scaled period).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cadence {
    period: u64,
    count: u64,
}

impl Cadence {
    /// A cadence firing every `period` calls.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn every(period: u64) -> Self {
        assert!(period > 0, "cadence period must be positive");
        Cadence { period, count: 0 }
    }

    /// Counts one invocation; true when the fault should fire.
    pub fn tick(&mut self) -> bool {
        self.count += 1;
        self.count.is_multiple_of(self.period)
    }
}

/// Overrun length distribution from §3.1: 50% corrupt one byte, 44% corrupt
/// 2–1024 bytes, 6% corrupt 2–4 KB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverrunSpec {
    /// Trigger cadence.
    pub cadence: Cadence,
    /// Pre-drawn overrun lengths, consumed round-robin (drawn by the
    /// injector from the paper's distribution with its seeded RNG, so the
    /// kernel stays deterministic and RNG-free).
    pub lengths: Vec<u64>,
    next: usize,
}

impl OverrunSpec {
    /// A spec with the given cadence and pre-drawn lengths.
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty.
    pub fn new(cadence: Cadence, lengths: Vec<u64>) -> Self {
        assert!(!lengths.is_empty(), "need at least one overrun length");
        OverrunSpec {
            cadence,
            lengths,
            next: 0,
        }
    }

    /// Ticks the cadence; when it fires, returns the extra byte count.
    pub fn tick(&mut self) -> Option<u64> {
        if self.cadence.tick() {
            let len = self.lengths[self.next % self.lengths.len()];
            self.next += 1;
            Some(len)
        } else {
            None
        }
    }
}

/// Which direction the off-by-one fault skews loop bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffByOne {
    /// `<` became `<=`: one iteration too many (copies/scans one extra).
    OneMore,
    /// `<=` became `<`: one iteration too few (truncates).
    OneLess,
}

/// A premature free scheduled by the allocation fault: the block is freed
/// `delay_calls` kmalloc-calls after it was handed out, while its owner
/// still uses it (the paper frees after a 0–256 ms sleep; our analogue is
/// call-count delay, which is deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingPrematureFree {
    /// Address of the victim allocation.
    pub addr: u64,
    /// Remaining kmalloc calls before the free happens.
    pub delay_calls: u64,
}

/// All armable high-level fault hooks. Default: everything disarmed.
#[derive(Debug, Clone, Default)]
pub struct FaultHooks {
    /// Copy overrun: `bcopy` occasionally copies extra bytes.
    pub copy_overrun: Option<OverrunSpec>,
    /// Off-by-one: block-boundary comparisons skew by one when the buggy
    /// path is hit (cadence models how rarely the miscompared boundary
    /// condition actually arises).
    pub off_by_one: Option<(OffByOne, Cadence)>,
    /// Allocation management: kmalloc occasionally schedules a premature
    /// free of the block it just returned.
    pub alloc_premature_free: Option<Cadence>,
    /// Synchronization: lock acquire/release occasionally return without
    /// acquiring/freeing.
    pub lock_skip: Option<Cadence>,
    /// In-flight premature free scheduled by the allocation fault.
    pub pending_free: Option<PendingPrematureFree>,
    /// Count of fault activations (for campaign reporting).
    pub activations: u64,
}

impl FaultHooks {
    /// Hooks with everything disarmed (normal kernel behaviour).
    pub fn none() -> Self {
        FaultHooks::default()
    }

    /// Counts one activation and traces it. `kind`: 0 = copy overrun,
    /// 1 = off-by-one, 2 = lock skip, 3 = premature free.
    fn fired(&mut self, kind: u64) {
        self.activations += 1;
        if rio_obs::is_enabled() {
            rio_obs::emit(
                rio_obs::EventCategory::HookFired,
                rio_obs::Payload::Count { value: kind },
            );
        }
    }

    /// Whether any hook is armed.
    #[cfg(test)]
    pub fn any_armed(&self) -> bool {
        self.copy_overrun.is_some()
            || self.off_by_one.is_some()
            || self.alloc_premature_free.is_some()
            || self.lock_skip.is_some()
    }

    /// Consults the copy-overrun hook for one bcopy of `len` bytes; returns
    /// the (possibly extended) length.
    pub fn bcopy_len(&mut self, len: u64) -> u64 {
        let mut out = len;
        if let Some(spec) = &mut self.copy_overrun {
            if let Some(extra) = spec.tick() {
                self.fired(0);
                out += extra;
            }
        }
        if let Some((dir, cadence)) = &mut self.off_by_one {
            if cadence.tick() {
                let dir = *dir;
                self.fired(1);
                return match dir {
                    OffByOne::OneMore => out + 1,
                    OffByOne::OneLess => out.saturating_sub(1),
                };
            }
        }
        out
    }

    /// Consults the off-by-one hook for a directory-entry scan bound.
    pub fn dirents_scan_skew(&mut self) -> i32 {
        if let Some((dir, cadence)) = &mut self.off_by_one {
            if cadence.tick() {
                let dir = *dir;
                self.fired(1);
                return match dir {
                    OffByOne::OneMore => 1,
                    OffByOne::OneLess => -1,
                };
            }
        }
        0
    }

    /// Consults the lock-skip hook; true means this acquire/release should
    /// silently do nothing.
    pub fn skip_lock_op(&mut self) -> bool {
        if let Some(c) = &mut self.lock_skip {
            if c.tick() {
                self.fired(2);
                return true;
            }
        }
        false
    }

    /// Consults the allocation hook after kmalloc returned `addr`; arms a
    /// pending premature free when the cadence fires. Also counts down any
    /// already-pending free and returns the address to free when due.
    pub fn on_kmalloc(&mut self, addr: u64) -> Option<u64> {
        // Progress a pending free first.
        let due = if let Some(p) = &mut self.pending_free {
            if p.delay_calls == 0 {
                let a = p.addr;
                self.pending_free = None;
                Some(a)
            } else {
                p.delay_calls -= 1;
                None
            }
        } else {
            None
        };
        if self.pending_free.is_none() {
            if let Some(c) = &mut self.alloc_premature_free {
                if c.tick() {
                    self.fired(3);
                    self.pending_free = Some(PendingPrematureFree {
                        addr,
                        delay_calls: 3,
                    });
                }
            }
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_fires_on_period() {
        let mut c = Cadence::every(3);
        assert!(!c.tick());
        assert!(!c.tick());
        assert!(c.tick());
        assert!(!c.tick());
        assert!(!c.tick());
        assert!(c.tick());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cadence_rejected() {
        Cadence::every(0);
    }

    #[test]
    fn overrun_extends_on_fire() {
        let mut h = FaultHooks {
            copy_overrun: Some(OverrunSpec::new(Cadence::every(2), vec![100, 7])),
            ..FaultHooks::none()
        };
        assert_eq!(h.bcopy_len(10), 10);
        assert_eq!(h.bcopy_len(10), 110); // fires, +100
        assert_eq!(h.bcopy_len(10), 10);
        assert_eq!(h.bcopy_len(10), 17); // fires, +7
        assert_eq!(h.activations, 2);
    }

    #[test]
    fn off_by_one_skews_on_cadence() {
        let mut more = FaultHooks {
            off_by_one: Some((OffByOne::OneMore, Cadence::every(2))),
            ..FaultHooks::none()
        };
        assert_eq!(more.bcopy_len(8), 8);
        assert_eq!(more.bcopy_len(8), 9);
        let mut less = FaultHooks {
            off_by_one: Some((OffByOne::OneLess, Cadence::every(1))),
            ..FaultHooks::none()
        };
        assert_eq!(less.bcopy_len(8), 7);
        assert_eq!(less.bcopy_len(0), 0); // saturates
        assert_eq!(less.dirents_scan_skew(), -1);
    }

    #[test]
    fn lock_skip_fires_on_cadence() {
        let mut h = FaultHooks {
            lock_skip: Some(Cadence::every(2)),
            ..FaultHooks::none()
        };
        assert!(!h.skip_lock_op());
        assert!(h.skip_lock_op());
        assert!(!h.skip_lock_op());
        assert!(h.skip_lock_op());
    }

    #[test]
    fn premature_free_is_scheduled_and_delivered() {
        let mut h = FaultHooks {
            alloc_premature_free: Some(Cadence::every(2)),
            ..FaultHooks::none()
        };
        assert_eq!(h.on_kmalloc(0x100), None); // call 1
        assert_eq!(h.on_kmalloc(0x200), None); // call 2: schedules free of 0x200
        assert!(h.pending_free.is_some());
        assert_eq!(h.on_kmalloc(0x300), None); // delay 3→2
        assert_eq!(h.on_kmalloc(0x400), None); // 2→1
        assert_eq!(h.on_kmalloc(0x500), None); // 1→0
        assert_eq!(h.on_kmalloc(0x600), Some(0x200)); // due
        assert!(h.pending_free.is_none());
    }

    #[test]
    fn disarmed_hooks_do_nothing() {
        let mut h = FaultHooks::none();
        assert!(!h.any_armed());
        assert_eq!(h.bcopy_len(64), 64);
        assert!(!h.skip_lock_op());
        assert_eq!(h.on_kmalloc(0x1), None);
        assert_eq!(h.activations, 0);
    }
}
