//! Deterministic observability: the workspace's structured-event and
//! counter spine.
//!
//! Rio's evaluation (paper §3.2–3.3) is an exercise in *explaining*
//! corruptions — which fault was planted where, which hook fired, whether
//! the protection trap or the registry checksum caught the damage. This
//! crate provides the uniform substrate those explanations are built on:
//!
//! * **Structured events** — fixed-size [`Event`] records (`sim_ns`,
//!   `cpu`, [`EventCategory`], [`Payload`]) collected into a
//!   pre-allocated ring buffer. The hot path performs **zero heap
//!   allocation**: an emit is a bounds-checked write into storage
//!   reserved when the session opened. Timestamps come from the
//!   *simulated* clock (published by `rio-kernel`'s `Clock` via
//!   [`set_sim_ns`]), never from host time, so a trace is a pure
//!   function of the trial seed — bit-identical at any thread count and
//!   replayable forever.
//! * **Counter/histogram registries** — [`Registry`] holds named
//!   monotonic counters and log-linear-bucket [`Histogram`]s (16
//!   sub-buckets per power-of-two octave, so percentile estimates carry
//!   at most 1/16 relative error) with a deterministic (sorted-key)
//!   iteration order and a commutative, associative
//!   [`Registry::merge_from`], so per-trial registries folded in attempt
//!   order reproduce the serial campaign exactly.
//! * **A thread-local session** — each campaign trial owns one simulated
//!   machine and runs on one worker thread, so the trace session is
//!   thread-local: [`start`] opens it, [`finish`] closes it and returns
//!   the [`Trace`]. When no session is open every instrumentation site
//!   costs a single thread-local boolean read ([`is_enabled`]), which is
//!   what keeps the campaign binaries and `perf`'s `kernel.pwrite_*_ns`
//!   probes at their pre-instrumentation numbers.
//!
//! This crate is a dependency-free leaf: `rio-mem`, `rio-disk`,
//! `rio-kernel`, and `rio-faults` all emit into it without cycles.
//! Paper cross-reference: the event catalogue mirrors §2.1 (protection
//! traps, KSEG-through-TLB), §2.3 (shadow-paged metadata commits,
//! delayed write-backs), §3.1 (fault injection sites), and §3.2 (trial
//! verdicts).

#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// What kind of thing happened. Categories are stable identifiers used in
/// rendered timelines and the JSON export; see the module docs for the
/// paper sections each mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventCategory {
    /// A wild store hit a write-protected page while protection was
    /// enforced (§2.1; Table 1's "protection trap" saves).
    ProtectionTrap,
    /// Syscall entry (the kernel's `enter_syscall` guard).
    Syscall,
    /// An armed behavioural fault hook fired (copy overrun, off-by-one,
    /// premature free, lock skip — §3.1).
    HookFired,
    /// A metadata update that a disk-based kernel would `bwrite`
    /// synchronously was converted to a delayed `bdwrite` by the policy
    /// (§2.3: Rio issues no reliability-induced writes).
    BwriteConverted,
    /// A shadow-paged atomic metadata update committed (§2.3's
    /// copy-to-shadow / repoint / mutate / repoint-back protocol).
    ShadowCommit,
    /// fsck absorbed a transient block I/O error by retrying.
    FsckRetry,
    /// The disk's fallible path absorbed a transient per-block fault.
    DiskRetry,
    /// A block degraded permanently (dead even after the retry budget).
    DiskDegrade,
    /// One fault instance was planted (bit flip, instruction patch, or
    /// hook arming — §3.1's 20 faults per run).
    FaultInjected,
    /// A trial's final verdict (per-trial provenance for Table 1 cells).
    TrialVerdict,
    /// The trial harness itself panicked; the panic text is preserved as
    /// a [`Note`] so crash-message accounting cannot silently undercount.
    TrialPanic,
    /// A preemptive lock acquisition found the lock held by another
    /// client and joined the FIFO wait queue (contention is only possible
    /// under the preemptive scheduler, where locks are held across
    /// yields).
    LockContended,
}

impl EventCategory {
    /// Stable lowercase name (used by timelines and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            EventCategory::ProtectionTrap => "protection_trap",
            EventCategory::Syscall => "syscall",
            EventCategory::HookFired => "hook_fired",
            EventCategory::BwriteConverted => "bwrite_converted",
            EventCategory::ShadowCommit => "shadow_commit",
            EventCategory::FsckRetry => "fsck_retry",
            EventCategory::DiskRetry => "disk_retry",
            EventCategory::DiskDegrade => "disk_degrade",
            EventCategory::FaultInjected => "fault_injected",
            EventCategory::TrialVerdict => "trial_verdict",
            EventCategory::TrialPanic => "trial_panic",
            EventCategory::LockContended => "lock_contended",
        }
    }
}

impl std::fmt::Display for EventCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Event payload: a small `Copy` union of scalar shapes, so recording an
/// event never allocates. The category determines which shape to expect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// No details beyond the category.
    None,
    /// An address-shaped payload (faulting address, page number, …).
    Addr {
        /// Byte address in simulated physical memory.
        addr: u64,
        /// Category-specific auxiliary value (page number, flipped bit…).
        aux: u64,
    },
    /// A block-shaped payload (disk block plus detail).
    Block {
        /// Disk block number.
        block: u64,
        /// Category-specific auxiliary value.
        aux: u64,
    },
    /// A single magnitude (a count, an index, a length).
    Count {
        /// The value.
        value: u64,
    },
}

/// One structured trace record. Fixed-size and `Copy`: the ring buffer
/// stores these inline, so the emit path never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated nanoseconds since boot (from the published simulated
    /// clock — **never** host time; see [`set_sim_ns`]).
    pub sim_ns: u64,
    /// Logical CPU that emitted the event. Every simulated machine in
    /// this workspace is single-CPU today, so this is always 0; the field
    /// exists so the schema survives a future multi-CPU machine.
    pub cpu: u16,
    /// What happened.
    pub category: EventCategory,
    /// Scalar details.
    pub payload: Payload,
}

/// A cold-path annotation carrying heap data (e.g. a panic message).
/// Notes are *not* subject to the zero-allocation rule — they are emitted
/// at most a handful of times per trial, never on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// Simulated nanoseconds at emission.
    pub sim_ns: u64,
    /// Category (typically [`EventCategory::TrialPanic`]).
    pub category: EventCategory,
    /// Free-form text.
    pub text: String,
}

// ---------------------------------------------------------------------
// Registry: counters and histograms
// ---------------------------------------------------------------------

/// Linear sub-buckets per power-of-two octave (16 = 2^[`SUB_BITS`]).
/// Also the size of the exact low-value region: every value below 16 gets
/// its own bucket, so 0 and 1 are never conflated.
const SUB_BUCKETS: usize = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Total bucket count: 16 exact buckets for values `0..=15`, then 16
/// linear sub-buckets for each of the 60 octaves `2^4 ..= 2^63`.
const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// A log-linear histogram (HdrHistogram-style): values below 16 get exact
/// unit buckets, and every power-of-two octave above that is split into
/// 16 linear sub-buckets keyed by the top 4 bits after the leading one
/// (`SUB_BUCKETS`, `SUB_BITS`). Bucket width is
/// therefore at most `low/16`, which bounds the relative error of any
/// percentile estimate by **1/16** — the pure power-of-two layout this
/// replaced was off by up to 2×, exactly where a p999 claim lives.
///
/// The bucket array is fixed-size and [`Histogram::record`] never
/// allocates; [`Histogram::merge_from`] is bucket-wise addition, so merge
/// results are independent of fold order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value: identity below [`SUB_BUCKETS`], else
    /// log-linear on the leading [`SUB_BITS`] bits after the top one.
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            value as usize
        } else {
            let octave = 63 - value.leading_zeros(); // >= SUB_BITS
            let sub = ((value >> (octave - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
            (octave - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
        }
    }

    /// Lowest value mapping to bucket `index` (the representative
    /// percentile estimates report: conservative, never above any sample
    /// in the bucket).
    fn bucket_low(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            index as u64
        } else {
            let octave = SUB_BITS as usize + (index - SUB_BUCKETS) / SUB_BUCKETS;
            let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
            ((SUB_BUCKETS + sub) as u64) << (octave - SUB_BITS as usize)
        }
    }

    /// Highest value mapping to bucket `index`.
    #[cfg(test)]
    fn bucket_high(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            index as u64
        } else {
            let octave = SUB_BITS as usize + (index - SUB_BUCKETS) / SUB_BUCKETS;
            Self::bucket_low(index) + ((1u64 << (octave - SUB_BITS as usize)) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Picks `frac` (clamped to `0.0..=1.0`) of the way through the
    /// recorded sample, following the workspace percentile convention
    /// (`rio_det::stats::percentile`: rank `floor((count-1)·frac)`).
    /// Returns the lower bound of the bucket holding that rank — at most
    /// 1/16 below the true sample value, and never above it. 0 when
    /// empty; a histogram of all-zero samples reports 0 at every
    /// percentile (value 0 owns its bucket).
    pub fn percentile(&self, frac: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let frac = frac.clamp(0.0, 1.0);
        let rank = ((self.count - 1) as f64 * frac) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bucket_low(i);
            }
        }
        self.max
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Adds another histogram's samples into this one.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Named monotonic counters plus named histograms, with deterministic
/// (sorted-key) iteration and a commutative, associative merge.
///
/// Determinism argument: keys are stored in `BTreeMap`s, so iteration
/// (and therefore rendering/JSON) is independent of insertion order; and
/// because merging is plain addition, folding per-trial registries **in
/// attempt order** — the same order the serial campaign runs — produces
/// identical totals at any thread count (the parallel scheduler already
/// guarantees attempt-order folding; see `rio-faults::campaign`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Overwrites the named counter with an absolute value (snapshot
    /// bridging from pre-existing stats structs).
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one sample into the named histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .record(value);
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histograms in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry into this one (counter-wise addition,
    /// histogram-wise bucket addition). Commutative and associative, so
    /// any fold order yields the same totals; campaigns still fold in
    /// attempt order to mirror the serial stopping rule.
    pub fn merge_from(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge_from(h);
        }
    }

    /// Serializes counters and histogram summaries as JSON (hand-rolled:
    /// the workspace is offline and dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n    \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n      \"{}\": {v}", json_escape(k)));
        }
        out.push_str("\n    },\n    \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"max\": {}}}",
                json_escape(k),
                h.count(),
                h.sum(),
                h.mean(),
                h.max()
            ));
        }
        out.push_str("\n    }\n  }");
        out
    }
}

/// Escapes `s` for the inside of a JSON string literal: `"` and `\` get a
/// backslash, newline / tab / carriage return their two-character forms,
/// every other control character `\u00XX`. The one escaper under every
/// hand-rolled JSON writer in the workspace.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// The thread-local trace session
// ---------------------------------------------------------------------

/// Everything a finished session produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Events in emission order. When more than the session capacity were
    /// emitted, these are the **most recent** `capacity` events.
    pub events: Vec<Event>,
    /// Events discarded because the ring was full (oldest first out).
    pub dropped: u64,
    /// Cold-path notes (panic messages etc.), in emission order.
    pub notes: Vec<Note>,
    /// Counters/histograms accumulated while the session was open.
    pub registry: Registry,
}

struct Session {
    ring: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    notes: Vec<Note>,
    registry: Registry,
}

impl Session {
    fn new(capacity: usize) -> Session {
        Session {
            ring: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
            notes: Vec::new(),
            registry: Registry::new(),
        }
    }

    fn push(&mut self, ev: Event) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            // Overwrite the oldest slot: no allocation, bounded memory.
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn into_trace(mut self) -> Trace {
        // Rotate so events come out oldest-first.
        self.ring.rotate_left(self.head);
        Trace {
            events: self.ring,
            dropped: self.dropped,
            notes: self.notes,
            registry: self.registry,
        }
    }
}

thread_local! {
    /// The one branch every instrumentation site pays when tracing is off.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Simulated time published by the kernel clock (ns since boot).
    static SIM_NS: Cell<u64> = const { Cell::new(0) };
    static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// Default ring capacity for [`start`]: enough for a whole explained
/// trial (injection + hooks + syscalls + reboot) without wrapping.
pub const DEFAULT_CAPACITY: usize = 16384;

/// Opens a trace session on the current thread with room for `capacity`
/// events. The ring storage is allocated **here**, once — emits never
/// allocate. Any session already open on this thread is discarded.
pub fn start(capacity: usize) {
    SESSION.with(|s| *s.borrow_mut() = Some(Session::new(capacity)));
    SIM_NS.with(|t| t.set(0));
    ENABLED.with(|e| e.set(true));
}

/// Closes the current thread's session, returning everything it captured.
/// Returns `None` if no session was open.
pub fn finish() -> Option<Trace> {
    ENABLED.with(|e| e.set(false));
    SESSION
        .with(|s| s.borrow_mut().take())
        .map(Session::into_trace)
}

/// Whether a trace session is open on this thread. This is the guard
/// every hot-path site checks first; with tracing off it is a single
/// thread-local byte read.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Publishes the current simulated time (ns since boot). Called by the
/// kernel's `Clock` whenever simulated time advances, so events carry
/// deterministic timestamps wherever they are emitted — including layers
/// (like the memory bus) that have no clock of their own.
#[inline]
pub fn set_sim_ns(ns: u64) {
    SIM_NS.with(|t| t.set(ns));
}

/// The most recently published simulated time.
#[inline]
pub fn sim_ns() -> u64 {
    SIM_NS.with(|t| t.get())
}

/// Emits one event stamped with the published simulated time. No-op
/// (one thread-local read) when no session is open.
#[inline]
pub fn emit(category: EventCategory, payload: Payload) {
    if !is_enabled() {
        return;
    }
    emit_at(sim_ns(), category, payload);
}

/// Emits one event with an explicit timestamp (callers that hold the
/// simulated clock pass its reading directly).
pub fn emit_at(sim_ns: u64, category: EventCategory, payload: Payload) {
    if !is_enabled() {
        return;
    }
    SESSION.with(|s| {
        if let Some(session) = s.borrow_mut().as_mut() {
            session.push(Event {
                sim_ns,
                cpu: 0,
                category,
                payload,
            });
        }
    });
}

/// Records a cold-path note (e.g. a trial panic message). Allocates; must
/// never be called from a hot path.
pub fn note(category: EventCategory, text: String) {
    if !is_enabled() {
        return;
    }
    let at = sim_ns();
    SESSION.with(|s| {
        if let Some(session) = s.borrow_mut().as_mut() {
            session.notes.push(Note {
                sim_ns: at,
                category,
                text,
            });
        }
    });
}

/// Records a sample into a named histogram in the open session's
/// registry. No-op when tracing is off.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    SESSION.with(|s| {
        if let Some(session) = s.borrow_mut().as_mut() {
            session.registry.record(name, value);
        }
    });
}

/// Runs `f` with access to the open session's registry (snapshot
/// bridging at trial end). No-op when tracing is off.
pub fn with_registry(f: impl FnOnce(&mut Registry)) {
    if !is_enabled() {
        return;
    }
    SESSION.with(|s| {
        if let Some(session) = s.borrow_mut().as_mut() {
            f(&mut session.registry);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64) -> Event {
        Event {
            sim_ns: ns,
            cpu: 0,
            category: EventCategory::Syscall,
            payload: Payload::Count { value: ns },
        }
    }

    #[test]
    fn disabled_emits_are_no_ops() {
        assert!(!is_enabled());
        emit(EventCategory::Syscall, Payload::None);
        histogram_record("h", 5);
        note(EventCategory::TrialPanic, "nope".to_owned());
        assert!(finish().is_none());
    }

    #[test]
    fn session_captures_events_counters_notes() {
        start(16);
        set_sim_ns(40);
        emit(
            EventCategory::ProtectionTrap,
            Payload::Addr {
                addr: 0x2000,
                aux: 1,
            },
        );
        emit_at(80, EventCategory::ShadowCommit, Payload::Count { value: 7 });
        histogram_record("disk.queue_depth", 4);
        note(EventCategory::TrialPanic, "boom".to_owned());
        let t = finish().expect("session open");
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].sim_ns, 40);
        assert_eq!(t.events[1].category, EventCategory::ShadowCommit);
        assert_eq!(t.registry.histogram("disk.queue_depth").unwrap().count(), 1);
        assert_eq!(t.notes[0].text, "boom");
        assert_eq!(t.dropped, 0);
        assert!(!is_enabled(), "finish disables");
    }

    #[test]
    fn ring_keeps_most_recent_events_in_order() {
        start(4);
        for i in 0..10u64 {
            emit_at(i, EventCategory::Syscall, Payload::Count { value: i });
        }
        let t = finish().unwrap();
        assert_eq!(t.dropped, 6);
        let times: Vec<u64> = t.events.iter().map(|e| e.sim_ns).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn histogram_zero_owns_its_bucket() {
        // Regression: the power-of-two layout conflated 0 and 1 into
        // bucket 0, so an all-zero histogram reported a nonzero
        // percentile. Zero now has an exact bucket of its own.
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(0);
        }
        for frac in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(frac), 0, "all-zero sample at p{frac}");
        }
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), 1);
        assert_ne!(
            Histogram::bucket_index(0),
            Histogram::bucket_index(1),
            "0 and 1 must not share a bucket"
        );
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        // Boundary pins at 0, 1, 2^k-1, 2^k across the whole range: every
        // value lands in a bucket whose [low, high] range contains it,
        // and the bucket edges line up with the power-of-two boundaries.
        let mut values = vec![0u64, 1];
        for k in 1..64u32 {
            values.push((1u64 << k) - 1);
            values.push(1u64 << k);
        }
        values.push(u64::MAX);
        for &v in &values {
            let i = Histogram::bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let lo = Histogram::bucket_low(i);
            let hi = Histogram::bucket_high(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
        }
        // Values below SUB_BUCKETS are exact.
        for v in 0..SUB_BUCKETS as u64 {
            let i = Histogram::bucket_index(v);
            assert_eq!(Histogram::bucket_low(i), v);
            assert_eq!(Histogram::bucket_high(i), v);
        }
        // Bucket index is monotone in the value.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(Histogram::bucket_index(w[0]) <= Histogram::bucket_index(w[1]));
        }
    }

    #[test]
    fn histogram_percentile_relative_error_at_most_one_sixteenth() {
        // The headline accuracy regression: for any single value v, the
        // reported percentile p satisfies p <= v and (v - p)/v <= 1/16.
        // The old power-of-two layout was off by up to 2x (e.g. 1023
        // reported as 512).
        let mut probes: Vec<u64> = vec![1, 2, 3, 15, 16, 17, 100, 1000, 1023, 1024, 1025];
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            probes.push(v);
            probes.push(v.saturating_add(v / 3));
            v = v.saturating_mul(2);
        }
        probes.push(u64::MAX);
        for &v in &probes {
            let mut h = Histogram::default();
            h.record(v);
            let p = h.percentile(0.5);
            assert!(p <= v, "estimate {p} above sample {v}");
            let err = u128::from(v - p) * 16;
            assert!(
                err <= u128::from(v),
                "relative error above 1/16 for {v}: estimate {p}"
            );
        }
        // Old layout's poster child: 1023 must no longer collapse to 512.
        let mut h = Histogram::default();
        h.record(1023);
        assert!(h.percentile(0.5) >= 960, "got {}", h.percentile(0.5));
    }

    #[test]
    fn histogram_percentiles_follow_workspace_convention() {
        // Dense integer sample 1..=1000: ranks follow
        // floor((count-1)*frac), estimates stay within 1/16 below the
        // exact order statistic.
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (frac, exact) in [
            (0.0, 1u64),
            (0.5, 500),
            (0.99, 990),
            (0.999, 999),
            (1.0, 1000),
        ] {
            let p = h.percentile(frac);
            assert!(p <= exact, "p{frac}: {p} > exact {exact}");
            assert!(
                (exact - p) * 16 <= exact,
                "p{frac}: estimate {p} more than 1/16 below {exact}"
            );
        }
        // Merging two halves reproduces the percentile of the whole.
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in 1..=1000u64 {
            if v.is_multiple_of(2) {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge_from(&b);
        for frac in [0.5, 0.99, 0.999] {
            assert_eq!(a.percentile(frac), h.percentile(frac));
        }
    }

    #[test]
    fn histogram_buckets_count_and_mean() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.mean() > 0);
        let mut other = Histogram::default();
        other.record(8);
        h.merge_from(&other);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn registry_merge_is_deterministic_in_any_fold_order() {
        // Simulate three per-trial registries produced by attempts 0,1,2.
        let mk = |n: u64| {
            let mut r = Registry::new();
            r.add("mem.protection_traps", n);
            r.add("kernel.syscalls", 10 * n);
            r.record("disk.queue_depth", n);
            r
        };
        let trials = [mk(1), mk(2), mk(3)];

        // Attempt-order fold (what the campaign does).
        let mut serial = Registry::new();
        for t in &trials {
            serial.merge_from(t);
        }
        // Reverse fold (what an adversarial scheduler might do).
        let mut reversed = Registry::new();
        for t in trials.iter().rev() {
            reversed.merge_from(t);
        }
        // Pairwise tree fold.
        let mut left = Registry::new();
        left.merge_from(&trials[0]);
        left.merge_from(&trials[1]);
        let mut tree = Registry::new();
        tree.merge_from(&left);
        tree.merge_from(&trials[2]);

        assert_eq!(serial, reversed);
        assert_eq!(serial, tree);
        assert_eq!(serial.get("mem.protection_traps"), 6);
        assert_eq!(serial.get("kernel.syscalls"), 60);
        assert_eq!(serial.histogram("disk.queue_depth").unwrap().count(), 3);
    }

    #[test]
    fn registry_iteration_is_sorted_regardless_of_insertion() {
        let mut r = Registry::new();
        r.add("zeta", 1);
        r.add("alpha", 2);
        r.add("mid", 3);
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn registry_json_is_shaped() {
        let mut r = Registry::new();
        r.add("kernel.syscalls", 42);
        r.record("disk.queue_depth", 3);
        let j = r.to_json();
        assert!(j.contains("\"kernel.syscalls\": 42"));
        assert!(j.contains("\"disk.queue_depth\""));
        assert!(j.contains("\"count\": 1"));
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_control_characters() {
        assert_eq!(json_escape("a\"b\\c\n\t\u{1}"), "a\\\"b\\\\c\\n\\t\\u0001");
        assert_eq!(json_escape("\r\u{1f}"), "\\r\\u001f");
        assert_eq!(
            json_escape("kernel.syscalls /m0 é"),
            "kernel.syscalls /m0 é"
        );
        let mut r = Registry::new();
        r.add("a\"b", 1);
        assert!(r.to_json().contains("\"a\\\"b\": 1"));
    }

    #[test]
    fn session_restart_discards_previous() {
        start(8);
        SESSION.with(|s| s.borrow_mut().as_mut().unwrap().push(ev(1)));
        start(8);
        let t = finish().unwrap();
        assert!(t.events.is_empty());
    }
}
