//! Crash forensics: replay one campaign trial with tracing enabled.
//!
//! A Table 1 cell tells you *how many* trials corrupted data; this module
//! answers *how one of them did*. Given a campaign coordinate
//! `(seed, fault, system, attempt)` — the same pure-function addressing
//! the campaign itself uses ([`rio_faults::workload_seed`] for the shared
//! per-cell workload stream, [`rio_faults::campaign::trial_seed`] for the
//! per-trial injection stream) — it
//! re-runs that exact trial with a [`rio_obs`] trace session open and
//! renders a causal timeline from fault injection to the first corrupted
//! byte (or to the protection trap that stopped the wild store).
//!
//! Everything here is deterministic: the trial runs on the calling thread,
//! events are timestamped from the simulated clock, and the rendered text
//! is byte-identical across hosts and thread counts. `results_trace_example.txt`
//! and `BENCH_obs.json` at the repository root are the pinned rendering of
//! one trial — the `explain` row of [`crate::exhibits`], regenerated and
//! compared by `tests/exhibits.rs` and `exhibit --check`.

use rio_det::DetRng;
use rio_faults::campaign::trial_seed;
use rio_faults::{inject, workload_seed, FaultType, SystemKind};
use rio_kernel::{Kernel, KernelConfig, KernelError};
use rio_obs::{Event, EventCategory, Payload, Trace};
use rio_workloads::MemTest;

/// Coordinates and protocol parameters of the trial to replay.
#[derive(Debug, Clone)]
pub struct ExplainConfig {
    /// Campaign base seed (`RIO_SEED`; the shipped tables use 1996).
    pub campaign_seed: u64,
    /// Table 1 row.
    pub fault: FaultType,
    /// Table 1 column.
    pub system: SystemKind,
    /// Attempt index within the cell (0-based issue order).
    pub attempt: u64,
    /// memTest ops before injection.
    pub warmup_ops: u64,
    /// memTest ops allowed after injection.
    pub watchdog_ops: u64,
    /// Event-ring capacity for the trace session.
    pub ring_capacity: usize,
}

impl ExplainConfig {
    /// The paper-scale protocol ([`rio_faults::CampaignConfig::paper`]'s
    /// warmup/watchdog), so a coordinate here names the same trial the
    /// shipped `results_table1.txt` measured.
    pub fn paper(campaign_seed: u64, fault: FaultType, system: SystemKind, attempt: u64) -> Self {
        ExplainConfig {
            campaign_seed,
            fault,
            system,
            attempt,
            warmup_ops: 60,
            watchdog_ops: 800,
            ring_capacity: rio_obs::DEFAULT_CAPACITY,
        }
    }
}

/// Location of the first byte that differs between the model and the
/// recovered file system, in deterministic path order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstCorruption {
    /// Path of the first corrupted file.
    pub path: String,
    /// First differing byte offset.
    pub offset: usize,
    /// Model's byte at that offset (`None`: the recovered file is longer
    /// than the model).
    pub expected: Option<u8>,
    /// Recovered byte at that offset (`None`: the recovered file is
    /// shorter).
    pub actual: Option<u8>,
    /// Model file length.
    pub expected_len: usize,
    /// Recovered file length.
    pub actual_len: usize,
}

/// Locates the first differing byte between two buffers (offset, bytes on
/// each side); `None` when they are equal.
pub fn first_diff(expected: &[u8], actual: &[u8]) -> Option<(usize, Option<u8>, Option<u8>)> {
    let n = expected.len().min(actual.len());
    for i in 0..n {
        if expected[i] != actual[i] {
            return Some((i, Some(expected[i]), Some(actual[i])));
        }
    }
    if expected.len() != actual.len() {
        return Some((n, expected.get(n).copied(), actual.get(n).copied()));
    }
    None
}

/// How the replayed trial ended.
#[derive(Debug, Clone)]
pub enum ExplainVerdict {
    /// Survived the watchdog budget (the campaign discarded this attempt).
    NoCrash,
    /// Wedged without a kernel crash (also discarded).
    Wedged,
    /// Crashed and was examined.
    Crashed(Box<CrashExam>),
}

/// Everything the post-crash examination produced.
#[derive(Debug, Clone)]
pub struct CrashExam {
    /// Stable crash message.
    pub message: String,
    /// memTest ops completed at the crash.
    pub ops_before_crash: u64,
    /// Ops between injection and crash.
    pub latency_ops: u64,
    /// Whether Rio's protection trapped the wild store.
    pub protection_trap: bool,
    /// `"cold boot + fsck"` or `"warm reboot"`.
    pub reboot: &'static str,
    /// The reboot itself failed (total loss).
    pub unbootable: bool,
    /// Registry CRC caught a corrupted page at warm reboot.
    pub checksum_detected: bool,
    /// Registry entries quarantined by the warm-reboot scan.
    pub quarantined: u64,
    /// Torn data blocks fsck saw.
    pub torn_data_blocks: u64,
    /// Files that verified clean.
    pub files_ok: u64,
    /// Corrupted paths (deterministic model order).
    pub corrupted: Vec<String>,
    /// Missing paths.
    pub missing: Vec<String>,
    /// Missing directories.
    pub dirs_missing: Vec<String>,
    /// Objects skipped as the in-flight target.
    pub skipped_in_flight: u64,
    /// First corrupted byte, when a corrupted file exists.
    pub first_corruption: Option<FirstCorruption>,
}

/// The full forensic record of one replayed trial.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The coordinate replayed.
    pub cfg: ExplainConfig,
    /// Derived per-trial injection seed.
    pub trial_seed: u64,
    /// Derived per-cell workload seed (shared by every trial in the cell;
    /// what the checkpoint engine warms up and freezes).
    pub workload_seed: u64,
    /// Simulated time at injection (ns).
    pub injected_at_ns: u64,
    /// memTest ops completed at injection.
    pub injected_at_ops: u64,
    /// How it ended.
    pub verdict: ExplainVerdict,
    /// Captured events, notes, and counters (run + recovery combined).
    pub trace: Trace,
}

/// Replays the trial at `cfg`'s coordinate with tracing enabled.
pub fn explain_trial(cfg: &ExplainConfig) -> ExplainReport {
    let inject_seed = trial_seed(cfg.campaign_seed, cfg.fault, cfg.system, cfg.attempt);
    let wl_seed = workload_seed(cfg.campaign_seed, cfg.system);
    rio_obs::start(cfg.ring_capacity);
    let (verdict, injected_at_ops, injected_at_ns) = run_forensic(cfg, wl_seed, inject_seed);
    let trace = rio_obs::finish().expect("trace session was opened above");
    ExplainReport {
        cfg: cfg.clone(),
        trial_seed: inject_seed,
        workload_seed: wl_seed,
        injected_at_ns,
        injected_at_ops,
        verdict,
        trace,
    }
}

/// The campaign trial protocol ([`rio_faults::drive`]), instrumented.
///
/// The workload half (mkfs, memTest warmup) runs from the cell's shared
/// `wl_seed`; the injection half runs from the per-trial `inject_seed` —
/// exactly the split the campaign's checkpoint-fork engine uses, so the
/// forensic replay reconstructs the same machine state the campaign forked.
fn run_forensic(cfg: &ExplainConfig, wl_seed: u64, inject_seed: u64) -> (ExplainVerdict, u64, u64) {
    let mut rng = DetRng::seed_from_u64(inject_seed);
    let kcfg = KernelConfig::small(cfg.system.policy());
    let Ok(mut k) = Kernel::mkfs_and_mount(&kcfg) else {
        return (ExplainVerdict::Wedged, 0, 0);
    };
    let mt_cfg = cfg.system.memtest_config(wl_seed);
    let mut mt = MemTest::new(mt_cfg.clone());
    if mt.setup(&mut k).is_err() || mt.run(&mut k, cfg.warmup_ops).is_err() {
        return (ExplainVerdict::Wedged, 0, 0);
    }
    let injected_at_ops = mt.ops_done();
    let injected_at_ns = k.machine.clock.now().as_micros().saturating_mul(1_000);
    inject(&mut k, cfg.fault, &mut rng);

    let mut crashed = false;
    for _ in 0..cfg.watchdog_ops {
        match mt.step(&mut k) {
            Ok(()) => {}
            Err(KernelError::Panic(_)) | Err(KernelError::Crashed) => {
                crashed = true;
                break;
            }
            Err(_) => return (ExplainVerdict::Wedged, injected_at_ops, injected_at_ns),
        }
    }
    // Snapshot the dying kernel's counters before its stats die with it.
    rio_obs::with_registry(|r| k.observe_into(r));
    if !crashed {
        return (ExplainVerdict::NoCrash, injected_at_ops, injected_at_ns);
    }

    let info = k.crash_info().expect("crashed").clone();
    let ops = mt.ops_done();
    let mut exam = CrashExam {
        message: info.reason.message(),
        ops_before_crash: ops,
        latency_ops: ops - injected_at_ops,
        protection_trap: info.reason.is_protection_trap(),
        reboot: match cfg.system {
            SystemKind::DiskBased => "cold boot + fsck",
            _ => "warm reboot",
        },
        unbootable: false,
        checksum_detected: false,
        quarantined: 0,
        torn_data_blocks: 0,
        files_ok: 0,
        corrupted: Vec::new(),
        missing: Vec::new(),
        dirs_missing: Vec::new(),
        skipped_in_flight: 0,
        first_corruption: None,
    };

    let (image, disk) = k.into_crash_artifacts();
    let mut k2 = match cfg.system {
        SystemKind::DiskBased => match Kernel::cold_boot(&kcfg, disk) {
            Ok((k2, report)) => {
                exam.torn_data_blocks = report.fsck.torn_data_blocks;
                k2
            }
            Err(_) => {
                exam.unbootable = true;
                return (
                    ExplainVerdict::Crashed(Box::new(exam)),
                    injected_at_ops,
                    injected_at_ns,
                );
            }
        },
        _ => match Kernel::warm_boot(&kcfg, &image, disk) {
            Ok((k2, report)) => {
                if let Some(warm) = report.warm {
                    exam.checksum_detected = warm.dropped_bad_crc > 0;
                    exam.quarantined = warm.quarantined();
                }
                exam.torn_data_blocks = report.fsck.torn_data_blocks;
                k2
            }
            Err(_) => {
                exam.unbootable = true;
                return (
                    ExplainVerdict::Crashed(Box::new(exam)),
                    injected_at_ops,
                    injected_at_ns,
                );
            }
        },
    };

    let (expected, next_target) = MemTest::replay(&mt_cfg, ops);
    match expected.verify(&mut k2, Some(next_target.as_str())) {
        Ok(v) => {
            exam.files_ok = v.files_ok;
            exam.skipped_in_flight = v.skipped_in_flight;
            exam.missing = v.missing;
            exam.dirs_missing = v.dirs_missing;
            // `ModelFs::files` is a BTreeMap, so the first corrupted path
            // is deterministic: the byte-level diff below names the same
            // first corrupted byte on every run.
            if let Some(path) = v.corrupted.first() {
                let want = &expected.files[path];
                if let Ok(got) = k2.file_contents(path) {
                    if let Some((offset, e, a)) = first_diff(want, &got) {
                        exam.first_corruption = Some(FirstCorruption {
                            path: path.clone(),
                            offset,
                            expected: e,
                            actual: a,
                            expected_len: want.len(),
                            actual_len: got.len(),
                        });
                    }
                }
            }
            exam.corrupted = v.corrupted;
        }
        Err(_) => {
            // The rebooted system crashed during verification.
            exam.unbootable = true;
        }
    }
    // Fold in the recovery kernel's counters (boot + verification work).
    rio_obs::with_registry(|r| k2.observe_into(r));
    (
        ExplainVerdict::Crashed(Box::new(exam)),
        injected_at_ops,
        injected_at_ns,
    )
}

/// One event's payload, rendered with category-appropriate field names.
fn payload_str(e: &Event) -> String {
    match (e.category, e.payload) {
        (EventCategory::ProtectionTrap, Payload::Addr { addr, aux }) => {
            format!("addr=0x{addr:x} page={aux}")
        }
        (EventCategory::FaultInjected, Payload::Addr { addr, aux }) => {
            format!("addr=0x{addr:x} bit={aux}")
        }
        (EventCategory::FaultInjected, Payload::Count { value }) => format!("site={value}"),
        (EventCategory::Syscall, Payload::Count { value }) => format!("n={value}"),
        (EventCategory::HookFired, Payload::Count { value }) => {
            let kind = match value {
                0 => "copy_overrun",
                1 => "off_by_one",
                2 => "lock_skip",
                _ => "premature_free",
            };
            format!("kind={kind}")
        }
        (EventCategory::ShadowCommit, Payload::Block { block, aux }) => {
            format!("block={block} slot={aux}")
        }
        (EventCategory::BwriteConverted, Payload::Block { block, .. }) => {
            format!("block={block}")
        }
        (EventCategory::DiskDegrade, Payload::Block { block, .. }) => {
            format!("block={block}")
        }
        (EventCategory::FsckRetry, Payload::Block { block, aux }) => {
            format!("block={block} op={}", if aux == 0 { "read" } else { "write" })
        }
        (EventCategory::DiskRetry, Payload::Block { block, aux }) => {
            format!("block={block} remaining={aux}")
        }
        (EventCategory::LockContended, Payload::Addr { addr, aux }) => {
            let lock = rio_kernel::LockId::ALL
                .get(addr as usize)
                .map_or("?", |l| l.name());
            format!("lock={lock} client={aux}")
        }
        (EventCategory::TrialVerdict, Payload::Count { value }) => {
            let v = match value {
                0 => "no_crash",
                1 => "wedged",
                2 => "crashed_clean",
                _ => "crashed_corrupted",
            };
            format!("verdict={v}")
        }
        (_, Payload::None) => String::new(),
        (_, Payload::Addr { addr, aux }) => format!("addr=0x{addr:x} aux={aux}"),
        (_, Payload::Block { block, aux }) => format!("block={block} aux={aux}"),
        (_, Payload::Count { value }) => format!("value={value}"),
    }
}

fn push_event(out: &mut String, e: &Event) {
    let p = payload_str(e);
    if p.is_empty() {
        out.push_str(&format!("  t={:<12} {}\n", e.sim_ns, e.category.name()));
    } else {
        out.push_str(&format!("  t={:<12} {:<17} {}\n", e.sim_ns, e.category.name(), p));
    }
}

/// Routine traffic: high-volume categories summarized between landmarks so
/// the causal chain (injection → hook → trap → crash → recovery) stays
/// readable. Everything else renders as its own timeline line.
fn is_routine(c: EventCategory) -> bool {
    matches!(
        c,
        EventCategory::Syscall | EventCategory::ShadowCommit | EventCategory::BwriteConverted
    )
}

/// Flushes one summary line for a stretch of routine events.
fn flush_routine(out: &mut String, pending: &[Event]) {
    if pending.is_empty() {
        return;
    }
    let count = |c: EventCategory| pending.iter().filter(|e| e.category == c).count();
    let mut parts = Vec::new();
    for (c, noun) in [
        (EventCategory::Syscall, "syscalls"),
        (EventCategory::ShadowCommit, "shadow commits"),
        (EventCategory::BwriteConverted, "bwrite conversions"),
    ] {
        let n = count(c);
        if n > 0 {
            parts.push(format!("{n} {noun}"));
        }
    }
    out.push_str(&format!(
        "  t={}..{} (routine: {})\n",
        pending[0].sim_ns,
        pending[pending.len() - 1].sim_ns,
        parts.join(", ")
    ));
}

/// Renders the captured event stream: landmarks in full, routine traffic
/// summarized, the reboot's clock restart marked.
fn render_events(out: &mut String, events: &[Event]) {
    if events.is_empty() {
        out.push_str("  (no events captured)\n");
        return;
    }
    let mut pending: Vec<Event> = Vec::new();
    let mut last_ns = 0u64;
    for e in events {
        if e.sim_ns < last_ns {
            flush_routine(out, &pending);
            pending.clear();
            out.push_str("  === reboot: simulated clock restarts ===\n");
        }
        last_ns = e.sim_ns;
        if is_routine(e.category) {
            pending.push(*e);
        } else {
            flush_routine(out, &pending);
            pending.clear();
            push_event(out, e);
        }
    }
    flush_routine(out, &pending);
}

/// Renders the full forensic report as deterministic plain text.
///
/// The final line is the causal endpoint: the first corrupted byte, the
/// protection trap that prevented one, or the reason there was nothing to
/// explain.
pub fn render_timeline(report: &ExplainReport) -> String {
    let cfg = &report.cfg;
    let mut out = String::new();
    out.push_str("Rio crash forensics\n");
    out.push_str("===================\n");
    out.push_str(&format!(
        "coordinate : fault={} system={} attempt={}\n",
        cfg.fault.slug(),
        cfg.system.slug(),
        cfg.attempt
    ));
    out.push_str(&format!(
        "seed       : campaign {} -> workload 0x{:016x}, injection 0x{:016x}\n",
        cfg.campaign_seed, report.workload_seed, report.trial_seed
    ));
    out.push_str(&format!(
        "protocol   : warmup {} ops, watchdog {} ops\n",
        cfg.warmup_ops, cfg.watchdog_ops
    ));
    out.push_str(&format!(
        "injection  : after op {} at t={} ns ({})\n\n",
        report.injected_at_ops,
        report.injected_at_ns,
        cfg.fault.label(),
    ));

    out.push_str("timeline (sim ns):\n");
    render_events(&mut out, &report.trace.events);
    if report.trace.dropped > 0 {
        out.push_str(&format!(
            "  ({} older events dropped by the ring)\n",
            report.trace.dropped
        ));
    }
    if !report.trace.notes.is_empty() {
        out.push_str("notes:\n");
        for n in &report.trace.notes {
            out.push_str(&format!("  t={:<12} {}: {}\n", n.sim_ns, n.category.name(), n.text));
        }
    }
    out.push('\n');

    match &report.verdict {
        ExplainVerdict::NoCrash => {
            out.push_str(&format!(
                "verdict    : survived the {}-op watchdog — the campaign discarded this attempt\n",
                cfg.watchdog_ops
            ));
        }
        ExplainVerdict::Wedged => {
            out.push_str("verdict    : wedged without a kernel crash — discarded\n");
        }
        ExplainVerdict::Crashed(exam) => {
            out.push_str(&format!(
                "verdict    : crashed {} ops after injection: \"{}\"\n",
                exam.latency_ops, exam.message
            ));
            if exam.unbootable {
                out.push_str(&format!(
                    "reboot     : {} FAILED — total loss\n",
                    exam.reboot
                ));
            } else {
                out.push_str(&format!(
                    "reboot     : {}; {} registry entries quarantined, {} torn data blocks, \
                     checksum detected damage: {}\n",
                    exam.reboot,
                    exam.quarantined,
                    exam.torn_data_blocks,
                    if exam.checksum_detected { "yes" } else { "no" }
                ));
                out.push_str(&format!(
                    "verify     : {} files ok, {} corrupted, {} missing, {} dirs missing, \
                     {} skipped in-flight\n",
                    exam.files_ok,
                    exam.corrupted.len(),
                    exam.missing.len(),
                    exam.dirs_missing.len(),
                    exam.skipped_in_flight
                ));
            }
        }
    }

    out.push_str("\ncounters (run + recovery):\n");
    for (name, value) in report.trace.registry.counters() {
        out.push_str(&format!("  {name:<28} = {value}\n"));
    }
    let mut any_hist = false;
    for (name, h) in report.trace.registry.histograms() {
        if !any_hist {
            out.push_str("histograms:\n");
            any_hist = true;
        }
        out.push_str(&format!(
            "  {:<28} count={} mean={} max={}\n",
            name,
            h.count(),
            h.mean(),
            h.max()
        ));
    }
    out.push('\n');

    // The causal endpoint.
    match &report.verdict {
        ExplainVerdict::Crashed(exam) => {
            if let Some(fc) = &exam.first_corruption {
                let byte = |b: Option<u8>| match b {
                    Some(b) => format!("0x{b:02x}"),
                    None => "<end>".to_owned(),
                };
                out.push_str(&format!(
                    "first corrupted byte: {} @ offset {} — expected {}, found {} \
                     (lengths {}/{})\n",
                    fc.path,
                    fc.offset,
                    byte(fc.expected),
                    byte(fc.actual),
                    fc.expected_len,
                    fc.actual_len
                ));
            } else if !exam.missing.is_empty() || !exam.dirs_missing.is_empty() {
                let first = exam
                    .missing
                    .first()
                    .or(exam.dirs_missing.first())
                    .expect("one list is non-empty");
                out.push_str(&format!(
                    "damage     : {} lost entirely (no surviving bytes to diff)\n",
                    first
                ));
            } else if exam.unbootable {
                out.push_str("damage     : file system unrecoverable after the crash\n");
            } else if exam.protection_trap {
                let trap = report
                    .trace
                    .events
                    .iter()
                    .rev()
                    .find(|e| e.category == EventCategory::ProtectionTrap);
                match trap {
                    Some(e) => out.push_str(&format!(
                        "no corruption: protection trap at t={} ({}) stopped the wild store \
                         before it reached the file cache\n",
                        e.sim_ns,
                        payload_str(e)
                    )),
                    None => out.push_str(
                        "no corruption: the crash was a protection trap — the wild store \
                         never reached the file cache\n",
                    ),
                }
            } else {
                out.push_str(
                    "no corruption: every surviving file matched the memTest replay\n",
                );
            }
        }
        ExplainVerdict::NoCrash | ExplainVerdict::Wedged => {
            out.push_str("no crash to explain at this coordinate — try another attempt index\n");
        }
    }
    out
}

/// Minimal JSON string escaping (quotes and backslashes; messages and
/// paths contain nothing wilder).
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serializes the forensic report as JSON (hand-rolled, like the rest of
/// the dependency-free workspace).
pub fn explain_json(report: &ExplainReport) -> String {
    let cfg = &report.cfg;
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"coordinate\": {{\"fault\": \"{}\", \"system\": \"{}\", \"attempt\": {}, \
         \"campaign_seed\": {}, \"workload_seed\": {}, \"trial_seed\": {}}},\n",
        cfg.fault.slug(),
        cfg.system.slug(),
        cfg.attempt,
        cfg.campaign_seed,
        report.workload_seed,
        report.trial_seed
    ));
    let (verdict, message, first) = match &report.verdict {
        ExplainVerdict::NoCrash => ("no_crash", None, None),
        ExplainVerdict::Wedged => ("wedged", None, None),
        ExplainVerdict::Crashed(exam) => (
            if exam.first_corruption.is_some()
                || !exam.missing.is_empty()
                || !exam.dirs_missing.is_empty()
                || exam.unbootable
            {
                "crashed_corrupted"
            } else {
                "crashed_clean"
            },
            Some(exam.message.clone()),
            exam.first_corruption.clone(),
        ),
    };
    out.push_str(&format!("  \"verdict\": \"{verdict}\",\n"));
    match message {
        Some(m) => out.push_str(&format!("  \"message\": \"{}\",\n", esc(&m))),
        None => out.push_str("  \"message\": null,\n"),
    }
    match first {
        Some(fc) => {
            let opt = |b: Option<u8>| b.map(|v| v.to_string()).unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "  \"first_corruption\": {{\"path\": \"{}\", \"offset\": {}, \
                 \"expected\": {}, \"actual\": {}}},\n",
                esc(&fc.path),
                fc.offset,
                opt(fc.expected),
                opt(fc.actual)
            ));
        }
        None => out.push_str("  \"first_corruption\": null,\n"),
    }
    // Event census by category, in a stable order.
    let mut by_cat: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for e in &report.trace.events {
        *by_cat.entry(e.category.name()).or_insert(0) += 1;
    }
    out.push_str(&format!(
        "  \"events\": {{\"captured\": {}, \"dropped\": {}, \"by_category\": {{",
        report.trace.events.len(),
        report.trace.dropped
    ));
    for (i, (name, n)) in by_cat.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {n}"));
    }
    out.push_str("}},\n");
    let registry_json = report.trace.registry.to_json();
    out.push_str("  \"registry\": ");
    out.push_str(registry_json.trim_end());
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinned() -> ExplainConfig {
        ExplainConfig::paper(1996, FaultType::CopyOverrun, SystemKind::RioWithProtection, 0)
    }

    #[test]
    fn first_diff_locates_byte_and_length_mismatches() {
        assert_eq!(first_diff(b"abc", b"abc"), None);
        assert_eq!(first_diff(b"abc", b"axc"), Some((1, Some(b'b'), Some(b'x'))));
        assert_eq!(first_diff(b"abc", b"ab"), Some((2, Some(b'c'), None)));
        assert_eq!(first_diff(b"ab", b"abc"), Some((2, None, Some(b'c'))));
    }

    #[test]
    fn explain_is_deterministic_and_self_consistent() {
        let a = explain_trial(&pinned());
        let b = explain_trial(&pinned());
        assert_eq!(render_timeline(&a), render_timeline(&b));
        assert_eq!(explain_json(&a), explain_json(&b));
        // The trace actually saw the injection.
        assert!(a
            .trace
            .events
            .iter()
            .any(|e| e.category == EventCategory::FaultInjected));
        // The registry snapshot bridged kernel counters.
        assert!(a.trace.registry.get("kernel.syscalls") > 0);
    }

    #[test]
    fn json_is_shaped() {
        let j = explain_json(&explain_trial(&pinned()));
        assert!(j.contains("\"coordinate\""));
        assert!(j.contains("\"fault\": \"copy_overrun\""));
        assert!(j.contains("\"by_category\""));
        assert!(j.contains("\"counters\""));
        assert!(j.trim_end().ends_with('}'));
    }
}
