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
//! "That exact trial" is literal: [`explain_trial`] calls the phases
//! [`rio_faults::drive`] is composed of (`rio_faults::driver`), so its
//! [`TrialObservation`] — and with it the verdict, "corrupted" meaning
//! `damage > 0` exactly as in Table 1 — is the campaign's, field for field
//! (`tests/explain_is_the_campaign_trial.rs` samples it).
//!
//! Everything here is deterministic: the trial runs on the calling thread,
//! events are timestamped from the simulated clock, and the rendered text
//! is byte-identical across hosts and thread counts. `results_trace_example.txt`
//! and `BENCH_obs.json` at the repository root are the pinned rendering of
//! one trial — the `explain` row of [`crate::exhibits`], regenerated and
//! compared by `tests/exhibits.rs` and `exhibit --check`.

use rio_faults::campaign::trial_seed;
use rio_faults::{
    examine_crash, run_to_crash, workload_seed, CampaignConfig, Examination, FaultType,
    PreparedTrial, SystemKind, TrialObservation, TrialVerdict,
};
use rio_kernel::Kernel;
use rio_obs::{json_escape, Event, EventCategory, Payload, Trace};
use rio_workloads::{ModelFs, VerifyReport};

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
}

impl ExplainConfig {
    /// The paper-scale protocol ([`CampaignConfig::paper`]'s
    /// warmup/watchdog), so a coordinate here names the same trial the
    /// shipped `results_table1.txt` measured.
    pub fn paper(campaign_seed: u64, fault: FaultType, system: SystemKind, attempt: u64) -> Self {
        let protocol = CampaignConfig::paper(campaign_seed);
        ExplainConfig {
            campaign_seed,
            fault,
            system,
            attempt,
            warmup_ops: protocol.warmup_ops,
            watchdog_ops: protocol.watchdog_ops,
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

/// What the post-crash examination saw beyond the trial's observation.
#[derive(Debug, Clone)]
pub struct CrashExam {
    /// `"cold boot + fsck"` or `"warm reboot"`.
    pub reboot: &'static str,
    /// The memTest comparison; `None` on a total loss (the reboot failed,
    /// or the recovered system died during verification).
    pub report: Option<VerifyReport>,
    /// First corrupted byte, when a corrupted file could be read back.
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
    /// What the trial observed — equal to what [`rio_faults::drive`]
    /// returns at this coordinate.
    pub observation: TrialObservation,
    /// The examination's detail; `Some` exactly when the trial crashed.
    pub exam: Option<CrashExam>,
    /// Captured events, notes, and counters (run + recovery combined).
    pub trace: Trace,
}

/// Replays the trial at `cfg`'s coordinate with tracing enabled: the
/// campaign's own steady point and phases, with each kernel's counters
/// snapshotted before it is consumed.
pub fn explain_trial(cfg: &ExplainConfig) -> ExplainReport {
    let inject_seed = trial_seed(cfg.campaign_seed, cfg.fault, cfg.system, cfg.attempt);
    let wl_seed = workload_seed(cfg.campaign_seed, cfg.system);
    // Opened before the boot: the trace's counters include the warm-up.
    rio_obs::start(rio_obs::DEFAULT_CAPACITY);
    let mut trial = PreparedTrial::prepare(cfg.system, wl_seed, cfg.warmup_ops);
    let (mut observation, mut provenance) =
        run_to_crash(&mut trial, cfg.fault, inject_seed, cfg.watchdog_ops);
    // Snapshot the dying kernel's counters before its stats die with it.
    if let Some(k) = trial.kernel() {
        rio_obs::with_registry(|r| k.observe_into(r));
    }
    let mut exam = None;
    if observation.verdict == TrialVerdict::Crashed {
        let examined = examine_crash(trial, &mut observation, &mut provenance);
        exam = Some(crash_exam(cfg.system, examined));
    }
    let trace = rio_obs::finish().expect("trace session was opened above");
    ExplainReport {
        cfg: cfg.clone(),
        trial_seed: inject_seed,
        workload_seed: wl_seed,
        observation,
        exam,
        trace,
    }
}

/// Names the first corrupted byte and folds the recovery kernel's counters
/// (boot + verification work) into the open session.
fn crash_exam(system: SystemKind, examined: Option<Examination>) -> CrashExam {
    let mut exam = CrashExam {
        reboot: match system {
            SystemKind::DiskBased => "cold boot + fsck",
            _ => "warm reboot",
        },
        report: None,
        first_corruption: None,
    };
    if let Some(Examination {
        mut kernel,
        verified,
    }) = examined
    {
        // One client: the first (only) comparison is the trial's.
        if let Some((expected, report)) = verified.and_then(|v| v.into_iter().next()) {
            exam.first_corruption = first_corruption(&mut kernel, &expected, &report);
            exam.report = Some(report);
        }
        rio_obs::with_registry(|r| kernel.observe_into(r));
    }
    exam
}

/// `ModelFs::files` is a `BTreeMap`, so the first corrupted path is
/// deterministic: the byte-level diff names the same first corrupted byte
/// on every run. `None` when nothing is corrupted or the file cannot be
/// read back.
fn first_corruption(
    k: &mut Kernel,
    expected: &ModelFs,
    report: &VerifyReport,
) -> Option<FirstCorruption> {
    let path = report.corrupted.first()?;
    let want = &expected.files[path];
    let got = k.file_contents(path).ok()?;
    let (offset, e, a) = first_diff(want, &got)?;
    Some(FirstCorruption {
        path: path.clone(),
        offset,
        expected: e,
        actual: a,
        expected_len: want.len(),
        actual_len: got.len(),
    })
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
            format!(
                "block={block} op={}",
                if aux == 0 { "read" } else { "write" }
            )
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
        out.push_str(&format!(
            "  t={:<12} {:<17} {}\n",
            e.sim_ns,
            e.category.name(),
            p
        ));
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
    let (cfg, obs) = (&report.cfg, &report.observation);
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
        obs.injected_at_ops,
        obs.injected_at_time.as_micros().saturating_mul(1_000),
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
            out.push_str(&format!(
                "  t={:<12} {}: {}\n",
                n.sim_ns,
                n.category.name(),
                n.text
            ));
        }
    }
    out.push('\n');

    match (&report.exam, obs.verdict) {
        (None, TrialVerdict::NoCrash) => {
            out.push_str(&format!(
                "verdict    : survived the {}-op watchdog — the campaign discarded this attempt\n",
                cfg.watchdog_ops
            ));
        }
        (None, _) => {
            out.push_str("verdict    : wedged without a kernel crash — discarded\n");
        }
        (Some(exam), _) => {
            out.push_str(&format!(
                "verdict    : crashed {} ops after injection: \"{}\"\n",
                obs.crash_latency_ops.unwrap_or(0),
                obs.message.as_deref().unwrap_or("")
            ));
            match &exam.report {
                None => out.push_str(&format!(
                    "reboot     : {} FAILED — total loss\n",
                    exam.reboot
                )),
                Some(v) => {
                    out.push_str(&format!(
                        "reboot     : {}; {} registry entries quarantined, {} torn data blocks, \
                         checksum detected damage: {}\n",
                        exam.reboot,
                        obs.quarantined,
                        obs.torn_data_blocks,
                        if obs.checksum_detected { "yes" } else { "no" }
                    ));
                    out.push_str(&format!(
                        "verify     : {} files ok, {} corrupted, {} missing, {} dirs missing, \
                         {} skipped in-flight\n",
                        v.files_ok,
                        v.corrupted.len(),
                        v.missing.len(),
                        v.dirs_missing.len(),
                        v.skipped_in_flight
                    ));
                }
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
    match &report.exam {
        Some(exam) => out.push_str(&causal_endpoint(obs, exam, &report.trace)),
        None => {
            out.push_str("no crash to explain at this coordinate — try another attempt index\n");
        }
    }
    out
}

/// The last line of the report: where the damage is, or why there is none.
/// It says "no corruption" exactly when Table 1 would not count the trial
/// as one ([`TrialObservation::corrupted`]).
fn causal_endpoint(obs: &TrialObservation, exam: &CrashExam, trace: &Trace) -> String {
    let Some(v) = &exam.report else {
        return "damage     : file system unrecoverable after the crash\n".to_owned();
    };
    if let Some(fc) = &exam.first_corruption {
        let byte = |b: Option<u8>| match b {
            Some(b) => format!("0x{b:02x}"),
            None => "<end>".to_owned(),
        };
        format!(
            "first corrupted byte: {} @ offset {} — expected {}, found {} (lengths {}/{})\n",
            fc.path,
            fc.offset,
            byte(fc.expected),
            byte(fc.actual),
            fc.expected_len,
            fc.actual_len
        )
    } else if let Some(first) = v.missing.first().or(v.dirs_missing.first()) {
        format!("damage     : {first} lost entirely (no surviving bytes to diff)\n")
    } else if let Some(first) = v.corrupted.first() {
        format!(
            "damage     : {first} corrupted, and unreadable after recovery (no bytes to diff)\n"
        )
    } else if obs.corrupted() {
        format!(
            "damage     : {} of the /static comparison files differ from what was planted\n",
            obs.damage - v.damage_count()
        )
    } else if obs.protection_trap {
        let trap = trace
            .events
            .iter()
            .rev()
            .find(|e| e.category == EventCategory::ProtectionTrap);
        match trap {
            Some(e) => format!(
                "no corruption: protection trap at t={} ({}) stopped the wild store \
                 before it reached the file cache\n",
                e.sim_ns,
                payload_str(e)
            ),
            None => "no corruption: the crash was a protection trap — the wild store \
                     never reached the file cache\n"
                .to_owned(),
        }
    } else {
        "no corruption: every surviving file matched the memTest replay\n".to_owned()
    }
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
    let obs = &report.observation;
    let verdict = match obs.verdict {
        TrialVerdict::NoCrash => "no_crash",
        TrialVerdict::Wedged => "wedged",
        TrialVerdict::Crashed if obs.corrupted() => "crashed_corrupted",
        TrialVerdict::Crashed => "crashed_clean",
    };
    out.push_str(&format!("  \"verdict\": \"{verdict}\",\n"));
    match &obs.message {
        Some(m) => out.push_str(&format!("  \"message\": \"{}\",\n", json_escape(m))),
        None => out.push_str("  \"message\": null,\n"),
    }
    match report
        .exam
        .as_ref()
        .and_then(|e| e.first_corruption.as_ref())
    {
        Some(fc) => {
            let opt = |b: Option<u8>| b.map(|v| v.to_string()).unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "  \"first_corruption\": {{\"path\": \"{}\", \"offset\": {}, \
                 \"expected\": {}, \"actual\": {}}},\n",
                json_escape(&fc.path),
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
        ExplainConfig::paper(
            1996,
            FaultType::CopyOverrun,
            SystemKind::RioWithProtection,
            0,
        )
    }

    #[test]
    fn first_diff_locates_byte_and_length_mismatches() {
        assert_eq!(first_diff(b"abc", b"abc"), None);
        assert_eq!(
            first_diff(b"abc", b"axc"),
            Some((1, Some(b'b'), Some(b'x')))
        );
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

    /// A crashed trial whose examination found `damage` damaged objects,
    /// `report` of them in the memTest set and no first byte to name.
    fn examined(damage: usize, report: VerifyReport) -> ExplainReport {
        ExplainReport {
            cfg: pinned(),
            trial_seed: 0,
            workload_seed: 0,
            observation: TrialObservation {
                verdict: TrialVerdict::Crashed,
                message: Some("panic: a \"quoted\"\nreason".to_owned()),
                damage,
                ..TrialObservation::wedged()
            },
            exam: Some(CrashExam {
                reboot: "warm reboot",
                report: Some(report),
                first_corruption: None,
            }),
            trace: Trace {
                events: Vec::new(),
                dropped: 0,
                notes: Vec::new(),
                registry: rio_obs::Registry::new(),
            },
        }
    }

    #[test]
    fn damage_with_no_first_byte_to_name_is_still_reported_as_damage() {
        // Confined to the /static pairs: the memTest comparison is clean.
        let static_only = examined(2, VerifyReport::default());
        let text = render_timeline(&static_only);
        assert!(text.ends_with(
            "damage     : 2 of the /static comparison files differ from what was planted\n"
        ));
        assert!(explain_json(&static_only).contains("\"verdict\": \"crashed_corrupted\""));

        // A corrupted file whose read-back fails: no bytes to diff.
        let unreadable = examined(
            1,
            VerifyReport {
                corrupted: vec!["/m/dir0/f3".to_owned()],
                ..VerifyReport::default()
            },
        );
        let text = render_timeline(&unreadable);
        assert!(text.ends_with(
            "damage     : /m/dir0/f3 corrupted, and unreadable after recovery (no bytes to diff)\n"
        ));
        let json = explain_json(&unreadable);
        assert!(json.contains("\"verdict\": \"crashed_corrupted\""));
        assert!(json.contains(r#""message": "panic: a \"quoted\"\nreason""#));

        // And no damage is no damage.
        let clean = examined(0, VerifyReport::default());
        assert!(render_timeline(&clean).ends_with("matched the memTest replay\n"));
        assert!(explain_json(&clean).contains("\"verdict\": \"crashed_clean\""));
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
