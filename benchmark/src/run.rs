//! The runner: set-up samples, one discarded warm-up repetition, timed
//! repetitions for `--seconds`, the determinism check, the workload's
//! output checks, and the result lines.
//!
//! One process, one host thread, one workload: the "1024 clients" of the
//! server workloads are simulated connections. Host metrics are medians
//! over repetitions; simulated metrics and counts must be bit-identical
//! whenever a variant runs again, or the run fails.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Value;
use crate::spans::SpanLog;
use crate::stats::{median, quartiles};
use crate::workload::{RepOut, Summary, TraceCtx, Workload};
use crate::{campaign, fileops, probes, recovery, server};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes (one rung, one system, a tenth of the files): checks
    /// that everything runs; its numbers compare with nothing.
    pub quick: bool,
    /// Append the full result document to this file as one JSON line.
    pub out: Option<String>,
}

/// Set-up is sampled at least `MIN_SETUPS` times, and then for as long
/// as it has used less than `SETUP_SHARE` of the run so far, up to
/// `MAX_SETUPS` times. The samples are spread over the whole run — a
/// set-up before a repetition replaces the prepared state with an
/// identical one — because on a shared host any one second can be a
/// third slower than the next, and a median of samples all taken in
/// that second moves with it (measured: 27 ms against 36 ms on two
/// consecutive runs when all samples came from the first 0.6 s).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 31;
const SETUP_SHARE: f64 = 0.15;

fn build(name: &str, seed: u64, quick: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fileops" => Box::new(fileops::FileOps::prepare(seed, quick)?),
        "server-rio" => Box::new(server::ServerWl::prepare(
            &rio_baselines::rio_with_protection(),
            seed,
            quick,
        )?),
        "server-ufs" => Box::new(server::ServerWl::prepare(
            &rio_baselines::ufs_default(),
            seed,
            quick,
        )?),
        "campaign" => Box::new(campaign::Campaign::prepare(seed, quick)?),
        "recovery" => Box::new(recovery::Recovery::prepare(seed, quick)?),
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {other:?}; one of {known:?}"));
        }
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The commit a result came from, when the sources sit in a git
/// checkout (the driver's copy does not).
fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: String| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let head = read(format!("{git}/HEAD"));
    let commit = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read(format!("{git}/{r}")),
        None => head,
    };
    commit.unwrap_or_else(|| "unknown".to_owned())
}

/// A later repetition of a variant must reproduce the first one's
/// deterministic outputs exactly. `superset` allows extra keys on the
/// later side (the traced route reads counters the untraced cannot).
fn check_repeat(first: &RepOut, again: &RepOut, what: &str, superset: bool) -> Result<(), String> {
    if !superset && first.det.len() != again.det.len() {
        return Err(format!("{what}: the set of deterministic outputs changed"));
    }
    for (k, v) in &first.det {
        if again.det.get(k) != Some(v) {
            return Err(format!(
                "not deterministic: {what}: {k} = {:?}, was {v}",
                again.det.get(k)
            ));
        }
    }
    if (first.ops, first.attempted, first.failed) != (again.ops, again.attempted, again.failed) {
        return Err(format!(
            "not deterministic: {what}: operation counts changed"
        ));
    }
    Ok(())
}

struct Metric {
    value: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Metric {
    fn exact(value: f64) -> Metric {
        Metric {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    fn of_samples(samples: &[f64]) -> Metric {
        let (q1, q3) = quartiles(samples);
        Metric {
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }
}

/// `{name: {"value", "unit"}}` for the result line.
fn metric_cell(value: f64, unit: &str) -> Value {
    let mut v = Value::obj();
    v.set("value", value).set("unit", unit);
    v
}

fn header(args: &Args, doc: &mut Value) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    doc.set("schema", "rio-perf-v1")
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("quick", args.quick)
        .set("nproc", nproc)
        .set("commit", git_commit());
}

/// Ends a run: appends `doc` to `--out`, prints the one-line contract
/// result — exactly `correct`, `attempted`, `failed`, `metrics` — last,
/// and fails the process when an output check did.
fn finish(
    args: &Args,
    doc: &Value,
    metrics: Value,
    (attempted, failed): (u64, u64),
    check_error: Option<String>,
) -> Result<(), String> {
    if let Some(path) = &args.out {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{}", doc.render()).map_err(|e| format!("{path}: {e}"))?;
    }
    let failure = check_error
        .or_else(|| (failed > 0).then(|| format!("{failed} of {attempted} operations failed")));
    if let Some(why) = &failure {
        println!("  CHECK FAILED: {why}");
    }
    let mut line = Value::obj();
    line.set("correct", failure.is_none())
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    println!("{}", line.render());
    failure.map_or(Ok(()), Err)
}

/// A failed output check still lets the run print what it measured.
fn or_report(summary: Result<Summary, String>) -> (Summary, Option<String>) {
    match summary {
        Ok(s) => (s, None),
        Err(e) => (Summary::default(), Some(e)),
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

/// One timed set-up; its host seconds join `samples`.
fn set_up(args: &Args, samples: &mut Vec<f64>) -> Result<Box<dyn Workload>, String> {
    let t = Instant::now();
    let wl = build(&args.workload, args.seed, args.quick)?;
    samples.push(t.elapsed().as_secs_f64());
    Ok(wl)
}

fn run_end_to_end(args: &Args) -> Result<(), String> {
    // Set-up: the median over its samples is `setup_s`.
    let mut setup_samples = Vec::new();
    let mut wl = set_up(args, &mut setup_samples)?;
    let variants = wl.variants();
    let mut off = SpanLog::new(false);

    // Warm-up: discarded for timing, kept as the first witness of
    // variant 0's outputs; the slow output check runs on it, untimed.
    let mut warm = wl.rep(0, &mut off)?;
    let post_failed = warm
        .post_check
        .take()
        .map(|check| check())
        .transpose()?
        .unwrap_or(0);

    // Timed repetitions, in whole cycles over the variants: at least two
    // cycles (so every variant is witnessed twice), then until time is
    // up.
    let mut firsts: Vec<Option<RepOut>> = (0..variants).map(|_| None).collect();
    let mut rep_s: Vec<Vec<f64>> = vec![Vec::new(); variants];
    let (mut attempted, mut failed) = (0, post_failed);
    let started = Instant::now();
    let mut cycles = 0;
    while cycles < 2 || started.elapsed().as_secs_f64() < args.seconds {
        for variant in 0..variants {
            // A sample is due whenever set-up is within its share of
            // the time spent; the first `MIN_SETUPS` at the latest at
            // even steps through the run.
            let elapsed_s = started.elapsed().as_secs_f64();
            let setups = setup_samples.len();
            let within_share = !args.quick
                && setups < MAX_SETUPS
                && setup_samples.iter().sum::<f64>() < SETUP_SHARE * elapsed_s;
            let overdue = setups < MIN_SETUPS
                && elapsed_s >= args.seconds * setups as f64 / MIN_SETUPS as f64;
            let due = within_share || overdue;
            if due {
                drop(wl); // never two prepared states at once: peak memory stays one workload's
                wl = set_up(args, &mut setup_samples)?;
            }
            let t = Instant::now();
            let out = wl.rep(variant, &mut off)?;
            rep_s[variant].push(out.timed_s.unwrap_or(t.elapsed().as_secs_f64()));
            attempted += out.attempted;
            failed += out.failed;
            if variant == 0 && cycles == 0 {
                check_repeat(&warm, &out, "variant 0 vs warm-up", false)?;
            }
            match &firsts[variant] {
                Some(first) => check_repeat(first, &out, &format!("variant {variant}"), false)?,
                None => {
                    // Kept for its outputs only: its check would hold a
                    // whole machine alive.
                    firsts[variant] = Some(RepOut {
                        post_check: None,
                        ..out
                    })
                }
            }
        }
        cycles += 1;
    }
    while setup_samples.len() < MIN_SETUPS {
        drop(wl);
        wl = set_up(args, &mut setup_samples)?;
    }
    let timed_s = started.elapsed().as_secs_f64();
    let rss = peak_rss_mb()?;

    let outs: Vec<&RepOut> = firsts
        .iter()
        .map(|o| o.as_ref().expect("full cycle ran"))
        .collect();
    let (summary, check_error) = or_report(wl.summarize(&outs));

    // Variants differ in host cost per operation (a saturated window
    // schedules more than an idle one), so a median over all repetitions
    // would move with which variants the last cycle reached. Instead:
    // the operations of one cycle over the sum of each variant's median
    // repetition time — for one variant, the median rate.
    let cycle_ops: u64 = outs.iter().map(|o| o.ops).sum();
    let rate =
        |pick: fn(&[f64]) -> f64| cycle_ops as f64 / rep_s.iter().map(|t| pick(t)).sum::<f64>();
    let host = Metric {
        value: rate(median),
        q1: rate(|t| quartiles(t).1),
        q3: rate(|t| quartiles(t).0),
        n: cycles,
    };
    let setup = Metric::of_samples(&setup_samples);
    let values: BTreeMap<&str, Metric> = [
        ("host_ops_per_s", host),
        ("setup_s", setup),
        ("sim_s", Metric::exact(summary.sim_s)),
        ("sim_us_per_op", Metric::exact(summary.sim_us_per_op)),
    ]
    .into_iter()
    .collect();

    println!(
        "perf {} seed {} — {cycles} cycle(s) of {variants} variant(s) in {timed_s:.2} s, {} set-ups",
        args.workload,
        args.seed,
        setup_samples.len()
    );
    for note in &summary.notes {
        println!("  {note}");
    }
    let mut e2e = Value::obj();
    let mut contract = Value::obj();
    for m in &END_TO_END {
        let v = &values[m.name];
        println!(
            "  {:<16} {:>14.4} {:<10} (q1 {:.4}, q3 {:.4}, n {})",
            m.name, v.value, m.unit, v.q1, v.q3, v.n
        );
        let mut o = Value::obj();
        o.set("value", v.value)
            .set("unit", m.unit)
            .set("q1", v.q1)
            .set("q3", v.q3)
            .set("n", v.n);
        e2e.set(m.name, o);
        contract.set(m.name, metric_cell(v.value, m.unit));
    }
    for (name, v) in &summary.layer {
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            println!("  {:<40} {:>16.4} {}", name, v, m.unit);
        }
    }
    println!("  {:<40} {rss:>16.4} MB", "host.rss_mb");
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!("  failed_frac {failed_frac} ({failed} of {attempted})");

    let mut exact = Value::obj();
    for (variant, out) in outs.iter().enumerate() {
        for (k, v) in &out.det {
            exact.set(&format!("v{variant}.{k}"), *v);
        }
    }
    let mut doc = Value::obj();
    header(args, &mut doc);
    let seconds_json = |v: &[f64]| Value::Arr(v.iter().map(|&s| Value::from(s)).collect());
    doc.set("cycles", cycles)
        .set("variants", variants)
        .set("timed_s", timed_s)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("end_to_end", e2e)
        .set("host_rss_mb", rss)
        .set(
            "rep_s_by_variant",
            Value::Arr(rep_s.iter().map(|v| seconds_json(v)).collect()),
        )
        .set("setup_s_samples", seconds_json(&setup_samples))
        .set("exact", exact);

    finish(args, &doc, contract, (attempted, failed), check_error)
}

fn run_traced(args: &Args) -> Result<(), String> {
    let wl = build(&args.workload, args.seed, args.quick)?;
    let variants = wl.variants();
    let mut off = SpanLog::new(false);

    // One untraced output per variant: the counts, the simulated
    // numbers, and the base the traced repetition is compared with.
    let mut outs = Vec::new();
    let mut untraced_s = Vec::new();
    for variant in 0..variants {
        let t = Instant::now();
        outs.push(wl.rep(variant, &mut off)?);
        untraced_s.push(t.elapsed().as_secs_f64());
    }
    let tv = wl.trace_variant();
    let t = Instant::now();
    check_repeat(
        &outs[tv],
        &wl.rep(tv, &mut off)?,
        "trace variant, untraced",
        false,
    )?;
    let base_s = untraced_s[tv].min(t.elapsed().as_secs_f64());

    // The traced repetition: `rio-obs` session open, spans recorded.
    // Twice, like the untraced base, and the faster of each side makes
    // the overhead: on a shared host one timing is a tenth off.
    let mut traced_s = f64::INFINITY;
    let mut last = None;
    for _ in 0..2 {
        rio_obs::start(rio_obs::DEFAULT_CAPACITY);
        let mut spans = SpanLog::new(true);
        let t = Instant::now();
        let traced = wl.rep(tv, &mut spans);
        let secs = t.elapsed().as_secs_f64();
        let session = rio_obs::finish().expect("session was open").registry;
        let traced = traced?;
        check_repeat(&outs[tv], &traced, "traced vs untraced", true)?;
        traced_s = traced_s.min(secs - traced.trace_extra_s);
        last = Some((traced, spans, session));
    }
    let (traced, spans, session) = last.expect("ran twice");

    // The traced route may reach counters the untraced one cannot (the
    // campaign's kernels die inside `drive`), and was just checked to
    // agree with it everywhere else.
    let refs: Vec<&RepOut> = if variants == 1 {
        vec![&traced]
    } else {
        outs.iter().collect()
    };
    let (summary, check_error) = or_report(wl.summarize(&refs));

    let mut layer: BTreeMap<String, f64> = summary.layer;
    wl.span_metrics(
        &TraceCtx {
            spans: &spans,
            session: &session,
            untraced_rep_s: base_s,
        },
        &mut layer,
    );
    layer.insert("obs.trace_overhead_frac".into(), traced_s / base_s - 1.0);
    // Peak memory of the workload, read before the probes build their
    // own machines.
    layer.insert("host.rss_mb".into(), peak_rss_mb()?);
    if !args.quick {
        layer.extend(probes::run_all());
    }

    println!(
        "perf trace {} seed {} — traced repetition {traced_s:.3} s, untraced {base_s:.3} s",
        args.workload, args.seed
    );
    for note in &summary.notes {
        println!("  {note}");
    }
    let mut per_layer = Value::obj();
    for m in PER_LAYER {
        // A layer that did no such work on this workload reads 0.
        let v = layer.get(m.name).copied().unwrap_or(0.0);
        println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
        per_layer.set(m.name, metric_cell(v, m.unit));
    }
    if let Some(stray) = layer
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == *k))
    {
        return Err(format!("{stray} is measured but not in the catalogue"));
    }

    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let mut doc = Value::obj();
    header(args, &mut doc);
    doc.set("attempted", attempted)
        .set("failed", failed)
        .set("per_layer", per_layer.clone())
        .set("spans", spans.to_json());
    finish(args, &doc, per_layer, (attempted, failed), check_error)
}
