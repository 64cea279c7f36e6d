//! The exhibit manifest: every committed `results_*.txt` / `BENCH_*.json`
//! at the repository root is claimed by one row of [`EXHIBITS`] — what
//! regenerates it, at which knobs, and which recorded bytes a cheaper run
//! is compared with. The `exhibit` binary (`src/bin/exhibit.rs`),
//! `scripts/verify.sh`, `tests/exhibits.rs` and EXPERIMENTS.md's index all
//! read this table: adding an exhibit is adding a row, and a file that no
//! longer regenerates fails a test. (`BENCH_perf.jsonl` is `perf`'s: host
//! time, appended to — the one root artifact no row claims.)

use crate::overhead::render_overhead;
use crate::table2::Table2Scale;
use crate::{
    explain_json, explain_trial, render_recovery, render_server, render_table1,
    render_table1_scale, render_table2, render_timeline, run_overhead_study, run_recovery,
    run_server, run_table2, server_json, ExplainConfig, ServerGrid,
};
use rio_faults::{
    run_campaign, run_scale_campaign, CampaignConfig, FaultType, RecoveryCampaignConfig,
    ScaleCampaignConfig, SystemKind,
};
use std::path::Path;

/// The size of one run. A knob a row does not have is `None` / empty at
/// every size of that row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Campaign / workload seed (`RIO_SEED`).
    pub seed: u64,
    /// Crashes or trials per cell (`RIO_TRIALS`).
    pub trials: Option<u64>,
    /// `table1_scale`'s client-count sweep.
    pub clients: &'static [usize],
    /// `explain`'s trial: fault, system, attempt within the cell.
    pub trial: Option<(FaultType, SystemKind, u64)>,
}

impl std::fmt::Display for Knobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = vec![format!("seed {}", self.seed)];
        parts.extend(self.trials.map(|t| format!("trials {t}")));
        if !self.clients.is_empty() {
            parts.push(format!("clients {:?}", self.clients));
        }
        if let Some((fault, system, attempt)) = self.trial {
            parts.push(format!(
                "trial {}/{}/{attempt}",
                fault.slug(),
                system.slug()
            ));
        }
        f.write_str(&parts.join(", "))
    }
}

/// Which gate can afford a row's committed size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// Seconds in a debug build: `cargo test` regenerates the committed
    /// size (`tests/exhibits.rs`), and so do both `--check` levels.
    Tier1,
    /// Minutes: `--check quick` runs these reduced knobs against this
    /// capture, a committed file of its own; `--check full` the committed size.
    Full(Knobs, &'static str),
}

/// One row of the manifest.
pub struct Exhibit {
    pub name: &'static str,
    /// Committed paths relative to the repository root: the text artifact,
    /// then its JSON twin if it has one.
    pub files: &'static [&'static str],
    /// The knobs `files` were generated at.
    pub committed: Knobs,
    pub cost: Cost,
    /// The bytes of `files`, in order, at these knobs on this many worker
    /// threads (no byte depends on the count); panics if a claim breaks.
    run: fn(&Knobs, usize) -> Vec<String>,
}

/// Seed 1996 and this trial count; no client sweep, no `explain` trial.
const fn knobs(trials: Option<u64>) -> Knobs {
    Knobs {
        seed: 1996,
        trials,
        clients: &[],
        trial: None,
    }
}

/// Every exhibit, in the order `--index` lists them. (Unformatted so that
/// a row reads as a row.)
#[rustfmt::skip]
pub static EXHIBITS: [Exhibit; 7] = [
    Exhibit { name: "table1", files: &["results_table1.txt"], committed: knobs(Some(1000)),
              cost: Cost::Full(knobs(Some(3)), "results_table1_quick.txt"), run: table1 },
    Exhibit { name: "table2", files: &["results_table2.txt"], committed: knobs(None),
              cost: Cost::Tier1, run: table2 },
    Exhibit { name: "overhead", files: &["results_overhead.txt"], committed: knobs(None),
              cost: Cost::Tier1, run: overhead },
    Exhibit { name: "recovery", files: &["results_recovery.txt"], committed: knobs(Some(8)),
              cost: Cost::Tier1, run: recovery },
    Exhibit { name: "explain", files: &["results_trace_example.txt", "BENCH_obs.json"],
              committed: Knobs { trial: Some((FaultType::CopyOverrun, SystemKind::RioWithProtection, 0)), ..knobs(None) },
              cost: Cost::Tier1, run: explain },
    Exhibit { name: "table1_scale", files: &["results_table1_scale.txt"],
              committed: Knobs { clients: &[1, 16, 64], ..knobs(Some(10)) },
              cost: Cost::Full(Knobs { clients: &[1, 4], ..knobs(Some(1)) }, "results_table1_scale_quick.txt"),
              run: table1_scale },
    Exhibit { name: "server", files: &["results_server.txt", "BENCH_server.json"], committed: knobs(None),
              cost: Cost::Tier1, run: server },
];

fn table1(k: &Knobs, threads: usize) -> Vec<String> {
    let mut cfg = CampaignConfig::paper(k.seed);
    cfg.trials_per_cell = k.trials.expect("a trial count");
    vec![render_table1(&run_campaign(&cfg, threads)) + "\n"]
}

fn table2(k: &Knobs, _: usize) -> Vec<String> {
    vec![render_table2(&run_table2(&Table2Scale::small(k.seed))) + "\n"]
}

/// 16 files × 16 writes each. The loop draws no random number: the seed is
/// the index's, not an input.
fn overhead(_: &Knobs, _: usize) -> Vec<String> {
    vec![render_overhead(&run_overhead_study(16, 16)) + "\n"]
}

fn recovery(k: &Knobs, threads: usize) -> Vec<String> {
    let mut cfg = RecoveryCampaignConfig::paper(k.seed);
    cfg.trials_per_cell = k.trials.expect("a trial count");
    vec![render_recovery(&run_recovery(&cfg, threads)) + "\n"]
}

fn explain(k: &Knobs, _: usize) -> Vec<String> {
    let (fault, system, attempt) = k.trial.expect("the explain row names a trial");
    let report = explain_trial(&ExplainConfig::paper(k.seed, fault, system, attempt));
    // A timeline with its oldest events missing explains nothing.
    let dropped = report.trace.dropped;
    assert!(
        dropped == 0,
        "the event ring dropped {dropped} events: the trial does not fit"
    );
    vec![render_timeline(&report), explain_json(&report)]
}

fn table1_scale(k: &Knobs, threads: usize) -> Vec<String> {
    let mut cfg = ScaleCampaignConfig::paper(k.seed);
    cfg.trials_per_cell = k.trials.expect("a trial count");
    cfg.client_counts = k.clients.to_vec();
    vec![render_table1_scale(&run_scale_campaign(&cfg, threads)) + "\n"]
}

/// A tail-latency table is only as honest as its histogram: before any
/// grid work, record 1..=100_000 and probe p50 … p9999 against the exact
/// order statistics; panic if the relative error exceeds the log-linear
/// design bound of 1/16 anywhere. The verdict is the text's last line.
fn server(k: &Knobs, threads: usize) -> Vec<String> {
    let mut h = rio_obs::Histogram::default();
    let n: u64 = 100_000;
    (1..=n).for_each(|v| h.record(v));
    let mut worst = 0.0f64;
    for frac in [0.50, 0.90, 0.99, 0.999, 0.9999] {
        let exact = ((n - 1) as f64 * frac).floor() as u64 + 1;
        let got = h.percentile(frac);
        let err = (exact as f64 - got as f64).abs() / exact as f64;
        assert!(
            err <= 1.0 / 16.0,
            "histogram p{frac} error {err:.4} exceeds 1/16 (got {got}, exact {exact})"
        );
        worst = worst.max(err);
    }
    let report = run_server(&ServerGrid::small(k.seed), threads);
    report.assert_rio_tail_wins();
    report.assert_rio_commits_an_order_faster();
    report.assert_protection_beats_sullivan();
    report.assert_rio_capacity_wins();
    let text = format!(
        "{}\nhistogram self-check: worst percentile error {worst:.4} (bound 0.0625) OK\n",
        render_server(&report)
    );
    vec![text, server_json(&report)]
}

impl Exhibit {
    /// The bytes of [`Exhibit::files`], in order, at `knobs`.
    pub fn run(&self, knobs: &Knobs, threads: usize) -> Vec<String> {
        let out = (self.run)(knobs, threads);
        assert!(
            out.len() == self.files.len(),
            "{}: one output per file",
            self.name
        );
        out
    }

    /// The sizes this row has recorded bytes for, each with the files it
    /// regenerates: the committed size, then a `Full` row's reduced size
    /// with its capture.
    pub fn sizes(&self) -> Vec<(&Knobs, &[&'static str])> {
        let mut sizes = vec![(&self.committed, self.files)];
        if let Cost::Full(reduced, capture) = &self.cost {
            sizes.push((reduced, std::slice::from_ref(capture)));
        }
        sizes
    }

    /// Regenerates the committed size (`full`) or the cheapest recorded
    /// one and compares every output with its file under `root` — bytes
    /// another process wrote, so this is the cross-process check too.
    pub fn check(&self, root: &Path, full: bool, threads: usize) -> Result<(), String> {
        let sizes = self.sizes();
        let (knobs, files) = sizes[if full { 0 } else { sizes.len() - 1 }];
        for (path, got) in files.iter().zip(self.run(knobs, threads)) {
            let recorded = std::fs::read_to_string(root.join(path))
                .map_err(|e| format!("exhibit {}: reading {path}: {e}", self.name))?;
            compare(self.name, path, &recorded, &got)?;
        }
        Ok(())
    }

    /// Regenerates every recorded size in place under `root`. It takes no
    /// knobs: a recorded file is only ever written at the manifest's size.
    pub fn write(&self, root: &Path, threads: usize) -> std::io::Result<()> {
        for (knobs, files) in self.sizes() {
            for (path, bytes) in files.iter().zip(self.run(knobs, threads)) {
                std::fs::write(root.join(path), bytes)?;
            }
        }
        Ok(())
    }
}

/// `Ok` when `got` is exactly the `recorded` bytes of `path`; otherwise names
/// the exhibit, the path and the first differing line (or early end).
pub fn compare(exhibit: &str, path: &str, recorded: &str, got: &str) -> Result<(), String> {
    if recorded == got {
        return Ok(());
    }
    // split, not lines(): "a\n" and "a" must not read the same.
    let (r, g) = (recorded.split('\n'), got.split('\n'));
    let at = r.zip(g).take_while(|(r, g)| r == g).count();
    let show = |s: &str| match s.split('\n').nth(at) {
        Some(line) => format!("{line:?}"),
        None => "<end of file>".to_string(),
    };
    let (line, was, now) = (at + 1, show(recorded), show(got));
    Err(format!(
        "exhibit {exhibit}: {path} is stale, first at line {line}:\n  recorded   : {was}\n  regenerated: {now}"
    ))
}

/// EXPERIMENTS.md's index table, one line per row.
pub fn index() -> String {
    let mut out = String::from(
        "| `exhibit` | committed files | committed size | `--check quick` compares |\n|---|---|---|---|\n",
    );
    for e in &EXHIBITS {
        let files: Vec<String> = e.files.iter().map(|f| format!("`{f}`")).collect();
        let quick = match &e.cost {
            Cost::Tier1 => "the committed size, and so does `cargo test`".to_string(),
            Cost::Full(reduced, capture) => format!("{reduced}, with `{capture}`"),
        };
        let (name, files, committed) = (e.name, files.join(", "), e.committed);
        out += &format!("| `{name}` | {files} | {committed} | {quick} |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_reports_exhibit_path_and_first_differing_line() {
        assert_eq!(
            compare("table2", "results_table2.txt", "a\nb\n", "a\nb\n"),
            Ok(())
        );
        let err = compare("table2", "results_table2.txt", "a\nb\nc\n", "a\nB\nd\n").unwrap_err();
        assert!(err.contains("exhibit table2"), "{err}");
        assert!(err.contains("results_table2.txt"), "{err}");
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("\"b\"") && err.contains("\"B\""), "{err}");
        assert!(!err.contains("\"c\""), "only the first difference: {err}");
    }

    #[test]
    fn compare_fails_on_a_length_only_difference() {
        for (recorded, got) in [
            ("a\nb\n", "a\nb"),
            ("a\nb", "a\nb\n"),
            ("a\n", "a\nb\n"),
            ("", "\n"),
        ] {
            let err = compare("server", "BENCH_server.json", recorded, got).unwrap_err();
            assert!(err.contains("BENCH_server.json"), "{err}");
            assert!(
                err.contains("<end of file>") || err.contains("\"\""),
                "{err}"
            );
        }
    }
}
