//! The experiment harness: regenerates every table in the paper's
//! evaluation and the derived statistics around them.
//!
//! * [`table1`] — the reliability comparison (§3.3): 13 fault types × 3
//!   systems, corruptions per cell with each cell's n, plus
//!   protection-trap saves, the unique-crash-message count, the MTTF
//!   illustration, and every crash's latency and detector (§3.3
//!   footnote 2).
//! * [`table1_scale`] — Table 1 under multi-client load: the same grid
//!   crashed at N ∈ {1, 16, 64} preemptive clients with syscalls in
//!   flight, plus per-client corruption provenance (confined vs
//!   cross-client damage).
//! * [`table2`] — the performance comparison (§4): cp+rm / Sdet / Andrew
//!   across the eight file-system configurations, with the paper's
//!   headline ratios computed alongside.
//! * [`overhead`] — the protection-overhead micro-study backing "Rio's
//!   protection mechanism adds essentially no overhead", including the
//!   code-patching ablation (§2.1's 20–50% band).
//! * [`recovery`] — the warm-reboot re-crash campaign: interrupted-and-
//!   resumed recovery must converge byte-for-byte with single-shot
//!   recovery under memory decay and injected disk I/O faults.
//! * [`explain`] — crash forensics: replay one campaign trial by its
//!   `(seed, fault, system, attempt)` coordinate with [`rio_obs`] tracing
//!   enabled and render a causal timeline from injection to the first
//!   corrupted byte (or the protection trap that prevented one).
//! * [`server`] — the multi-client study: open-loop tail latency over
//!   five systems, plus a closed-loop capacity rung (Rio vs write-through
//!   on 1 and 4 striped devices).
//! * [`exhibits`] — the manifest behind the `exhibit` binary (`cargo run
//!   --release --bin exhibit -- <name>`): which function regenerates which
//!   committed `results_*.txt` / `BENCH_*.json`, at which knobs.
//! * [`ascii`] — plain-text table rendering shared by the reports.

#![forbid(unsafe_code)]

pub mod ascii;
pub mod exhibits;
pub mod explain;
pub mod overhead;
pub mod recovery;
pub mod server;
pub mod table1;
pub mod table1_scale;
pub mod table2;

pub use explain::{explain_json, explain_trial, render_timeline, ExplainConfig, ExplainReport};
pub use overhead::{run_overhead_study, OverheadReport};
pub use recovery::{render_recovery, run_recovery, RecoveryReport};
pub use server::{
    render_server, run_server, server_json, ServerCell, ServerGrid, ServerGridReport,
};
pub use table1::render_table1;
pub use table1_scale::render_table1_scale;
pub use table2::{render_table2, run_table2, Table2Report, Table2Row};
