//! The exhibit binaries: each regenerates one committed `results_*.txt` /
//! `BENCH_*.json` (EXPERIMENTS.md indexes them), plus the three helpers
//! that read their knobs from the environment. Nothing here times host
//! code — that is `perf`'s job (`benchmark/`, `BENCH_perf.jsonl`).
//!
//! Binaries (run with `cargo run -p rio-bench --release --bin <name>`):
//!
//! * `table1` — regenerates the paper's Table 1 (reliability). Scale with
//!   `RIO_TRIALS` (crashes per cell; default 1000, the size of the
//!   committed `results_table1.txt` — 50 is the paper's), `RIO_SEED`,
//!   `RIO_THREADS` (every grid-running binary reads it through
//!   [`env_threads`]).
//! * `table2` — regenerates Table 2 (performance) plus the headline
//!   ratios. `RIO_SEED` selects workload seeds.
//! * `overhead` — the protection / code-patching overhead study.
//! * `explain` — crash forensics: replays one campaign trial
//!   (`--fault <slug> --system <slug> --attempt <n>`) with event tracing
//!   enabled and renders the causal timeline from injection to the first
//!   corrupted byte. Writes `BENCH_obs.json` (`RIO_OBS_JSON` overrides).
//! * `table1_scale` / `propagation` / `recovery` / `scale` / `server` /
//!   `inspect` — see each binary's module docs.

#![forbid(unsafe_code)]

/// Reads a `u64` configuration value from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker threads for every grid-running binary: `RIO_THREADS`, clamped to
/// at least 1; unset or unparsable falls back to the host's available
/// parallelism. A pure speed knob — no binary's output depends on it.
pub fn env_threads() -> usize {
    let host = std::thread::available_parallelism().map_or(4, |n| n.get());
    env_u64("RIO_THREADS", host as u64).max(1) as usize
}

/// Reads a comma-separated list of positive integers (`RIO_CLIENTS=1,4`).
/// `None` when the variable is unset or holds no positive integer, so the
/// caller keeps its default sweep.
pub fn env_usize_list(name: &str) -> Option<Vec<usize>> {
    let list: Vec<usize> = std::env::var(name)
        .ok()?
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    (!list.is_empty()).then_some(list)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_u64_parses_and_defaults() {
        std::env::remove_var("RIO_TEST_KNOB_XYZ");
        assert_eq!(env_u64("RIO_TEST_KNOB_XYZ", 7), 7);
        std::env::set_var("RIO_TEST_KNOB_XYZ", "42");
        assert_eq!(env_u64("RIO_TEST_KNOB_XYZ", 7), 42);
        std::env::set_var("RIO_TEST_KNOB_XYZ", "junk");
        assert_eq!(env_u64("RIO_TEST_KNOB_XYZ", 7), 7);
        std::env::remove_var("RIO_TEST_KNOB_XYZ");
    }

    #[test]
    fn env_usize_list_keeps_positive_integers_only() {
        std::env::remove_var("RIO_TEST_LIST_XYZ");
        assert_eq!(env_usize_list("RIO_TEST_LIST_XYZ"), None);
        std::env::set_var("RIO_TEST_LIST_XYZ", "8, 32,0,junk");
        assert_eq!(env_usize_list("RIO_TEST_LIST_XYZ"), Some(vec![8, 32]));
        std::env::set_var("RIO_TEST_LIST_XYZ", "junk,,0");
        assert_eq!(env_usize_list("RIO_TEST_LIST_XYZ"), None);
        std::env::remove_var("RIO_TEST_LIST_XYZ");
    }
}
