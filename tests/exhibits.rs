//! The committed artifacts against the manifest that claims them
//! (`rio::harness::exhibits`). A `results_*.txt` / `BENCH_*.json` that no
//! longer regenerates, an exhibit committed without a row, or an index in
//! EXPERIMENTS.md that no longer matches the table fails here — tier-1 —
//! rather than waiting for `scripts/verify.sh` or a reader.

use rio::faults::ScaleCampaignConfig;
use rio::harness::exhibits::{self, Cost, EXHIBITS};
use std::collections::BTreeSet;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every row cheap enough for a debug build regenerates at committed size
/// and equals its committed bytes, JSON included (`table2`, `overhead`,
/// `recovery`, `explain` + `BENCH_obs.json`, `server` +
/// `BENCH_server.json`: 7 of the 9 committed files). The rest is
/// `exhibit --check quick` / `full`.
#[test]
fn tier1_exhibits_regenerate_their_committed_bytes() {
    let mut stale = Vec::new();
    for row in EXHIBITS.iter().filter(|e| e.cost == Cost::Tier1) {
        if let Err(e) = row.check(root(), true, 2) {
            stale.push(e);
        }
    }
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}

/// No simulation: the table and the repository name the same files.
#[test]
fn manifest_and_repository_agree() {
    let names: BTreeSet<&str> = EXHIBITS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXHIBITS.len(), "row names are unique");

    let mut claimed = BTreeSet::new();
    for row in &EXHIBITS {
        for (knobs, files) in row.sizes() {
            assert_eq!(
                knobs.trials.is_some(),
                row.committed.trials.is_some(),
                "{}: a row has a trial count at every size or at none",
                row.name
            );
            for path in files {
                assert!(
                    root().join(path).is_file(),
                    "{}: {path} does not exist",
                    row.name
                );
                assert!(claimed.insert(path.to_string()), "{path} is claimed twice");
            }
        }
    }
    // BENCH_perf.jsonl is `perf`'s (benchmark/): appended to, never
    // regenerated, so no row claims it. It is the one exception.
    let on_disk: BTreeSet<String> = std::fs::read_dir(root())
        .expect("repository root")
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|f| f.starts_with("results_") || f.starts_with("BENCH_"))
        .filter(|f| f != "BENCH_perf.jsonl")
        .collect();
    assert_eq!(
        on_disk, claimed,
        "left: artifacts at the root; right: what the rows claim"
    );

    let experiments =
        std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    assert!(
        experiments.contains(&exhibits::index()),
        "EXPERIMENTS.md's index is not `exhibit --index`'s output"
    );

    // The one knob the manifest restates rather than overrides.
    let scaled = EXHIBITS.iter().find(|e| e.name == "table1_scale");
    assert_eq!(
        scaled.expect("table1_scale row").committed.clients,
        ScaleCampaignConfig::paper(1996).client_counts
    );
}
