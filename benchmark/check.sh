#!/usr/bin/env bash
# Builds `perf`, runs the full set of workloads twice on one seed, and
# requires `perf compare` to find every (workload, end-to-end metric) row
# `ok` and every simulated time and count identical between the two sets.
#
#   benchmark/check.sh            full check (~4 min) + the package's unit tests
#   benchmark/check.sh --quick    smoke for CI (< 15 s after the build): every
#                                 workload end to end and traced at smoke size
#
# SEED=<n> selects the seed (default 1996; 2026 is the held-out seed).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
perf="$CARGO_TARGET_DIR/release/perf"
workloads=(fileops server-rio server-ufs campaign recovery)
seed="${SEED:-1996}"

if [ "${1:-}" = "--quick" ]; then
    for w in "${workloads[@]}"; do
        "$perf" run --workload "$w" --seed "$seed" --quick | tail -n 1
        "$perf" trace --workload "$w" --seed "$seed" --quick >/dev/null
    done
    echo "check.sh --quick: all five workloads ran, end to end and traced"
    exit 0
fi

cargo test --release --offline --manifest-path benchmark/Cargo.toml

out="$CARGO_TARGET_DIR/perf-out"
mkdir -p "$out"
rm -f "$out/a.jsonl" "$out/b.jsonl"
# The two sets alternate workload by workload, so slow drift of the host
# lands on both.
for w in "${workloads[@]}"; do
    for set in a b; do
        echo "== $w ($set)"
        "$perf" run --workload "$w" --seed "$seed" --out "$out/$set.jsonl" | tail -n 1
    done
done
"$perf" compare "$out/a.jsonl" "$out/b.jsonl"
