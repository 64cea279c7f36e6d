#!/usr/bin/env sh
# Runs the whole workspace's tests once per seed named on the command line,
# every `proptest_lite` property drawing its cases from that seed
# (RIO_PT_SEED), and prints each failing (test, RIO_PT_SEED) pair. A
# property whose oracle holds only at its default seed fails here.
# `--no-fail-fast`: a failing crate does not hide the crates after it.
# Exits 1 if anything failed at any seed.
#
#   scripts/seed_sweep.sh 1 3 7 42 99 31337
set -eu

cd "$(dirname "$0")/.."

[ "$#" -gt 0 ] || { echo "usage: $0 SEED..." >&2; exit 2; }

log="$(mktemp)"
failures="$(mktemp)"
trap 'rm -f "$log" "$failures"' EXIT

for seed in "$@"; do
    echo "== RIO_PT_SEED=$seed cargo test --workspace --no-fail-fast -q =="
    if RIO_PT_SEED="$seed" cargo test --workspace --no-fail-fast -q > "$log" 2>&1; then
        continue
    fi
    names="$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log")"
    if [ -z "$names" ]; then
        # No test failed: the build or a test binary did.
        tail -n 20 "$log" >&2
        names="(cargo test failed before a test did)"
    fi
    printf '%s\n' "$names" | sed "s/\$/  RIO_PT_SEED=$seed/" | tee -a "$failures"
done

if [ -s "$failures" ]; then
    echo "seed_sweep: $(wc -l < "$failures") failing (test, RIO_PT_SEED) pairs:"
    cat "$failures"
    exit 1
fi
echo "seed_sweep: OK at $# seeds"
