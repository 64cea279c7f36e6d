#!/usr/bin/env sh
# Tier-1 verification: build, the repo benchmark's exactness check, lint,
# test, docs, then every exhibit binary — compared with itself across
# thread counts and processes, and with the committed file or a recorded
# checksum of its stdout. Everything runs offline — the workspace has no
# crates.io dependencies.
#
# `verify.sh --full` then regenerates the two exhibits too slow for every
# run — `table1` (1000 crashes per cell, ~20 min at 2 threads) and
# `table1_scale` (~2 min) — and `cmp`s them against the committed files,
# so the headline table cannot go stale behind a reduced-size pin.
set -eu

cd "$(dirname "$0")/.."

full=0
case "${1:-}" in
    "") ;;
    --full) full=1 ;;
    *) echo "usage: $0 [--full]" >&2; exit 2 ;;
esac

# pin_stdout FILE "CRC BYTES" LABEL: FILE must have the recorded cksum(1).
# For the exhibits whose committed size takes minutes (table1,
# table1_scale): the stdout of a reduced run is pinned the way the
# `campaign --quick` digests are, and `--full` compares the committed
# size. A PR that means to move one updates the value and says why.
pin_stdout() {
    got="$(cksum < "$1")"
    [ "$got" = "$2" ] \
        || { echo "$3: stdout cksum is '$got', recorded '$2'" >&2; exit 1; }
}

echo "== cargo build --release =="
cargo build --release

echo "== repo benchmark: builds against the frozen API surface, and its exactness check =="
# benchmark/ is a package of its own that calls drive / PreparedTrial /
# trial_seed / ... directly (benchmark/README.md, "Frozen API surface");
# a refactor that breaks one of them must fail here, not in the
# benchmark pipeline. check.sh builds it, then runs all five workloads end
# to end and traced at smoke size; each run fails unless every simulated
# time and count repeats bit-for-bit across its repetitions and the traced
# mirror of `drive` equals `drive` on all 39 coordinates — so a hot-path
# change that perturbs a count fails tier-1 too.
benchmark/check.sh --quick

echo "== campaign outcomes pinned: the simulated result of 13 trials, seeds 1996 and 2026 =="
# The digest covers every field of every trial's observation (verdict,
# crash reason and time, damage, protection traps). It was recorded before bcopy/bzero/bcmp gained
# summaries (crates/cpu/src/routines.rs), so a summary that drifts from
# the interpreter — or any other change to what a trial simulates — fails
# here, before it reaches an exhibit. A PR that means to change the
# simulation updates the two values and says why.
# 1996: 2765caca46332028 -> cecfd100b46e3c8c at PR 21 — the blocking
# syscalls took the continuation's lock order (Fs held through the body),
# so a `synchronization` trial skips a different lock op and dies of a
# different assertion; 2026 has no such trial in its 13 and did not move.
perf="${CARGO_TARGET_DIR:-benchmark/target}/release/perf"
for pin in 1996:cecfd100b46e3c8c 2026:1f14cefe948de1a4; do
    "$perf" run --workload campaign --seed "${pin%%:*}" --quick \
        | grep -q "outcome_digest ${pin##*:}" \
        || { echo "campaign --quick --seed ${pin%%:*}: outcome_digest is not ${pin##*:}" >&2; exit 1; }
done

echo "== process-level determinism: two processes, one campaign digest (unpinned seed 7) =="
# The thread-count gates below compare runs inside what may be one hash
# seed; two processes never share one. Anything that leaks a per-process
# random state into a trial (an iterated std HashMap, an address) splits
# these two digests. The `explain` pair further down is the same check on
# a whole event stream.
digest_of() { "$perf" run --workload campaign --seed 7 --quick | grep -o 'outcome_digest [0-9a-f]*'; }
d_a="$(digest_of)"
d_b="$(digest_of)"
[ -n "$d_a" ] && [ "$d_a" = "$d_b" ] \
    || { echo "campaign --quick --seed 7 differs between two processes: '$d_a' vs '$d_b'" >&2; exit 1; }

echo "== cargo clippy --workspace -- -D warnings (and no iteration over a hash table) =="
# iter_over_hash_type: the order a std HashMap/HashSet iterates in is
# per-process random, so any loop over one is a determinism bug waiting
# for its `keys()` to matter. Sort, or use a BTreeMap.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::iter_over_hash_type

echo "== cargo test --workspace -q =="
cargo test --workspace -q

echo "== cargo doc --no-deps --workspace (warnings are errors) =="
# --workspace: at the root, plain `cargo doc` documents the root package
# only and a broken intra-doc link in any crate goes unseen.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== smoke campaign at RIO_THREADS 1 and 4, pinned (RIO_TRIALS=3) =="
# Forks of one sealed checkpoint (PhysMem::seal), serially and
# concurrently at 4 threads. That a fork sees what a machine booted for
# that one trial sees is `cargo test -p rio-faults engine` (the Scratch
# adaptor), above.
t1_a="$(mktemp)"
t1_b="$(mktemp)"
RIO_TRIALS=3 RIO_THREADS=1 cargo run -q --release -p rio-bench --bin table1 > "$t1_a"
RIO_TRIALS=3 RIO_THREADS=4 cargo run -q --release -p rio-bench --bin table1 > "$t1_b"
cmp "$t1_a" "$t1_b"
# 548571819 -> 1886016897 at PR 21: one line, "Unique crash messages"
# 16 -> 15 (a synchronization trial's message, as above); no cell moved.
pin_stdout "$t1_a" "1886016897 2696" "RIO_TRIALS=3 table1"
grep -q '95% confidence intervals (Wilson)' "$t1_a"
cat "$t1_a"
rm -f "$t1_a" "$t1_b"

echo "== recovery re-crash campaign at RIO_THREADS 1 and 4, both against the committed exhibit (RIO_TRIALS=8) =="
rec_out="$(mktemp)"
for threads in 1 4; do
    RIO_TRIALS=8 RIO_THREADS="$threads" cargo run -q --release -p rio-bench --bin recovery > "$rec_out"
    cmp "$rec_out" results_recovery.txt
done
grep -q 'every interrupted recovery converged' "$rec_out"
rm -f "$rec_out"

echo "== explain forensics: two processes (RIO_THREADS=1 vs 8), one event stream, the committed one =="
exp_a="$(mktemp)"
exp_b="$(mktemp)"
exp_json="$(mktemp)"
RIO_OBS_JSON="$exp_json" RIO_THREADS=1 cargo run -q --release -p rio-bench --bin explain -- \
    --fault copy_overrun --system rio_prot --attempt 0 > "$exp_a"
RIO_OBS_JSON="" RIO_THREADS=8 cargo run -q --release -p rio-bench --bin explain -- \
    --fault copy_overrun --system rio_prot --attempt 0 > "$exp_b"
cmp "$exp_a" "$exp_b"
cmp "$exp_a" results_trace_example.txt
cmp "$exp_json" BENCH_obs.json
grep -q '^verdict' "$exp_a"
rm -f "$exp_a" "$exp_b" "$exp_json"

echo "== scale-out: RIO_THREADS=1 vs 8, and both against the committed exhibit =="
sc_a="$(mktemp)"
sc_b="$(mktemp)"
sc_ja="$(mktemp)"
sc_jb="$(mktemp)"
RIO_THREADS=1 RIO_BENCH_JSON="$sc_ja" cargo run -q --release -p rio-bench --bin scale > "$sc_a"
RIO_THREADS=8 RIO_BENCH_JSON="$sc_jb" cargo run -q --release -p rio-bench --bin scale > "$sc_b"
cmp "$sc_a" "$sc_b"
cmp "$sc_ja" "$sc_jb"
cmp "$sc_a" results_scale.txt
cmp "$sc_ja" BENCH_scale.json
grep -q 'Rio/WT' "$sc_a"
rm -f "$sc_a" "$sc_b" "$sc_ja" "$sc_jb"

echo "== scaled Table 1 smoke at RIO_THREADS 1 and 4, pinned (RIO_TRIALS=1, RIO_CLIENTS=1,4) =="
t1s_a="$(mktemp)"
t1s_b="$(mktemp)"
RIO_TRIALS=1 RIO_CLIENTS=1,4 RIO_THREADS=1 cargo run -q --release -p rio-bench --bin table1_scale > "$t1s_a"
RIO_TRIALS=1 RIO_CLIENTS=1,4 RIO_THREADS=4 cargo run -q --release -p rio-bench --bin table1_scale > "$t1s_b"
cmp "$t1s_a" "$t1s_b"
pin_stdout "$t1s_a" "1611125080 4926" "RIO_TRIALS=1 RIO_CLIENTS=1,4 table1_scale"
grep -q 'disk-like band' "$t1s_a"
grep -q 'mean in-flight syscalls' "$t1s_a"
rm -f "$t1s_a" "$t1s_b"

echo "== open-loop server smoke (RIO_CLIENTS=8,32, RIO_THREADS=1 vs 8) =="
srv_a="$(mktemp)"
srv_b="$(mktemp)"
srv_ja="$(mktemp)"
srv_jb="$(mktemp)"
RIO_CLIENTS=8,32 RIO_REQUESTS=6 RIO_THREADS=1 RIO_BENCH_JSON="$srv_ja" \
    cargo run -q --release -p rio-bench --bin server > "$srv_a"
RIO_CLIENTS=8,32 RIO_REQUESTS=6 RIO_THREADS=8 RIO_BENCH_JSON="$srv_jb" \
    cargo run -q --release -p rio-bench --bin server > "$srv_b"
cmp "$srv_a" "$srv_b"
cmp "$srv_ja" "$srv_jb"
grep -q 'Rio p999 advantage' "$srv_a"
# The measuring instrument itself: the bin records a known distribution
# and asserts every probed percentile lands within the log-linear
# histogram's 1/16 design bound before any grid work runs.
grep -q 'histogram self-check: worst percentile error .* (bound 0.0625) OK' "$srv_a"
rm -f "$srv_a" "$srv_b" "$srv_ja" "$srv_jb"

echo "== committed exhibits regenerate byte for byte (server, overhead, table2, propagation) =="
# An exhibit compared only with itself at another thread count can drift
# from the file EXPERIMENTS.md quotes without anyone noticing. These are
# the full-size runs behind results_*.txt / BENCH_server.json (scale,
# explain and recovery are compared above; table1 and table1_scale take
# minutes at committed size, so a reduced run of each is pinned above and
# the committed size is `--full`'s, below). A PR that means to move one
# regenerates the file and says why in EXPERIMENTS.md.
ex_out="$(mktemp)"
ex_json="$(mktemp)"
RIO_BENCH_JSON="$ex_json" cargo run -q --release -p rio-bench --bin server > "$ex_out"
cmp "$ex_out" results_server.txt
cmp "$ex_json" BENCH_server.json
cargo run -q --release -p rio-bench --bin overhead > "$ex_out"
cmp "$ex_out" results_overhead.txt
cargo run -q --release -p rio-bench --bin table2 > "$ex_out"
cmp "$ex_out" results_table2.txt
RIO_TRIALS=10 cargo run -q --release -p rio-bench --bin propagation > "$ex_out"
cmp "$ex_out" results_propagation.txt
rm -f "$ex_out" "$ex_json"

if [ "$full" = 1 ]; then
    echo "== --full: table1 (1000 crashes per cell) and table1_scale (RIO_TRIALS=10) against the committed files =="
    # The binaries' defaults are the committed sizes; stdout only, as
    # committed (the wall-clock progress lines go to stderr).
    full_out="$(mktemp)"
    RIO_TRIALS=10 cargo run -q --release -p rio-bench --bin table1_scale > "$full_out"
    cmp "$full_out" results_table1_scale.txt
    RIO_TRIALS=1000 cargo run -q --release -p rio-bench --bin table1 > "$full_out"
    cmp "$full_out" results_table1.txt
    rm -f "$full_out"
fi

echo "verify: OK"
