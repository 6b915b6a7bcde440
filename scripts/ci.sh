#!/usr/bin/env bash
# The full local CI gate: formatting, lints, release build, all tests.
# CI (.github/workflows/ci.yml) runs exactly this script, so a green local
# run means a green pipeline. The one CI stage it does not run is the A/B
# perf gate (the workflow's bench-ab job), because that needs two commits:
# run `python3 scripts/bench_ab.py HEAD^1` for it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
# Besides clippy's defaults this enforces the lints of
# [workspace.lints.clippy] in Cargo.toml (settings in clippy.toml): no
# bare unwrap outside tests, no environment reads or detached spawns
# outside the documented sites, no NaN-dropping f32 max/min and no
# partial_cmp (order floats with total_cmp) without an #[expect] saying
# why, no raw stderr writes outside the CLI front ends, no hash-order
# iteration, no unsafe without its SAFETY comment or `# Safety` doc, and
# no allow/expect without a reason. The domain rules clippy cannot see
# are runtime gates below: zero_alloc (allocations), nan_propagation (a
# NaN reaches the logits), the thread-invariance tests and the drift
# gates (summation order, wall-clock reads in results). DESIGN.md §2.8
# lists each with the planted bug that proves it.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy: benchmark (perfbench) =="
# perfbench/ is a package of its own, so the workspace lints table never
# reaches it; clippy still reads the root clippy.toml from its parent
# directory, so the disallowed methods apply there too. Its counting
# allocator (`unsafe impl GlobalAlloc`) is the one unsafe code outside the
# workspace: deny undocumented unsafe there too.
CARGO_TARGET_DIR="$PWD/target/perfbench" cargo clippy --offline --locked \
    --manifest-path perfbench/Cargo.toml --all-targets \
    -- -D warnings -D clippy::undocumented_unsafe_blocks

# TDFM_SMOKE_DIR lets CI keep artefacts (trace, manifests, figures) for
# upload; by default they land in a throwaway directory.
if [ -n "${TDFM_SMOKE_DIR:-}" ]; then
    smoke_dir="$TDFM_SMOKE_DIR"
    mkdir -p "$smoke_dir"
else
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
fi

# Every `cargo test` stage runs under a time limit, so a deadlock (a lock
# taken twice in the scratch pool or the trace sink) fails its stage with
# exit 124 instead of hanging until the workflow's job timeout. The test
# binaries are built first, outside the limit; each limit is about three
# times the stage's measured run on a 2-core host, rounded up to whole
# minutes (tier-1 13 s, workspace 38 s, perfbench 1.3 s, TDFM_SIMD=off
# 40 s).
run_tests() {
    local limit=$1 status=0
    shift
    cargo test "$@" --no-run
    timeout --kill-after=10 "$limit" cargo test "$@" || status=$?
    if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
        echo "cargo test $* did not finish within ${limit} s" >&2
    fi
    return "$status"
}

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
run_tests 60 -q

echo "== workspace build + tests (all crates) =="
# Among them the kernel-allocation gate, crates/nn/tests/zero_alloc.rs:
# all seven models, trained and evaluated at every SIMD level the host
# has, must allocate nothing once their scratch arena is warm. It counts
# allocations wherever the kernels make them, helpers in other files
# included, and its models reach every public kernel entry. And the NaN
# gate, crates/nn/tests/nan_propagation.rs: a NaN in any parameter or in
# the input of every model must reach its logits.
cargo build --release --workspace
run_tests 120 -q --workspace

echo "== benchmark tests (perfbench) =="
# perfbench/ is a Cargo package of its own (empty [workspace]), so the
# workspace runs above never build it. Its pin test
# (`every_unit_matches_its_pin_at_every_simd_level`) is the only check of
# the trained-weight digests of `fit`, fault-aware training and
# `fit_sharded` with all four aggregators, at every available SIMD level.
CARGO_TARGET_DIR="$PWD/target/perfbench" run_tests 60 --offline --locked -q \
    --manifest-path perfbench/Cargo.toml

echo "== full test suite with the SIMD kernels disabled (TDFM_SIMD=off) =="
# The scalar fallback is a first-class code path, not dead weight: every
# test must pass with the vector kernels forced off. The binaries are
# already built, so this re-runs execution only.
TDFM_SIMD=off run_tests 120 -q --workspace

echo "== A/B perf gate: decision-rule tests =="
# The gate itself (scripts/bench_ab.py) needs a base revision; its
# decision rule is tested here on canned result documents.
python3 scripts/test_bench_ab.py

echo "== obs smoke: trace + manifest + tdfm report =="
# Run the smallest harness binary with tracing on, then make `tdfm report`
# the assertion that the trace is valid JSONL and the manifest parses (it
# exits non-zero on any malformed input).
TDFM_SCALE=tiny TDFM_RESULTS="$smoke_dir" TDFM_TRACE="$smoke_dir/trace.jsonl" \
    ./target/release/motivating > /dev/null
test -s "$smoke_dir/trace.jsonl"
test -s "$smoke_dir/motivating.manifest.json"
./target/release/tdfm report \
    "$smoke_dir/motivating.manifest.json" "$smoke_dir/trace.jsonl"

echo "== write failures: harness binaries exit non-zero =="
# A harness that cannot write its results or its manifest must fail the
# run, not warn and exit 0. A results directory under a regular file
# cannot be created: table1 (JSON only) and motivating (JSON + manifest)
# must both exit non-zero. Then the manifest write alone: the JSON path is
# writable but the manifest path is taken by a directory.
blocker="$smoke_dir/not-a-directory"
touch "$blocker"
if TDFM_RESULTS="$blocker/results" ./target/release/table1 > /dev/null; then
    echo "table1 exited 0 although it could not write its results" >&2
    exit 1
fi
if TDFM_SCALE=tiny TDFM_RESULTS="$blocker/results" \
        ./target/release/motivating > /dev/null; then
    echo "motivating exited 0 although it could not write its results" >&2
    exit 1
fi
mkdir -p "$smoke_dir/manifest-blocked/motivating.manifest.json"
if TDFM_SCALE=tiny TDFM_RESULTS="$smoke_dir/manifest-blocked" \
        ./target/release/motivating > /dev/null; then
    echo "motivating exited 0 although it could not write its manifest" >&2
    exit 1
fi

echo "== profile smoke: span tree + collapsed stacks from the trace =="
# The same trace must reconstruct into a span-tree profile (the profiler
# exits non-zero on malformed or unbalanced traces) in both renderings.
./target/release/tdfm report --profile "$smoke_dir/trace.jsonl" > /dev/null
./target/release/tdfm report --collapsed "$smoke_dir/trace.jsonl" \
    > "$smoke_dir/trace.collapsed"
test -s "$smoke_dir/trace.collapsed"

echo "== model-fault smoke: harness + manifest + tdfm report =="
# The second fault axis at tiny scale: all seven techniques (incl. FAT)
# under weight and activation bit-flip sweeps. The manifest must validate
# through the same `tdfm report` path as the data-fault manifests.
TDFM_SCALE=tiny TDFM_RESULTS="$smoke_dir" \
    ./target/release/model_faults > /dev/null
test -s "$smoke_dir/model_faults.json"
test -s "$smoke_dir/model_faults.manifest.json"
./target/release/tdfm report "$smoke_dir/model_faults.manifest.json"

echo "== shard-fault smoke: sharded trainer + manifest + tdfm report =="
# The distributed axis at tiny scale: four aggregators, one victim shard
# at three mislabelling rates over eight shard workers. The manifest must
# validate through the same `tdfm report` path as the other manifests.
TDFM_SCALE=tiny TDFM_RESULTS="$smoke_dir" \
    ./target/release/shard_faults > /dev/null
test -s "$smoke_dir/shard_faults.json"
test -s "$smoke_dir/shard_faults.manifest.json"
./target/release/tdfm report "$smoke_dir/shard_faults.manifest.json"

echo "== result drift gate: committed JSONs reproduce from their seeds =="
# The committed result files are claims about the code; regenerate each at
# its recorded scale and require a bit-identical match once wall-clock
# fields are normalised. `tdfm diff-results` exits 1 on drift, so a stale
# commit (code changed, results not re-recorded) fails the gate here.
drift_dir="$smoke_dir/drift"
mkdir -p "$drift_dir"
TDFM_SCALE=smoke TDFM_RESULTS="$drift_dir" ./target/release/motivating > /dev/null
TDFM_SCALE=smoke TDFM_RESULTS="$drift_dir" ./target/release/model_faults > /dev/null
./target/release/tdfm diff-results results/motivating.json "$drift_dir/motivating.json"
./target/release/tdfm diff-results results/model_faults.json "$drift_dir/model_faults.json"
# The SIMD kernels claim byte-identical results against the scalar loops
# (no FMA, no reassociation — DESIGN.md §2.1a): regenerate with the
# vector paths forced off and hold the committed results to that too.
TDFM_SIMD=off TDFM_SCALE=smoke TDFM_RESULTS="$drift_dir" \
    ./target/release/motivating > /dev/null
./target/release/tdfm diff-results results/motivating.json "$drift_dir/motivating.json"
# model_faults predicts through the evaluation-only max-pool scan; hold its
# scalar-kernel run to the committed results as well.
TDFM_SIMD=off TDFM_SCALE=smoke TDFM_RESULTS="$drift_dir" \
    ./target/release/model_faults > /dev/null
./target/release/tdfm diff-results results/model_faults.json "$drift_dir/model_faults.json"
# The sharded trainer's fixed sorted-order reduction claims byte-identical
# output at any thread count: regenerate at both budgets and hold it to
# that. Separate processes per setting — TDFM_THREADS is read once per
# process.
for threads in 1 4; do
    TDFM_THREADS=$threads TDFM_SCALE=smoke TDFM_RESULTS="$drift_dir" \
        ./target/release/shard_faults > /dev/null
    ./target/release/tdfm diff-results \
        results/shard_faults.json "$drift_dir/shard_faults.json"
done
# And the cross product's far corner: scalar kernels at 4 threads.
TDFM_SIMD=off TDFM_THREADS=4 TDFM_SCALE=smoke TDFM_RESULTS="$drift_dir" \
    ./target/release/shard_faults > /dev/null
./target/release/tdfm diff-results \
    results/shard_faults.json "$drift_dir/shard_faults.json"

echo "== figure drift gate: committed SVGs reproduce byte-identically =="
# Figures are pure functions of the committed result JSONs, so they must
# regenerate byte-for-byte — at any thread count. A `cmp` failure means
# either the renderer changed (re-run `tdfm figures` and commit) or
# nondeterminism crept into the pipeline (a bug; see DESIGN.md "SVG
# determinism rules").
figs_dir="$smoke_dir/figures"
for threads in 1 4; do
    rm -rf "$figs_dir"
    TDFM_THREADS=$threads ./target/release/tdfm figures \
        results/model_faults.json --out "$figs_dir" > /dev/null
    TDFM_THREADS=$threads ./target/release/tdfm figures \
        results/motivating.json --out "$figs_dir" > /dev/null
    TDFM_THREADS=$threads ./target/release/tdfm figures \
        results/shard_faults.json --out "$figs_dir" > /dev/null
    for svg in results/figures/*.svg; do
        cmp "$svg" "$figs_dir/$(basename "$svg")"
    done
done

echo "CI gate passed."
