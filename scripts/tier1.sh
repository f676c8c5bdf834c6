#!/usr/bin/env bash
# Tier-1 verification: the workspace must build and test fully offline.
#
# --offline is the point, not an optimisation: every dependency is an
# in-tree path dependency (crates/compat/*), so a build that needs the
# network is a policy violation (see tests/hermetic.rs and DESIGN.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier 1 must leave the working tree as it found it: nothing it builds,
# tests or runs may rewrite a tracked file or leave an untracked one
# outside the ignored paths. The status is compared again at the end
# (outside a git checkout there is no status to compare).
tree_status() { git status --porcelain 2>/dev/null || echo "not a git checkout"; }
status_before="$(tree_status)"

# Optional perf-regression gate: `tier1.sh --bench-gate` additionally
# re-times every kernel in BENCH_kernels.json and fails on a >25%
# ns/op regression (see DESIGN.md §12). Off by default because wall
# times on shared CI boxes are noisy; the smoke run below is always on.
bench_gate=0
for arg in "$@"; do
    case "$arg" in
        --bench-gate) bench_gate=1 ;;
        *) echo "tier1: unknown argument '$arg' (expected --bench-gate)" >&2; exit 2 ;;
    esac
done

# --workspace on the build: the serve smoke test below needs the
# groupsa-serve and serve_bench release binaries, which the root
# package alone would not produce. -D warnings keeps the release build
# warning-free — a warning anywhere in the workspace fails tier 1.
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline --workspace
# The suite includes the snapshot format checks: bit-exact round-trips,
# typed rejection of every corruption family, and the byte comparison
# against the committed results/golden_snapshot/ tree
# (crates/snapshot/tests/; DESIGN.md §13 has the re-versioning policy).
# It runs against a fresh TMPDIR, and every `groupsa-*` scratch file or
# directory a test makes there must be gone when the suite ends.
test_tmp="$(mktemp -d)"
TMPDIR="$test_tmp" cargo test -q --offline --workspace
leftovers="$(find "$test_tmp" -mindepth 1 -maxdepth 1 -name 'groupsa-*')"
if [ -n "$leftovers" ]; then
    echo "tier1: tests left scratch files behind in $test_tmp:" >&2
    echo "$leftovers" >&2
    exit 1
fi
rm -rf "$test_tmp"
echo "tier1: the test suite removed every scratch file it made"

# The serve benchmark (servebench/, its own cargo package, gated
# separately under BENCHMARK.json) builds against core and serve by
# path: type-check it here so an API change that breaks its build
# fails tier 1 instead of the post-merge benchmark run.
cargo check -q --offline --manifest-path servebench/Cargo.toml
echo "tier1: servebench type-checks against the workspace crates"

# Static analysis: groupsa-lint walks every .rs file and Cargo.toml in
# the workspace enforcing the determinism / panic-safety / hermeticity
# / float-hygiene / concurrency-discipline invariants (DESIGN.md §11,
# §16). The gate is --diff against the committed report: new findings,
# resolved findings, and suppression-count changes ALL fail — an added
# escape hatch or a vanished baseline finding is a reviewable event
# even when the tree stays "clean". The text rendering (with per-pass
# timings) is printed for lint-cost visibility. To accept an
# intentional change, regenerate the baseline:
#     ./target/release/groupsa-lint --format json > results/lint_report.json
if ! ./target/release/groupsa-lint --format text --diff results/lint_report.json; then
    echo "tier1: lint state drifted from results/lint_report.json (see above)" >&2
    exit 1
fi
echo "tier1: groupsa-lint matches the committed report (0 findings)"

# Kernel bench smoke: every microbench must still run (shapes valid,
# sanity assertions inside the harness pass) on abbreviated profiles.
# The run prints its rows and writes no file: its numbers are NOT
# comparable to BENCH_kernels.json — it exists to keep the bench
# binary from rotting, not to measure.
./target/release/kernel_bench --check >/dev/null
echo "tier1: kernel bench smoke run passed"

# Full gate only on request (--bench-gate): re-times at the full
# profile and compares against the committed BENCH_kernels.json
# baseline, failing on any kernel >25% slower in ns/op.
if [ "$bench_gate" = 1 ]; then
    ./target/release/kernel_bench --gate BENCH_kernels.json
    echo "tier1: kernel perf gate passed (no >25% regressions vs BENCH_kernels.json)"
fi

# Deterministic data-parallel training: the core trainer tests must
# pass at 1 and at 4 workers, and a short training run must produce
# byte-identical results (losses, validation curve, parameter
# checksum) at both thread counts.
GROUPSA_TRAIN_THREADS=1 cargo test -q --offline -p groupsa-core --lib train
GROUPSA_TRAIN_THREADS=4 cargo test -q --offline -p groupsa-core --lib train
digest1="$(GROUPSA_TRAIN_THREADS=1 ./target/release/train_bench --digest 2>/dev/null)"
digest4="$(GROUPSA_TRAIN_THREADS=4 ./target/release/train_bench --digest 2>/dev/null)"
if [ "$digest1" != "$digest4" ]; then
    echo "tier1: training digest differs between 1 and 4 workers" >&2
    echo "  T=1: $digest1" >&2
    echo "  T=4: $digest4" >&2
    exit 1
fi
echo "tier1: parallel-training digest matches serial"

# Numerics pinned across commits: the serial digest (training outcome,
# parameter checksum, and a checksum of the trained model's serving
# scores) must equal the committed one. A change that moves training
# or scoring bits identically at every thread count passes the check
# above but fails here. To accept an intentional numeric change,
# regenerate the baseline:
#     GROUPSA_TRAIN_THREADS=1 ./target/release/train_bench --digest > results/train_digest.json
if [ "$digest1" != "$(cat results/train_digest.json)" ]; then
    echo "tier1: training digest differs from results/train_digest.json" >&2
    echo "  committed: $(cat results/train_digest.json)" >&2
    echo "  T=1:       $digest1" >&2
    exit 1
fi
echo "tier1: training digest matches the committed results/train_digest.json"

# Serving smoke test: boot groupsa-serve on an ephemeral port (also
# exporting its frozen model as a snapshot directory) with
# request-lifecycle telemetry sampling every request and a JSONL trace,
# drive it with the load generator over TCP — first
# request-per-roundtrip, then the pipelined wire path (many requests in
# flight on one connection, replies matched by id) with the
# MetricsDump exposition page fetched and schema-validated
# (--metrics true), then a live hot-swap onto the exported snapshot
# followed by more validated traffic — render the obs_top dashboard
# once against the live server, ask the server to shut down, and
# require a clean exit from every process.
serve_log="$(mktemp)"
snap_dir="$(mktemp -d)/snap"
trace_dir="$(mktemp -d)"
trap 'rm -f "$serve_log"; rm -rf "$(dirname "$snap_dir")" "$trace_dir"' EXIT

# boot_serve TRACE [SERVER_FLAG...]: starts groupsa-serve on the tiny
# dataset with GROUPSA_TRACE=TRACE, then sets serve_pid and addr once
# the server announces where it listens.
boot_serve() {
    local trace="$1"
    shift
    # Empty the log first: a stale LISTENING line from an earlier boot
    # must never be read as this server's address.
    : >"$serve_log"
    GROUPSA_TRACE="$trace" ./target/release/groupsa-serve --dataset tiny --port 0 --workers 2 \
        "$@" >"$serve_log" 2>/dev/null &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr="$(awk '/^LISTENING /{print $2; exit}' "$serve_log")"
        [ -n "$addr" ] && return 0
        sleep 0.2
    done
    echo "tier1: groupsa-serve never announced its address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}

boot_serve "$trace_dir/serve_telemetry_trace.jsonl" --obs-sample 1/1 --snapshot-export "$snap_dir"
./target/release/serve_bench --addr "$addr" --clients 3 --requests 8
./target/release/serve_bench --addr "$addr" --clients 3 --requests 16 --pipeline true \
    --metrics true
./target/release/obs_top --addr "$addr" --iterations 1 --plain true >/dev/null
./target/release/serve_bench --addr "$addr" --clients 2 --requests 8 --pipeline true \
    --reload "$snap_dir" --shutdown true
wait "$serve_pid"
echo "tier1: serve smoke test passed (roundtrip, pipelined, metrics page, obs_top, hot-swap)"

# Traced serving with telemetry on: the smoke server above sampled
# every request, so its trace must hold per-request lifecycle records
# and a final stats snapshot (lifetime counters and latency buckets),
# all schema-valid.
./target/release/trace_check "$trace_dir/serve_telemetry_trace.jsonl" \
    run request_record stats
echo "tier1: telemetry-sampled serve trace holds schema-valid request records and a final stats snapshot"

# Traced serving with telemetry off: a short un-sampled boot writes no
# per-request lines (those come from --obs-sample) but must still emit
# a final stats snapshot.
boot_serve "$trace_dir/serve_trace.jsonl"
./target/release/serve_bench --addr "$addr" --clients 2 --requests 8 --shutdown true >/dev/null
wait "$serve_pid"
./target/release/trace_check "$trace_dir/serve_trace.jsonl" run stats
echo "tier1: un-sampled serve trace is a schema-valid trace"

# Observability: with GROUPSA_TRACE set, a training run must leave a
# schema-valid JSONL trace behind — and its stdout digest must be
# byte-identical to the untraced runs above (tracing must not perturb
# training; wall-clock fields are zeroed in the digest for exactly
# this comparison).
digest_traced="$(GROUPSA_TRAIN_THREADS=4 GROUPSA_TRACE="$trace_dir/train_trace.jsonl" \
    ./target/release/train_bench --digest 2>/dev/null)"
if [ "$digest1" != "$digest_traced" ]; then
    echo "tier1: tracing perturbed the training digest" >&2
    echo "  untraced: $digest1" >&2
    echo "  traced:   $digest_traced" >&2
    exit 1
fi
./target/release/trace_check "$trace_dir/train_trace.jsonl" run span epoch window
echo "tier1: traced training digest matches untraced; trace is schema-valid"

status_after="$(tree_status)"
if [ "$status_after" != "$status_before" ]; then
    echo "tier1: the run changed the working tree (git status --porcelain):" >&2
    echo "  before: ${status_before:-<clean>}" >&2
    echo "  after:  ${status_after:-<clean>}" >&2
    exit 1
fi
echo "tier1: the working tree is as tier 1 found it"
