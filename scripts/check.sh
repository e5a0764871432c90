#!/usr/bin/env sh
# Repo-wide sanity gate: formatting, lints, build, tests.
#
# Everything runs with --offline: the container has no crates.io access and
# all dependencies are workspace-local (see DESIGN.md §8).
#
# With --lint, runs only the borg-lint stage (fast pre-commit loop).
# Set LINT_BASELINE=<file> to grandfather known findings during an
# incremental cleanup; `borg-lint --write-baseline <file>` creates one.
# Every lint run writes machine-readable findings to
# target/lint-findings.json (the CI artifact) and enforces a 5-second
# wall-time budget over the analysis itself (total_ms in the JSON):
# the linter sits on the pre-commit path, so its cost is a contract.
#
# With --lint-graph, dumps the contract/pool reachability set computed
# from the call graph (one `file:line  fn  tag` row per policed
# function) — the review surface for "what does the contract cover?".
#
# With --bench, also smoke-runs every criterion benchmark once
# (CRITERION_SMOKE=1): proves the bench suite builds and executes without
# paying for real measurements.
#
# With --chaos, runs only the chaos roundtrip suite (fault injection →
# lossy write → lenient read → repair → validate) and borg-trace's
# differential and fuzz suites (the CSV, repair and validate kernels
# against their test-only reference implementations, DESIGN.md §11),
# the fast loop when working on the fault subsystem or the trace I/O
# kernels.
#
# With --shards, runs only the sharded-placement equivalence suite
# (every shard count bit-identical to the single index, DESIGN.md §14),
# the fast loop when working on the shard/pool subsystem.
#
# With --serve, runs only the borg-serve fast loop: the crate's unit
# tests plus the wall-clock chaos smoke (200 mixed-tier queries through
# a real ServePool with injected stalls and panics; asserts clean drain
# and zero prod deadline misses, DESIGN.md §16). Budgeted under 10 s
# after the build.
#
# With --slo, runs only the observability fast loop: the witness / SLO
# / flight-recorder unit tests plus the serve_slo experiment at tiny
# scale (incident replay byte-identity, exemplar drill-down, chaos-off
# control; DESIGN.md §17).
#
# With --profile, runs only the borg-telemetry profile report
# (experiments/profile): the per-event-kind breakdown of a 512-machine
# cell-day, with the query-engine round-trip and chrome-trace JSON
# checks asserted in-process. A small smoke run of the same binary is
# part of the default path so the exporters can't rot.
#
# With --pipeline, runs only pipeline-bench's self-check
# (benchmark/run.sh --check): the harness's unit tests, then all five
# BENCHMARK.json workloads at tiny scale, untraced and traced, with
# their output checks on (digests, SQL vs simulator metrics, served
# bytes vs direct execution). It builds into target/benchmark; nothing
# under benchmark/ is edited. The fast loop for any change that claims
# or must not move a benchmark number.
set -eu

cd "$(dirname "$0")/.."

usage() {
    cat <<'EOF'
usage: scripts/check.sh [MODE]

Default (no flag): lint, fmt, clippy, build, tests, profile smoke.

Modes:
  --lint        borg-lint only (fast pre-commit loop; honors $LINT_BASELINE)
  --lint-graph  dump the computed contract/pool reachability set and exit
  --chaos    chaos roundtrip + trace-kernel differential/fuzz suites only
  --shards   sharded-placement equivalence suite only (bit-identity sweep)
  --serve    borg-serve fast loop only (unit tests + wall-clock chaos smoke)
  --slo      observability fast loop only (witness/SLO/recorder tests + serve_slo)
  --profile  telemetry profile report only (512-machine cell-day breakdown)
  --pipeline pipeline-bench self-check only (benchmark/run.sh --check: unit tests + 5 tiny workloads)
  --bench    default path plus a one-pass smoke of every criterion bench
  --help     this text
EOF
}

run_bench=0
lint_only=0
lint_graph=0
chaos_only=0
profile_only=0
shards_only=0
serve_only=0
slo_only=0
pipeline_only=0
for arg in "$@"; do
    case "$arg" in
    --bench) run_bench=1 ;;
    --lint) lint_only=1 ;;
    --lint-graph) lint_graph=1 ;;
    --chaos) chaos_only=1 ;;
    --shards) shards_only=1 ;;
    --serve) serve_only=1 ;;
    --slo) slo_only=1 ;;
    --profile) profile_only=1 ;;
    --pipeline) pipeline_only=1 ;;
    --help | -h)
        usage
        exit 0
        ;;
    *)
        echo "unknown flag: $arg" >&2
        usage >&2
        exit 2
        ;;
    esac
done

if [ "$profile_only" -eq 1 ]; then
    echo "==> telemetry profile (512-machine cell-day)"
    cargo run -q --release -p borg-experiments --offline --bin profile
    echo "==> telemetry profile (512-machine cell-day, 4 placement shards)"
    cargo run -q --release -p borg-experiments --offline --bin profile -- --shards 4
    echo "Profile check passed."
    exit 0
fi

if [ "$pipeline_only" -eq 1 ]; then
    echo "==> pipeline-bench self-check (unit tests + five workloads, tiny inputs, both modes)"
    bash benchmark/run.sh --check
    echo "Pipeline check passed."
    exit 0
fi

if [ "$shards_only" -eq 1 ]; then
    echo "==> sharded-placement equivalence (bit-identity across shard counts)"
    cargo test -p borg-sim --test shard_equivalence --offline -q
    cargo test -p borg-sim --offline -q --lib shard::
    cargo test -p borg-sim --offline -q --lib pool::
    echo "Shard check passed."
    exit 0
fi

if [ "$serve_only" -eq 1 ]; then
    echo "==> borg-serve unit tests"
    cargo test -p borg-serve --offline -q
    echo "==> serve smoke (wall-clock chaos: stalls, panics, tiered deadlines)"
    cargo run -q -p borg-experiments --offline --bin serve_smoke -- --scale tiny
    echo "Serve check passed."
    exit 0
fi

if [ "$slo_only" -eq 1 ]; then
    echo "==> observability unit tests (witness, slo, recorder)"
    cargo test -p borg-serve --offline -q --lib witness::
    cargo test -p borg-serve --offline -q --lib slo::
    cargo test -p borg-serve --offline -q --lib recorder::
    echo "==> witness determinism suite"
    cargo test -p borg2019 --test serve_witness --offline -q
    echo "==> serve_slo (incident replay, exemplar drill-down, control)"
    cargo run -q --release -p borg-experiments --offline --bin serve_slo -- --scale tiny
    echo "SLO check passed."
    exit 0
fi

if [ "$chaos_only" -eq 1 ]; then
    echo "==> chaos roundtrip (fault injection & trace repair)"
    cargo test -p borg2019 --test chaos_roundtrip --offline -q
    echo "==> trace kernels vs reference implementations (differential + fuzz)"
    cargo test -p borg-trace --test differential --test csv_fuzz --offline -q
    echo "Chaos check passed."
    exit 0
fi

# borg-lint: workspace determinism & soundness rules (DESIGN.md §10,
# §15). Runs first — it needs only `cargo build -p borg-lint`, so it
# reports before the full workspace compiles. Honors $LINT_BASELINE if
# set. Always leaves target/lint-findings.json behind as the CI
# artifact, and budgets the analysis at 5 s of wall time (total_ms as
# the linter itself measures it, so the guard is independent of cargo's
# compile time on a cold target dir).
LINT_JSON=target/lint-findings.json
LINT_BUDGET_MS=5000
run_lint() {
    echo "==> borg-lint (determinism & soundness rules)"
    mkdir -p target
    cargo run -q --release -p borg-lint --offline -- --root . --json "$LINT_JSON"
    total_ms=$(sed -n 's/.*"total_ms": \([0-9.]*\).*/\1/p' "$LINT_JSON")
    if [ -z "$total_ms" ]; then
        echo "lint budget: total_ms missing from $LINT_JSON" >&2
        exit 1
    fi
    if ! awk -v t="$total_ms" -v b="$LINT_BUDGET_MS" 'BEGIN { exit !(t <= b) }'; then
        echo "lint budget: analysis took ${total_ms} ms, budget ${LINT_BUDGET_MS} ms —" \
            "check the per-rule timings_ms split in $LINT_JSON" >&2
        exit 1
    fi
    echo "lint budget: ${total_ms} ms of ${LINT_BUDGET_MS} ms; findings artifact at $LINT_JSON"
}

if [ "$lint_graph" -eq 1 ]; then
    echo "==> borg-lint --dump-graph (contract/pool reachability set)"
    cargo run -q --release -p borg-lint --offline -- --root . --dump-graph
    exit 0
fi

if [ "$lint_only" -eq 1 ]; then
    run_lint
    echo "Lint check passed."
    exit 0
fi

run_lint

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> telemetry profile smoke (64-machine cell-day)"
cargo run -q --release -p borg-experiments --offline --bin profile -- --machines 64 >/dev/null
cargo run -q --release -p borg-experiments --offline --bin profile -- --machines 64 --shards 4 >/dev/null

if [ "$run_bench" -eq 1 ]; then
    echo "==> cargo bench (smoke: one pass per benchmark)"
    CRITERION_SMOKE=1 cargo bench --workspace --offline
fi

echo "All checks passed."
