#!/usr/bin/env sh
# Repo-wide sanity gate: formatting, lints, build, tests, report smoke.
# `--help` lists the modes; at most one may be given.
#
# Everything runs with --offline: the container has no crates.io access and
# all dependencies are workspace-local (see DESIGN.md §8).
set -eu

cd "$(dirname "$0")/.."

usage() {
    cat <<'EOF'
usage: scripts/check.sh [MODE]

Default (no flag): lint, fmt, clippy, build, doc links, tests, paper and profile smoke.

Modes (at most one):
  --lint     borg-lint only (fast pre-commit loop; honors $LINT_BASELINE)
  --chaos    chaos roundtrip + trace-kernel differential/fuzz suites, then the
             f32 bucket writer against Display on all 2^32 bit patterns
             (release build; 5.5 min of the mode's 6.5 on two cores)
  --shards   sharded-placement equivalence suite only (bit-identity sweep)
  --serve    borg-serve only (unit tests incl. the wall-clock chaos smoke,
             the serve determinism/witness/equivalence suites, serve report)
  --profile  telemetry profile report only (512-machine cell-day breakdown); fails if the
             placement index answered nothing or walks more log per revalidation than its cutoff
  --pipeline pipeline-bench self-check only (benchmark/run.sh --check: unit tests + 5 tiny workloads)
  --bench    default path plus a one-pass smoke of every criterion bench
  --help     this text
EOF
}

mode=
for arg in "$@"; do
    case "$arg" in
    --bench | --lint | --chaos | --shards | --serve | --profile | --pipeline)
        if [ -n "$mode" ]; then
            echo "more than one mode: $mode $arg" >&2
            usage >&2
            exit 2
        fi
        mode=$arg
        ;;
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

# Runs `profile` with the given flags, shows its report, and holds the
# placement index's two summary lines to what they must say: some query
# was answered, and a revalidation walks, on average, no more log
# records than the tail cutoff allows any single one to walk.
run_profile() {
    report=$(cargo run -q --release -p borg-experiments --offline --bin profile -- "$@")
    printf '%s\n' "$report"
    printf '%s\n' "$report" | awk '
        /^  answered: / { answered = $2; seen_answered = 1 }
        /^  per revalidation: / { mean = $3; cutoff = $NF; sub(/\)$/, "", cutoff); seen_mean = 1 }
        END {
            if (!seen_answered || !seen_mean) {
                print "profile check: the placement-index summary lines are missing" > "/dev/stderr"
                exit 1
            }
            if (answered + 0 == 0) {
                print "profile check: hits + negative hits + misses is 0" > "/dev/stderr"
                exit 1
            }
            if (mean + 0 > cutoff + 0) {
                print "profile check: " mean " records per revalidation, tail cutoff " cutoff > "/dev/stderr"
                exit 1
            }
        }'
}

if [ "$mode" = --profile ]; then
    echo "==> telemetry profile (512-machine cell-day)"
    run_profile
    echo "==> telemetry profile (512-machine cell-day, 4 placement shards)"
    run_profile --shards 4
    echo "Profile check passed."
    exit 0
fi

if [ "$mode" = --pipeline ]; then
    echo "==> pipeline-bench self-check (unit tests + five workloads, tiny inputs, both modes)"
    bash benchmark/run.sh --check
    echo "Pipeline check passed."
    exit 0
fi

if [ "$mode" = --shards ]; then
    echo "==> sharded-placement equivalence (bit-identity across shard counts)"
    cargo test -p borg-sim --test shard_equivalence --offline -q
    cargo test -p borg-sim --offline -q --lib shard::
    echo "Shard check passed."
    exit 0
fi

if [ "$mode" = --serve ]; then
    echo "==> borg-serve unit tests (incl. wall-clock chaos smoke)"
    cargo test -p borg-serve --offline -q
    echo "==> serve determinism, witness and equivalence suites"
    cargo test -p borg2019 --offline -q --test serve_determinism --test serve_witness --test serve_equivalence
    echo "==> serve report (2x overload, SLO incident, controls)"
    cargo run -q --release -p borg-experiments --offline --bin serve -- --scale tiny
    echo "Serve check passed."
    exit 0
fi

if [ "$mode" = --chaos ]; then
    echo "==> chaos roundtrip (fault injection & trace repair)"
    cargo test -p borg2019 --test chaos_roundtrip --offline -q
    echo "==> trace kernels vs reference implementations (differential + fuzz)"
    cargo test -p borg-trace --test differential --test csv_fuzz --offline -q
    echo "==> f32 bucket writer vs Display, every bit pattern (release)"
    cargo test --release -p borg-trace --lib --offline -- --ignored --nocapture
    echo "Chaos check passed."
    exit 0
fi

# borg-lint: workspace determinism & soundness rules (DESIGN.md §10).
# Runs first — it needs only `cargo build -p borg-lint`, so it
# reports before the full workspace compiles. Honors $LINT_BASELINE if
# set. Always leaves target/lint-findings.json behind as the CI
# artifact, and budgets the analysis at 5 s of wall time — the linter
# sits on the pre-commit path, so its cost is a contract (total_ms as
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

if [ "$mode" = --lint ]; then
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

echo "==> cargo doc (deny broken intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> paper smoke (every table, figure and section at tiny scale)"
cargo run -q --release -p borg-experiments --offline --bin paper -- --scale tiny >/dev/null

echo "==> telemetry profile smoke (64-machine cell-day)"
cargo run -q --release -p borg-experiments --offline --bin profile -- --machines 64 >/dev/null
cargo run -q --release -p borg-experiments --offline --bin profile -- --machines 64 --shards 4 >/dev/null

if [ "$mode" = --bench ]; then
    echo "==> cargo bench (smoke: one pass per benchmark)"
    CRITERION_SMOKE=1 cargo bench --workspace --offline
fi

echo "All checks passed."
