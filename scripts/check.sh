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
  --lint     borg-lint only, held to its 5 s budget (fast pre-commit loop)
  --chaos    chaos roundtrip, corruption detection, trace-kernel
             differential/fuzz suites, borg-trace unit tests and borg-sim's
             end-of-run checker tests, then (release builds) the lifecycle
             laws over longer event sequences (1 min) and the f32 bucket
             writer against Display on all 2^32 bit patterns (5.5-8.5 min
             of the mode's 7-11 on two cores)
  --pipeline pipeline-bench self-check only (benchmark/run.sh --check: unit tests + 5 tiny workloads)
  --checked  release build with debug assertions, so every simulated cell
             ends in the end-of-run checker at release scales: paper
             --scale small, paper --scale month --seed 2019 (stdout equal
             to experiments_month.txt), then benchmark/run.sh --check
             (under 2 min on two cores, cold builds included)
  --compare REV [--pairs N] [--workloads W,W...] [--seconds S] [--seed N]
             the benchmark of this checkout against commit REV: REV's
             files are exported under target/compare/, each side builds
             the benchmark into a target directory of its own, and the
             sides alternate over N pairs (default 10) of untraced runs
             of S seconds (default 10), each pair on a seed of its own
             (the first is drawn from the clock unless given, and
             printed). Per workload (default: all five) it prints the
             wall_s and setup_s medians with quartiles, the pairs this
             checkout wins (ties count for neither), the median gap
             against REV's interquartile range (IQR) and one verdict per
             metric: gain (9 of 10 pairs won and the gap over REV's
             IQR), worse (median more than 0.25 worse), unresolved
             (either side's IQR over 0.25 of REV's median and not every
             run of this checkout beating every run of REV) or no
             change; then digest equality and failed checks. It fails
             on a digest mismatch, a failed check or a worse metric.
             First it prints the non-test lines of crates/*/src for REV
             and for this checkout, the difference, and each crate whose
             count changed (a file counts up to the #[cfg(test)] that
             opens a test module; a file declared by #[cfg(test)] mod
             name; counts nothing). Before the first pair and after the
             last it prints the host's two-thread regime: the time of
             one CPU-bound kernel alone against two copies of it at once
             (median of three; ratio 1 = two free cores, 2 = one)
  --help     this text
EOF
}

mode=
compare_rev=
pairs=10
workloads="cell_day_512 paper_small trace_roundtrip sql_battery serve_closed"
seconds=10
seed=
while [ $# -gt 0 ]; do
    arg=$1
    shift
    case "$arg" in
    --lint | --chaos | --pipeline | --checked | --compare)
        if [ -n "$mode" ]; then
            echo "more than one mode: $mode $arg" >&2
            usage >&2
            exit 2
        fi
        mode=$arg
        if [ "$arg" = --compare ]; then
            if [ $# -eq 0 ]; then
                echo "--compare needs a revision" >&2
                exit 2
            fi
            compare_rev=$1
            shift
        fi
        ;;
    --pairs | --workloads | --seconds | --seed)
        if [ "$mode" != --compare ] || [ $# -eq 0 ]; then
            echo "$arg takes a value and goes after --compare REV" >&2
            usage >&2
            exit 2
        fi
        if [ "$arg" = --pairs ]; then
            pairs=$1
        elif [ "$arg" = --workloads ]; then
            workloads=$1
        elif [ "$arg" = --seconds ]; then
            seconds=$1
        else
            seed=$1
        fi
        shift
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

if [ "$mode" = --compare ]; then
    workloads=$(printf '%s' "$workloads" | tr ',' ' ')
    case "$pairs.$seconds.${seed:-0}" in
    *[!0-9.]* | *..* | .* | *.)
        echo "--pairs, --seconds and --seed take whole numbers" >&2
        exit 2
        ;;
    esac
    if [ "$pairs" -lt 1 ]; then
        echo "--pairs must be at least 1" >&2
        exit 2
    fi
    parent=$(git rev-parse --verify -q "$compare_rev^{commit}") || {
        echo "not a commit: $compare_rev" >&2
        exit 2
    }
    base=$(pwd)/target/compare
    parent_root=$base/$parent
    # A plain export of the commit's files; nothing is registered in .git.
    if [ ! -f "$parent_root/benchmark/run.sh" ]; then
        rm -rf "$parent_root"
        mkdir -p "$parent_root"
        git archive "$parent" | tar -x -C "$parent_root"
    fi
    # Non-test lines of crates/*/src under $1, one `crate lines` row per
    # crate. A file counts up to a `#[cfg(test)]` that opens a `mod … {`
    # (comments and other attributes may stand between the two); a file
    # that a `#[cfg(test)] mod name;` declares counts nothing.
    src_lines() {
        (cd "$1" && find crates/*/src -name '*.rs' | sort | xargs awk '
            function item(line, name) {
                name = line
                if (!sub(/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+/, "", name)) {
                    n += held
                } else if (name ~ /^[A-Za-z0-9_]+[[:space:]]*\{/) {
                    test = 1
                } else {
                    sub(/[[:space:]]*;.*/, "", name)
                    print "skip", dir "/" name ".rs"
                    print "skip", dir "/" name "/mod.rs"
                    n += held
                }
                held = 0
            }
            function flush() { if (file != "") print "file", file, n + held }
            FNR == 1 {
                flush()
                file = FILENAME; n = 0; held = 0; test = 0
                dir = FILENAME
                sub(/\.rs$/, "", dir)
                if (dir ~ /\/(lib|main|mod)$/) sub(/\/[^\/]*$/, "", dir)
            }
            test { next }
            held && /^[[:space:]]*(\/\/|#\[|$)/ { held++; next }
            held { held++; item($0); next }
            /^[[:space:]]*#\[cfg\(test\)\]/ {
                held = 1
                rest = $0
                sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "", rest)
                if (rest != "") item(rest)
                next
            }
            { n++ }
            END { flush() }' | awk '
            $1 == "skip" { skip[$2] = 1; next }
            { lines[$2] = $3 }
            END {
                for (f in lines) if (!(f in skip)) { split(f, p, "/"); crate[p[2]] += lines[f] }
                for (c in crate) print c, crate[c]
            }' | sort)
    }
    parent_lines=$(src_lines "$parent_root")
    change_lines=$(src_lines .)
    { printf '%s\n' "$parent_lines" | sed 's/^/parent /'
      printf '%s\n' "$change_lines" | sed 's/^/change /'; } | awk -v rev="$parent" '
        { n[$1, $2] = $3; total[$1] += $3; crates[$2] = 1 }
        END {
            printf "==> non-test lines in crates/*/src: %s %d, this checkout %d, difference %+d\n",
                rev, total["parent"], total["change"], total["change"] - total["parent"]
            for (c in crates) if (n["parent", c] != n["change", c])
                printf "    %s %d -> %d (%+d)\n", c, n["parent", c], n["change", c],
                    n["change", c] - n["parent", c] | "sort"
        }'
    parent_target=$base/$parent-target
    change_target=$base/checkout-target
    echo "==> building the benchmark of $parent and of this checkout"
    CARGO_TARGET_DIR=$parent_target cargo build --release --offline -q \
        --manifest-path "$parent_root/benchmark/Cargo.toml"
    CARGO_TARGET_DIR=$change_target cargo build --release --offline -q \
        --manifest-path benchmark/Cargo.toml
    if [ -z "$seed" ]; then
        seed=$(($(date +%s) % 900000 + 100000))
    fi
    echo "==> $pairs pair(s) per workload, --seconds $seconds, first seed $seed"
    log=$base/compare-$(date +%Y%m%d-%H%M%S).txt
    : >"$log"
    # The host's two-thread regime: the median of three timings of one
    # CPU-bound awk kernel alone, and of two copies of it at once. A ratio
    # near 1 is two free cores; near 2 is one core's worth of CPU, where
    # no two-thread path can show a gain.
    regime() {
        kernel='BEGIN { s = 0; for (i = 0; i < 1000000; i++) s += i % 7; print s }'
        for _ in 1 2 3; do
            t0=$(date +%s.%N)
            awk "$kernel" >/dev/null
            t1=$(date +%s.%N)
            awk "$kernel" >/dev/null &
            awk "$kernel" >/dev/null
            wait "$!"
            t2=$(date +%s.%N)
            echo "$t0 $t1 $t2"
        done | awk -v when="$1" '
            { one[NR] = $2 - $1; two[NR] = $3 - $2 }
            END {
                n = median3(one); m = median3(two)
                printf "==> two-thread regime %s: one thread %.3f s, two concurrent %.3f s, ratio %.2f\n",
                    when, n, m, m / n
            }
            # The median of a[1..3].
            function median3(a,   lo, hi) {
                lo = a[1] < a[2] ? a[1] : a[2]
                hi = a[1] < a[2] ? a[2] : a[1]
                return a[3] < lo ? lo : (a[3] > hi ? hi : a[3])
            }' | tee -a "$log"
    }
    regime "before the first pair"
    # One untraced run of one side: "side seed wall_s setup_s fail_share digests".
    run_side() {
        if [ "$1" = parent ]; then
            dir=$parent_root target=$parent_target
        else
            dir=. target=$change_target
        fi
        if ! out=$(CARGO_TARGET_DIR=$target bash "$dir/benchmark/run.sh" --workload "$2" \
            --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null); then
            echo "$1 $3 run-failed"
            return
        fi
        wall=$(printf '%s\n' "$out" | sed -n 's/^  wall_s  *\([0-9.eE+-]*\) s$/\1/p')
        setup=$(printf '%s\n' "$out" | sed -n 's/^  setup_s  *\([0-9.eE+-]*\) s$/\1/p')
        fail=$(printf '%s\n' "$out" | sed -n 's/^checks: .* fail_share \([0-9.eE+-]*\)$/\1/p')
        digests=$(printf '%s\n' "$out" | sed -n 's/^.*\(digest .*\)$/\1/p' | tr ' \n' '_;')
        echo "$1 $3 ${wall:-nan} ${setup:-nan} ${fail:-nan} ${digests:-none}"
    }
    status=0
    for w in $workloads; do
        echo "==> $w, seeds $seed-$((seed + pairs - 1))"
        runs=$base/runs-$w.txt
        : >"$runs"
        i=0
        while [ "$i" -lt "$pairs" ]; do
            # The side that runs first alternates from pair to pair.
            if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
            for side in $order; do
                run_side "$side" "$w" $((seed + i)) >>"$runs"
            done
            i=$((i + 1))
        done
        sed "s/^/$w /" "$runs" >>"$log"
        awk -f scripts/compare.awk "$runs" || status=1
        seed=$((seed + pairs))
    done
    regime "after the last pair"
    cat <<'EOF'
Known traps in these numbers:
  - the host-speed calibration runs one thread, so it cannot see a busy
    second core: a neighbour there slows two-thread code uncorrected (the
    regime lines say how much CPU a second thread found);
  - traced runs do pool work about 2x slower than untraced ones: compare
    a traced span only with the same span traced;
  - serve_closed times wall-clock replays: a missed deadline or a slow
    neighbour moves it more than the code does.
EOF
    echo "every run: $log"
    if [ "$status" -ne 0 ]; then
        echo "Compare found a digest mismatch, a failed check or a metric over its bound." >&2
        exit 1
    fi
    echo "Compare passed."
    exit 0
fi

if [ "$mode" = --pipeline ]; then
    echo "==> pipeline-bench self-check (unit tests + five workloads, tiny inputs, both modes)"
    bash benchmark/run.sh --check
    echo "Pipeline check passed."
    exit 0
fi

if [ "$mode" = --checked ]; then
    # A cargo profile setting, not a program option: debug assertions
    # switch on the checker that `run_cell` ends in (DESIGN.md §9). Its own
    # target directories keep the plain release builds untouched.
    export CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true
    export CARGO_TARGET_DIR=target/checked
    echo "==> release build with debug assertions"
    cargo build --release --offline -q -p borg-experiments --bin paper
    echo "==> paper --scale small, every cell checked"
    target/checked/release/paper --scale small >/dev/null
    echo "==> paper --scale month --seed 2019, stdout against experiments_month.txt"
    target/checked/release/paper --scale month --seed 2019 >target/checked/month.txt
    cmp target/checked/month.txt experiments_month.txt
    echo "==> pipeline-bench self-check with debug assertions"
    CARGO_TARGET_DIR=target/checked/benchmark bash benchmark/run.sh --check
    echo "Checked run passed."
    exit 0
fi

if [ "$mode" = --chaos ]; then
    echo "==> chaos roundtrip (fault injection & trace repair)"
    cargo test -p borg2019 --test chaos_roundtrip --offline -q
    echo "==> trace kernels vs reference implementations (differential + fuzz), corruption detection"
    cargo test -p borg-trace --test differential --test csv_fuzz --test corruption_detection --offline -q
    echo "==> the lifecycle walk's unit tests (borg-trace lib, borg-sim end-of-run checker)"
    cargo test -p borg-trace --lib --offline -q
    cargo test -p borg-sim --lib --offline -q check::
    echo "==> lifecycle laws over every sequence of up to 5 events, and of 3 over two instances (release)"
    cargo test --release -p borg-trace --test lifecycle_laws --offline -q -- --ignored
    echo "==> f32 bucket writer vs Display, every bit pattern (release)"
    cargo test --release -p borg-trace --lib --offline -- --ignored --nocapture
    echo "Chaos check passed."
    exit 0
fi

# borg-lint: workspace determinism & soundness rules (DESIGN.md §10).
# Runs first — it needs only `cargo build -p borg-lint`, so it reports
# before the full workspace compiles. The analysis is budgeted at 5 s of
# wall time — the linter sits on the pre-commit path, so its cost is a
# contract. The figure is the `X ms` of the linter's own `borg-lint: clean
# (N files, X ms)` line, so the guard is independent of cargo's compile
# time on a cold target dir; `crates/lint/tests/cli.rs` pins that line.
LINT_BUDGET_MS=5000
run_lint() {
    echo "==> borg-lint (determinism & soundness rules)"
    status=0
    report=$(cargo run -q --release -p borg-lint --offline -- --root .) || status=$?
    printf '%s\n' "$report"
    if [ "$status" -ne 0 ]; then
        exit "$status"
    fi
    total_ms=$(printf '%s\n' "$report" | sed -n 's/^borg-lint: clean (.*, \([0-9.]*\) ms)$/\1/p')
    if [ -z "$total_ms" ]; then
        echo "lint budget: no \`borg-lint: clean (N files, X ms)\` line in the report" >&2
        exit 1
    fi
    if ! awk -v t="$total_ms" -v b="$LINT_BUDGET_MS" 'BEGIN { exit !(t <= b) }'; then
        echo "lint budget: analysis took ${total_ms} ms, budget ${LINT_BUDGET_MS} ms" >&2
        exit 1
    fi
    echo "lint budget: ${total_ms} ms of ${LINT_BUDGET_MS} ms"
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

echo "All checks passed."
