//! `profile` — answers the ROADMAP's event-loop profiling question with
//! borg-telemetry: simulate a 512-machine cell-day with telemetry on and
//! print where the time goes.
//!
//! Sections, each a view no other tool prints:
//!  1. per-event-kind time/count breakdown of the simulator event loop,
//!  2. the phase-span tree (sample_fleet → gen_workload → … → finalize),
//!  3. scheduler-index counters (engine plane),
//!  4. per-operator query-engine stats for two sample analysis queries
//!     over the simulated trace — a filtered group-by and the SQL
//!     battery's instance ⋈ collection-submits join — with the path each
//!     group-by and join took (`query.op.group_by.*_blocks`,
//!     `query.op.join.*_builds`).
//!
//! Ingestion timings are the traced benchmark's `trace.*_ms` and
//! `core.load_trace_dir_ms` rows; the serve witness's per-segment
//! breakdown is printed by the `serve` binary.
//!
//! ```sh
//! cargo run --release -p borg-experiments --bin profile
//! cargo run --release -p borg-experiments --bin profile -- --seed 7 --machines 64
//! ```

use borg_experiments::exit_usage;
use borg_query::{col, lit, Agg, Query, SortOrder, Value};
use borg_sim::{CellSim, SimConfig};
use borg_telemetry::{breakdown_report, fmt_ns, Snapshot, Telemetry};
use borg_trace::time::Micros;
use borg_workload::cells::CellProfile;

const USAGE: &str = "usage: profile [--seed N] [--machines N]";

struct Opts {
    seed: u64,
    machines: u64,
}

/// Parses the command line; a bad one is reported on stderr and exits 2.
fn parse_opts() -> Opts {
    let mut opts = Opts {
        seed: 1,
        machines: 512,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // The value after `arg`, an integer of at least `min`.
        let mut int = |min: u64| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&n| n >= min)
                .unwrap_or_else(|| {
                    let what = if min == 0 {
                        "an integer"
                    } else {
                        "a positive integer"
                    };
                    exit_usage(&format!("{arg} needs {what}; {USAGE}"))
                })
        };
        match arg.as_str() {
            "--seed" => opts.seed = int(0),
            "--machines" => opts.machines = int(1),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => exit_usage(&format!("unknown argument {other:?}; {USAGE}")),
        }
    }
    opts
}

fn print_spans(snap: &Snapshot, indent: &str) {
    for s in &snap.spans {
        println!(
            "{indent}{:pad$}{:<24} count={:<8} time={}",
            "",
            s.name,
            s.count,
            fmt_ns(s.total_ns),
            pad = s.depth as usize * 2,
        );
    }
}

fn main() {
    let opts = parse_opts();
    let profile = CellProfile::cell_2019('d');
    let mut cfg = SimConfig::tiny_for_tests(opts.seed);
    cfg.scale = (opts.machines as f64 / profile.machine_count as f64).min(1.0);
    cfg.horizon = Micros::from_days(1);
    cfg.snapshot_at = Micros::from_hours(12);
    cfg.telemetry = true;
    cfg.validate();

    println!(
        "=== profile: {}-machine cell-day (cell d, seed {}) ===\n",
        cfg.machine_count(&profile),
        opts.seed,
    );
    let outcome = CellSim::run_cell(&profile, &cfg);
    let snap = &outcome.telemetry;

    // 1. Where does the event loop spend its time?
    println!(
        "{}",
        breakdown_report(snap, "sim.ev", "event-loop breakdown by event kind")
    );

    // 2. Phase spans.
    println!("phase spans:");
    print_spans(snap, "  ");

    // 3. Placement-index behavior (engine plane).
    println!("\nscheduler index (engine plane):");
    for c in snap
        .counters
        .iter()
        .filter(|c| c.name.starts_with("sim.index."))
    {
        println!("  {:<34} {:>12}", c.name, c.value);
    }
    // What an answer from the score cache cost: log records walked and
    // machines re-scored per revalidation, against the longest tail a
    // fleet of this size walks (`crates/sim/tests/golden.rs` asserts the
    // same bound on every golden row).
    let index = |name: &str| {
        let name = format!("sim.index.{name}");
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let revalidations = index("cache_hits") + index("negative_hits");
    println!(
        "  answered: {} (hits + negative hits + misses)",
        revalidations + index("cache_misses")
    );
    println!(
        "  per revalidation: {:.1} records walked, {:.1} machines re-scored (tail cutoff {})",
        index("tail_records") as f64 / revalidations.max(1) as f64,
        index("rescored") as f64 / revalidations.max(1) as f64,
        borg_sim::index::max_tail(cfg.machine_count(&profile)),
    );

    // 4. Per-operator query stats for two sample analysis queries: one
    // group-by, and the SQL battery's instance ⋈ collection-submits join.
    let events = borg_core::tables::instance_events_table(&outcome.trace).expect("events table");
    let collections =
        borg_core::tables::collection_events_table(&outcome.trace).expect("collection table");
    let submits = Query::from(collections)
        .filter(col("event").eq(lit("submit")))
        .select(&["collection_id", "scheduler", "vertical_scaling"])
        .run()
        .expect("submits");
    let samples = [
        (
            "instance events with cpu_request > 0, by type",
            Query::from(events.clone())
                .filter(col("cpu_request").gt(lit(0.0)))
                .group_by(&["event"], vec![Agg::count("event", "n")])
                .sort_by("n", SortOrder::Descending),
        ),
        (
            "instance events ⋈ collection submits, by scheduler and vertical scaling",
            Query::from(events)
                .join(submits, &["collection_id"], &["collection_id"])
                .group_by(
                    &["scheduler", "vertical_scaling"],
                    vec![Agg::count_all("n"), Agg::sum("cpu_request", "cpu")],
                )
                .sort_by("n", SortOrder::Descending),
        ),
    ];
    for (title, query) in samples {
        let mut query_tel = Telemetry::enabled();
        let out = query.run_with(&mut query_tel).expect("sample query");
        let query_snap = query_tel.snapshot();
        println!("\nquery-engine operator stats (sample: {title}):");
        for r in 0..out.num_rows().min(4) {
            let cells: Vec<String> = out
                .row(r)
                .iter()
                .map(|v| match v {
                    Value::Int(n) => format!("{n:>12}"),
                    Value::Float(x) => format!("{x:>12.1}"),
                    v => format!("{:<12}", v.to_string()),
                })
                .collect();
            println!("  {}", cells.join(" ").trim_end());
        }
        println!("  per-operator telemetry:");
        for c in query_snap
            .counters
            .iter()
            .filter(|c| c.name.starts_with("query.op."))
        {
            println!("    {:<36} {:>10}", c.name, c.value);
        }
        print_spans(&query_snap, "    ");
    }
}
