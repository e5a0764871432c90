//! `profile` — answers the ROADMAP's event-loop profiling question with
//! borg-telemetry: simulate a 512-machine cell-day with telemetry on and
//! print where the time goes.
//!
//! Sections:
//!  1. per-event-kind time/count breakdown of the simulator event loop,
//!  2. the phase-span tree (sample_fleet → gen_workload → … → finalize),
//!  3. scheduler-index counters (engine plane),
//!  4. the same snapshot round-tripped through the borg-query engine —
//!     the top spans and the deterministic-counter total are computed by
//!     `Query` over the bridge tables and cross-checked against the
//!     snapshot itself,
//!  5. chrome://tracing JSON export, validated in-process (written out
//!     with `--trace-out PATH`; load it at chrome://tracing),
//!  6. ingestion-pipeline stage timings: the simulated trace is written
//!     to a temp dir and re-read through the repairing loader with
//!     telemetry enabled,
//!  7. per-operator query-engine stats for a sample analysis query over
//!     the reloaded trace.
//!
//! ```sh
//! cargo run --release -p borg-experiments --bin profile
//! cargo run --release -p borg-experiments --bin profile -- --seed 7 --full
//! ```

use borg_query::{bridge, col, lit, Agg, Query, SortOrder};
use borg_serve::{
    generate_arrivals, open_loop_gap_us, overload_admission, ChaosConfig, Epoch, ModelCost,
    ServeConfig, ServeSim, Tier, WorkloadSpec,
};
use borg_sim::{CellSim, SimConfig};
use borg_telemetry::{
    breakdown_report, chrome_trace_json, fmt_ns, human_report, validate_json, Snapshot, Telemetry,
};
use borg_trace::time::Micros;
use borg_workload::cells::CellProfile;

const USAGE: &str =
    "usage: profile [--seed N] [--machines N] [--shards K] [--trace-out PATH] [--serve] [--full]";

struct Opts {
    seed: u64,
    machines: u64,
    shards: Option<usize>,
    trace_out: Option<std::path::PathBuf>,
    serve: bool,
    full: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        seed: 1,
        machines: 512,
        shards: None,
        trace_out: None,
        serve: false,
        full: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().unwrap_or_else(|| panic!("{what}\n{USAGE}"));
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed needs a number").parse().expect("seed"),
            "--machines" => {
                opts.machines = value("--machines needs a number")
                    .parse()
                    .expect("machines");
            }
            "--shards" => {
                opts.shards = Some(value("--shards needs a number").parse().expect("shards"));
            }
            "--trace-out" => opts.trace_out = Some(value("--trace-out needs a path").into()),
            "--serve" => opts.serve = true,
            "--full" => opts.full = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}\n{USAGE}"),
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
    cfg.placement_shards = opts.shards;
    cfg.validate();

    println!(
        "=== profile: {}-machine cell-day (cell d, seed {}, {} placement shard(s)) ===\n",
        cfg.machine_count(&profile),
        opts.seed,
        cfg.effective_shards(cfg.machine_count(&profile)),
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
    // shard of this size walks (`scripts/check.sh --profile` reads the
    // two lines below).
    let index = |name: &str| {
        let name = format!("sim.index.{name}");
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let revalidations = index("cache_hits") + index("negative_hits");
    let shard_fleet = cfg
        .machine_count(&profile)
        .div_ceil(index("shards").max(1) as usize);
    println!(
        "  answered: {} (hits + negative hits + misses)",
        revalidations + index("cache_misses")
    );
    println!(
        "  per revalidation: {:.1} records walked, {:.1} machines re-scored (tail cutoff {})",
        index("tail_records") as f64 / revalidations.max(1) as f64,
        index("rescored") as f64 / revalidations.max(1) as f64,
        borg_sim::index::max_tail(shard_fleet),
    );

    // 4. Round-trip through the query engine: analyze the snapshot with
    // the same operators the paper's tables use, and cross-check.
    let top = Query::from(bridge::spans_table(snap))
        .filter(col("depth").ge(lit(1i64)))
        .select(&["path", "count", "total_ns"])
        .sort_by("total_ns", SortOrder::Descending)
        .limit(5)
        .run()
        .expect("span query");
    println!("\ntop spans by total time (computed by borg-query over the snapshot):");
    for r in 0..top.num_rows() {
        let path = top.value(r, "path").expect("path");
        let ns = top
            .value(r, "total_ns")
            .expect("total_ns")
            .as_i64()
            .expect("int");
        println!(
            "  {:<40} {}",
            path.as_str().expect("str"),
            fmt_ns(ns.max(0) as u64)
        );
    }
    let det = Query::from(bridge::counters_table(snap))
        .filter(col("plane").eq(lit("det")))
        .group_by(
            &[],
            vec![Agg::sum("value", "total"), Agg::count("value", "rows")],
        )
        .run()
        .expect("counter rollup");
    let engine_total = det.value(0, "total").expect("total").as_f64().expect("num");
    let direct_total: u64 = snap
        .counters
        .iter()
        .filter(|c| c.plane == borg_telemetry::Plane::Deterministic)
        .map(|c| c.value)
        .sum();
    let ok = (engine_total - direct_total as f64).abs() < 0.5;
    println!(
        "round-trip check: query-engine sum of det counters = {engine_total:.0}, \
         snapshot sum = {direct_total} → {}",
        if ok { "match" } else { "MISMATCH" }
    );
    assert!(ok, "query-engine round trip disagrees with the snapshot");

    // 5. chrome://tracing export.
    let json = chrome_trace_json(snap);
    match validate_json(&json) {
        Ok(()) => println!("\nchrome trace: {} bytes, valid JSON", json.len()),
        Err(pos) => println!("\nchrome trace: INVALID JSON at byte {pos}"),
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, &json).expect("trace written");
        println!("  written to {} (load at chrome://tracing)", path.display());
    }

    // 6. Ingestion-pipeline stage timings over the freshly written trace.
    let dir = std::env::temp_dir().join(format!("borg_profile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    borg_trace::csv::write_trace_dir(&outcome.trace, &dir).expect("trace written");
    let mut core_tel = Telemetry::enabled();
    let (trace, quality) = borg_core::pipeline::load_trace_dir_with(&dir, &mut core_tel);
    std::fs::remove_dir_all(&dir).ok();
    let core_snap = core_tel.snapshot();
    println!(
        "\ningestion pipeline ({} rows; {}):",
        quality.rows_ingested,
        quality.annotation()
    );
    print_spans(&core_snap, "  ");

    // 7. Per-operator query stats for a sample analysis query.
    let events = borg_core::tables::instance_events_table(&trace).expect("events table");
    let mut query_tel = Telemetry::enabled();
    let by_event = Query::from(events)
        .filter(col("cpu_request").gt(lit(0.0)))
        .group_by(&["event"], vec![Agg::count("event", "n")])
        .sort_by("n", SortOrder::Descending)
        .run_with(&mut query_tel)
        .expect("sample query");
    let query_snap = query_tel.snapshot();
    println!(
        "\nquery-engine operator stats (sample: instance events with cpu_request > 0, by type):"
    );
    for r in 0..by_event.num_rows().min(4) {
        println!(
            "  {:<12} {:>8}",
            by_event
                .value(r, "event")
                .expect("event")
                .as_str()
                .expect("str"),
            by_event.value(r, "n").expect("n").as_i64().expect("int")
        );
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

    // 8. Serve-side observability (--serve): a short chaotic serve run
    // over the same trace; the witness's per-segment aggregates flow
    // through the identical registry/breakdown path as the event loop.
    if opts.serve {
        let epoch =
            std::sync::Arc::new(Epoch::from_trace("d", 0, &outcome.trace).expect("epoch tables"));
        let admission = overload_admission();
        let chaos = ChaosConfig::moderate(opts.seed);
        let gap = open_loop_gap_us(&admission, &ModelCost::default(), &chaos, 1.0, 1.5);
        let cfg = ServeConfig::new(admission, chaos, opts.seed);
        let spec = WorkloadSpec {
            seed: opts.seed,
            queries: 1_000,
            mean_gap_us: gap,
            tier_mix: [0.2, 0.4, 0.4],
            epochs: vec!["d".into()],
        };
        let arrivals = generate_arrivals(&spec);
        let r = ServeSim::default().run(cfg, std::slice::from_ref(&epoch), &arrivals);
        let mut serve_tel = Telemetry::enabled();
        r.witness.export_telemetry(&mut serve_tel);
        let serve_snap = serve_tel.snapshot();
        println!(
            "\n{}",
            breakdown_report(
                &serve_snap,
                "serve.seg",
                "serve span-segment breakdown (1000 queries, 1.5x load, moderate chaos)"
            )
        );
        println!("serve completion-latency quantiles:");
        for t in Tier::ALL {
            println!(
                "  {:<12} p50 {:>8}us  p99 {:>8}us",
                t.name(),
                r.stats.latency_quantile_us(t, 0.50),
                r.stats.latency_quantile_us(t, 0.99),
            );
        }
        println!(
            "serve alerts: {}, recorder snapshots: {}",
            r.alerts.len(),
            String::from_utf8_lossy(&r.recorder_dump)
                .lines()
                .filter(|l| l.starts_with("-- snapshot"))
                .count()
        );
    }

    if opts.full {
        println!("\n=== full simulator snapshot ===");
        print!("{}", human_report(snap));
    }
}
