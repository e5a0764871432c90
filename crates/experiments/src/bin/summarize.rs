//! Summarize a trace directory: the "canonical toolkit" workflow.
//!
//! Reads a trace previously exported with
//! `borg_trace::csv::write_trace_dir` (or produced externally in the same
//! layout) through the repairing ingestion pipeline — malformed lines
//! are quarantined and lifecycle gaps repaired, not fatal — validates
//! the result against the §9 invariants, and prints a Table-1-style
//! summary plus headline workload statistics — Figures 7–10 and §5.2
//! among them, counted from the tables — annotated with the data quality
//! of the load. No simulation involved.
//!
//! ```sh
//! cargo run --release -p borg-experiments --bin summarize -- <trace-dir>
//! # or, without arguments, generate a demo trace first:
//! cargo run --release -p borg-experiments --bin summarize
//! ```

use borg_analysis::ccdf::Ccdf;
use borg_core::analyses::transitions::table_transitions;
use borg_core::pipeline::{load_trace_dir, DataQuality};
use borg_trace::collection::CollectionType;
use borg_trace::csv::write_trace_dir;
use borg_trace::machine::shape_census;
use borg_trace::priority::Tier;
use borg_trace::trace::Trace;
use borg_trace::validate::validate;
use std::collections::BTreeMap;

fn main() {
    // Demo mode keeps the simulated cell so the sim run and the ingested
    // trace print comparable summaries side by side.
    let (dir, sim) = match std::env::args().nth(1) {
        Some(d) => (std::path::PathBuf::from(d), None),
        None => {
            // Demo mode: export a simulated trace, then summarize it.
            let dir = std::env::temp_dir().join("borg2019_demo_trace");
            println!(
                "no trace directory given; generating a demo trace at {}\n",
                dir.display()
            );
            let outcome = borg_core::pipeline::simulate_cell(
                &borg_workload::cells::CellProfile::cell_2019('d'),
                borg_core::pipeline::SimScale::Tiny,
                1,
            );
            write_trace_dir(&outcome.trace, &dir).expect("demo trace written");
            (dir, Some(outcome))
        }
    };

    let (trace, quality) = load_trace_dir(&dir);
    if trace.machine_events.is_empty() && trace.instance_events.is_empty() {
        eprintln!(
            "no usable rows in trace at {}: {}",
            dir.display(),
            quality.quarantine.summary()
        );
        std::process::exit(1);
    }
    summarize(&trace, &quality);
    if let Some(outcome) = &sim {
        print_sim_metrics(outcome);
    }
}

/// The simulator-side account of the same cell: what the trace above
/// was distilled from (only available when this binary also ran the
/// simulation).
fn print_sim_metrics(outcome: &borg_sim::CellOutcome) {
    println!("\n=== sim-end metrics (simulator side of the same run) ===");
    print!("{}", outcome.explain_scheduling());
    let m = &outcome.metrics;
    println!(
        "  samples kept: {} slack, {} machine snapshots",
        m.slack.len(),
        m.machine_snapshots.len()
    );
}

fn summarize(trace: &Trace, quality: &DataQuality) {
    println!("=== trace summary: cell {} ===", trace.cell_name);
    println!(
        "schema: {}   window: {:.1} days",
        trace.schema.map_or("unknown", |s| s.name()),
        trace.horizon.as_days_f64()
    );
    println!("{}", quality.annotation());

    // Fleet.
    let census = shape_census(&trace.machine_events);
    let cap = trace.nominal_capacity();
    println!(
        "\nfleet: {} machines, {} shapes, capacity {:.1} NCU / {:.1} NMU",
        trace.machine_count(),
        census.shapes.len(),
        cap.cpu,
        cap.mem
    );
    if census.ignored() > 0 {
        println!(
            "  (shape census counted {} Add rows; skipped {} Remove, {} Update)",
            census.adds, census.ignored_removes, census.ignored_updates
        );
    }

    // Collections.
    let infos = trace.collections().by_id;
    let jobs = infos
        .values()
        .filter(|c| c.collection_type == CollectionType::Job)
        .count();
    let allocs = infos.len() - jobs;
    println!(
        "collections: {} ({jobs} jobs, {allocs} alloc sets)",
        infos.len()
    );
    let mut by_final: BTreeMap<&str, usize> = Default::default();
    for info in infos.values() {
        let key = info.final_event.map_or("(alive at end)", |e| e.name());
        *by_final.entry(key).or_default() += 1;
    }
    println!("final states:");
    for (k, n) in by_final {
        println!("  {k:>15}: {n}");
    }

    // Events, and Figures 8 and 9: hourly submissions, churn.
    println!(
        "\ninstances: {}, instance events: {}",
        trace.instance_count(),
        trace.instance_events.len()
    );
    let median = |hours: &[u64]| {
        let ccdf = Ccdf::from_samples(hours.iter().map(|&n| n as f64));
        ccdf.median().unwrap_or(f64::NAN)
    };
    println!(
        "job submissions per hour (Figure 8): median {:.1}",
        median(&trace.job_submits_per_hour())
    );
    let (new, all) = trace.task_submits_per_hour();
    let (new_total, all_total) = (new.iter().sum::<u64>(), all.iter().sum::<u64>());
    println!(
        "task submissions per hour (Figure 9): median {:.1} new, {:.1} all; \
         {new_total} new tasks, {all_total} submissions (churn {:.4})",
        median(&new),
        median(&all),
        (all_total as f64 - new_total as f64) / new_total.max(1) as f64
    );
    let [collection, instance] = table_transitions(trace);
    println!(
        "transitions (Figure 7): {} collection, {} instance",
        collection.total(),
        instance.total()
    );

    // Figure 10 and §5.2.
    let mut delays: BTreeMap<Tier, Vec<f64>> = BTreeMap::new();
    for (tier, d) in trace.scheduling_delays() {
        delays.entry(tier).or_default().push(d.as_secs_f64());
    }
    let medians: Vec<String> = delays
        .into_iter()
        .map(|(tier, xs)| {
            let m = Ccdf::from_samples(xs).median().unwrap_or(f64::NAN);
            format!("{tier} {m:.2}s")
        })
        .collect();
    println!(
        "median scheduling delay (Figure 10): {}",
        medians.join(", ")
    );
    let evicted = infos.values().filter(|c| c.evictions > 0).count();
    println!(
        "collections with an eviction (§5.2): {evicted} of {} ({:.4})",
        infos.len(),
        evicted as f64 / infos.len().max(1) as f64
    );

    // Job sizes: the jobs with a task. Alloc instances are not tasks.
    let sizes = Ccdf::from_samples(
        infos
            .values()
            .filter(|c| c.collection_type == CollectionType::Job && c.tasks > 0)
            .map(|c| f64::from(c.tasks)),
    );
    if let Some(m) = sizes.median() {
        println!(
            "tasks per job: median {m:.0}, p95 {:.0}, max {:.0}",
            sizes.quantile_exceeding(0.05).unwrap_or(f64::NAN),
            sizes.samples().last().copied().unwrap_or(f64::NAN)
        );
    }

    // Usage table.
    println!(
        "usage samples: {} (avg cpu {:.4} NCU per sampled task-window)",
        trace.usage.len(),
        trace.usage.iter().map(|u| u.avg_usage.cpu).sum::<f64>() / trace.usage.len().max(1) as f64
    );

    // §9 validation.
    let violations = validate(trace);
    if violations.is_empty() {
        println!("\nvalidation: all §9 invariants hold");
    } else {
        println!("\nvalidation: {} violations, first 5:", violations.len());
        for v in violations.iter().take(5) {
            println!("  {v}");
        }
    }
}
