//! Quickstart: simulate a small Borg cell, validate the trace, and print
//! headline statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use borg2019::core::pipeline::{simulate_cell, SimScale};
use borg2019::trace::validate::validate;
use borg2019::workload::cells::CellProfile;

fn main() {
    // 1. Pick a cell profile — cell "a" is the production-heavy cell of
    //    the 2019 trace — and simulate a scaled-down week.
    let profile = CellProfile::cell_2019('a');
    let outcome = simulate_cell(&profile, SimScale::Small, 42);

    // 2. The outcome carries the trace tables (v3 schema)...
    let trace = &outcome.trace;
    println!("cell {}:", trace.cell_name);
    println!("  machines:           {}", trace.machine_count());
    println!("  collections:        {}", trace.collections().by_id.len());
    println!("  instance events:    {}", trace.instance_events.len());
    println!("  usage samples kept: {}", trace.usage.len());

    // 3. ...which satisfy the §9 logical invariants of the paper.
    let violations = validate(trace);
    println!("  validation: {} violations", violations.len());

    // 4. Pre-aggregated metrics answer the paper's questions directly.
    println!("\naverage CPU utilization by tier (fraction of cell capacity):");
    for (tier, util) in outcome.average_cpu_util_by_tier() {
        println!("  {tier:>5}: {util:.3}");
    }
    println!("\naverage CPU allocation by tier (over-commitment!):");
    for (tier, alloc) in outcome.average_cpu_alloc_by_tier() {
        println!("  {tier:>5}: {alloc:.3}");
    }

    // Figure 10 is counted from the trace's collection rows.
    let delays: Vec<f64> = trace
        .scheduling_delays()
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .collect();
    let ccdf = borg2019::analysis::Ccdf::from_samples(delays);
    println!(
        "\nmedian job scheduling delay: {:.2}s over {} jobs",
        ccdf.median().unwrap_or(f64::NAN),
        ccdf.len()
    );
}
