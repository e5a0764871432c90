//! Fault sweep: machine failures, trace corruption, and the repair loop.
//!
//! Part 1 sweeps the machine-failure rate and reports how eviction
//! causes shift (the paper's §5.2 eviction-rate discussion): at Borg-like
//! rates failures are a minor eviction cause next to preemption and
//! maintenance, but the tail grows quickly.
//!
//! Part 2 closes the degradation loop: a clean trace is corrupted by a
//! lossy writer (drops, duplicates, reorders, truncation, garbled
//! lines), re-ingested leniently, repaired, and re-validated — printing
//! the fault ledger against the repair report so every injected fault is
//! accounted for.

use borg_core::pipeline::{load_trace_dir, simulate_cell};
use borg_experiments::{banner, parse_opts};
use borg_sim::{CellSim, CorruptionConfig, FaultConfig, SimConfig};
use borg_trace::validate::validate;
use borg_workload::cells::CellProfile;

fn main() {
    let opts = parse_opts();
    banner("Fault sweep", "machine failures & trace degradation", &opts);

    let profile = CellProfile::cell_2019('a');

    // Part 1: eviction causes vs failure rate.
    println!(
        "failures/machine-month vs outcomes (cell a, seed {}):",
        opts.seed
    );
    println!(
        "  {:>10} {:>9} {:>9} {:>6} {:>22}",
        "rate", "failures", "repaired", "lost", "evictions by cause"
    );
    for rate in [0.0, 0.3, 1.0, 3.0, 10.0] {
        let faults = if rate > 0.0 {
            Some(FaultConfig {
                failures_per_machine_month: rate,
                ..FaultConfig::from_model(&profile.failure_model)
            })
        } else {
            None
        };
        let cfg = SimConfig {
            faults,
            ..opts.scale.config(opts.seed)
        };
        let o = CellSim::run_cell(&profile, &cfg);
        let causes: Vec<String> = o
            .metrics
            .evictions_by_cause
            .iter()
            .map(|(c, n)| format!("{c}:{n}"))
            .collect();
        println!(
            "  {:>10.1} {:>9} {:>9} {:>6} {:>22}",
            rate,
            o.trace.machine_failures(),
            o.trace.machine_repairs(),
            o.trace.tasks_lost(),
            causes.join(" ")
        );
        let v = validate(&o.trace);
        if !v.is_empty() {
            println!("    !! {} validation violations at rate {rate}", v.len());
        }
    }

    // Part 2: the closed degradation loop.
    println!("\nclosed loop: generate → corrupt → lenient read → repair → validate");
    let outcome = simulate_cell(&profile, opts.scale, opts.seed);
    for (name, cc) in [
        ("lossy", CorruptionConfig::lossy()),
        ("harsh", CorruptionConfig::harsh()),
    ] {
        let dir =
            std::env::temp_dir().join(format!("borg_fault_sweep_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (corrupted, mut ledger) = borg_sim::corrupt_trace(&outcome.trace, &cc, opts.seed);
        borg_sim::write_trace_dir_lossy(&corrupted, &dir, &cc, opts.seed, &mut ledger)
            .expect("lossy write");
        let (repaired, quality) = load_trace_dir(&dir);
        let violations = validate(&repaired);
        println!("\n  profile `{name}`:");
        println!("    injected: {}", ledger.summary());
        println!("    {}", quality.annotation());
        println!(
            "    post-repair validation: {} violations",
            violations.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
