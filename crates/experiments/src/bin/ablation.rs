//! Ablations: quantify the design choices DESIGN.md calls out.
//!
//! Three mechanisms are switched off one at a time against a shared
//! baseline cell:
//!
//! * **equivalence-class scheduling** (Borg evaluates a job's identical
//!   tasks once) — measured on scheduling delay;
//! * **batch-admission queueing** (§3) — measured on delay and evictions;
//! * **Autopilot vertical scaling** (§8) — measured on peak NCU slack.

use borg_analysis::Ccdf;
use borg_core::analyses::delay;
use borg_core::pipeline::SimScale;
use borg_experiments::{banner, parse_opts};
use borg_sim::{CellOutcome, CellSim, SimConfig};
use borg_workload::cells::CellProfile;

struct Variant {
    name: &'static str,
    configure: fn(&mut SimConfig),
}

fn run(profile: &CellProfile, base: &SimConfig, v: &Variant) -> CellOutcome {
    let mut cfg = base.clone();
    (v.configure)(&mut cfg);
    CellSim::run_cell(profile, &cfg)
}

fn main() {
    let opts = parse_opts();
    banner("Ablation", "design-choice ablations on cell d", &opts);
    let profile = CellProfile::cell_2019('d');
    let base = SimScale::Small.config(opts.seed).clone();

    let variants = [
        Variant {
            name: "baseline",
            configure: |_| {},
        },
        Variant {
            name: "no equivalence-class caching",
            configure: |c| c.equivalence_class_speedup = 1.0,
        },
        Variant {
            name: "no batch-admission queue",
            configure: |c| c.disable_batch_queue = true,
        },
        Variant {
            name: "no autopilot",
            configure: |c| c.disable_autopilot = true,
        },
    ];

    println!(
        "{:<32} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "variant", "med delay", "p90 delay", "med slack %", "evictions", "cpu util"
    );
    for v in &variants {
        let o = run(&profile, &base, v);
        let delays = delay::delay_ccdf(&o);
        let slack = Ccdf::from_samples(o.metrics.slack.iter().map(|s| s.slack * 100.0));
        let evictions: u64 = o.trace.evictions_by_collection().values().sum();
        let util: f64 = o.average_cpu_util_by_tier().values().sum();
        println!(
            "{:<32} {:>9.2}s {:>9.0}s {:>12.1} {:>12} {:>12.3}",
            v.name,
            delays.percentile(50.0).unwrap_or(f64::NAN),
            delays.percentile(90.0).unwrap_or(f64::NAN),
            slack.median().unwrap_or(f64::NAN),
            evictions,
            util
        );
    }
    println!("\nexpected: removing equivalence-class caching slows wide-job scheduling;");
    println!("removing the batch queue floods the scheduler with beb tasks; removing");
    println!("autopilot leaves all the peak slack unreclaimed (Figure 14 collapses).");
}
