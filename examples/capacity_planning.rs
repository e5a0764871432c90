//! Capacity planning: how far can over-commitment be pushed?
//!
//! Research direction #2 of the paper. This example sweeps the arrival
//! rate of one cell (holding the fleet fixed) and reports utilization,
//! scheduling delay, and eviction counts — the trade-off frontier a
//! capacity planner would look at before admitting more work onto fixed
//! hardware.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use borg2019::sim::{CellSim, SimConfig};
use borg2019::trace::time::Micros;
use borg2019::workload::cells::CellProfile;

fn main() {
    let base = CellProfile::cell_2019('d');
    println!("sweeping job arrival rate on cell d (fixed fleet, 3 simulated days each):\n");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "rate mult", "cpu util", "cpu alloc", "med delay", "p90 delay", "evictions"
    );

    for mult in [0.6, 0.8, 1.0, 1.2, 1.5] {
        let mut profile = base.clone();
        profile.job_rate_per_hour *= mult;
        // Scale the usage targets with the offered load so the generator
        // sizes jobs consistently.
        for tier in &mut profile.tiers {
            tier.target_cpu_util *= mult;
            tier.target_mem_util *= mult;
        }
        let mut cfg = SimConfig::tiny_for_tests(99);
        cfg.scale = 0.004;
        cfg.horizon = Micros::from_days(3);
        cfg.snapshot_at = Micros::from_days(1);
        let outcome = CellSim::run_cell(&profile, &cfg);

        let util: f64 = outcome.average_cpu_util_by_tier().values().sum();
        let alloc: f64 = outcome.average_cpu_alloc_by_tier().values().sum();
        let mut delays: Vec<f64> = outcome
            .trace
            .scheduling_delays()
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .collect();
        delays.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let med = delays.get(delays.len() / 2).copied().unwrap_or(f64::NAN);
        let p90 = delays
            .get((delays.len() as f64 * 0.9) as usize)
            .copied()
            .unwrap_or(f64::NAN);
        let evictions: u64 = outcome.trace.evictions_by_collection().values().sum();
        println!(
            "{:>9.1}x {:>10.3} {:>12.3} {:>11.1}s {:>11.0}s {:>10}",
            mult, util, alloc, med, p90, evictions
        );
    }

    println!("\nhigher offered load buys utilization until scheduling delay and");
    println!("evictions blow up — the statistical-multiplexing frontier of §4.");
}
