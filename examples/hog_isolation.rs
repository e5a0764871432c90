//! Hog isolation: quantify §7.3's scheduling suggestion.
//!
//! The paper's research-direction #5 asks how to schedule so the 99% of
//! "mice" jobs are isolated from the 1% of "hogs" that consume 99% of
//! resources. This example measures the workload's heavy tail and runs
//! the M/G/1 what-if analysis: how much queueing the mice would avoid if
//! the hogs were segregated.
//!
//! ```sh
//! cargo run --release --example hog_isolation
//! ```

use borg2019::analysis::ccdf::Ccdf;
use borg2019::analysis::moments::Moments;
use borg2019::analysis::pareto::ParetoFit;
use borg2019::analysis::queueing::{isolation_benefit, mg1_mean_queueing_delay};
use borg2019::workload::integral::IntegralModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Sample a large population of per-job usage integrals from the 2019
    // calibration.
    let mut rng = StdRng::seed_from_u64(7);
    let jobs = IntegralModel::model_2019().sample_many(1_000_000, &mut rng);
    let cpu: Vec<f64> = jobs.iter().map(|j| j.ncu_hours).collect();

    // 1. How heavy is the tail? One sort serves every order statistic.
    let sorted = Ccdf::from_samples(cpu.iter().copied());
    let top_1 = sorted.top_share(1.0).expect("non-degenerate sample");
    let top_01 = sorted.top_share(0.1).expect("non-degenerate sample");
    let fit = ParetoFit::fit_ccdf_regression(&sorted, 1.0, 99.99).expect("tail fits");
    println!("workload characterization (1M jobs):");
    println!(
        "  top 1% of jobs carry {:.1}% of the CPU load",
        top_1 * 100.0
    );
    println!("  top 0.1% carry {:.1}%", top_01 * 100.0);
    println!(
        "  Pareto alpha = {:.2} (R² = {:.3})",
        fit.alpha, fit.r_squared
    );

    // 2. Split hogs from mice at the 99th percentile.
    let cut = sorted.samples()[(sorted.len() as f64 * 0.99) as usize];
    let mice: Moments = cpu.iter().copied().filter(|&x| x < cut).collect();
    let all: Moments = cpu.iter().copied().collect();
    println!("\nsquared coefficient of variation:");
    println!("  full mix: C² = {:.0}", all.c_squared());
    println!("  mice only: C² = {:.1}", mice.c_squared());

    // 3. The M/G/1 what-if at a range of loads.
    println!("\nPollaczek–Khinchine mean queueing delay (mean service times):");
    println!(
        "{:>6} {:>14} {:>14} {:>10}",
        "load", "mixed queue", "mice isolated", "benefit"
    );
    for rho in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let mixed = mg1_mean_queueing_delay(rho, all.c_squared()).expect("valid load");
        let isolated = mg1_mean_queueing_delay(rho, mice.c_squared()).expect("valid load");
        let benefit = isolation_benefit(rho, all.c_squared(), mice.c_squared()).expect("valid");
        println!("{rho:>6.1} {mixed:>14.0} {isolated:>14.2} {benefit:>9.0}x");
    }
    println!("\nisolating the hogs lets the mice run in a near-empty queue (§7.3).");
}
