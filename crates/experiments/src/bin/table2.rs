//! Table 2: distribution of per-job usage integrals (statistical mode).

use borg_core::analyses::consumption;
use borg_experiments::{banner, parse_opts};

fn main() {
    let opts = parse_opts();
    banner(
        "Table 2",
        "per-job NCU-hour / NMU-hour distribution statistics",
        &opts,
    );
    let cols = consumption::table2(2_000_000, opts.seed).expect("table 2 computes");
    println!("{}", consumption::render_table2(&cols));
    // Load-concentration summary (extension): Gini coefficients.
    use borg_workload::integral::IntegralModel;
    let (cpu19, _) = consumption::era_samples(&IntegralModel::model_2019(), 500_000, opts.seed);
    let (cpu11, _) = consumption::era_samples(&IntegralModel::model_2011(), 500_000, opts.seed ^ 3);
    let gini = |xs: Vec<f64>| borg_analysis::gini(&borg_analysis::Ccdf::from_samples(xs));
    println!(
        "Gini coefficient of per-job CPU consumption: 2011 {:.4}, 2019 {:.4}",
        gini(cpu11).unwrap_or(f64::NAN),
        gini(cpu19).unwrap_or(f64::NAN),
    );
    println!("paper: C^2 = 8375/11001 (2011), 23312/43476 (2019); alpha = 0.77/0.72, 0.69/0.72; top-1% load > 97%");
}
