//! Figure 6: CCDFs of per-machine CPU and memory utilization at one
//! snapshot window (the paper uses day 15, 1:00–1:05pm local time).

use borg_analysis::ccdf::Ccdf;
use borg_sim::CellOutcome;

/// The CCDF of machine CPU utilization at the snapshot.
pub fn cpu_ccdf(outcome: &CellOutcome) -> Ccdf {
    Ccdf::from_samples(
        outcome
            .metrics
            .machine_snapshots
            .iter()
            .map(|s| s.cpu_utilization),
    )
}

/// The CCDF of machine memory utilization at the snapshot.
pub fn mem_ccdf(outcome: &CellOutcome) -> Ccdf {
    Ccdf::from_samples(
        outcome
            .metrics
            .machine_snapshots
            .iter()
            .map(|s| s.mem_utilization),
    )
}

/// Median machine utilization `(cpu, memory)` at the snapshot.
pub fn medians(outcome: &CellOutcome) -> (f64, f64) {
    (
        cpu_ccdf(outcome).median().unwrap_or(0.0),
        mem_ccdf(outcome).median().unwrap_or(0.0),
    )
}

/// Fraction of machines above a CPU-utilization threshold (the paper
/// remarks there are fewer machines above 80% in 2019 than in 2011).
pub fn fraction_above_cpu(outcome: &CellOutcome, threshold: f64) -> f64 {
    cpu_ccdf(outcome).eval(threshold)
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;
    use std::sync::OnceLock;

    fn outcome() -> &'static CellOutcome {
        static O: OnceLock<CellOutcome> = OnceLock::new();
        O.get_or_init(|| simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 6))
    }

    #[test]
    fn snapshot_ccdfs_nonempty_and_bounded() {
        let c = cpu_ccdf(outcome());
        assert!(!c.is_empty());
        assert_eq!(c.eval(1.0), 0.0);
        assert!(c.eval(0.0) > 0.0, "some machine is doing work");
    }

    #[test]
    fn medians_in_range() {
        let (cpu, mem) = medians(outcome());
        assert!((0.0..=1.0).contains(&cpu));
        assert!((0.0..=1.0).contains(&mem));
    }

    #[test]
    fn fraction_above_monotone() {
        let lo = fraction_above_cpu(outcome(), 0.2);
        let hi = fraction_above_cpu(outcome(), 0.8);
        assert!(lo >= hi);
    }
}
