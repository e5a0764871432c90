//! Figure 13: correlation between compute and memory consumption.
//!
//! Jobs are bucketed into 1-NCU-hour bins and the median NMU-hours per
//! bin is plotted; the paper reports a Pearson correlation of 0.97 on the
//! bucketed medians.

use borg_analysis::correlation::{bucketed_median_correlation, bucketed_medians, Bucket};
use borg_workload::integral::IntegralModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Figure 13 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure13 {
    /// Median NMU-hours per 1-NCU-hour bucket.
    pub buckets: Vec<Bucket>,
    /// Pearson correlation of bucket centers vs bucket medians.
    pub pearson: f64,
}

/// Computes Figure 13 from the 2019 integral model.
pub fn figure13(samples: usize, seed: u64) -> Option<Figure13> {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = IntegralModel::model_2019();
    let pairs: Vec<(f64, f64)> = (0..samples)
        .map(|_| {
            let job = model.sample(&mut rng);
            (job.ncu_hours, job.nmu_hours)
        })
        .collect();
    let buckets = bucketed_medians(&pairs, 1.0);
    let pearson = bucketed_median_correlation(&buckets)?;
    Some(Figure13 { buckets, pearson })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_near_paper_value() {
        let f = figure13(300_000, 5).unwrap();
        assert!(f.pearson > 0.9, "pearson = {} (paper: 0.97)", f.pearson);
        assert!(f.buckets.len() > 10);
    }

    #[test]
    fn medians_grow_with_buckets() {
        let f = figure13(300_000, 6).unwrap();
        // The low buckets and high buckets differ by orders of magnitude.
        let first = f.buckets.first().unwrap().median_y;
        let last_populated = f
            .buckets
            .iter()
            .rev()
            .find(|b| b.count >= 1)
            .unwrap()
            .median_y;
        assert!(last_populated > first * 10.0);
    }
}
