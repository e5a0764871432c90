//! Figure 13: correlation between compute and memory consumption.
//!
//! Jobs are bucketed into 1-NCU-hour bins and the median NMU-hours per
//! bin is plotted; the paper reports a Pearson correlation of 0.97 on the
//! bucketed medians.

use crate::analyses::consumption::era_samples;
use borg_analysis::correlation::{bucketed_median_correlation, bucketed_medians, Bucket};
use borg_workload::integral::IntegralModel;

/// The Figure 13 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure13 {
    /// Median NMU-hours per 1-NCU-hour bucket.
    pub buckets: Vec<Bucket>,
    /// Pearson correlation of bucket centers vs bucket medians.
    pub pearson: f64,
}

/// Computes Figure 13 from the 2019 integral model: the same draw
/// [`era_samples`] makes for `(samples, seed)`.
pub fn figure13(samples: usize, seed: u64) -> Option<Figure13> {
    let (cpu, mem) = era_samples(&IntegralModel::model_2019(), samples, seed);
    let pairs: Vec<(f64, f64)> = cpu.into_iter().zip(mem).collect();
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
