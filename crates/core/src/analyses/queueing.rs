//! §7.3: implications of heavy tails for queueing delay.
//!
//! The Pollaczek–Khinchine table: expected M/G/1 queueing delay (in mean
//! service times) at several loads, for the measured C² values of both
//! eras and for the "mice-only" workload with the hogs isolated.

use borg_analysis::queueing::{isolation_benefit, mg1_mean_queueing_delay};
use borg_analysis::select::{from_order_key, into_finite_keys};
use borg_analysis::Moments;

/// One row of the §7.3 analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingRow {
    /// Offered load ρ.
    pub rho: f64,
    /// Delay with the full (hogs + mice) workload.
    pub delay_full: f64,
    /// Delay with the bottom-99% workload only.
    pub delay_mice: f64,
    /// The isolation benefit factor.
    pub benefit: f64,
}

/// Computes the §7.3 rows from per-job usage integrals: the full-workload
/// C² versus the C² of the bottom 99% ("mice") at the given loads.
///
/// The mice are the `⌊0.99·n⌋` smallest of the `n` finite samples (at
/// least one), found by one selection; their moments run over them in
/// the order selection leaves them.
///
/// Non-finite samples take no part. Returns `None` when no sample is left
/// or a load is outside `[0, 1)`.
pub fn queueing_rows(samples: &[f64], loads: &[f64]) -> Option<Vec<QueueingRow>> {
    let full: Moments = samples.iter().copied().collect();
    let mut keys = into_finite_keys(samples.to_vec());
    let cut = ((keys.len() as f64 * 0.99) as usize).max(1);
    if cut < keys.len() {
        keys.select_nth_unstable(cut);
    }
    let mice: Moments = keys
        .get(..cut)?
        .iter()
        .map(|&k| from_order_key(k))
        .collect();
    let c2_full = full.c_squared();
    let c2_mice = mice.c_squared();
    loads
        .iter()
        .map(|&rho| {
            Some(QueueingRow {
                rho,
                delay_full: mg1_mean_queueing_delay(rho, c2_full)?,
                delay_mice: mg1_mean_queueing_delay(rho, c2_mice)?,
                benefit: isolation_benefit(rho, c2_full, c2_mice)?,
            })
        })
        .collect()
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use borg_workload::integral::IntegralModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn isolating_mice_removes_queueing() {
        let mut rng = StdRng::seed_from_u64(77);
        let xs: Vec<f64> = IntegralModel::model_2019()
            .sample_many(200_000, &mut rng)
            .iter()
            .map(|j| j.ncu_hours)
            .collect();
        let rows = queueing_rows(&xs, &[0.3, 0.5, 0.7]).unwrap();
        for row in &rows {
            assert!(
                row.benefit > 100.0,
                "isolating the mice should collapse their delay (benefit {})",
                row.benefit
            );
            assert!(row.delay_mice < row.delay_full);
        }
        // Delay grows with load.
        assert!(rows[2].delay_full > rows[0].delay_full);
    }

    #[test]
    fn invalid_load_rejected() {
        assert!(queueing_rows(&[1.0, 2.0, 3.0], &[1.5]).is_none());
    }

    #[test]
    fn nothing_to_measure_is_none() {
        assert_eq!(queueing_rows(&[], &[0.5]), None);
        assert_eq!(queueing_rows(&[f64::NAN; 4], &[0.5]), None);
        assert_eq!(
            queueing_rows(&[f64::INFINITY, f64::NEG_INFINITY], &[0.5]),
            None
        );
    }

    #[test]
    fn single_sample_has_no_variability() {
        // C² = 0 for both populations: deterministic service, the M/D/1 delay.
        let rows = queueing_rows(&[4.0], &[0.5]).unwrap();
        assert_eq!(rows[0].delay_full, 0.5);
        assert_eq!(rows[0].delay_mice, 0.5);
    }

    #[test]
    fn non_finite_samples_take_no_part() {
        let clean: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.25).collect();
        let mut noisy = clean.clone();
        noisy.insert(17, f64::NAN);
        noisy.insert(90, f64::INFINITY);
        noisy.push(f64::NEG_INFINITY);
        assert_eq!(
            queueing_rows(&noisy, &[0.3, 0.7]),
            queueing_rows(&clean, &[0.3, 0.7])
        );
    }
}
