//! Queueing-theory formulas used in §7.3 of the paper.
//!
//! The paper motivates hog/mouse isolation via the Pollaczek–Khinchine
//! formula for the M/G/1 queue: mean queueing delay is directly
//! proportional to `(C² + 1) / 2`, so a workload with C² ≈ 23 000 sees
//! queueing delays four orders of magnitude above an exponential workload
//! at the same load.

/// Mean queueing delay (in multiples of the mean service time) of an M/G/1
/// queue at load `rho` with squared coefficient of variation `c_squared`,
/// per Pollaczek–Khinchine:
///
/// `E[delay] = rho / (1 - rho) * (C² + 1) / 2`
///
/// Returns `None` when `rho` is outside `[0, 1)` or `c_squared` is
/// negative.
///
/// # Examples
///
/// ```
/// use borg_analysis::queueing::mg1_mean_queueing_delay;
///
/// // Exponential service (C² = 1) at 50% load waits exactly one mean
/// // service time on average.
/// assert_eq!(mg1_mean_queueing_delay(0.5, 1.0), Some(1.0));
/// ```
pub fn mg1_mean_queueing_delay(rho: f64, c_squared: f64) -> Option<f64> {
    if !(0.0..1.0).contains(&rho) || c_squared < 0.0 || !c_squared.is_finite() {
        return None;
    }
    Some(rho / (1.0 - rho) * (c_squared + 1.0) / 2.0)
}

/// Mean queueing delay of an M/M/1 queue (`C² = 1`) at load `rho`, in
/// multiples of mean service time.
pub fn mm1_mean_queueing_delay(rho: f64) -> Option<f64> {
    mg1_mean_queueing_delay(rho, 1.0)
}

/// Slowdown factor from serving a mixed hog/mouse workload in one queue
/// versus isolating the mice, under M/G/1 with the given per-class C².
///
/// Returns the ratio of mixed-queue delay to mice-only delay at identical
/// per-queue load `rho`. This quantifies §7.3's claim that isolating the
/// bottom 99% of jobs would let them see "little to no queueing".
pub fn isolation_benefit(rho: f64, c_squared_mixed: f64, c_squared_mice: f64) -> Option<f64> {
    let mixed = mg1_mean_queueing_delay(rho, c_squared_mixed)?;
    let mice = mg1_mean_queueing_delay(rho, c_squared_mice)?;
    if mice == 0.0 {
        return None;
    }
    Some(mixed / mice)
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn pk_formula_exponential() {
        assert_eq!(mg1_mean_queueing_delay(0.5, 1.0), Some(1.0));
        assert!((mg1_mean_queueing_delay(0.8, 1.0).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pk_deterministic_halves_delay() {
        // Deterministic service (C² = 0) has half the delay of exponential.
        let det = mg1_mean_queueing_delay(0.5, 0.0).unwrap();
        let exp = mg1_mean_queueing_delay(0.5, 1.0).unwrap();
        assert_eq!(det * 2.0, exp);
    }

    #[test]
    fn pk_heavy_tail_dominates() {
        // At the paper's C² = 23312, even 10% load waits thousands of mean
        // service times.
        let d = mg1_mean_queueing_delay(0.1, 23_312.0).unwrap();
        assert!(d > 1000.0, "delay = {d}");
    }

    #[test]
    fn pk_rejects_bad_inputs() {
        assert_eq!(mg1_mean_queueing_delay(1.0, 1.0), None);
        assert_eq!(mg1_mean_queueing_delay(-0.1, 1.0), None);
        assert_eq!(mg1_mean_queueing_delay(0.5, -1.0), None);
        assert_eq!(mg1_mean_queueing_delay(0.5, f64::NAN), None);
    }

    #[test]
    fn isolation_benefit_large() {
        // Mixed C² = 23k vs mice-only C² = 2: mice see ~4 orders of
        // magnitude less queueing when isolated.
        let b = isolation_benefit(0.5, 23_312.0, 2.0).unwrap();
        assert!(b > 5000.0, "benefit = {b}");
    }

    #[test]
    fn mm1_matches_mg1_with_c2_one() {
        for rho in [0.1, 0.5, 0.9] {
            assert_eq!(
                mm1_mean_queueing_delay(rho),
                mg1_mean_queueing_delay(rho, 1.0)
            );
        }
    }
}
