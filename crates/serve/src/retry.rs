//! Seeded retry backoff: exponential with deterministic jitter.
//!
//! A retry storm is the classic way a service turns one fault into an
//! outage, and unjittered backoff is the classic way retries
//! synchronize into waves. The cure is exponential backoff with
//! jitter — but naive jitter (ambient entropy) would break the
//! replayability contract. Here the jitter for `(query id, attempt)`
//! is drawn from a seeded generator, so backoff schedules are both
//! de-synchronized across queries *and* byte-identical across runs
//! with the same seed.

use borg_query::fxhash::FxHasher;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hash::{Hash, Hasher};

/// Delay before the first retry, in µs.
const BASE_US: u64 = 1_000;
/// Cap on the (pre-jitter) delay, in µs.
const MAX_US: u64 = 64_000;
/// Jitter fraction `j`: the delay is multiplied by a value drawn
/// uniformly from `[1, 1 + j)`.
const JITTER: f64 = 0.5;

/// Backoff for failed-attempt retries: 1 ms base, 64 ms cap, 50% jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl RetryPolicy {
    /// The policy with jitter drawn from `seed`.
    pub fn default_with_seed(seed: u64) -> RetryPolicy {
        RetryPolicy { seed }
    }

    /// Backoff before retrying `query_id` after its `attempt`-th
    /// execution failed (`attempt` counts from 0): `base · 2^attempt`,
    /// capped, times the seeded jitter factor. Pure in
    /// `(seed, query_id, attempt)`.
    pub fn backoff_us(&self, query_id: u64, attempt: u32) -> u64 {
        let exp = BASE_US.saturating_mul(1u64 << attempt.min(20)).min(MAX_US);
        let mut h = FxHasher::default();
        (self.seed, query_id, attempt).hash(&mut h);
        let mut rng = StdRng::seed_from_u64(h.finish());
        let factor = 1.0 + JITTER * rng.random::<f64>();
        (exp as f64 * factor) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default_with_seed(1);
        for attempt in 0..12u32 {
            // 1, 2, 4, ... 64 ms, then capped.
            let exp = (1_000u64 << attempt.min(6)).min(64_000);
            for id in 0..50u64 {
                let b = p.backoff_us(id, attempt);
                assert!(
                    (exp..exp * 3 / 2).contains(&b),
                    "attempt {attempt}: {b} outside [base·2^k, 1.5·base·2^k)"
                );
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default_with_seed(5);
        for id in 0..100u64 {
            let b = p.backoff_us(id, 0);
            assert_eq!(b, p.backoff_us(id, 0), "replayable");
            assert!((1_000..1_500).contains(&b), "within [base, base·1.5): {b}");
        }
        // Jitter actually varies across queries (de-synchronization).
        let distinct: std::collections::BTreeSet<u64> =
            (0..100u64).map(|id| p.backoff_us(id, 0)).collect();
        assert!(distinct.len() > 50);
        // The draws spread over the whole of [base, base·1.5).
        assert!(distinct.first() < Some(&1_100) && distinct.last() > Some(&1_400));
    }
}
