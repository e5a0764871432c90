//! §5.2: termination statistics.
//!
//! The paper's key clarification: the "high failure rates" earlier studies
//! reported on the 2011 trace are mostly user-initiated kills, often via
//! parent-job cascades. It reports: only 3.2% of collections experience
//! any instance eviction; 96.6% of those are non-production; <0.2% of
//! production collections see an eviction; 52% of evicted collections see
//! exactly one; and 87% of jobs with parents end in a kill vs 41% without.
//! Evictions are the trace's instance `Evict` rows
//! (`Trace::evictions_by_collection`).

use borg_sim::CellOutcome;
use borg_trace::collection::CollectionType;
use borg_trace::priority::Tier;
use borg_trace::state::EventType;

/// The §5.2 statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminationStats {
    /// Fraction of collections with ≥1 instance eviction (paper: 0.032).
    pub collections_with_evictions: f64,
    /// Of those, the fraction below production tier (paper: 0.966).
    pub evicted_nonprod_fraction: f64,
    /// Fraction of production collections with any eviction (paper <0.002).
    pub prod_collections_evicted: f64,
    /// Of evicted collections, the share with exactly one eviction
    /// (paper: 0.52).
    pub single_eviction_fraction: f64,
    /// Kill rate of jobs with a parent (paper: 0.87).
    pub kill_rate_with_parent: f64,
    /// Kill rate of jobs without a parent (paper: 0.41).
    pub kill_rate_without_parent: f64,
    /// Share of terminal collection events that are kills.
    pub kill_share_of_terminations: f64,
}

/// Computes the §5.2 statistics across cells.
pub fn termination_stats(outcomes: &[&CellOutcome]) -> TerminationStats {
    let mut collections = 0u64;
    let mut evicted = 0u64;
    let mut evicted_nonprod = 0u64;
    let mut evicted_once = 0u64;
    let mut prod_collections = 0u64;
    let mut prod_evicted = 0u64;
    let mut with_parent = (0u64, 0u64); // (killed, total)
    let mut without_parent = (0u64, 0u64);
    let mut kills = 0u64;
    let mut terminals = 0u64;

    for outcome in outcomes {
        let infos = outcome.trace.collections();
        let evictions = outcome.trace.evictions_by_collection();
        collections += infos.len() as u64;
        for info in infos.values() {
            let is_prod = info.priority.reporting_tier() == Tier::Production;
            if is_prod {
                prod_collections += 1;
            }
            let ev_count = evictions.get(&info.id).copied().unwrap_or(0);
            if ev_count > 0 {
                evicted += 1;
                if !is_prod {
                    evicted_nonprod += 1;
                }
                if is_prod {
                    prod_evicted += 1;
                }
                if ev_count == 1 {
                    evicted_once += 1;
                }
            }
            if info.collection_type == CollectionType::Job {
                let killed = info.final_event == Some(EventType::Kill);
                if info.parent_id.is_some() {
                    with_parent.1 += 1;
                    with_parent.0 += killed as u64;
                } else {
                    without_parent.1 += 1;
                    without_parent.0 += killed as u64;
                }
            }
            if let Some(f) = info.final_event {
                terminals += 1;
                kills += (f == EventType::Kill) as u64;
            }
        }
    }

    let frac = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    TerminationStats {
        collections_with_evictions: frac(evicted, collections),
        evicted_nonprod_fraction: frac(evicted_nonprod, evicted),
        prod_collections_evicted: frac(prod_evicted, prod_collections),
        single_eviction_fraction: frac(evicted_once, evicted),
        kill_rate_with_parent: frac(with_parent.0, with_parent.1),
        kill_rate_without_parent: frac(without_parent.0, without_parent.1),
        kill_share_of_terminations: frac(kills, terminals),
    }
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

    fn stats() -> TerminationStats {
        static O: OnceLock<borg_sim::CellOutcome> = OnceLock::new();
        let o = O.get_or_init(|| simulate_cell(&CellProfile::cell_2019('c'), SimScale::Tiny, 9));
        termination_stats(&[o])
    }

    #[test]
    fn evictions_are_rare_and_nonprod() {
        let s = stats();
        assert!(
            s.collections_with_evictions < 0.25,
            "evicted fraction = {}",
            s.collections_with_evictions
        );
        assert!(
            s.prod_collections_evicted <= s.collections_with_evictions,
            "production is protected"
        );
        if s.collections_with_evictions > 0.0 {
            assert!(s.evicted_nonprod_fraction > 0.5);
        }
    }

    #[test]
    fn parent_jobs_killed_more() {
        let s = stats();
        assert!(
            s.kill_rate_with_parent > s.kill_rate_without_parent,
            "with {} vs without {}",
            s.kill_rate_with_parent,
            s.kill_rate_without_parent
        );
        assert!(s.kill_rate_with_parent > 0.7);
        assert!((0.25..0.60).contains(&s.kill_rate_without_parent));
    }

    #[test]
    fn kills_dominate_terminations() {
        // §5.2: users initiate most kill events; kills are the most common
        // terminal by far once services and batch cancellations are
        // counted.
        let s = stats();
        assert!(s.kill_share_of_terminations > 0.3);
    }

    #[test]
    fn empty_is_zero() {
        let s = termination_stats(&[]);
        assert_eq!(s.collections_with_evictions, 0.0);
    }
}
