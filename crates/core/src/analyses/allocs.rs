//! §5.1: alloc-set statistics.
//!
//! The paper reports: 2% of collections are alloc sets; alloc sets carry
//! 20% of CPU allocations and 18% of RAM; 15% of jobs run inside an alloc
//! set, 95% of which are production; and in-alloc jobs use their memory
//! harder (73% average utilization vs 41%).

use borg_sim::CellOutcome;
use borg_trace::collection::CollectionType;
use borg_trace::priority::Tier;

/// The §5.1 statistics for one or more cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocStats {
    /// Fraction of collections that are alloc sets (paper: 0.02).
    pub alloc_set_collection_fraction: f64,
    /// Alloc sets' share of total CPU allocation (paper: 0.20).
    pub alloc_cpu_allocation_share: f64,
    /// Alloc sets' share of total memory allocation (paper: 0.18).
    pub alloc_mem_allocation_share: f64,
    /// Fraction of jobs marked to run in an alloc set (paper: 0.15).
    pub jobs_in_alloc_fraction: f64,
    /// Fraction of in-alloc jobs at production tier (paper: 0.95).
    pub in_alloc_prod_fraction: f64,
    /// Mean memory utilization (usage ÷ limit) of in-alloc tasks
    /// (paper: 0.73).
    pub mem_fill_in_alloc: f64,
    /// Mean memory utilization of other tasks (paper: 0.41).
    pub mem_fill_outside: f64,
}

/// Computes the §5.1 statistics across cells.
pub fn alloc_stats(outcomes: &[&CellOutcome]) -> AllocStats {
    let mut collections = 0usize;
    let mut alloc_sets = 0usize;
    let mut jobs = 0usize;
    let mut jobs_in_alloc = 0usize;
    let mut in_alloc_prod = 0usize;
    let mut alloc_cpu_hours = 0.0;
    let mut alloc_mem_hours = 0.0;
    let mut total_alloc_cpu_hours = 0.0;
    let mut total_alloc_mem_hours = 0.0;
    let mut fill_in = (0.0, 0u64);
    let mut fill_out = (0.0, 0u64);

    for outcome in outcomes {
        let infos = outcome.trace.collections();
        collections += infos.len();
        for info in infos.values() {
            match info.collection_type {
                CollectionType::AllocSet => alloc_sets += 1,
                CollectionType::Job => {
                    jobs += 1;
                    if info.alloc_collection_id.is_some() {
                        jobs_in_alloc += 1;
                        if info.priority.reporting_tier() == Tier::Production {
                            in_alloc_prod += 1;
                        }
                    }
                }
            }
        }
        let reserved = outcome.trace.alloc_set_hours();
        alloc_cpu_hours += reserved.cpu;
        alloc_mem_hours += reserved.mem;
        for series in outcome.metrics.tiers.values() {
            // Bucket totals are resource·µs; convert to resource·hours.
            let us_per_hour = borg_trace::time::MICROS_PER_HOUR as f64;
            total_alloc_cpu_hours += series.alloc_cpu.totals().iter().sum::<f64>() / us_per_hour;
            total_alloc_mem_hours += series.alloc_mem.totals().iter().sum::<f64>() / us_per_hour;
        }
        fill_in.0 += outcome.metrics.fill_in_alloc.mem_ratio_sum;
        fill_in.1 += outcome.metrics.fill_in_alloc.count;
        fill_out.0 += outcome.metrics.fill_outside_alloc.mem_ratio_sum;
        fill_out.1 += outcome.metrics.fill_outside_alloc.count;
    }

    AllocStats {
        alloc_set_collection_fraction: ratio(alloc_sets, collections),
        alloc_cpu_allocation_share: safe_div(alloc_cpu_hours, total_alloc_cpu_hours),
        alloc_mem_allocation_share: safe_div(alloc_mem_hours, total_alloc_mem_hours),
        jobs_in_alloc_fraction: ratio(jobs_in_alloc, jobs),
        in_alloc_prod_fraction: ratio(in_alloc_prod, jobs_in_alloc),
        mem_fill_in_alloc: safe_div(fill_in.0, fill_in.1 as f64),
        mem_fill_outside: safe_div(fill_out.0, fill_out.1 as f64),
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn safe_div(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
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

    fn stats() -> AllocStats {
        static O: OnceLock<borg_sim::CellOutcome> = OnceLock::new();
        let o = O.get_or_init(|| simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 8));
        alloc_stats(&[o])
    }

    #[test]
    fn alloc_sets_small_fraction_of_collections() {
        let s = stats();
        assert!(
            (0.005..0.06).contains(&s.alloc_set_collection_fraction),
            "fraction = {}",
            s.alloc_set_collection_fraction
        );
    }

    #[test]
    fn in_alloc_jobs_mostly_production() {
        let s = stats();
        assert!(s.jobs_in_alloc_fraction > 0.03);
        assert!(
            s.in_alloc_prod_fraction > 0.7,
            "prod fraction = {}",
            s.in_alloc_prod_fraction
        );
    }

    #[test]
    fn in_alloc_memory_used_harder() {
        let s = stats();
        assert!(
            s.mem_fill_in_alloc > s.mem_fill_outside,
            "in {} vs out {}",
            s.mem_fill_in_alloc,
            s.mem_fill_outside
        );
    }

    #[test]
    fn alloc_allocation_share_positive() {
        let s = stats();
        assert!(s.alloc_cpu_allocation_share > 0.0);
        assert!(s.alloc_cpu_allocation_share < 0.8);
    }

    #[test]
    fn empty_input_is_zeroes() {
        let s = alloc_stats(&[]);
        assert_eq!(s.alloc_set_collection_fraction, 0.0);
        assert_eq!(s.mem_fill_in_alloc, 0.0);
    }
}
