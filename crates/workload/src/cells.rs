//! Cell profiles: every knob that differs between the 2011 cell and the
//! eight 2019 cells.
//!
//! §4 of the paper stresses the *inter-cell variation*: cell b has the
//! largest best-effort-batch share, cell a the largest production share,
//! cell h the largest mid-tier share, cell c over-allocates ~140% of its
//! memory to best-effort batch alone, and cell g lives in Singapore so
//! its diurnal cycle is phase-shifted. These profiles encode that
//! variation together with the §5 demographics (alloc sets, parents,
//! terminations) and the §8 Autopilot mode mix.

use crate::machines::{catalog_2011, catalog_2019, MachineCatalog};
use borg_trace::collection::VerticalScalingMode;
use borg_trace::priority::Tier;

/// Which trace era the profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Era {
    /// The May 2011 trace (one cell).
    Y2011,
    /// The May 2019 trace (cells a–h).
    Y2019,
}

/// Per-tier workload characteristics of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierProfile {
    /// Tier.
    pub tier: Tier,
    /// Fraction of job arrivals belonging to the tier.
    pub job_share: f64,
    /// Target average CPU usage as a fraction of cell capacity (Fig 3).
    pub target_cpu_util: f64,
    /// Target average memory usage as a fraction of cell capacity.
    pub target_mem_util: f64,
    /// Average CPU usage ÷ CPU limit — controls over-commitment (Fig 5);
    /// e.g. production CPU runs at ~30% of its allocation (§4).
    pub cpu_fill: f64,
    /// Average memory usage ÷ memory limit (~65% for production).
    pub mem_fill: f64,
    /// Mean job duration in hours (production jobs are long-running
    /// services; free jobs are short).
    pub mean_duration_hours: f64,
}

/// Everything needed to synthesize one cell's workload.
#[derive(Debug, Clone)]
pub struct CellProfile {
    /// Cell name: "2011" or "a" … "h".
    pub name: String,
    /// Era.
    pub era: Era,
    /// Full-scale machine count (Table 1: ~12k machines per cell).
    pub machine_count: usize,
    /// Machine-shape catalogue.
    pub catalog: MachineCatalog,
    /// Full-scale mean job arrivals per hour (Fig 8: 964 in 2011,
    /// 3360 per 2019 cell).
    pub job_rate_per_hour: f64,
    /// Diurnal swing of arrivals and usage.
    pub diurnal_amplitude: f64,
    /// Diurnal phase in hours (cell g ≈ +15 for Singapore).
    pub timezone_phase_hours: f64,
    /// Per-tier characteristics.
    pub tiers: Vec<TierProfile>,
    /// Fraction of collections that are alloc sets (§5.1: 2%).
    pub alloc_set_fraction: f64,
    /// Fraction of jobs that run inside an alloc set (§5.1: 15%).
    pub jobs_in_alloc_fraction: f64,
    /// Fraction of in-alloc jobs that are production tier (§5.1: 95%).
    pub alloc_jobs_prod_fraction: f64,
    /// Fraction of jobs with a parent dependency.
    pub parent_fraction: f64,
    /// Probability a job with a parent ends in a kill (§5.2: 87%).
    pub kill_prob_with_parent: f64,
    /// Probability a parent-less job ends in a kill (§5.2: 41%).
    pub kill_prob_without_parent: f64,
    /// Probability a job ends in a failure of its own.
    pub fail_prob: f64,
    /// Autopilot mode mix (weights) — all `Off` in 2011 (§8).
    pub autopilot_mix: [(VerticalScalingMode, f64); 3],
    /// Whether best-effort batch jobs go through the batch queue (§3).
    pub batch_queue_for_beb: bool,
    /// Fraction of non-production jobs whose tasks fail and retry
    /// repeatedly — the §6.2 rescheduling churn (2019's reschedule:new
    /// ratio is 2.26 vs 0.66 in 2011).
    pub flaky_job_fraction: f64,
    /// Mean interruptions per task-hour for flaky jobs.
    pub flaky_interrupts_per_hour: f64,
    /// Whole-machine failure model for the fault injector.
    pub failure_model: FailureModel,
}

/// Machine-failure parameters of a cell — how often machines drop out
/// of the cell (beyond the planned §5.2 maintenance sweeps), how long
/// repairs take, and how correlated the failures are. Consumed by the
/// simulator's fault injector (`borg_sim::faults`).
#[derive(Debug, Clone, Copy)]
pub struct FailureModel {
    /// Mean unplanned machine failures per machine per 30-day month.
    /// §5.2 pegs *planned* removals (OS upgrades) at roughly monthly;
    /// unplanned hardware/kernel failures are rarer.
    pub failures_per_machine_month: f64,
    /// Mean time to repair and re-add a failed machine, in hours.
    pub mean_repair_hours: f64,
    /// Machines per failure domain (rack / power bus); a correlated
    /// failure takes out the whole domain at once.
    pub domain_size: usize,
    /// Probability a failure is correlated (domain-wide) rather than a
    /// single machine.
    pub correlated_fraction: f64,
    /// Fraction of tasks on a failed machine whose termination is never
    /// observed — they go `Lost` instead of `Evict` (the §9 monitoring
    /// artifact).
    pub lost_fraction: f64,
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel {
            failures_per_machine_month: 0.3,
            mean_repair_hours: 4.0,
            domain_size: 8,
            correlated_fraction: 0.1,
            lost_fraction: 0.05,
        }
    }
}

impl CellProfile {
    /// The single 2011 cell: more free-tier work, lower arrival rate,
    /// CPU over-committed but memory not, no 2019 features.
    pub fn cell_2011() -> CellProfile {
        CellProfile {
            name: "2011".to_string(),
            era: Era::Y2011,
            machine_count: 12_600,
            catalog: catalog_2011(),
            job_rate_per_hour: 964.0,
            diurnal_amplitude: 0.25,
            timezone_phase_hours: 0.0,
            tiers: vec![
                TierProfile {
                    tier: Tier::Free,
                    job_share: 0.45,
                    target_cpu_util: 0.12,
                    target_mem_util: 0.10,
                    cpu_fill: 0.40,
                    mem_fill: 0.80,
                    mean_duration_hours: 3.0,
                },
                TierProfile {
                    tier: Tier::BestEffortBatch,
                    job_share: 0.45,
                    target_cpu_util: 0.10,
                    target_mem_util: 0.08,
                    cpu_fill: 0.50,
                    mem_fill: 0.70,
                    mean_duration_hours: 3.0,
                },
                TierProfile {
                    tier: Tier::Production,
                    job_share: 0.10,
                    target_cpu_util: 0.25,
                    target_mem_util: 0.28,
                    cpu_fill: 0.30,
                    mem_fill: 0.60,
                    mean_duration_hours: 250.0,
                },
            ],
            alloc_set_fraction: 0.0,
            jobs_in_alloc_fraction: 0.0,
            alloc_jobs_prod_fraction: 0.0,
            parent_fraction: 0.20,
            kill_prob_with_parent: 0.80,
            kill_prob_without_parent: 0.45,
            fail_prob: 0.08,
            autopilot_mix: [
                (VerticalScalingMode::Off, 1.0),
                (VerticalScalingMode::Constrained, 0.0),
                (VerticalScalingMode::Full, 0.0),
            ],
            batch_queue_for_beb: false,
            flaky_job_fraction: 0.45,
            flaky_interrupts_per_hour: 1.05,
            // Older fleet hardware, longer manual repair turnaround.
            failure_model: FailureModel {
                failures_per_machine_month: 0.4,
                mean_repair_hours: 6.0,
                domain_size: 4,
                correlated_fraction: 0.08,
                lost_fraction: 0.08,
            },
        }
    }

    /// One of the eight 2019 cells, `'a'..='h'`, with the per-cell
    /// workload-mix variation of Figures 3 and 5.
    ///
    /// # Panics
    ///
    /// Panics for a cell letter outside `a..=h`.
    pub fn cell_2019(cell: char) -> CellProfile {
        assert!(('a'..='h').contains(&cell), "2019 cells are a..=h");
        // (free, beb, mid, prod) CPU utilization targets per cell; memory
        // follows with per-cell skews below.
        let (free_u, beb_u, mid_u, prod_u) = match cell {
            'a' => (0.04, 0.10, 0.03, 0.40), // largest prod share
            'b' => (0.05, 0.30, 0.03, 0.22), // largest beb share
            'c' => (0.04, 0.22, 0.04, 0.28),
            'd' => (0.05, 0.18, 0.05, 0.30),
            'e' => (0.03, 0.20, 0.06, 0.28),
            'f' => (0.06, 0.16, 0.04, 0.32),
            'g' => (0.04, 0.21, 0.05, 0.29),
            'h' => (0.04, 0.15, 0.15, 0.28), // largest mid share
            _ => unreachable!("validated range"),
        };
        // Memory:CPU usage skew per cell (cells a and h show large
        // CPU-vs-memory divergence in Fig 3).
        let mem_skew: f64 = match cell {
            'a' => 1.15,
            'h' => 0.75,
            'c' => 1.10,
            _ => 1.00,
        };
        // Cell c massively over-allocates beb memory (§4: ~140% of
        // capacity for the beb tier alone).
        let beb_mem_fill = if cell == 'c' { 0.17 } else { 0.50 };
        let phase = if cell == 'g' { 15.0 } else { 0.0 };

        CellProfile {
            name: cell.to_string(),
            era: Era::Y2019,
            machine_count: 12_000,
            catalog: catalog_2019(),
            job_rate_per_hour: 3_360.0,
            diurnal_amplitude: 0.30,
            timezone_phase_hours: phase,
            tiers: vec![
                TierProfile {
                    tier: Tier::Free,
                    job_share: 0.25,
                    target_cpu_util: free_u,
                    target_mem_util: free_u * 0.8 * mem_skew,
                    cpu_fill: 0.50,
                    mem_fill: 0.50,
                    mean_duration_hours: 2.0,
                },
                TierProfile {
                    tier: Tier::BestEffortBatch,
                    job_share: 0.50,
                    target_cpu_util: beb_u,
                    target_mem_util: beb_u * mem_skew,
                    cpu_fill: 0.60,
                    mem_fill: beb_mem_fill,
                    mean_duration_hours: 4.0,
                },
                TierProfile {
                    tier: Tier::Mid,
                    job_share: 0.08,
                    target_cpu_util: mid_u,
                    target_mem_util: mid_u * 1.2 * mem_skew,
                    cpu_fill: 0.85,
                    mem_fill: 0.85,
                    mean_duration_hours: 20.0,
                },
                TierProfile {
                    tier: Tier::Production,
                    job_share: 0.17,
                    target_cpu_util: prod_u,
                    target_mem_util: prod_u * 1.1 * mem_skew,
                    cpu_fill: 0.30,
                    mem_fill: 0.65,
                    mean_duration_hours: 250.0,
                },
            ],
            alloc_set_fraction: 0.02,
            jobs_in_alloc_fraction: 0.15,
            alloc_jobs_prod_fraction: 0.95,
            parent_fraction: 0.30,
            kill_prob_with_parent: 0.87,
            kill_prob_without_parent: 0.41,
            fail_prob: 0.06,
            autopilot_mix: [
                (VerticalScalingMode::Off, 0.55),
                (VerticalScalingMode::Constrained, 0.20),
                (VerticalScalingMode::Full, 0.25),
            ],
            batch_queue_for_beb: true,
            flaky_job_fraction: 0.42,
            flaky_interrupts_per_hour: 1.50,
            failure_model: FailureModel::default(),
        }
    }

    /// All eight 2019 cells.
    pub fn all_2019() -> Vec<CellProfile> {
        ('a'..='h').map(CellProfile::cell_2019).collect()
    }

    /// The profile's tier entry for `tier`, if present.
    pub fn tier(&self, tier: Tier) -> Option<&TierProfile> {
        self.tiers.iter().find(|t| t.tier == tier)
    }

    /// Total target CPU *allocation* (usage ÷ fill) across tiers — the
    /// over-commitment level of Figures 4/5.
    pub fn total_target_cpu_alloc(&self) -> f64 {
        self.tiers
            .iter()
            .map(|t| t.target_cpu_util / t.cpu_fill)
            .sum()
    }

    /// Total target memory allocation across tiers.
    pub fn total_target_mem_alloc(&self) -> f64 {
        self.tiers
            .iter()
            .map(|t| t.target_mem_util / t.mem_fill)
            .sum()
    }
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn job_shares_sum_to_one() {
        for p in CellProfile::all_2019()
            .iter()
            .chain([&CellProfile::cell_2011()])
        {
            let total: f64 = p.tiers.iter().map(|t| t.job_share).sum();
            assert!((total - 1.0).abs() < 1e-9, "cell {}: {total}", p.name);
        }
    }

    #[test]
    fn mid_tier_absent_in_2011() {
        let p = CellProfile::cell_2011();
        assert!(p.tier(Tier::Mid).is_none());
        assert!(p.tier(Tier::Production).is_some());
    }

    #[test]
    fn cell_extremes_match_paper() {
        let prod = |c: char| {
            CellProfile::cell_2019(c)
                .tier(Tier::Production)
                .unwrap()
                .target_cpu_util
        };
        let beb = |c: char| {
            CellProfile::cell_2019(c)
                .tier(Tier::BestEffortBatch)
                .unwrap()
                .target_cpu_util
        };
        let mid = |c: char| {
            CellProfile::cell_2019(c)
                .tier(Tier::Mid)
                .unwrap()
                .target_cpu_util
        };
        for c in 'b'..='h' {
            assert!(prod('a') >= prod(c), "cell a has the largest prod share");
        }
        for c in ['a', 'c', 'd', 'e', 'f', 'g', 'h'] {
            assert!(beb('b') >= beb(c), "cell b has the largest beb share");
        }
        for c in 'a'..='g' {
            assert!(mid('h') >= mid(c), "cell h has the largest mid share");
        }
    }

    #[test]
    fn arrival_rates_match_figure8() {
        let r2011 = CellProfile::cell_2011().job_rate_per_hour;
        let r2019 = CellProfile::cell_2019('a').job_rate_per_hour;
        assert!((r2019 / r2011 - 3.49).abs() < 0.1, "rate growth ≈ 3.5×");
    }

    #[test]
    fn overcommitment_directions() {
        // 2019: both dimensions allocated above 100% of capacity.
        let p = CellProfile::cell_2019('d');
        assert!(p.total_target_cpu_alloc() > 1.0);
        assert!(p.total_target_mem_alloc() > 1.0);
        // 2011: CPU over-committed, memory not (§4).
        let q = CellProfile::cell_2011();
        assert!(q.total_target_cpu_alloc() > 1.0);
        assert!(q.total_target_mem_alloc() < 1.0);
    }

    #[test]
    fn cell_c_overallocates_beb_memory() {
        let p = CellProfile::cell_2019('c');
        let beb = p.tier(Tier::BestEffortBatch).unwrap();
        let beb_mem_alloc = beb.target_mem_util / beb.mem_fill;
        assert!(
            (1.2..1.6).contains(&beb_mem_alloc),
            "beb mem alloc = {beb_mem_alloc}"
        );
    }

    #[test]
    fn cell_g_is_in_singapore() {
        assert_eq!(CellProfile::cell_2019('g').timezone_phase_hours, 15.0);
        assert_eq!(CellProfile::cell_2019('a').timezone_phase_hours, 0.0);
    }

    #[test]
    #[should_panic(expected = "2019 cells")]
    fn invalid_cell_panics() {
        CellProfile::cell_2019('z');
    }

    #[test]
    fn autopilot_only_in_2019() {
        let p2011 = CellProfile::cell_2011();
        assert_eq!(p2011.autopilot_mix[0], (VerticalScalingMode::Off, 1.0));
        let p2019 = CellProfile::cell_2019('a');
        let scaled: f64 = p2019.autopilot_mix[1..].iter().map(|(_, w)| w).sum();
        assert!(scaled > 0.0);
    }
}
