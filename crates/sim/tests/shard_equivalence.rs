//! The sharded placement layer's determinism contract: for **every**
//! shard count K, exact mode must emit a bit-identical trace and
//! identical scheduler-visible metrics to the K=1 single-index path
//! (which `golden.rs` pins to the digests the naive scan produced, K>1
//! rows included). Sharding changes *which index* computes each
//! machine's score — never which machine wins (DESIGN.md §14).
//!
//! `metrics.index` is deliberately excluded from the comparison: probe
//! counters are accounted per shard (a K=4 run records different
//! hit/miss splits than K=1), which is observability, not scheduling.

use borg_sim::{CellSim, FaultConfig, SimConfig};
use borg_trace::trace::Trace;
use borg_workload::cells::CellProfile;

/// The shard counts under test: the untouched baseline, even and odd
/// splits, a prime that never divides the fleet, and many small shards.
const SHARD_SWEEP: [usize; 5] = [1, 2, 3, 7, 16];

/// Full bitwise comparison of every trace table.
fn assert_traces_identical(baseline: &Trace, sharded: &Trace, label: &str) {
    assert_eq!(
        baseline.machine_events, sharded.machine_events,
        "{label}: machine events diverge"
    );
    assert_eq!(
        baseline.collection_events, sharded.collection_events,
        "{label}: collection events diverge"
    );
    assert_eq!(
        baseline.instance_events, sharded.instance_events,
        "{label}: instance events diverge"
    );
    assert_eq!(
        baseline.usage, sharded.usage,
        "{label}: usage records diverge"
    );
}

/// Runs `cfg` at K=1 and at every swept shard count, comparing complete
/// outcomes against the K=1 run.
fn check_shard_sweep(profile: &CellProfile, cfg: &SimConfig, label: &str) {
    let mut base_cfg = cfg.clone();
    base_cfg.placement_shards = Some(1);
    let baseline = CellSim::run_cell(profile, &base_cfg);
    for k in SHARD_SWEEP {
        if k == 1 {
            continue;
        }
        let mut sharded_cfg = cfg.clone();
        sharded_cfg.placement_shards = Some(k);
        let sharded = CellSim::run_cell(profile, &sharded_cfg);
        let label = format!("{label}, K={k}");
        assert_traces_identical(&baseline.trace, &sharded.trace, &label);
        // Every placement decision the scheduler can observe must agree.
        assert_eq!(
            baseline.metrics.preemptions, sharded.metrics.preemptions,
            "{label}: preemption counts diverge"
        );
        assert_eq!(
            baseline.metrics.stalls_by_tier, sharded.metrics.stalls_by_tier,
            "{label}: stall counts diverge"
        );
        assert_eq!(
            baseline.metrics.evictions_by_cause, sharded.metrics.evictions_by_cause,
            "{label}: eviction causes diverge"
        );
        // The sharded run must actually have consulted its index.
        let ix = sharded.metrics.index;
        assert!(
            ix.cache_hits + ix.negative_hits + ix.cache_misses > 0,
            "{label}: index never consulted"
        );
    }
}

#[test]
fn sharded_placement_is_bit_identical_across_seeds() {
    for seed in [7u64, 31] {
        let cfg = SimConfig::tiny_for_tests(seed);
        check_shard_sweep(
            &CellProfile::cell_2019('a'),
            &cfg,
            &format!("cell a, seed {seed}"),
        );
    }
}

#[test]
fn sharded_placement_is_bit_identical_across_profiles() {
    for profile in [CellProfile::cell_2019('d'), CellProfile::cell_2019('g')] {
        let cfg = SimConfig::tiny_for_tests(11);
        check_shard_sweep(&profile, &cfg, &format!("profile {}", profile.name));
    }
}

#[test]
fn sharded_placement_is_bit_identical_under_fault_injection() {
    // Machine failures zero a machine's capacity and repairs restore it
    // — shard membership is fixed (contiguous ranges), but the owning
    // shard's mirror, tree, and cache must all converge identically.
    for seed in [5u64, 23] {
        let mut cfg = SimConfig::tiny_for_tests(seed);
        cfg.faults = Some(FaultConfig::default());
        check_shard_sweep(
            &CellProfile::cell_2019('a'),
            &cfg,
            &format!("faults, seed {seed}"),
        );
    }
}

/// Churn stress: dense fleet, daily maintenance sweeps, faults on — the
/// add/remove/repair paths that mutate machines behind every shard's
/// back, maximizing cross-shard cache invalidation traffic.
#[test]
fn sharded_placement_survives_churn_stress() {
    let mut cfg = SimConfig::tiny_for_tests(29);
    cfg.scale = 0.004;
    cfg.maintenance_per_month = 30.0;
    cfg.usage_interval = borg_trace::time::Micros::from_minutes(30);
    cfg.faults = Some(FaultConfig::default());
    check_shard_sweep(&CellProfile::cell_2019('c'), &cfg, "churn stress");
}

/// Gang scheduling batches placements through the same best-fit path;
/// a quick guard that the sharded index composes with it.
#[test]
fn sharded_placement_is_bit_identical_under_gang_scheduling() {
    let mut cfg = SimConfig::tiny_for_tests(3);
    cfg.gang_scheduling = true;
    check_shard_sweep(&CellProfile::cell_2019('b'), &cfg, "gang mode");
}
