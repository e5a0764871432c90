//! Serve determinism: chaos decisions are byte-replayable.
//!
//! The service's robustness machinery is riddled with *timing*: stalls,
//! backoffs, deadline races, breaker windows. The contract under test
//! is that none of it leaks nondeterminism — for a fixed seed and
//! stall schedule, two runs of the virtual-time driver produce a
//! byte-identical event log and identical shed / expired / retried
//! query-id sets; a different seed produces a different schedule. Under
//! 2× overload the decisions also follow the admission design's order:
//! best-effort sheds, prod is never shed and keeps its deadline.

use borg2019::core::pipeline::{simulate_cell, SimScale};
use borg2019::serve::{
    generate_arrivals, open_loop_gap_us, overload_admission, ChaosConfig, Epoch, ModelCost,
    Outcome, ServeConfig, ServeSim, SimReport, Tier, WorkloadSpec,
};
use borg2019::workload::cells::CellProfile;
use std::sync::Arc;

fn tiny_epoch() -> Arc<Epoch> {
    let outcome = simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 1);
    Arc::new(Epoch::from_trace("a", 0, &outcome.trace).expect("epoch tables"))
}

fn chaotic_run(epoch: &Arc<Epoch>, seed: u64) -> SimReport {
    let mut cfg = ServeConfig::small(seed);
    cfg.chaos = ChaosConfig {
        panic_prob: 0.08,
        ..ChaosConfig::moderate(seed)
    };
    let spec = WorkloadSpec {
        seed,
        queries: 300,
        mean_gap_us: 500.0,
        tier_mix: [0.2, 0.4, 0.4],
        epochs: vec!["a".into()],
    };
    let arrivals = generate_arrivals(&spec);
    ServeSim::default().run(cfg, std::slice::from_ref(epoch), &arrivals)
}

/// Ids that went through at least one retry (attempts > 1 by the end,
/// whatever the terminal outcome).
fn retried_ids(r: &SimReport) -> Vec<u64> {
    r.ids_where(|o| {
        matches!(
            o,
            Outcome::Done { attempts, .. }
            | Outcome::Expired { attempts, .. }
            | Outcome::Failed { attempts } if *attempts > 1
        )
    })
}

#[test]
fn same_seed_same_stalls_byte_identical_decisions() {
    let epoch = tiny_epoch();
    let a = chaotic_run(&epoch, 2019);
    let b = chaotic_run(&epoch, 2019);

    assert_eq!(a.log, b.log, "event logs differ between identical runs");
    assert_eq!(a.digest(), b.digest());
    assert_eq!(
        a.ids_where(|o| matches!(o, Outcome::Shed { .. })),
        b.ids_where(|o| matches!(o, Outcome::Shed { .. })),
        "shed id sets differ"
    );
    assert_eq!(
        a.ids_where(|o| matches!(o, Outcome::Expired { .. })),
        b.ids_where(|o| matches!(o, Outcome::Expired { .. })),
        "expired id sets differ"
    );
    assert_eq!(retried_ids(&a), retried_ids(&b), "retried id sets differ");
    assert_eq!(a.breaker_trips, b.breaker_trips);
    assert_eq!(a.horizon_us, b.horizon_us);

    // The chaos actually bit: the run exercised retries and sheds, so
    // the equality above pins real robustness traffic, not an idle log.
    assert!(
        a.stats.retries.iter().sum::<u64>() > 0,
        "no retries exercised: {:?}",
        a.stats
    );
    assert!(
        !a.ids_where(|o| matches!(o, Outcome::Shed { .. }))
            .is_empty(),
        "no sheds exercised: {:?}",
        a.stats
    );
}

#[test]
fn different_seed_different_schedule() {
    let epoch = tiny_epoch();
    let a = chaotic_run(&epoch, 2019);
    let c = chaotic_run(&epoch, 2020);
    assert_ne!(a.log, c.log, "different seeds replayed identically");
}

#[test]
fn every_query_gets_exactly_one_outcome() {
    let epoch = tiny_epoch();
    let r = chaotic_run(&epoch, 7);
    assert_eq!(r.outcomes.len(), 300);
    let ids: std::collections::BTreeSet<u64> = r.outcomes.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids.len(), 300, "duplicate terminal outcomes");
}

/// The degradation order under `serve`'s overload: at twice what the
/// service can serve, with moderate chaos, the overload lands on the
/// lower tiers and prod keeps its deadline — replayably.
#[test]
fn overload_sheds_best_effort_and_protects_prod() {
    let epoch = tiny_epoch();
    let admission = overload_admission();
    let prod_deadline_us = admission.tiers[Tier::Prod.index()].deadline_us;
    for seed in 2019..=2021 {
        let chaos = ChaosConfig::moderate(seed);
        let arrivals = generate_arrivals(&WorkloadSpec {
            seed,
            queries: 3_000,
            mean_gap_us: open_loop_gap_us(&admission, &ModelCost::default(), &chaos, 1.0, 2.0),
            tier_mix: [0.10, 0.40, 0.50],
            epochs: vec!["a".into()],
        });
        let run = || {
            let cfg = ServeConfig::new(admission, chaos, seed);
            ServeSim::default().run(cfg, std::slice::from_ref(&epoch), &arrivals)
        };
        let r = run();
        assert_eq!(r.stats.sheds(Tier::Prod), 0, "seed {seed}: prod was shed");
        let prod_p99 = r.stats.latency_quantile_us(Tier::Prod, 0.99);
        assert!(
            prod_p99 <= prod_deadline_us,
            "seed {seed}: prod p99 {prod_p99}us over its {prod_deadline_us}us deadline"
        );
        assert!(
            r.stats.sheds(Tier::BestEffort) > 0,
            "seed {seed}: best-effort absorbed none of the overload"
        );
        let ids: std::collections::BTreeSet<u64> = r.outcomes.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            (r.outcomes.len(), ids.len()),
            (3_000, 3_000),
            "seed {seed}: one outcome per query"
        );
        assert_eq!(r.digest(), run().digest(), "seed {seed}: not replayable");
    }
}
