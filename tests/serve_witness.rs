//! Observability determinism contracts (DESIGN.md §17).
//!
//! The witness span trees, SLO alert sequence, and flight-recorder
//! dump all live on the deterministic plane: for a fixed seed and
//! chaos schedule, two runs export byte-identical artifacts. The
//! chaos-off control pins the other side — a healthy service fires no
//! alerts — and the exemplar test walks the operator drill-down (p99
//! bucket → exemplar trace id → span tree) end to end.

use borg2019::core::pipeline::{simulate_cell, SimScale};
use borg2019::serve::{
    generate_arrivals, open_loop_gap_us, overload_admission, ChaosConfig, Epoch, ModelCost,
    RecorderConfig, SegKind, ServeConfig, ServeSim, SimReport, SloConfig, Tier, WitnessConfig,
    WorkloadSpec,
};
use borg2019::workload::cells::CellProfile;
use std::sync::Arc;

fn tiny_epoch() -> Arc<Epoch> {
    let outcome = simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 1);
    Arc::new(Epoch::from_trace("a", 0, &outcome.trace).expect("epoch tables"))
}

/// Overloading chaotic run: same shape as tests/serve_determinism.rs,
/// so the observability surface is pinned over real shed/retry/breaker
/// traffic.
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

/// Gentle, fault-free run: same service, ten times the arrival gap.
fn healthy_run(epoch: &Arc<Epoch>, seed: u64) -> SimReport {
    let mut cfg = ServeConfig::small(seed);
    cfg.chaos = ChaosConfig::off();
    let spec = WorkloadSpec {
        seed,
        queries: 300,
        mean_gap_us: 5_000.0,
        tier_mix: [0.2, 0.4, 0.4],
        epochs: vec!["a".into()],
    };
    let arrivals = generate_arrivals(&spec);
    ServeSim::default().run(cfg, std::slice::from_ref(epoch), &arrivals)
}

#[test]
fn same_seed_chaos_byte_identical_observability() {
    let epoch = tiny_epoch();
    let a = chaotic_run(&epoch, 2019);
    let b = chaotic_run(&epoch, 2019);

    let export = a.trace_export();
    assert!(!export.is_empty(), "chaotic run exported no span trees");
    assert_eq!(export, b.trace_export(), "span-tree exports differ");
    assert_eq!(a.alerts, b.alerts, "alert sequences differ");
    assert_eq!(a.recorder_dump, b.recorder_dump, "recorder dumps differ");

    // The chaos bit: anomalies were actually observed and snapshotted,
    // so the byte equality above pins a non-trivial dump.
    let dump = String::from_utf8(a.recorder_dump.clone()).expect("utf8 dump");
    assert!(
        !dump.starts_with("recorder 0 snapshot"),
        "chaotic overload captured no flight-recorder snapshots:\n{dump}"
    );

    // Every query got a span tree, closed with a terminal outcome.
    assert_eq!(a.witness.len(), 300);
    let text = String::from_utf8(export).expect("utf8 export");
    assert_eq!(text.matches("trace ").count(), 300);
    assert!(!text.contains(" live\n"), "a trace was left open:\n{text}");
}

#[test]
fn different_seed_different_traces() {
    let epoch = tiny_epoch();
    let a = chaotic_run(&epoch, 2019);
    let c = chaotic_run(&epoch, 2020);
    assert_ne!(
        a.trace_export(),
        c.trace_export(),
        "different seeds exported identical span trees"
    );
}

#[test]
fn chaos_off_fires_no_alerts_across_seeds() {
    let epoch = tiny_epoch();
    for seed in [11, 12, 13] {
        let r = healthy_run(&epoch, seed);
        assert!(
            r.alerts.is_empty(),
            "seed {seed}: healthy run fired alerts: {:?}",
            r.alerts
        );
        assert!(
            r.recorder_dump.starts_with(b"recorder 0 snapshot"),
            "seed {seed}: healthy run captured snapshots:\n{}",
            String::from_utf8_lossy(&r.recorder_dump)
        );
        // Budgets untouched: nothing bad happened at all.
        for t in Tier::ALL {
            assert_eq!(
                r.budgets[t.index()].bad,
                0,
                "seed {seed}: {t} saw bad outcomes in a healthy run"
            );
        }
    }
}

#[test]
fn exemplar_drills_down_to_span_tree() {
    let epoch = tiny_epoch();
    let r = chaotic_run(&epoch, 2019);
    let mut drilled = 0;
    for t in Tier::ALL {
        let hist = &r.stats.latency_us[t.index()];
        let Some((_bucket, tid)) = r.witness.exemplar_for(t, hist, 0.99) else {
            continue;
        };
        let tr = r
            .witness
            .trace_by_id(tid)
            .expect("exemplar id resolves to a collected trace");
        assert_eq!(tr.trace_id, tid);
        assert_eq!(tr.tier, t);
        assert_eq!(tr.outcome, "done", "exemplars come from completions");
        // The drill-down lands on a real span tree: a queue segment
        // and at least one attempt with execute time.
        assert!(tr.time_in(SegKind::Attempt) > 0, "no attempt time: {tr:?}");
        assert!(
            tr.segments.iter().any(|s| s.kind == SegKind::Queue),
            "no queue segment: {tr:?}"
        );
        assert!(tr.render().starts_with("trace "));
        drilled += 1;
    }
    assert!(drilled > 0, "no tier had a p99 exemplar to drill into");
}

#[test]
fn trace_ids_are_unique_and_stable() {
    let epoch = tiny_epoch();
    let a = chaotic_run(&epoch, 2019);
    let b = chaotic_run(&epoch, 2019);
    let ids_a: Vec<u64> = (0..300)
        .filter_map(|q| a.witness.trace(q).map(|t| t.trace_id))
        .collect();
    let ids_b: Vec<u64> = (0..300)
        .filter_map(|q| b.witness.trace(q).map(|t| t.trace_id))
        .collect();
    assert_eq!(ids_a, ids_b, "minted trace ids differ across replays");
    let set: std::collections::BTreeSet<u64> = ids_a.iter().copied().collect();
    assert_eq!(set.len(), 300, "trace-id collision");
}

/// `serve`'s incident: 2 000 queries at 1.5× the overload admission's
/// capacity with 8% attempt panics; the witness, SLO engine and recorder
/// are all on when `observe` is set and all off otherwise.
fn incident(epoch: &Arc<Epoch>, seed: u64, observe: bool) -> SimReport {
    let admission = overload_admission();
    let chaos = ChaosConfig {
        panic_prob: 0.08,
        ..ChaosConfig::moderate(seed)
    };
    let on = ServeConfig::new(admission, chaos, seed);
    let cfg = if observe {
        on
    } else {
        ServeConfig {
            slo: SloConfig::off(),
            witness: WitnessConfig::off(),
            recorder: RecorderConfig::off(),
            ..on
        }
    };
    let arrivals = generate_arrivals(&WorkloadSpec {
        seed,
        queries: 2_000,
        mean_gap_us: open_loop_gap_us(&admission, &ModelCost::default(), &chaos, 1.0, 1.5),
        tier_mix: [0.10, 0.40, 0.50],
        epochs: vec!["a".into()],
    });
    ServeSim::default().run(cfg, std::slice::from_ref(epoch), &arrivals)
}

/// DESIGN.md §17: the witness, the SLO engine and the flight recorder
/// observe the decisions and never change one.
#[test]
fn observability_is_a_pure_observer() {
    let epoch = tiny_epoch();
    for seed in 2019..=2021 {
        let on = incident(&epoch, seed, true);
        let off = incident(&epoch, seed, false);
        assert!(off.witness.is_empty() && off.alerts.is_empty());
        assert_eq!(
            on.log, off.log,
            "seed {seed}: observability moved a decision"
        );
    }
}

#[test]
fn incident_alerts_and_prod_has_an_exemplar() {
    let epoch = tiny_epoch();
    for seed in 2019..=2021 {
        let r = incident(&epoch, seed, true);
        assert!(
            !r.alerts.is_empty(),
            "seed {seed}: the incident paged no one"
        );
        let prod = &r.stats.latency_us[Tier::Prod.index()];
        assert!(
            r.witness.exemplar_for(Tier::Prod, prod, 0.99).is_some(),
            "seed {seed}: prod has no p99 exemplar to drill into"
        );
    }
}
