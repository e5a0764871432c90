//! SLO drill-down: one chaotic "incident" run through the full
//! observability stack — burn-rate alerts, error budgets, the flight
//! recorder, and the p99-exemplar → span-tree drill-down — plus a
//! chaos-off control run proving the alert pipeline is quiet when the
//! service is healthy.
//!
//! The incident run replays byte-identically (span-tree export, alert
//! sequence, recorder dump), demonstrating DESIGN.md §17's core claim:
//! observability artifacts live on the deterministic plane. The
//! drill-down walks the exact path an operator would: p99 bucket →
//! exemplar trace id → rendered span tree.

use borg_core::pipeline::simulate_cell;
use borg_experiments::{banner, parse_opts};
use borg_serve::{
    generate_arrivals, open_loop_gap_us, overload_admission, ChaosConfig, Epoch, ModelCost,
    RecorderConfig, RetryPolicy, ServeConfig, ServeSim, SloConfig, Tier, WitnessConfig,
    WorkloadSpec,
};
use borg_telemetry::{trace_events_json, validate_json, Histogram};
use borg_workload::cells::CellProfile;
use std::sync::Arc;

const QUERIES: usize = 2_000;
/// Incident load relative to capacity: hot enough to shed and miss.
const INCIDENT_LOAD: f64 = 1.5;
/// Control load: comfortably under capacity.
const CONTROL_LOAD: f64 = 0.5;

fn main() {
    let opts = parse_opts();
    banner(
        "Serve SLO",
        "burn-rate alerts, flight recorder, exemplar drill-down",
        &opts,
    );

    let outcome = simulate_cell(&CellProfile::cell_2019('a'), opts.scale, opts.seed);
    let epoch = Arc::new(Epoch::from_trace("a", 0, &outcome.trace).expect("epoch tables"));
    let admission = overload_admission();
    let cost = ModelCost::default();
    let slo_cfg = SloConfig::for_admission(&admission);
    let cfg_for = |seed: u64, chaos: ChaosConfig| ServeConfig {
        admission,
        retry: RetryPolicy::default_with_seed(seed),
        breaker_threshold: 5,
        breaker_cooloff_us: 50_000,
        chaos,
        slo: slo_cfg,
        witness: WitnessConfig::on(),
        recorder: RecorderConfig::standard(),
    };
    let run = |seed: u64, chaos: ChaosConfig, load: f64| {
        let gap = open_loop_gap_us(&admission, &cost, &chaos, 1.0, load);
        let spec = WorkloadSpec {
            seed,
            queries: QUERIES,
            mean_gap_us: gap,
            tier_mix: [0.10, 0.40, 0.50],
            epochs: vec!["a".into()],
        };
        let arrivals = generate_arrivals(&spec);
        ServeSim::default().run(
            cfg_for(seed, chaos),
            std::slice::from_ref(&epoch),
            &arrivals,
        )
    };

    // Incident: overload with elevated panics, replayed twice to pin
    // every observability artifact to the deterministic plane.
    let chaos = ChaosConfig {
        panic_prob: 0.08,
        ..ChaosConfig::moderate(opts.seed)
    };
    let r = run(opts.seed, chaos, INCIDENT_LOAD);
    let r2 = run(opts.seed, chaos, INCIDENT_LOAD);
    assert_eq!(
        r.trace_export(),
        r2.trace_export(),
        "span-tree export not byte-identical"
    );
    assert_eq!(r.alerts, r2.alerts, "alert sequence not byte-identical");
    assert_eq!(
        r.recorder_dump, r2.recorder_dump,
        "flight-recorder dump not byte-identical"
    );

    println!("incident: {QUERIES} queries at {INCIDENT_LOAD}x load, 8% panics, replayed 2x");
    println!(
        "  {:>11} {:>9} {:>7} {:>6} {:>5} {:>9}",
        "tier", "objective", "target", "total", "bad", "budget"
    );
    for t in Tier::ALL {
        let i = t.index();
        let b = &r.budgets[i];
        println!(
            "  {:>11} {:>7}ms {:>7.3} {:>6} {:>5} {:>8.0}%",
            t.name(),
            slo_cfg.tiers[i].latency_us / 1_000,
            slo_cfg.tiers[i].target,
            b.total,
            b.bad,
            b.remaining_frac() * 100.0,
        );
    }

    println!("\nalert log ({} lines):", r.alerts.len());
    for line in &r.alerts {
        println!("  {line}");
    }
    assert!(
        !r.alerts.is_empty(),
        "an 8%-panic overload incident must fire at least one alert"
    );

    println!("\nflight recorder:");
    for line in String::from_utf8_lossy(&r.recorder_dump).lines() {
        // Headers only; the ring contents are for post-mortems.
        if line.starts_with("recorder")
            || line.starts_with("observed")
            || line.starts_with("-- snapshot")
        {
            println!("  {line}");
        }
    }

    // The operator's drill-down: p99 bucket -> exemplar -> span tree.
    println!("\np99 exemplar drill-down:");
    let mut drilled = false;
    for t in Tier::ALL {
        let hist = &r.stats.latency_us[t.index()];
        let Some((bucket, tid)) = r.witness.exemplar_for(t, hist, 0.99) else {
            continue;
        };
        let tr = r
            .witness
            .trace_by_id(tid)
            .expect("every exemplar resolves to a collected trace");
        println!(
            "  {} p99 bucket {} (<= {}us) -> trace {:016x}",
            t.name(),
            bucket,
            Histogram::bucket_bound(bucket),
            tid
        );
        if t == Tier::Prod {
            for line in tr.render().lines() {
                println!("    {line}");
            }
            drilled = true;
        }
    }
    assert!(drilled, "prod must have a p99 exemplar to drill into");

    // The same traces export as a chrome-tracing file.
    let events = r.witness.chrome_events();
    let json = trace_events_json(&events);
    validate_json(&json).expect("chrome trace export is valid json");
    println!(
        "\nexports: chrome trace {} events ({} bytes)",
        events.len(),
        json.len()
    );

    // Control: no chaos, comfortable load — zero alerts, zero prod
    // misses, zero breaker opens. (Arrival bursts may still trip the
    // shed-spike trigger on the scavenger tier; that is load shaping
    // working, not an incident.)
    for seed in [opts.seed, opts.seed + 1, opts.seed + 2] {
        let c = run(seed, ChaosConfig::off(), CONTROL_LOAD);
        assert!(
            c.alerts.is_empty(),
            "seed {seed}: healthy control run fired alerts: {:?}",
            c.alerts
        );
        let dump = String::from_utf8_lossy(&c.recorder_dump).into_owned();
        for quiet in ["observed prod_deadline_miss 0", "observed breaker_open 0"] {
            assert!(
                dump.contains(quiet),
                "seed {seed}: healthy control run missing `{quiet}`:\n{dump}"
            );
        }
        let snapshots = dump
            .lines()
            .filter(|l| l.starts_with("-- snapshot"))
            .count();
        println!(
            "control seed {seed}: 0 alerts, 0 prod misses, {} shed-burst snapshot(s), {} traces",
            snapshots,
            c.witness.len()
        );
    }
    println!("serve slo: OK (incident replayable, drill-down resolved, control silent)");
}
