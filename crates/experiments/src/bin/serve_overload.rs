//! Overload sweep: open-loop arrivals at 2× saturation, with chaos,
//! across three seeds — the graceful-degradation proof for borg-serve.
//!
//! For each seed the virtual-time driver (`ServeSim`, model mode) runs
//! the same workload twice and asserts the event logs are
//! byte-identical (replayable shed/retry/breaker sequences), then
//! checks the degradation ordering the admission design promises:
//!
//! * prod p99 latency within the prod deadline, zero prod sheds;
//! * best-effort absorbs the overload (sheds > 0);
//! * every submitted query reaches exactly one terminal outcome.
//!
//! The per-tier table below is what EXPERIMENTS.md records; DESIGN.md
//! §16 carries the summary.

use borg_core::pipeline::simulate_cell;
use borg_experiments::{banner, parse_opts};
use borg_serve::{
    generate_arrivals, open_loop_gap_us, overload_admission, ChaosConfig, Epoch, ModelCost,
    Outcome, RecorderConfig, RetryPolicy, ServeConfig, ServeSim, SloConfig, Tier, WitnessConfig,
    WorkloadSpec,
};
use borg_workload::cells::CellProfile;
use std::sync::Arc;

/// Load factor relative to total worker capacity (2.0 = twice what the
/// service can possibly serve).
const LOAD_FACTOR: f64 = 2.0;
const QUERIES: usize = 3_000;

fn main() {
    let opts = parse_opts();
    banner(
        "Serve overload",
        "tiered admission under 2x saturating load",
        &opts,
    );

    let outcome = simulate_cell(&CellProfile::cell_2019('a'), opts.scale, opts.seed);
    let epoch = Arc::new(Epoch::from_trace("a", 0, &outcome.trace).expect("epoch tables"));

    let admission = overload_admission();
    let cost = ModelCost::default();
    let prod_deadline_us = admission.tiers[0].deadline_us;
    for seed in [opts.seed, opts.seed + 1, opts.seed + 2] {
        let chaos = ChaosConfig::moderate(seed);
        let gap = open_loop_gap_us(&admission, &cost, &chaos, 1.0, LOAD_FACTOR);
        let cfg = ServeConfig {
            admission,
            retry: RetryPolicy::default_with_seed(seed),
            breaker_threshold: 5,
            breaker_cooloff_us: 50_000,
            chaos,
            slo: SloConfig::for_admission(&admission),
            witness: WitnessConfig::on(),
            recorder: RecorderConfig::standard(),
        };
        let spec = WorkloadSpec {
            seed,
            queries: QUERIES,
            mean_gap_us: gap,
            tier_mix: [0.10, 0.40, 0.50],
            epochs: vec!["a".into()],
        };
        let arrivals = generate_arrivals(&spec);
        let sim = ServeSim::default();
        let r1 = sim.run(cfg.clone(), std::slice::from_ref(&epoch), &arrivals);
        let r2 = sim.run(cfg, std::slice::from_ref(&epoch), &arrivals);
        assert_eq!(r1.log, r2.log, "seed {seed}: event log not byte-replayable");
        assert_eq!(
            r1.trace_export(),
            r2.trace_export(),
            "seed {seed}: span-tree export not byte-replayable"
        );
        assert_eq!(
            r1.alerts, r2.alerts,
            "seed {seed}: alert log not replayable"
        );
        assert_eq!(
            r1.recorder_dump, r2.recorder_dump,
            "seed {seed}: flight-recorder dump not replayable"
        );

        println!(
            "seed {seed}: gap {:.0}us, horizon {:.1}s, digest {:016x}",
            gap,
            r1.horizon_us as f64 / 1e6,
            r1.digest()
        );
        println!(
            "  {:>11} {:>9} {:>6} {:>7} {:>5} {:>6} {:>7} {:>9} {:>9}",
            "tier", "submitted", "done", "expired", "shed", "failed", "retries", "p50_ms", "p99_ms"
        );
        for t in Tier::ALL {
            let i = t.index();
            println!(
                "  {:>11} {:>9} {:>6} {:>7} {:>5} {:>6} {:>7} {:>9.1} {:>9.1}",
                t.name(),
                r1.stats.submitted[i],
                r1.stats.done[i],
                r1.stats.expired[i],
                r1.stats.sheds(t),
                r1.stats.failed[i],
                r1.stats.retries[i],
                r1.stats.latency_quantile_us(t, 0.50) as f64 / 1_000.0,
                r1.stats.latency_quantile_us(t, 0.99) as f64 / 1_000.0,
            );
        }

        // Graceful-degradation contract.
        let prod_p99 = r1.stats.latency_quantile_us(Tier::Prod, 0.99);
        assert!(
            prod_p99 <= prod_deadline_us,
            "seed {seed}: prod p99 {prod_p99}us exceeds deadline {prod_deadline_us}us"
        );
        assert_eq!(
            r1.stats.sheds(Tier::Prod),
            0,
            "seed {seed}: prod traffic was shed under overload"
        );
        assert!(
            r1.stats.sheds(Tier::BestEffort) > 0,
            "seed {seed}: best-effort absorbed none of the overload"
        );
        assert_eq!(
            r1.outcomes.len(),
            QUERIES,
            "seed {seed}: a terminal outcome per query"
        );
        let dup_check: std::collections::BTreeSet<u64> =
            r1.outcomes.iter().map(|(id, _)| *id).collect();
        assert_eq!(dup_check.len(), QUERIES, "seed {seed}: duplicate outcomes");
        let done = r1.ids_where(|o| matches!(o, Outcome::Done { .. }));
        assert!(
            !done.is_empty(),
            "seed {seed}: nothing completed under overload"
        );
        println!(
            "  observability: {} traces, {} alerts, {} recorder snapshot(s)",
            r1.witness.len(),
            r1.alerts.len(),
            r1.recorder_dump
                .split(|b| *b == b'\n')
                .filter(|l| l.starts_with(b"-- snapshot"))
                .count(),
        );
    }

    // Witness overhead A/B on the base seed: the observability layer
    // must ride within noise of the bare state machine (DESIGN.md §17
    // records the measured delta).
    {
        let chaos = ChaosConfig::moderate(opts.seed);
        let gap = open_loop_gap_us(&admission, &cost, &chaos, 1.0, LOAD_FACTOR);
        let spec = WorkloadSpec {
            seed: opts.seed,
            queries: QUERIES,
            mean_gap_us: gap,
            tier_mix: [0.10, 0.40, 0.50],
            epochs: vec!["a".into()],
        };
        let arrivals = generate_arrivals(&spec);
        let mk = |on: bool| ServeConfig {
            admission,
            retry: RetryPolicy::default_with_seed(opts.seed),
            breaker_threshold: 5,
            breaker_cooloff_us: 50_000,
            chaos,
            slo: if on {
                SloConfig::for_admission(&admission)
            } else {
                SloConfig::off()
            },
            witness: if on {
                WitnessConfig::on()
            } else {
                WitnessConfig::off()
            },
            recorder: if on {
                RecorderConfig::standard()
            } else {
                RecorderConfig::off()
            },
        };
        let sim = ServeSim::default();
        // lint: nondeterministic-source-ok (wall-clock measures harness overhead only; never enters a log)
        let t = std::time::Instant::now();
        let bare = sim.run(mk(false), std::slice::from_ref(&epoch), &arrivals);
        let off_ms = t.elapsed().as_secs_f64() * 1e3;
        // lint: nondeterministic-source-ok (wall-clock measures harness overhead only; never enters a log)
        let t = std::time::Instant::now();
        let full = sim.run(mk(true), std::slice::from_ref(&epoch), &arrivals);
        let on_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            bare.log, full.log,
            "witness must not perturb the decision log"
        );
        println!(
            "witness overhead: off {off_ms:.1}ms on {on_ms:.1}ms ({:+.1}%)",
            (on_ms / off_ms - 1.0) * 100.0
        );
    }
    println!("serve overload: OK (3 seeds, replayable, prod protected)");
}
