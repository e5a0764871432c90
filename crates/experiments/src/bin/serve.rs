//! The borg-serve report: tiered admission at 2× saturating load on three
//! seeds, then one chaotic incident walked through the observability
//! stack (SLO budgets, burn-rate alerts, flight recorder, p99 exemplar →
//! span tree) next to three healthy control runs.
//!
//! Every run is on the virtual-time driver (`ServeSim`), so stdout depends
//! on `--scale` and `--seed` alone; the one wall-clock number, the
//! witness overhead, goes to stderr. The report asserts nothing: what it
//! shows is held by tier-1 tests (`tests/serve_determinism.rs`,
//! `tests/serve_witness.rs`, and `tests/serve_cli.rs` of this crate, which
//! pins this stdout). EXPERIMENTS.md records the numbers.

use borg_core::pipeline::simulate_cell;
use borg_experiments::{banner, parse_opts};
use borg_serve::{
    generate_arrivals, open_loop_gap_us, overload_admission, ChaosConfig, Epoch, ModelCost,
    RecorderConfig, ServeConfig, ServeSim, SimReport, SloConfig, Tier, WitnessConfig, WorkloadSpec,
};
use borg_telemetry::{breakdown_report, trace_events_json, Histogram, Telemetry};
use borg_workload::cells::CellProfile;
use std::sync::Arc;

/// Overload: twice what the service can possibly serve.
const OVERLOAD: f64 = 2.0;
const OVERLOAD_QUERIES: usize = 3_000;
/// Incident load: hot enough to shed and miss.
const INCIDENT_LOAD: f64 = 1.5;
/// Control load: comfortably under capacity.
const CONTROL_LOAD: f64 = 0.5;
const INCIDENT_QUERIES: usize = 2_000;

fn main() {
    let opts = parse_opts();
    banner(
        "Serve",
        "tiered admission under 2x load; an SLO incident drilled down",
        &opts,
    );

    let outcome = simulate_cell(&CellProfile::cell_2019('a'), opts.scale, opts.seed);
    let epoch = Arc::new(Epoch::from_trace("a", 0, &outcome.trace).expect("epoch tables"));
    let admission = overload_admission();
    let run = |cfg: ServeConfig, seed: u64, queries: usize, load: f64| {
        let gap = open_loop_gap_us(&admission, &ModelCost::default(), &cfg.chaos, 1.0, load);
        let arrivals = generate_arrivals(&WorkloadSpec {
            seed,
            queries,
            mean_gap_us: gap,
            tier_mix: [0.10, 0.40, 0.50],
            epochs: vec!["a".into()],
        });
        let report = ServeSim::default().run(cfg, std::slice::from_ref(&epoch), &arrivals);
        (gap, report)
    };
    let seeds = [opts.seed, opts.seed + 1, opts.seed + 2];

    for seed in seeds {
        let cfg = ServeConfig::new(admission, ChaosConfig::moderate(seed), seed);
        let (gap, r) = run(cfg, seed, OVERLOAD_QUERIES, OVERLOAD);
        println!(
            "seed {seed}: gap {gap:.0}us, horizon {:.1}s, digest {:016x}",
            r.horizon_us as f64 / 1e6,
            r.digest()
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
                r.stats.submitted[i],
                r.stats.done[i],
                r.stats.expired[i],
                r.stats.sheds(t),
                r.stats.failed[i],
                r.stats.retries[i],
                r.stats.latency_quantile_us(t, 0.50) as f64 / 1_000.0,
                r.stats.latency_quantile_us(t, 0.99) as f64 / 1_000.0,
            );
        }
        println!(
            "  observability: {} traces, {} alerts, {} recorder snapshot(s)",
            r.witness.len(),
            r.alerts.len(),
            snapshots(&r)
        );
    }

    // What the observability layer costs in wall-clock time on the base
    // seed: the same run with the witness, SLO engine and recorder off,
    // then on (DESIGN.md §17 records the measured delta).
    let on = ServeConfig::new(admission, ChaosConfig::moderate(opts.seed), opts.seed);
    let off = ServeConfig {
        slo: SloConfig::off(),
        witness: WitnessConfig::off(),
        recorder: RecorderConfig::off(),
        ..on.clone()
    };
    let [off_ms, on_ms] = [off, on].map(|cfg| {
        // lint: nondeterministic-source-ok (wall-clock measures harness overhead only; never enters a log)
        let t = std::time::Instant::now();
        run(cfg, opts.seed, OVERLOAD_QUERIES, OVERLOAD);
        t.elapsed().as_secs_f64() * 1e3
    });
    eprintln!(
        "witness overhead: off {off_ms:.1}ms on {on_ms:.1}ms ({:+.1}%)",
        (on_ms / off_ms - 1.0) * 100.0
    );

    // The incident: overload with elevated panics.
    let chaos = ChaosConfig {
        panic_prob: 0.08,
        ..ChaosConfig::moderate(opts.seed)
    };
    let cfg = ServeConfig::new(admission, chaos, opts.seed);
    let slo = cfg.slo;
    let (_, r) = run(cfg, opts.seed, INCIDENT_QUERIES, INCIDENT_LOAD);
    println!("\nincident: {INCIDENT_QUERIES} queries at {INCIDENT_LOAD}x load, 8% panics");
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
            slo.tiers[i].latency_us / 1_000,
            slo.tiers[i].target,
            b.total,
            b.bad,
            b.remaining_frac() * 100.0,
        );
    }

    println!("\nalert log ({} lines):", r.alerts.len());
    for line in &r.alerts {
        println!("  {line}");
    }

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
    for t in Tier::ALL {
        let hist = &r.stats.latency_us[t.index()];
        let Some((bucket, tid)) = r.witness.exemplar_for(t, hist, 0.99) else {
            continue;
        };
        println!(
            "  {} p99 bucket {} (<= {}us) -> trace {:016x}",
            t.name(),
            bucket,
            Histogram::bucket_bound(bucket),
            tid
        );
        if let (Tier::Prod, Some(tr)) = (t, r.witness.trace_by_id(tid)) {
            for line in tr.render().lines() {
                println!("    {line}");
            }
        }
    }

    // Where the incident's traced time went, by span segment. Segment
    // times are virtual µs, so this table is a function of the seed too.
    let mut tel = Telemetry::enabled();
    r.witness.export_telemetry(&mut tel);
    println!(
        "\n{}",
        breakdown_report(
            &tel.snapshot(),
            "serve.seg",
            "incident span-segment breakdown, virtual time"
        )
        .trim_end()
    );

    // The same traces export as a chrome-tracing file.
    let events = r.witness.chrome_events();
    println!(
        "\nexports: chrome trace {} events ({} bytes)",
        events.len(),
        trace_events_json(&events).len()
    );

    // Controls: no chaos, comfortable load. Arrival bursts may still trip
    // the shed-spike trigger on the lower tiers; that is load shaping, not
    // an incident.
    for seed in seeds {
        let cfg = ServeConfig::new(admission, ChaosConfig::off(), seed);
        let (_, c) = run(cfg, seed, INCIDENT_QUERIES, CONTROL_LOAD);
        println!(
            "control seed {seed}: {} alerts, {} prod misses, {} breaker trips, \
             {} shed-burst snapshot(s), {} traces",
            c.alerts.len(),
            c.stats.expired[Tier::Prod.index()],
            c.breaker_trips,
            snapshots(&c),
            c.witness.len()
        );
    }
}

/// Flight-recorder snapshots in a run's dump.
fn snapshots(r: &SimReport) -> usize {
    r.recorder_dump
        .split(|b| *b == b'\n')
        .filter(|l| l.starts_with(b"-- snapshot"))
        .count()
}
