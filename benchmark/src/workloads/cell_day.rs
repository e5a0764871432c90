//! `cell_day_512`: one fleet for one simulated day, so placement, dispatch
//! and usage ticks in `borg-sim` are all of the time. The workload every
//! event-loop or index change must move.
//!
//! Every timed iteration simulates the cell under its own seed drawn from
//! `--seed`: one seed's cell-day is 390k–480k trace rows depending on the
//! few largest jobs it draws, and a median over twenty of them repeats
//! where one does not.
//!
//! 512 machines is below the size at which auto-sharding starts: on a
//! shared 2-core host the sharded path's time swings threefold with the
//! neighbours, so whether sharding pays is answered by the traced run's
//! K = 1 / K = 2 sweep on a 1024-machine fleet.

use super::{
    fleet_cfg, fleet_profile, probe_workload_generator, record_sim_telemetry, sub_seed, trace_rows,
    FLEET_DAY_ROWS,
};
use crate::digest::trace_digest;
use crate::harness::Bench;
use crate::host;
use borg_sim::{CellSim, SimConfig};
use borg_trace::validate::validate;
use std::time::Instant;

pub fn run(b: &mut Bench) {
    let sizes = b.sizes();
    let seed = b.opts.seed;
    let profile = fleet_profile();
    let cfg_for = |i: usize| {
        fleet_cfg(
            &profile,
            sizes.fleet_machines,
            sizes.cell_hours,
            sub_seed(seed, i as u64),
        )
    };
    let first = cfg_for(0);
    println!(
        "cell_day: {} machines, {} h, {} placement shard(s) by default",
        first.machine_count(&profile),
        sizes.cell_hours,
        first.effective_shards(first.machine_count(&profile)),
    );

    // Every warm-up and timed iteration 0 simulate cell 0.
    let mut cell0_digest: Option<u64> = None;
    b.run(
        |_| (),
        |b, ()| {
            let cfg = cfg_for(b.iteration().unwrap_or(0));
            let t = Instant::now();
            let outcome =
                b.measure(|b| b.span("sim.run_cell", |_| CellSim::run_cell(&profile, &cfg)));
            let secs = t.elapsed().as_secs_f64();
            let rows = trace_rows(&outcome.trace);
            b.input_rows(rows, FLEET_DAY_ROWS);
            b.add("sim.trace_rows", rows as f64);
            b.add("sim.rows_per_s", rows as f64 / secs);
            let violations = validate(&outcome.trace).len();
            b.check(
                &format!("validate: {violations} violation(s)"),
                violations == 0,
            );
            if b.iteration().unwrap_or(0) == 0 {
                let digest = trace_digest(&outcome.trace).0;
                match cell0_digest {
                    None => {
                        println!("digest sim.trace {digest:016x} ({rows} rows)");
                        cell0_digest = Some(digest);
                    }
                    Some(want) => b.check("the same seed yields the same trace", digest == want),
                }
            }
        },
    );

    if b.opts.traced {
        let reference = cell0_digest.expect("cell 0 was simulated");
        // Cell 0 with and without the simulator's own telemetry.
        let (_, off_s) = b.probe(|_| CellSim::run_cell(&profile, &first));
        let telemetry_on = SimConfig {
            telemetry: true,
            ..first.clone()
        };
        let (with_telemetry, on_s) = b.probe(|b| {
            b.span("sim.run_cell_telemetry", |_| {
                CellSim::run_cell(&profile, &telemetry_on)
            })
        });
        b.check(
            "telemetry on: trace digest unchanged",
            trace_digest(&with_telemetry.trace).0 == reference,
        );
        record_sim_telemetry(b, &[&with_telemetry]);
        b.set("telemetry.sim_overhead_share", on_s / off_s - 1.0);
        probe_workload_generator(b, &profile, &first, &with_telemetry.trace);
        drop(with_telemetry);

        // The shard sweep runs on a fleet big enough for auto-sharding to
        // pick K > 1 on a multi-core host; K = 1 and K = 2 must agree.
        let sweep = fleet_cfg(&profile, sizes.shard_sweep_machines, sizes.cell_hours, seed);
        let mut digests = Vec::new();
        for (name, k) in [("sim.run_cell_k1", 1), ("sim.run_cell_k2", 2)] {
            let cfg = SimConfig {
                placement_shards: Some(k),
                ..sweep.clone()
            };
            let (out, secs) = b.probe(|b| b.span(name, |_| CellSim::run_cell(&profile, &cfg)));
            println!(
                "shard sweep: {} machines, K={k}: {secs:.3} s on {} core(s) (auto would pick K={})",
                cfg.machine_count(&profile),
                host::cores(),
                sweep.effective_shards(sweep.machine_count(&profile)),
            );
            digests.push(trace_digest(&out.trace).0);
        }
        b.check(
            "shard sweep: K=1 and K=2 yield the same trace",
            digests[0] == digests[1],
        );
    }
}
