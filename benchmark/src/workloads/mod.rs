//! The five workloads, and the pieces more than one of them uses.

pub mod battery;
pub mod cell_day;
pub mod paper;
pub mod roundtrip;
pub mod serve;
pub mod sql;

use crate::harness::{Bench, Sizes};
use borg_sim::{CellOutcome, SimConfig};
use borg_telemetry::grid_breakdown;
use borg_trace::time::Micros;
use borg_trace::trace::Trace;
use borg_workload::cells::CellProfile;
use borg_workload::jobgen::{GenParams, JobGenerator};
use std::path::PathBuf;

/// Runs the workload `b` was asked for (the name was checked on parsing).
pub fn run(b: &mut Bench) {
    match b.opts.workload.as_str() {
        "cell_day_512" => cell_day::run(b),
        "paper_small" => paper::run(b),
        "trace_roundtrip" => roundtrip::run(b),
        "sql_battery" => sql::run(b),
        _ => serve::run(b),
    }
}

/// SplitMix64: the harness's own generator, so `--seed` reaches the input
/// generators without borrowing the program's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The `i`th seed drawn from `--seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    SplitMix::new(seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// The cell every single-fleet workload simulates.
pub fn fleet_profile() -> CellProfile {
    CellProfile::cell_2019('d')
}

/// A `machines`-machine fleet of `profile` for `hours` simulated hours:
/// `SimConfig::tiny_for_tests` (30-minute usage ticks, one raw usage
/// record kept in 11) with the scale and horizon replaced.
pub fn fleet_cfg(profile: &CellProfile, machines: u64, hours: u64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::tiny_for_tests(seed);
    cfg.scale = (machines as f64 / profile.machine_count as f64).min(1.0);
    cfg.horizon = Micros::from_hours(hours);
    cfg.snapshot_at = Micros::from_hours(hours / 2);
    cfg
}

/// The configuration of one paper cell: `SimScale::config` (what
/// `simulate_both_eras` uses) with the horizon replaced.
pub fn paper_cfg(sizes: &Sizes, seed: u64) -> SimConfig {
    let mut cfg = sizes.paper.config(seed);
    cfg.horizon = Micros::from_hours(sizes.paper_hours);
    cfg.snapshot_at = Micros::from_hours(sizes.paper_hours / 2 + 1);
    cfg
}

/// Trace rows of the fleet's cell-day at its measured size (the mean over
/// seeds 100–109, rounded): the nominal input of the workloads that
/// simulate it (see [`Bench::input_rows`]).
pub const FLEET_DAY_ROWS: usize = 440_000;

/// Rows across the four trace tables.
pub fn trace_rows(t: &Trace) -> usize {
    t.machine_events.len() + t.collection_events.len() + t.instance_events.len() + t.usage.len()
}

/// A scratch directory for CSV fixtures, emptied first.
pub fn scratch_dir(b: &Bench, name: &str) -> PathBuf {
    let dir = b
        .opts
        .out_dir
        .join(format!("work-{}", b.opts.workload))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout");
    dir
}

/// Removes this workload's scratch directories.
pub fn remove_scratch(b: &Bench) {
    let _ = std::fs::remove_dir_all(b.opts.out_dir.join(format!("work-{}", b.opts.workload)));
}

/// Traced-run probe: the simulator's own event-loop telemetry, summed
/// over `outcomes` (which ran with `SimConfig::telemetry = true`), as
/// `sim.dispatch_ms`, `sim.usage_tick_ms` and `sim.events`.
pub fn record_sim_telemetry(b: &mut Bench, outcomes: &[&CellOutcome]) {
    for o in outcomes {
        for row in grid_breakdown(&o.telemetry, "sim.ev") {
            match row.kind.as_str() {
                "dispatch" => b.add("sim.dispatch_ms", row.total_ns as f64 / 1e6),
                "usage_tick" => b.add("sim.usage_tick_ms", row.total_ns as f64 / 1e6),
                _ => {}
            }
            b.add("sim.events", row.count as f64);
        }
    }
}

/// Traced-run probe: `JobGenerator::generate` on its own, with the
/// parameters `CellSim::run_cell` derives for `profile` under `cfg`
/// (capacity read back from the simulated fleet).
pub fn probe_workload_generator(
    b: &mut Bench,
    profile: &CellProfile,
    cfg: &SimConfig,
    simulated: &Trace,
) {
    let params = GenParams {
        capacity: simulated.nominal_capacity(),
        job_rate_per_hour: cfg.job_rate(profile),
        horizon: cfg.horizon,
        task_cap: cfg.task_cap,
        seed: cfg.seed,
    };
    let workload = b.span("workload.generate", |_| {
        JobGenerator::new(profile, params).generate()
    });
    b.add("workload.jobs", workload.jobs.len() as f64);
    let tasks: usize = workload.jobs.iter().map(|j| j.tasks.len()).sum();
    b.add("workload.tasks", tasks as f64);
}
