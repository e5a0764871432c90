//! `sql_battery`: the fleet's cell-day, simulated in set-up, turned into
//! query tables and run through the eight-query battery. The instance
//! table is several `parallel::BLOCK_ROWS` long, so `parallel::map_blocks`
//! is live. `borg-query` does nearly all of the work; CSV and the
//! simulator are bypassed.

use super::battery::{build_tables, run_battery};
use super::{fleet_cfg, fleet_profile, trace_rows, FLEET_DAY_ROWS};
use crate::harness::Bench;
use borg_sim::CellSim;

pub fn run(b: &mut Bench) {
    let sizes = b.sizes();
    let profile = fleet_profile();
    let cfg = fleet_cfg(
        &profile,
        sizes.fleet_machines,
        sizes.cell_hours,
        b.opts.seed,
    );
    println!(
        "sql_battery: {} machines, {} query thread(s)",
        cfg.machine_count(&profile),
        borg_query::parallel::num_threads(),
    );

    b.run(
        |_| CellSim::run_cell(&profile, &cfg),
        |b, outcome| {
            b.input_rows(trace_rows(&outcome.trace), FLEET_DAY_ROWS);
            let answers = b.measure(|b| {
                let tables = build_tables(b, &outcome.trace);
                run_battery(b, &tables)
            });
            answers.check(b, outcome);
        },
    );
}
