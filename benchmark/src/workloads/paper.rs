//! `paper_small`: the whole paper pipeline on `SimScale::Small` fleets —
//! both eras simulated (1 + 8 cells of 48 machines), every trace written
//! to CSV and loaded back through the repairing reader, turned into query
//! tables, run through the SQL battery, and every analysis
//! `experiments/all.rs` runs. The headline for someone regenerating the
//! tables and figures. It uses `borg-sim` the opposite way to
//! `cell_day_512`: many tiny fleets in parallel across cells.
//!
//! Sized to fit the run budget: the seven-day horizon of `SimScale::Small`
//! makes 5.7M trace rows and 36 s per iteration on a 2-core host, so the
//! cells run for one day and the synthetic sample counts are half of
//! `all.rs`'s. The shape is kept: no module has most of the time.

use super::battery::{build_tables, run_battery};
use super::{
    paper_cfg, probe_workload_generator, record_sim_telemetry, remove_scratch, scratch_dir,
};
use crate::digest::trace_digest;
use crate::harness::Bench;
use crate::spans::Span;
use borg_core::analyses::utilization::{render_per_cell_bars, Dimension, Quantity};
use borg_core::analyses::{
    allocs, autoscaling, consumption, correlation, delay, machine_util, queueing, shapes,
    submission, summary, tasks_per_job, terminations, transitions,
};
use borg_core::pipeline::load_trace_dir_with;
use borg_sim::{run_cells_parallel, CellOutcome, CellSim, SimConfig};
use borg_telemetry::Telemetry;
use borg_trace::csv::write_trace_dir;
use borg_trace::validate::validate;
use borg_workload::cells::CellProfile;
use borg_workload::integral::IntegralModel;
use std::hint::black_box;
use std::path::PathBuf;

/// Trace rows of the nine cells together: the mean over seeds 100–109,
/// rounded (see [`Bench::input_rows`]).
const NOMINAL_ROWS: usize = 570_000;

pub fn run(b: &mut Bench) {
    let sizes = b.sizes();
    let seed = b.opts.seed;
    let cfg = paper_cfg(&sizes, seed);
    let cfg_2011 = SimConfig {
        seed: seed ^ 0x2011,
        ..cfg.clone()
    };
    let p2011 = CellProfile::cell_2011();
    let p2019 = CellProfile::all_2019();
    let cell_scale = cfg.scale;
    let mut reference: Option<u64> = None;

    b.run(
        // One CSV directory per cell.
        |b| -> Vec<PathBuf> {
            (0..1 + p2019.len())
                .map(|i| scratch_dir(b, &format!("cell-{i}")))
                .collect()
        },
        |b, dirs| {
            let outcomes = b.measure(|b| {
                let mut outcomes = vec![b.span("sim.run_cell_2011", |_| {
                    CellSim::run_cell(&p2011, &cfg_2011)
                })];
                outcomes.extend(b.span("sim.run_cells_parallel", |_| {
                    run_cells_parallel(&p2019, &cfg)
                }));
                outcomes
            });
            // One timed section per cell, so a calibration sample is never
            // far from the work it normalises.
            let mut loaded_rows = 0u64;
            for (o, dir) in outcomes.iter().zip(dirs.iter()) {
                loaded_rows += b.measure(|b| {
                    b.span("trace.write", |_| {
                        write_trace_dir(&o.trace, dir).expect("trace directory written")
                    });
                    let (trace, rows) = load_traced(b, dir);
                    let tables = build_tables(b, &trace);
                    black_box(run_battery(b, &tables));
                    rows
                });
            }
            analyses(b, &outcomes, cell_scale, seed, sizes.sample_div);

            // Output checks, outside the timed sections.
            let mut digest = 0u64;
            let mut rows = 0usize;
            for o in &outcomes {
                let (d, _) = trace_digest(&o.trace);
                digest = digest.rotate_left(7) ^ d;
                rows += super::trace_rows(&o.trace);
            }
            b.input_rows(rows, NOMINAL_ROWS);
            b.check(
                &format!("CSV round trip keeps every row: wrote {rows}, loaded {loaded_rows}"),
                rows as u64 == loaded_rows,
            );
            match reference {
                None => {
                    let violations: usize = outcomes.iter().map(|o| validate(&o.trace).len()).sum();
                    b.check(
                        &format!("validate: {violations} violation(s)"),
                        violations == 0,
                    );
                    // The battery's two checked answers, once per cell.
                    b.unrecorded(|b| {
                        for o in &outcomes {
                            let tables = build_tables(b, &o.trace);
                            run_battery(b, &tables).check(b, o);
                        }
                    });
                    println!("digest sim.traces {digest:016x} ({rows} rows)");
                    reference = Some(digest);
                }
                Some(want) => b.check(
                    "every iteration yields the same trace digests",
                    digest == want,
                ),
            }
            b.set("sim.trace_rows", rows as f64);
        },
    );
    remove_scratch(b);

    if b.opts.traced {
        // The simulator's own telemetry, and the workload generator alone,
        // over the same nine cells.
        let cfg = SimConfig {
            telemetry: true,
            ..cfg
        };
        let cfg_2011 = SimConfig {
            telemetry: true,
            ..cfg_2011
        };
        let mut outcomes = vec![CellSim::run_cell(&p2011, &cfg_2011)];
        outcomes.extend(run_cells_parallel(&p2019, &cfg));
        let refs: Vec<&CellOutcome> = outcomes.iter().collect();
        record_sim_telemetry(b, &refs);
        probe_workload_generator(b, &p2011, &cfg_2011, &outcomes[0].trace);
        for (p, o) in p2019.iter().zip(&outcomes[1..]) {
            probe_workload_generator(b, p, &cfg, &o.trace);
        }
    }
}

/// `core::pipeline::load_trace_dir` under a `core.load_trace_dir` span.
/// In a traced iteration the loader's own stage timings (its public
/// telemetry output) become the `trace.read_lenient` and
/// `trace.repair_clean` child spans, so the reader's time is charged to
/// `borg-trace` and only the glue to `borg-core`. Returns the trace and
/// the rows ingested.
fn load_traced(b: &mut Bench, dir: &std::path::Path) -> (borg_trace::trace::Trace, u64) {
    let recording = b.tracer.recording;
    let start = b.tracer.now_ns();
    let mut tel = Telemetry::new(recording);
    let (trace, quality) = b.span("core.load_trace_dir", |b| {
        let out = load_trace_dir_with(dir, &mut tel);
        if recording {
            let parent = b.tracer.current();
            let snap = tel.snapshot();
            let stage_ns = |path: &str| {
                snap.spans
                    .iter()
                    .find(|s| s.path == path)
                    .map_or(0, |s| s.total_ns)
            };
            let mut at = start;
            for (name, path) in [
                ("trace.read_lenient", "core.load_trace_dir/ingest"),
                ("trace.repair_clean", "core.load_trace_dir/repair"),
            ] {
                let ns = stage_ns(path);
                b.tracer.record(Span {
                    name,
                    start_ns: at,
                    end_ns: at + ns,
                    parent,
                    group: b.tracer.group,
                    lane: 0,
                });
                at += ns;
            }
        }
        out
    });
    b.add("trace.rows_read", quality.rows_ingested as f64);
    b.add(
        "trace.quarantined_lines",
        quality.quarantine.total_lines() as f64,
    );
    b.add(
        "trace.repair_actions",
        quality.repair.total_actions() as f64,
    );
    (trace, quality.rows_ingested)
}

/// Every analysis `experiments/all.rs` runs, rendered but not printed.
fn analyses(
    b: &mut Bench,
    outcomes: &[CellOutcome],
    cell_scale: f64,
    seed: u64,
    sample_div: usize,
) {
    let (y2011, y2019) = outcomes.split_first().expect("nine cells");
    let refs: Vec<&CellOutcome> = y2019.iter().collect();

    b.measure(|b| {
        b.span("analysis.era_analyses", |_| {
            // Table 1, Figure 1.
            let s11 = summary::summarize_era("May 2011", &[y2011]);
            let s19 = summary::summarize_era("May 2019", &refs);
            black_box(summary::render_table1(&s11, &s19));
            let bubbles = shapes::shape_bubbles(&refs);
            black_box(shapes::render_shapes(&bubbles[..bubbles.len().min(5)]));
            // Figures 2-5.
            let mut rows = vec![("2011", y2011)];
            rows.extend(y2019.iter().map(|o| (o.metrics.cell_name.as_str(), o)));
            for quantity in [Quantity::Usage, Quantity::Allocation] {
                for dimension in [Dimension::Cpu, Dimension::Memory] {
                    black_box(render_per_cell_bars(&rows, quantity, dimension));
                }
            }
            // Figure 6.
            black_box(machine_util::cpu_ccdf(y2011));
            for o in y2019 {
                black_box(machine_util::cpu_ccdf(o));
            }
            // Figure 7 (cell g).
            if let Some(g) = y2019.iter().find(|o| o.metrics.cell_name == "g") {
                let t = transitions::combined_transitions(g);
                black_box(transitions::render_transitions(&t));
            }
            // Figures 8 and 9.
            black_box(submission::job_rate_ccdf(y2011, cell_scale));
            black_box(submission::aggregate_job_rate_ccdf(y2019, cell_scale));
            black_box(submission::task_rate_ccdfs(y2011, cell_scale));
            black_box(y2019.iter().map(submission::churn_ratio).sum::<f64>());
            black_box(submission::churn_ratio(y2011));
            // Figure 10.
            black_box(delay::delay_ccdf(y2011));
            black_box(delay::pooled_delay_ccdf(&refs));
            black_box(delay::delay_ccdfs_by_tier(&refs));
            // Figure 14.
            black_box(autoscaling::slack_ccdfs(&refs));
            black_box(autoscaling::full_vs_manual_median_reduction(&refs));
            // Section 5.
            black_box(allocs::alloc_stats(&refs));
            black_box(terminations::termination_stats(&refs));
        })
    });
    // The rest draws synthetic samples of a fixed size.
    b.measure_fixed(|b| synthetic_analyses(b, seed, sample_div));
}

/// Figure 11, Table 2, Figure 13 and §7.3: no simulated cell goes in.
fn synthetic_analyses(b: &mut Bench, seed: u64, sample_div: usize) {
    b.span("analysis.fig11", |_| {
        black_box(tasks_per_job::model_ccdfs(400_000 / sample_div, seed));
    });
    b.span("analysis.table2", |_| {
        let cols = consumption::table2(2_000_000 / sample_div, seed).expect("table 2 computes");
        black_box(consumption::render_table2(&cols));
    });
    b.span("analysis.fig13", |_| {
        black_box(correlation::figure13(1_000_000 / sample_div, seed).expect("figure 13 computes"));
    });
    b.span("analysis.queueing", |_| {
        let (cpu19, _) =
            consumption::era_samples(&IntegralModel::model_2019(), 1_000_000 / sample_div, seed);
        black_box(queueing::queueing_rows(&cpu19, &[0.3, 0.5, 0.7]).expect("valid loads"));
    });
}
