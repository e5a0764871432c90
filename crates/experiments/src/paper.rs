//! The paper's evaluation as one table: every table, figure and section
//! has exactly one entry in [`EXPERIMENTS`], and that entry's `render` is
//! the only place its report text is written. The `paper` binary prints
//! the entries it is asked for; `tests/paper_text.rs` pins their text.
//!
//! Rendered text is a function of `(scale, seed)` alone — no wall-clock,
//! no paths — so it can be pinned; progress and timing are the binary's
//! business and go to stderr.

use crate::{parse_args, ExpOpts};
use borg_analysis::ccdf::Ccdf;
use borg_core::analyses::utilization::{
    averaged_hourly_fractions, diurnal_cycle, hourly_fractions, render_per_cell_bars, Dimension,
    Quantity,
};
use borg_core::analyses::{
    allocs, autoscaling, consumption, correlation, delay, machine_util, queueing, shapes,
    submission, summary, tasks_per_job, terminations, transitions,
};
use borg_core::pipeline::simulate_both_eras;
use borg_core::report::{pct, render_series};
use borg_sim::CellOutcome;
use borg_trace::priority::Tier;
use borg_workload::integral::IntegralModel;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// `println!` into the report text.
macro_rules! say {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// One table, figure or section of the paper.
pub struct Experiment {
    /// What the command line calls it (`figure07`).
    pub id: &'static str,
    /// What the paper calls it (`Figure 7`).
    pub title: &'static str,
    /// One line on what it shows.
    pub what: &'static str,
    /// Appends the report text to the string.
    pub render: fn(&Inputs, &mut String),
}

impl Experiment {
    /// The experiment as `paper` prints it: a header line, the rendered
    /// text, a blank line. The same bytes whether it runs alone or in
    /// the whole battery.
    pub fn section(&self, inputs: &Inputs) -> String {
        let mut out = format!("=== {}: {} ===\n", self.title, self.what);
        (self.render)(inputs, &mut out);
        out.push('\n');
        out
    }
}

/// What the experiments compute from: the options, and the two inputs
/// more than one experiment needs, each produced on first use and kept.
/// Statistical-mode experiments (Figures 11–13, Table 2, §7.3) never
/// touch the simulation.
pub struct Inputs {
    opts: ExpOpts,
    eras: OnceCell<(CellOutcome, Vec<CellOutcome>)>,
    samples_2019: OnceCell<(Vec<f64>, Vec<f64>)>,
}

impl Inputs {
    /// Nothing is computed until an experiment asks for it.
    pub fn new(opts: ExpOpts) -> Inputs {
        Inputs {
            opts,
            eras: OnceCell::new(),
            samples_2019: OnceCell::new(),
        }
    }

    /// Whether an experiment has asked for the simulation yet. It runs
    /// on the first request and is kept, so never more than once.
    pub fn simulated(&self) -> bool {
        self.eras.get().is_some()
    }

    fn eras(&self) -> &(CellOutcome, Vec<CellOutcome>) {
        self.eras
            .get_or_init(|| simulate_both_eras(self.opts.scale, self.opts.seed))
    }

    fn y2011(&self) -> &CellOutcome {
        &self.eras().0
    }

    fn y2019(&self) -> &[CellOutcome] {
        &self.eras().1
    }

    fn refs_2019(&self) -> Vec<&CellOutcome> {
        self.y2019().iter().collect()
    }

    /// `("2011", cell)` then `("a", cell)` … `("h", cell)`.
    fn labelled(&self) -> Vec<(&str, &CellOutcome)> {
        let cells = self.y2019().iter();
        std::iter::once(("2011", self.y2011()))
            .chain(cells.map(|o| (o.metrics.cell_name.as_str(), o)))
            .collect()
    }

    /// Fraction of a full cell the simulation covers; rates are scaled
    /// back up by it.
    fn cell_fraction(&self) -> f64 {
        self.opts.scale.config(self.opts.seed).scale
    }

    /// 1 M 2019 jobs' `(NCU-hours, NMU-hours)`, which Figure 12 and §7.3
    /// both read.
    fn samples_2019(&self) -> &(Vec<f64>, Vec<f64>) {
        self.samples_2019.get_or_init(|| {
            consumption::era_samples(&IntegralModel::model_2019(), 1_000_000, self.opts.seed)
        })
    }

    /// Writes an `(x, y)` series as a two-column CSV into the `--dump`
    /// directory; without one the series is never computed. Errors are
    /// reported, not fatal.
    fn dump(&self, name: &str, series: impl FnOnce() -> Vec<(f64, f64)>) {
        let Some(dir) = &self.opts.dump else {
            return;
        };
        let path = dir.join(format!("{name}.csv"));
        let mut csv = String::from("x,y\n");
        for (x, y) in series() {
            say!(csv, "{x},{y}");
        }
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, csv)) {
            Ok(()) => eprintln!("(wrote {})", path.display()),
            Err(e) => eprintln!("dump: cannot write {}: {e}", path.display()),
        }
    }
}

/// A CCDF in one line: sample count, median, and tail quantiles.
fn ccdf_line(out: &mut String, name: &str, ccdf: &Ccdf) {
    if ccdf.is_empty() {
        say!(out, "{name}: (no samples)");
        return;
    }
    let q = |p: f64| ccdf.quantile_exceeding(p).unwrap_or(f64::NAN);
    say!(
        out,
        "{name}: n={}  median={:.4}  p90={:.4}  p99={:.4}  max={:.4}",
        ccdf.len(),
        ccdf.median().unwrap_or(f64::NAN),
        q(0.10),
        q(0.01),
        ccdf.samples().last().copied().unwrap_or(f64::NAN),
    );
}

/// Every experiment, in the paper's order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    entry("table1", "Table 1", "trace summary comparison", table1),
    entry("figure01", "Figure 1", "machine-shape frequency by CPU and memory", figure01),
    entry("figure02", "Figure 2", "fraction of cell capacity used per hour, by tier", figure02),
    entry("figure03", "Figure 3", "average usage by tier per cell", |inp, out| per_cell_bars(inp, out, Quantity::Usage)),
    entry("figure04", "Figure 4", "fraction of cell capacity allocated per hour", figure04),
    entry("figure05", "Figure 5", "average allocation by tier per cell", |inp, out| per_cell_bars(inp, out, Quantity::Allocation)),
    entry("figure06", "Figure 6", "machine utilization CCDFs at the day-15 snapshot", figure06),
    entry("figure07", "Figure 7", "state-transition counts in cell g", figure07),
    entry("figure08", "Figure 8", "job submissions per hour (full-cell rates)", figure08),
    entry("figure09", "Figure 9", "task submissions per hour, new tasks vs all tasks", figure09),
    entry("figure10", "Figure 10", "job scheduling delay (ready → first task running, seconds)", figure10),
    entry("figure11", "Figure 11", "tasks per job by tier (calibrated model, uncapped)", figure11),
    entry("figure12", "Figure 12", "CCDF of usage-integral per job (log-log)", figure12),
    entry("figure13", "Figure 13", "median NMU-hours per 1-NCU-hour bucket", figure13),
    entry("figure14", "Figure 14", "peak NCU slack (%) by autopilot mode", figure14),
    entry("table2", "Table 2", "per-job NCU-hour / NMU-hour distribution statistics", table2),
    entry("section5", "Section 5", "alloc sets (§5.1) and terminations (§5.2)", section5),
    entry("section7", "Section 7.3", "Pollaczek–Khinchine delays for the measured C²", section7),
];

const fn entry(
    id: &'static str,
    title: &'static str,
    what: &'static str,
    render: fn(&Inputs, &mut String),
) -> Experiment {
    Experiment {
        id,
        title,
        what,
        render,
    }
}

/// `paper`'s command line: the shared options, then the IDs to run.
/// None means all of them; a selection runs in the paper's order, each
/// entry once, so its output is the whole battery's with the other
/// sections left out.
pub fn parse(
    args: impl Iterator<Item = String>,
) -> Result<(ExpOpts, Vec<&'static Experiment>), String> {
    let (opts, ids) = parse_args(args)?;
    if let Some(unknown) = ids
        .iter()
        .find(|id| EXPERIMENTS.iter().all(|e| e.id != *id))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        return Err(format!(
            "unknown experiment {unknown:?}; valid IDs: {}",
            valid.join(" ")
        ));
    }
    let selected = EXPERIMENTS
        .iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id))
        .collect();
    Ok((opts, selected))
}

fn table1(inp: &Inputs, out: &mut String) {
    let s11 = summary::summarize_era("May 2011", &[inp.y2011()]);
    let s19 = summary::summarize_era("May 2019", &inp.refs_2019());
    say!(out, "{}", summary::render_table1(&s11, &s19));
    say!(
        out,
        "note: machine counts are scaled; the real traces cover 12.6k / 96.4k machines."
    );
}

fn figure01(inp: &Inputs, out: &mut String) {
    let bubbles = shapes::shape_bubbles(&inp.refs_2019());
    say!(out, "{}", shapes::render_shapes(&bubbles));
    say!(out, "distinct shapes: {}", bubbles.len());
}

fn figure02(inp: &Inputs, out: &mut String) {
    fn panel(out: &mut String, name: &str, series: &BTreeMap<Tier, Vec<f64>>) {
        say!(
            out,
            "--- {name} (per-tier mean / min / max over hourly points) ---"
        );
        for (tier, xs) in series {
            let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            say!(
                out,
                "{tier:>5}: mean {mean:.3}  min {min:.3}  max {max:.3}  ({} hours)",
                xs.len()
            );
        }
    }
    for (name, o) in inp.labelled() {
        if let Some((strength, peak)) = diurnal_cycle(o) {
            say!(
                out,
                "cell {name:>4}: diurnal strength {strength:.3}, usage peaks near hour {peak:.1}"
            );
        }
    }
    say!(out);
    for (d, dn) in [(Dimension::Cpu, "CPU"), (Dimension::Memory, "memory")] {
        panel(
            out,
            &format!("2011 {dn} usage"),
            &hourly_fractions(inp.y2011(), Quantity::Usage, d),
        );
        let averaged = averaged_hourly_fractions(inp.y2019(), Quantity::Usage, d);
        panel(
            out,
            &format!("2019 {dn} usage (averaged across 8 cells)"),
            &averaged,
        );
        for (tier, series) in &averaged {
            inp.dump(&format!("figure02_2019_{dn}_{tier}"), || {
                let days = series.iter().enumerate();
                days.map(|(h, &v)| (h as f64 / 24.0, v)).collect()
            });
        }
    }
}

/// Figures 3 and 5: the per-cell averages of Figures 2 and 4.
fn per_cell_bars(inp: &Inputs, out: &mut String, q: Quantity) {
    let rows = inp.labelled();
    say!(out, "--- CPU (fraction of cell capacity) ---");
    say!(out, "{}", render_per_cell_bars(&rows, q, Dimension::Cpu));
    say!(out, "--- memory ---");
    say!(out, "{}", render_per_cell_bars(&rows, q, Dimension::Memory));
}

fn figure04(inp: &Inputs, out: &mut String) {
    let total = |m: &BTreeMap<Tier, Vec<f64>>| -> f64 {
        m.values()
            .map(|xs| xs.iter().sum::<f64>() / xs.len().max(1) as f64)
            .sum()
    };
    for (d, dn) in [(Dimension::Cpu, "CPU"), (Dimension::Memory, "memory")] {
        let a2011 = hourly_fractions(inp.y2011(), Quantity::Allocation, d);
        let a2019 = averaged_hourly_fractions(inp.y2019(), Quantity::Allocation, d);
        say!(
            out,
            "{dn}: total allocation 2011 = {:.2} of capacity, 2019 = {:.2} (paper: both above 1.0 in 2019)",
            total(&a2011),
            total(&a2019)
        );
    }
}

fn figure06(inp: &Inputs, out: &mut String) {
    let (y2011, y2019) = (inp.y2011(), inp.y2019());
    say!(out, "--- CPU utilization ---");
    for o in y2019 {
        let name = format!("cell {}", o.metrics.cell_name);
        ccdf_line(out, &name, &machine_util::cpu_ccdf(o));
    }
    ccdf_line(out, "2011", &machine_util::cpu_ccdf(y2011));
    say!(out, "\n--- memory utilization ---");
    for o in y2019 {
        let name = format!("cell {}", o.metrics.cell_name);
        ccdf_line(out, &name, &machine_util::mem_ccdf(o));
    }
    ccdf_line(out, "2011", &machine_util::mem_ccdf(y2011));
    let above_2019: f64 = y2019
        .iter()
        .map(|o| machine_util::fraction_above_cpu(o, 0.8))
        .sum::<f64>()
        / y2019.len() as f64;
    say!(
        out,
        "\nmachines above 80% CPU: 2019 avg {:.3} vs 2011 {:.3} (paper: fewer in 2019)",
        above_2019,
        machine_util::fraction_above_cpu(y2011, 0.8)
    );
}

fn figure07(inp: &Inputs, out: &mut String) {
    let g = inp
        .y2019()
        .iter()
        .find(|o| o.metrics.cell_name == "g")
        .expect("cell g is one of the eight 2019 cells");
    let t = transitions::combined_transitions(g);
    say!(out, "{}", transitions::render_transitions(&t));
    let (max, min) = transitions::spread(&t);
    say!(out, "most common : least common = {max} : {min}");
}

fn figure08(inp: &Inputs, out: &mut String) {
    let scale = inp.cell_fraction();
    let c2011 = submission::job_rate_ccdf(inp.y2011(), scale);
    let agg = submission::aggregate_job_rate_ccdf(inp.y2019(), scale);
    ccdf_line(out, "2011", &c2011);
    ccdf_line(out, "2019 aggregate", &agg);
    for o in inp.y2019() {
        let name = format!("2019 cell {}", o.metrics.cell_name);
        ccdf_line(out, &name, &submission::job_rate_ccdf(o, scale));
    }
    inp.dump("figure08_2011", || c2011.steps());
    inp.dump("figure08_2019_aggregate", || agg.steps());
    let growth = agg.median().unwrap_or(0.0) / c2011.median().unwrap_or(1.0);
    say!(
        out,
        "\nmedian growth 2011 → 2019: {growth:.2}x (paper: 3.7x)"
    );
}

fn figure09(inp: &Inputs, out: &mut String) {
    let scale = inp.cell_fraction();
    let (y2011, y2019) = (inp.y2011(), inp.y2019());
    let (new11, all11) = submission::task_rate_ccdfs(y2011, scale);
    ccdf_line(out, "2011 new tasks", &new11);
    ccdf_line(out, "2011 all tasks", &all11);
    let mut churn19 = 0.0;
    for o in y2019 {
        let (new, all) = submission::task_rate_ccdfs(o, scale);
        ccdf_line(out, &format!("2019 cell {} new", o.metrics.cell_name), &new);
        ccdf_line(out, &format!("2019 cell {} all", o.metrics.cell_name), &all);
        churn19 += submission::churn_ratio(o) / y2019.len() as f64;
    }
    say!(
        out,
        "\nreschedule:new ratio — 2011: {:.2} (paper 0.66), 2019: {:.2} (paper 2.26)",
        submission::churn_ratio(y2011),
        churn19
    );
}

fn figure10(inp: &Inputs, out: &mut String) {
    let refs = inp.refs_2019();
    let d2011 = delay::delay_ccdf(inp.y2011());
    say!(out, "--- by cell ---");
    ccdf_line(out, "2011", &d2011);
    for o in inp.y2019() {
        let name = format!("2019 cell {}", o.metrics.cell_name);
        ccdf_line(out, &name, &delay::delay_ccdf(o));
    }
    ccdf_line(out, "2019 pooled", &delay::pooled_delay_ccdf(&refs));
    say!(out, "\n--- by tier (2019, pooled) ---");
    for (tier, ccdf) in delay::delay_ccdfs_by_tier(&refs) {
        ccdf_line(out, &format!("{tier}"), &ccdf);
        inp.dump(&format!("figure10_{tier}"), || {
            ccdf.linear_series(0.0, 25.0, 100)
        });
    }
    inp.dump("figure10_2011", || d2011.linear_series(0.0, 25.0, 100));
}

fn figure11(inp: &Inputs, out: &mut String) {
    for (tier, ccdf) in tasks_per_job::model_ccdfs(400_000, inp.opts.seed) {
        ccdf_line(out, &format!("{tier}"), &ccdf);
        let p80 = ccdf.quantile_exceeding(0.20).unwrap_or(f64::NAN);
        let p95 = ccdf.quantile_exceeding(0.05).unwrap_or(f64::NAN);
        say!(out, "    80%ile = {p80:.0} tasks, 95%ile = {p95:.0} tasks");
    }
    say!(
        out,
        "\npaper 95%iles: beb 498, mid 67, free 21, prod 3; beb 80%ile 25, others 1"
    );
}

fn figure12(inp: &Inputs, out: &mut String) {
    let (cpu19, mem19) = inp.samples_2019();
    let (cpu11, mem11) =
        consumption::era_samples(&IntegralModel::model_2011(), 1_000_000, inp.opts.seed ^ 1);
    for (name, file, xs) in [
        ("2019 CPU (NCU-hours)", "figure12_2019_cpu", cpu19),
        ("2019 memory (NMU-hours)", "figure12_2019_mem", mem19),
        ("2011 CPU (NCU-hours)", "figure12_2011_cpu", &cpu11),
        ("2011 memory (NMU-hours)", "figure12_2011_mem", &mem11),
    ] {
        let series = consumption::figure12_series(xs, 23);
        say!(out, "{}", render_series(name, &series));
        inp.dump(file, || consumption::figure12_series(xs, 120));
    }
}

fn figure13(inp: &Inputs, out: &mut String) {
    let f = correlation::figure13(1_000_000, inp.opts.seed).expect("figure 13 computes");
    say!(out, "bucket(NCU-h)  median NMU-h  jobs");
    for b in f.buckets.iter().take(30) {
        say!(
            out,
            "{:>8.0}-{:<6.0} {:>12.4} {:>6}",
            b.x_lo,
            b.x_hi,
            b.median_y,
            b.count
        );
    }
    if f.buckets.len() > 30 {
        say!(out, "... ({} buckets total)", f.buckets.len());
    }
    say!(
        out,
        "\nPearson correlation of bucketed medians: {:.3} (paper: 0.97)",
        f.pearson
    );
}

fn figure14(inp: &Inputs, out: &mut String) {
    let refs = inp.refs_2019();
    for (mode, ccdf) in autoscaling::slack_ccdfs(&refs) {
        ccdf_line(out, mode.name(), &ccdf);
        inp.dump(&format!("figure14_{}", mode.name()), || {
            ccdf.linear_series(0.0, 100.0, 101)
        });
    }
    if let Some(r) = autoscaling::full_vs_manual_median_reduction(&refs) {
        say!(
            out,
            "\nmedian slack reduction, fully autoscaled vs manual: {r:.1} points (paper: >25)"
        );
    }
}

fn table2(inp: &Inputs, out: &mut String) {
    let seed = inp.opts.seed;
    let cols = consumption::table2(2_000_000, seed).expect("table 2 computes");
    say!(out, "{}", consumption::render_table2(&cols));
    // Load-concentration summary (extension): Gini coefficients.
    let (cpu19, _) = consumption::era_samples(&IntegralModel::model_2019(), 500_000, seed);
    let (cpu11, _) = consumption::era_samples(&IntegralModel::model_2011(), 500_000, seed ^ 3);
    let gini = |xs: Vec<f64>| borg_analysis::gini(&Ccdf::from_samples(xs));
    say!(
        out,
        "Gini coefficient of per-job CPU consumption: 2011 {:.4}, 2019 {:.4}",
        gini(cpu11).unwrap_or(f64::NAN),
        gini(cpu19).unwrap_or(f64::NAN),
    );
    say!(out, "paper: C^2 = 8375/11001 (2011), 23312/43476 (2019); alpha = 0.77/0.72, 0.69/0.72; top-1% load > 97%");
}

fn section5(inp: &Inputs, out: &mut String) {
    fn row(out: &mut String, what: &str, fraction: f64, paper: &str) {
        say!(out, "{what}: {} ({paper})", pct(fraction));
    }
    let refs = inp.refs_2019();

    let a = allocs::alloc_stats(&refs);
    say!(out, "--- §5.1 alloc sets (paper values in parentheses) ---");
    row(
        out,
        "alloc sets among collections",
        a.alloc_set_collection_fraction,
        "2%",
    );
    row(
        out,
        "alloc sets' share of CPU allocation",
        a.alloc_cpu_allocation_share,
        "20%",
    );
    row(
        out,
        "alloc sets' share of RAM allocation",
        a.alloc_mem_allocation_share,
        "18%",
    );
    row(
        out,
        "jobs running in an alloc set",
        a.jobs_in_alloc_fraction,
        "15%",
    );
    row(
        out,
        "of those, production tier",
        a.in_alloc_prod_fraction,
        "95%",
    );
    say!(
        out,
        "memory utilization in-alloc vs others: {} vs {} (73% vs 41%)",
        pct(a.mem_fill_in_alloc),
        pct(a.mem_fill_outside)
    );

    let t = terminations::termination_stats(&refs);
    say!(out, "\n--- §5.2 terminations ---");
    row(
        out,
        "collections with any eviction",
        t.collections_with_evictions,
        "3.2%",
    );
    row(
        out,
        "evicted collections below production",
        t.evicted_nonprod_fraction,
        "96.6%",
    );
    row(
        out,
        "production collections evicted",
        t.prod_collections_evicted,
        "<0.2%",
    );
    row(
        out,
        "evicted collections with exactly one eviction",
        t.single_eviction_fraction,
        "52%",
    );
    row(out, "kill rate with parent", t.kill_rate_with_parent, "87%");
    row(
        out,
        "kill rate without parent",
        t.kill_rate_without_parent,
        "41%",
    );
}

fn section7(inp: &Inputs, out: &mut String) {
    let (cpu19, _) = inp.samples_2019();
    let rows = queueing::queueing_rows(cpu19, &[0.1, 0.3, 0.5, 0.7, 0.9]).expect("valid loads");
    say!(
        out,
        "{:>5} {:>16} {:>16} {:>12}",
        "rho",
        "delay (full)",
        "delay (mice)",
        "benefit"
    );
    for r in rows {
        say!(
            out,
            "{:>5.1} {:>16.1} {:>16.4} {:>12.0}x",
            r.rho,
            r.delay_full,
            r.delay_mice,
            r.benefit
        );
    }
    say!(
        out,
        "\ndelays in units of mean service time; 'mice' = bottom 99% of jobs with hogs isolated"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let (_, selected) = parse(args.iter().map(|s| s.to_string()))?;
        Ok(selected.iter().map(|e| e.id).collect())
    }

    #[test]
    fn no_id_selects_every_experiment_once() {
        let all = ids(&["--scale", "tiny"]).unwrap();
        assert_eq!(all.len(), 18);
        assert_eq!((all[0], all[17]), ("table1", "section7"));
        let distinct: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), 18);
    }

    #[test]
    fn unknown_id_is_an_error_naming_the_valid_ones() {
        let err = ids(&["figure07", "figure15"]).unwrap_err();
        assert!(err.contains("\"figure15\""), "{err}");
        assert!(err.contains("table1") && err.contains("section7"), "{err}");
    }

    #[test]
    fn repeated_and_reordered_ids_select_each_once_in_paper_order() {
        let selected = ids(&["section5", "figure07", "--seed", "3", "section5"]).unwrap();
        assert_eq!(selected, ["figure07", "section5"]);
    }
}
