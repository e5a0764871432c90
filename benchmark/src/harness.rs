//! What every workload shares: repeated set-up, the iteration loop, the
//! timed sections with their host-speed calibration, the output-check
//! tally, and the per-layer values that end up in the result line.

use crate::calibrate::Calibrator;
use crate::host::{self, RssProbe};
use crate::spans::{self, Open, Tracer};
use crate::stats;
use borg_core::pipeline::SimScale;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest timed iterations a batch workload may report a median over.
const MIN_ITERATIONS: usize = 3;

/// Command-line options.
pub struct Opts {
    /// Workload name (one of [`crate::contract::WORKLOADS`]).
    pub workload: String,
    /// Seed for the input generators only: cell seeds, corruption seed,
    /// cold-plan constants, client order.
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// `--check`: tiny inputs, one iteration, every output check on.
    pub check: bool,
    /// Where CSV fixtures and the trace file go (inside the checkout).
    pub out_dir: PathBuf,
}

/// Input sizes: the measured ones, or the tiny ones `--check` uses.
pub struct Sizes {
    /// Machines of the one fleet every single-cell workload simulates.
    pub fleet_machines: u64,
    /// Machines of the fleet the traced shard sweep runs on (auto-sharding
    /// needs 512 machines per shard).
    pub shard_sweep_machines: u64,
    /// Simulated hours of those fleets.
    pub cell_hours: u64,
    /// Fleet scale of the nine-cell paper pipeline.
    pub paper: SimScale,
    /// Simulated hours of the nine paper cells.
    pub paper_hours: u64,
    /// Divisor on the synthetic sample counts of Table 2, Fig. 11/13, §7.3
    /// (`experiments/all.rs` draws 2M / 400k / 1M / 1M).
    pub sample_div: usize,
    /// Queries in the virtual-time overload run.
    pub overload_queries: usize,
}

/// Rounds in a run: set-up (fixture build plus one untimed warm-up
/// iteration) is done this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// A timed section starts with a fresh calibration sample when the last
/// one is older than this.
const CALIBRATION_MAX_AGE: Duration = Duration::from_millis(400);

/// Span groups: `SETUP_GROUP + r` is set-up repeat `r`, `PROBE_GROUP + n`
/// the `n`th one-off probe, `ITERATION_GROUP + i` timed iteration `i`;
/// `serve_closed` numbers its queries from `QUERY_GROUP`.
const SETUP_GROUP: u64 = 1;
const PROBE_GROUP: u64 = 50;
pub const ITERATION_GROUP: u64 = 100;
pub const QUERY_GROUP: u64 = 1_000_000;

/// Where in the run the workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// A round's fixture build and warm-up.
    Setup,
    /// Timed iteration number.
    Iteration(usize),
    /// After the rounds: one-off traced probes.
    Probes,
}

/// One timed iteration.
struct Iteration {
    /// Spans were recorded (every other iteration of a traced run).
    recorded: bool,
    /// Seconds inside [`Bench::measure`].
    raw_s: f64,
    /// What raw seconds are divided by: see [`Bench::end`].
    scale: f64,
}

impl Iteration {
    fn normalised_s(&self) -> f64 {
        self.raw_s / self.scale
    }
}

/// What `raw` seconds are divided by to report them at nominal host speed
/// and nominal input size: the host ran `slowness` times slower than
/// nominal, and all but `fixed_s` of the seconds went into an input
/// `input_share` times the nominal size.
fn reporting_divisor(slowness: f64, input_share: f64, raw: f64, fixed_s: f64) -> f64 {
    let at_nominal_input = (raw - fixed_s) / input_share + fixed_s;
    slowness * raw / at_nominal_input
}

/// Runs one workload and gathers its result.
pub struct Bench {
    /// Options of this run.
    pub opts: Opts,
    /// Span recorder (recording only in traced runs).
    pub tracer: Tracer,
    calibrator: Calibrator,
    /// Slowness samples since the current iteration or set-up repeat began.
    samples: Vec<f64>,
    last_calibration: Instant,
    /// Seconds spent inside the calibration kernel so far.
    calibrating_s: f64,
    /// Seconds inside `measure` in the current iteration.
    measured_s: f64,
    /// Seconds inside `measure_fixed` in the current iteration.
    fixed_s: f64,
    /// Input rows of the current iteration over the workload's nominal
    /// count (1 until [`Bench::input_rows`] says otherwise).
    input_share: f64,
    phase: Phase,
    /// `(raw, normalised)` seconds per set-up repeat.
    setups: Vec<(f64, f64)>,
    iterations: Vec<Iteration>,
    probes: u64,
    /// What the span times of a group are divided by.
    group_scale: BTreeMap<u64, f64>,
    span_depth: usize,
    attempted: u64,
    failed: u64,
    layer: BTreeMap<String, f64>,
    /// Counts added inside traced iterations, summed over them.
    iteration_counts: BTreeMap<String, f64>,
    module_rss: BTreeMap<&'static str, f64>,
    /// Highest resident set seen by a traced run's probes (they reset the
    /// kernel's high-water mark, so `VmHWM` at exit is not the peak).
    peak_rss_mb: f64,
}

impl Bench {
    pub fn new(opts: Opts) -> Bench {
        Bench {
            tracer: Tracer::new(opts.traced),
            opts,
            calibrator: Calibrator::new(),
            samples: Vec::new(),
            last_calibration: Instant::now(),
            calibrating_s: 0.0,
            measured_s: 0.0,
            fixed_s: 0.0,
            input_share: 1.0,
            phase: Phase::Setup,
            setups: Vec::new(),
            iterations: Vec::new(),
            probes: 0,
            group_scale: BTreeMap::new(),
            span_depth: 0,
            attempted: 0,
            failed: 0,
            layer: BTreeMap::new(),
            iteration_counts: BTreeMap::new(),
            module_rss: BTreeMap::new(),
            peak_rss_mb: 0.0,
        }
    }

    /// Input sizes for this run.
    pub fn sizes(&self) -> Sizes {
        if self.opts.check {
            Sizes {
                fleet_machines: 64,
                shard_sweep_machines: 128,
                cell_hours: 6,
                paper: SimScale::Tiny,
                paper_hours: 12,
                sample_div: 50,
                overload_queries: 5_000,
            }
        } else {
            Sizes {
                fleet_machines: 512,
                shard_sweep_machines: 1024,
                cell_hours: 24,
                paper: SimScale::Small,
                paper_hours: 24,
                sample_div: 2,
                overload_queries: 100_000,
            }
        }
    }

    /// The timed iteration in progress; `None` during set-up and warm-up.
    pub fn iteration(&self) -> Option<usize> {
        match self.phase {
            Phase::Iteration(i) => Some(i),
            _ => None,
        }
    }

    /// Counts one output check; a failed one is reported on stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Counts `n` operations of which `bad` failed (serve queries).
    pub fn count_operations(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Sets a per-layer metric that is not a span self time.
    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Adds to a per-layer count. Inside the loop only traced iterations
    /// count, and the result is reported per iteration; set-up and warm-up
    /// count nothing.
    pub fn add(&mut self, name: &str, value: f64) {
        let counts = match self.phase {
            Phase::Probes => &mut self.layer,
            Phase::Iteration(_) if self.tracer.recording => &mut self.iteration_counts,
            _ => return,
        };
        *counts.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Runs `f` inside a span named `<module>.<what>`. An outermost span
    /// of a traced iteration also samples its module's peak memory.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Bench) -> T) -> T {
        let in_iteration = matches!(self.phase, Phase::Iteration(_));
        let probe =
            (in_iteration && self.tracer.recording && self.span_depth == 0).then(RssProbe::start);
        let open: Open = self.tracer.enter(name);
        self.span_depth += 1;
        let out = f(self);
        self.span_depth -= 1;
        self.tracer.exit(open);
        if let Some(probe) = probe {
            let module = name.split('.').next().unwrap_or(name);
            let mib = probe.finish();
            self.peak_rss_mb = self.peak_rss_mb.max(mib);
            let peak = self.module_rss.entry(module).or_insert(0.0);
            *peak = peak.max(mib);
        }
        out
    }

    /// Runs `f` with span and count recording off: for output checks that
    /// call back into the layers.
    pub fn unrecorded<T>(&mut self, f: impl FnOnce(&mut Bench) -> T) -> T {
        let (recording, phase) = (self.tracer.recording, self.phase);
        self.tracer.recording = false;
        self.phase = Phase::Setup;
        let out = f(self);
        self.tracer.recording = recording;
        self.phase = phase;
        out
    }

    /// Takes one host-slowness sample.
    fn calibrate(&mut self) {
        let t = Instant::now();
        self.samples.push(self.calibrator.slowness());
        self.last_calibration = Instant::now();
        self.calibrating_s += t.elapsed().as_secs_f64();
    }

    /// Starts an iteration or set-up repeat: its slowness samples begin
    /// with one taken just now.
    fn begin(&mut self) {
        let latest = self.samples.last().copied();
        self.samples.clear();
        match latest {
            Some(s) if self.last_calibration.elapsed() < Duration::from_millis(20) => {
                self.samples.push(s);
            }
            _ => self.calibrate(),
        }
        self.measured_s = 0.0;
        self.fixed_s = 0.0;
        self.input_share = 1.0;
    }

    /// Ends what [`Bench::begin`] started with one more sample and returns
    /// what `raw` seconds of it are divided by to give reported seconds:
    /// the mean host slowness over it, and for the `fixed_s` of them that
    /// do not depend on the input nothing else, for the rest also the
    /// input's share of the nominal size.
    fn end(&mut self, raw: f64, fixed_s: f64) -> f64 {
        self.calibrate();
        let slowness = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        reporting_divisor(slowness, self.input_share, raw, fixed_s)
    }

    /// States the size of the input the current iteration (or set-up
    /// repeat) works on. A seed's cell-day is anywhere within a tenth of
    /// `nominal` rows, and nearly everything the pipeline does costs time
    /// per row, so seconds are reported at the nominal size: divided by
    /// `rows / nominal`.
    pub fn input_rows(&mut self, rows: usize, nominal: usize) {
        self.input_share = rows as f64 / nominal as f64;
    }

    /// Times `f` as part of the current iteration. Output checks run
    /// outside it, so they cost the run time but not the metric.
    pub fn measure<T>(&mut self, f: impl FnOnce(&mut Bench) -> T) -> T {
        debug_assert_eq!(self.span_depth, 0, "measure is not called inside a span");
        if self.last_calibration.elapsed() > CALIBRATION_MAX_AGE {
            self.calibrate();
        }
        let open = self.tracer.enter("harness.measure");
        let t = Instant::now();
        let out = f(self);
        self.measured_s += t.elapsed().as_secs_f64();
        self.tracer.exit(open);
        out
    }

    /// [`Bench::measure`] for work whose size no seed changes (the
    /// analyses over synthetic samples): timed, but not scaled by
    /// [`Bench::input_rows`].
    pub fn measure_fixed<T>(&mut self, f: impl FnOnce(&mut Bench) -> T) -> T {
        let before = self.measured_s;
        let out = self.measure(f);
        self.fixed_s += self.measured_s - before;
        out
    }

    /// The run: `setup` builds the fixture and `body` is one iteration
    /// (timed sections inside [`Bench::measure`], output checks outside).
    /// A run is [`SETUP_REPEATS`] rounds, each a set-up — fixture plus one
    /// untimed warm-up call of `body` — followed by timed calls of `body`
    /// on that fixture until the round's share of `--seconds` has passed;
    /// the last round goes on until [`MIN_ITERATIONS`] ran. Spreading the
    /// iterations over the fixtures keeps one fixture's luck (where it
    /// landed in memory, what the neighbours did while it was built) from
    /// deciding the run. In a traced run every other iteration records
    /// spans; the rest are the untraced side of
    /// `harness.trace_overhead_share`. `--check` is one round of one
    /// iteration. Returns the last fixture.
    pub fn run<F>(
        &mut self,
        mut setup: impl FnMut(&mut Bench) -> F,
        mut body: impl FnMut(&mut Bench, &mut F),
    ) -> F {
        let rounds = if self.opts.check { 1 } else { SETUP_REPEATS };
        let mut last = None;
        for r in 0..rounds {
            // Two fixtures alive at once would double the peak.
            drop(last.take());
            self.phase = Phase::Setup;
            self.tracer.recording = self.opts.traced;
            self.tracer.group = SETUP_GROUP + r as u64;
            self.begin();
            let (t, calibrating_before) = (Instant::now(), self.calibrating_s);
            let mut fixture = setup(self);
            self.tracer.recording = false;
            body(self, &mut fixture);
            let raw = t.elapsed().as_secs_f64() - (self.calibrating_s - calibrating_before);
            let scale = self.end(raw, self.fixed_s);
            self.group_scale.insert(self.tracer.group, scale);
            self.setups.push((raw, raw / scale));

            let window = Instant::now();
            loop {
                let i = self.iterations.len();
                self.phase = Phase::Iteration(i);
                self.tracer.recording = self.opts.traced && i.is_multiple_of(2);
                self.tracer.group = ITERATION_GROUP + i as u64;
                self.begin();
                body(self, &mut fixture);
                let scale = self.end(self.measured_s, self.fixed_s);
                self.group_scale.insert(self.tracer.group, scale);
                self.iterations.push(Iteration {
                    recorded: self.tracer.recording,
                    raw_s: self.measured_s,
                    scale,
                });
                let share_spent =
                    window.elapsed().as_secs_f64() >= self.opts.seconds / rounds as f64;
                let enough = r + 1 < rounds || i + 1 >= MIN_ITERATIONS;
                if self.opts.check || (share_spent && enough) {
                    break;
                }
            }
            last = Some(fixture);
        }
        self.phase = Phase::Probes;
        self.tracer.recording = self.opts.traced;
        self.tracer.group = 0;
        last.expect("at least one round")
    }

    /// Runs a one-off probe of a traced run between two calibration samples
    /// and returns its result with its normalised seconds. The spans inside
    /// get a group of their own.
    pub fn probe<T>(&mut self, f: impl FnOnce(&mut Bench) -> T) -> (T, f64) {
        self.tracer.group = PROBE_GROUP + self.probes;
        self.probes += 1;
        self.begin();
        let t = Instant::now();
        let out = f(self);
        let raw = t.elapsed().as_secs_f64();
        let scale = self.end(raw, 0.0);
        self.group_scale.insert(self.tracer.group, scale);
        self.tracer.group = 0;
        (out, raw / scale)
    }

    /// Median normalised seconds per iteration on one side of the tracing
    /// switch.
    fn median_iteration_s(&self, recorded: bool) -> f64 {
        let times: Vec<f64> = self
            .iterations
            .iter()
            .filter(|it| it.recorded == recorded)
            .map(Iteration::normalised_s)
            .collect();
        stats::median(&times)
    }

    /// `wall_s` as seen so far: the median over the untraced iterations
    /// (all of them in an end-to-end run).
    pub fn wall_s(&self) -> f64 {
        self.median_iteration_s(false)
    }

    /// Prints the result and returns whether every check passed. The last
    /// line of standard output is the machine-readable result.
    pub fn finish(
        mut self,
        end_to_end: &[(&'static str, &'static str); 2],
        per_layer: &[(&'static str, &'static str)],
    ) -> bool {
        let fp = host::Fingerprint::read();
        let pairs = fp.pairs();
        let header: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        println!(
            "pipeline-bench workload={} seed={} seconds={} traced={} check={}",
            self.opts.workload,
            self.opts.seed,
            self.opts.seconds,
            u8::from(self.opts.traced),
            u8::from(self.opts.check),
        );
        println!("host: {}", header.join(" "));
        let list = |xs: &[f64]| -> String {
            let shown: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
            shown.join(" ")
        };
        let raw: Vec<f64> = self.iterations.iter().map(|it| it.raw_s).collect();
        let scales: Vec<f64> = self.iterations.iter().map(|it| it.scale).collect();
        println!(
            "iterations: {} timed after {} set-up(s); raw seconds median {:.4} [{}]; divided by [{}] (host slowness x input share)",
            raw.len(),
            self.setups.len(),
            stats::median(&raw),
            list(&raw),
            list(&scales),
        );
        let setup_raw: Vec<f64> = self.setups.iter().map(|s| s.0).collect();
        println!("set-ups: raw seconds [{}]", list(&setup_raw));

        let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
        if self.opts.traced {
            self.fold_spans_into_layers();
            let spans = self.tracer.spans();
            println!("module shares of self time (traced iterations):");
            for (module, share) in spans::module_shares(spans, ITERATION_GROUP..QUERY_GROUP) {
                println!("  {module:<10} {:6.2}%", share * 100.0);
            }
            let mut meta: Vec<(&str, String)> =
                pairs.iter().map(|(k, v)| (*k, v.clone())).collect();
            meta.push(("workload", self.opts.workload.clone()));
            meta.push(("seed", self.opts.seed.to_string()));
            let path = self
                .opts
                .out_dir
                .join(format!("trace-{}.json", self.opts.workload));
            match std::fs::write(&path, spans::chrome_json(spans, &meta)) {
                Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
                Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
            }
            for &(name, unit) in per_layer {
                metrics.push((name, self.layer.get(name).copied().unwrap_or(0.0), unit));
            }
        } else {
            let setup_s: Vec<f64> = self.setups.iter().map(|s| s.1).collect();
            let values = [stats::median(&setup_s), self.wall_s()];
            for (&(name, unit), value) in end_to_end.iter().zip(values) {
                metrics.push((name, value, unit));
            }
            // Not a metric: it follows the seed's input size too closely to
            // repeat (`harness.peak_rss_mb` of the traced run is the record).
            println!("peak resident set (VmHWM): {:.1} MiB", host::peak_rss_mib());
        }
        for (name, value, unit) in &metrics {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        let fail_share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "checks: attempted {} failed {} fail_share {fail_share}",
            self.attempted, self.failed
        );

        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(",")
        );
        self.failed == 0
    }

    /// Turns recorded spans into `<span name>_ms` values (self time summed
    /// per iteration, set-up repeat or probe, divided like that one's
    /// seconds, median over them), adds the per-module peak memory, and the tracing
    /// overhead.
    fn fold_spans_into_layers(&mut self) {
        let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((group, name), ms) in spans::self_ms_by_group_and_name(self.tracer.spans()) {
            let scale = self.group_scale.get(&group).copied().unwrap_or(1.0);
            per_name.entry(name).or_default().push(ms / scale);
        }
        for (name, sums) in per_name {
            self.layer
                .entry(format!("{name}_ms"))
                .or_insert(stats::median(&sums));
        }
        for (module, mib) in std::mem::take(&mut self.module_rss) {
            self.layer
                .entry(format!("{module}.peak_rss_mb"))
                .or_insert(mib);
        }
        let traced_iterations = self.iterations.iter().filter(|it| it.recorded).count();
        for (name, total) in std::mem::take(&mut self.iteration_counts) {
            self.layer
                .entry(name)
                .or_insert(total / traced_iterations.max(1) as f64);
        }
        self.layer
            .insert("harness.peak_rss_mb".to_string(), self.peak_rss_mb);
        self.layer.insert(
            "harness.fail_share".to_string(),
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        let (on, off) = (
            self.median_iteration_s(true),
            self.median_iteration_s(false),
        );
        if on > 0.0 && off > 0.0 {
            self.layer
                .entry("harness.trace_overhead_share".to_string())
                .or_insert(on / off - 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_seconds_are_at_nominal_speed_and_size() {
        // A quiet host and a nominal input change nothing.
        assert_eq!(reporting_divisor(1.0, 1.0, 10.0, 0.0), 1.0);
        // A host 25% slow: 10 s were 8 s of nominal-speed work.
        assert_eq!(10.0 / reporting_divisor(1.25, 1.0, 10.0, 0.0), 8.0);
        // An input at 80% of nominal: 8 s would have been 10 s.
        assert_eq!(8.0 / reporting_divisor(1.0, 0.8, 8.0, 0.0), 10.0);
        // Both, with 2 of the 10 s spent on work no input changes:
        // (8 / 0.8 + 2) / 1.25.
        let reported = 10.0 / reporting_divisor(1.25, 0.8, 10.0, 2.0);
        assert!((reported - 9.6).abs() < 1e-12, "{reported}");
    }
}
