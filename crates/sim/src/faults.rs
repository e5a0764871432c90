//! Fault injection: machine failure schedules and lossy trace writers.
//!
//! §9 of the paper notes the public traces were scrubbed against "a raft
//! of logical invariants" precisely because real event collection loses,
//! duplicates, and reorders records. This module injects both fault
//! classes deterministically so the ingestion pipeline
//! ([`borg_trace::repair`]) can be tested closed-loop:
//!
//! * **Generation faults** — [`FaultConfig`] + [`FaultInjector`] drive
//!   machine failure/repair as first-class simulation events (wired into
//!   [`crate::cell::CellSim`] via [`crate::event::Ev::MachineFail`]),
//!   including correlated failure domains that take out whole racks and a
//!   fraction of resident tasks that vanish (`Lost`) instead of being
//!   evicted.
//! * **Recording faults** — [`CorruptionConfig`] + [`corrupt_trace`]
//!   model a lossy trace writer: dropped, duplicated, clock-jittered and
//!   reordered rows, truncated tails, and ([`write_trace_dir_lossy`])
//!   garbled CSV lines. Every injected fault is counted in a
//!   [`FaultLedger`] so round-trip tests can reconcile repairs against
//!   ground truth *exactly*, not just statistically.
//!
//! Everything is seeded: the injector and the corruptor each own an
//! independent RNG stream, so enabling faults never perturbs the
//! workload or placement streams, and `faults: None` is bit-identical to
//! a build without this module.

use borg_trace::machine::Platform;
use borg_trace::resources::Resources;
use borg_trace::time::{Micros, MICROS_PER_HOUR};
use borg_trace::trace::Trace;
use borg_workload::cells::FailureModel;
use borg_workload::dist::{Exponential, Sample};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Machine-failure injection parameters (the generation side).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Mean failures per machine per 30 days.
    pub failures_per_machine_month: f64,
    /// Mean time from failure to repair, in hours.
    pub mean_repair_hours: f64,
    /// Machines per correlated failure domain (a rack / power unit).
    pub domain_size: usize,
    /// Fraction of failures that take out the whole domain at once.
    pub correlated_fraction: f64,
    /// Fraction of resident tasks that vanish (`Lost`) with the machine
    /// instead of being evicted and resubmitted.
    pub lost_fraction: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::from_model(&FailureModel::default())
    }
}

impl FaultConfig {
    /// Builds the injection config from a cell profile's failure model.
    pub fn from_model(m: &FailureModel) -> FaultConfig {
        FaultConfig {
            failures_per_machine_month: m.failures_per_machine_month,
            mean_repair_hours: m.mean_repair_hours,
            domain_size: m.domain_size,
            correlated_fraction: m.correlated_fraction,
            lost_fraction: m.lost_fraction,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values, like [`crate::SimConfig::validate`].
    pub fn validate(&self) {
        assert!(
            self.failures_per_machine_month > 0.0,
            "failure rate must be positive"
        );
        assert!(self.mean_repair_hours > 0.0, "repair time must be positive");
        assert!(self.domain_size >= 1, "domain size must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.correlated_fraction),
            "correlated fraction in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.lost_fraction),
            "lost fraction in [0, 1]"
        );
    }
}

/// Per-machine failure state: clocks, saved capacities, and the RNG
/// stream all failure decisions draw from. Owned by the cell simulator
/// when `SimConfig::faults` is set.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    /// Capacity saved while a machine is down (`Some` = down).
    down: Vec<Option<Resources>>,
    /// Original platform of each machine, for re-emitting machine events.
    platforms: Vec<Platform>,
    /// Failure-clock epoch per machine; bumped on every failure so clock
    /// events scheduled before a correlated co-failure are invalidated.
    epoch: Vec<u32>,
}

impl FaultInjector {
    /// A fresh injector for `platforms.len()` machines.
    pub fn new(cfg: FaultConfig, platforms: Vec<Platform>, seed: u64) -> FaultInjector {
        cfg.validate();
        let n = platforms.len();
        FaultInjector {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            down: vec![None; n],
            platforms,
            epoch: vec![0; n],
        }
    }

    /// Number of machines under injection.
    pub fn machine_count(&self) -> usize {
        self.down.len()
    }

    /// True while the machine is failed.
    pub fn is_down(&self, m: usize) -> bool {
        self.down[m].is_some()
    }

    /// Current failure-clock epoch of a machine.
    pub fn epoch(&self, m: usize) -> u32 {
        self.epoch[m]
    }

    /// The machine's hardware platform (as initially sampled).
    pub fn platform(&self, m: usize) -> Platform {
        self.platforms[m]
    }

    /// Marks a machine down, saving its capacity and invalidating any
    /// pending failure clock.
    pub fn begin_failure(&mut self, m: usize, capacity: Resources) {
        debug_assert!(self.down[m].is_none(), "machine already down");
        self.down[m] = Some(capacity);
        self.epoch[m] = self.epoch[m].wrapping_add(1);
    }

    /// Marks a machine repaired, returning the capacity to restore
    /// (`None` when the machine was not down).
    pub fn end_repair(&mut self, m: usize) -> Option<Resources> {
        self.down[m].take()
    }

    /// The correlated failure domain containing machine `m`.
    pub fn domain_of(&self, m: usize) -> std::ops::Range<usize> {
        let ds = self.cfg.domain_size.max(1);
        let start = m / ds * ds;
        start..(start + ds).min(self.machine_count())
    }

    /// Draws whether this failure takes out the whole domain.
    pub fn draw_correlated(&mut self) -> bool {
        self.rng.random_bool(self.cfg.correlated_fraction)
    }

    /// Draws whether a resident task vanishes (`Lost`) with the machine.
    pub fn draw_lost(&mut self) -> bool {
        self.rng.random_bool(self.cfg.lost_fraction)
    }

    /// Time until a machine's next failure: exponential with the
    /// configured per-machine MTBF, floored at one second.
    pub fn sample_failure_gap(&mut self) -> Micros {
        let mtbf_hours = 30.0 * 24.0 / self.cfg.failures_per_machine_month.max(1e-9);
        let s = Exponential::with_mean(mtbf_hours * MICROS_PER_HOUR as f64).sample(&mut self.rng);
        Micros((s.max(1e6)) as u64)
    }

    /// Time from failure to repair: exponential with the configured mean,
    /// floored at one second so a Remove and its Add never share a
    /// timestamp (which would make them look like duplicate-adjacent
    /// rows to downstream dedupe).
    pub fn sample_repair_gap(&mut self) -> Micros {
        let s = Exponential::with_mean(self.cfg.mean_repair_hours * MICROS_PER_HOUR as f64)
            .sample(&mut self.rng);
        Micros((s.max(1e6)) as u64)
    }
}

// ----- lossy trace writer ------------------------------------------------

/// Recording-fault parameters (the lossy-writer side).
#[derive(Debug, Clone)]
pub struct CorruptionConfig {
    /// Fraction of rows silently dropped.
    pub drop_fraction: f64,
    /// Fraction of rows written twice.
    pub duplicate_fraction: f64,
    /// Fraction of adjacent row pairs swapped (buffer reordering).
    pub reorder_fraction: f64,
    /// Fraction of event rows whose timestamp is jittered (clock skew).
    /// Usage windows are never jittered.
    pub jitter_fraction: f64,
    /// Maximum absolute clock jitter.
    pub max_jitter: Micros,
    /// When set, the writer died early: every row later than
    /// `horizon - truncate_tail` is missing.
    pub truncate_tail: Option<Micros>,
    /// Fraction of CSV lines garbled to unparseable bytes (only applied
    /// by [`write_trace_dir_lossy`]).
    pub garble_fraction: f64,
}

impl CorruptionConfig {
    /// A lossy-but-parseable writer: drops, duplicates, and reorders
    /// rows. No jitter and no garbling, so duplicate reconciliation
    /// against the repair report is *exact*.
    pub fn lossy() -> CorruptionConfig {
        CorruptionConfig {
            drop_fraction: 0.05,
            duplicate_fraction: 0.03,
            reorder_fraction: 0.02,
            jitter_fraction: 0.0,
            max_jitter: Micros::ZERO,
            truncate_tail: None,
            garble_fraction: 0.0,
        }
    }

    /// A harsh writer: drops, reorders, clock-jitters, garbles lines,
    /// and dies before the end of the trace. No duplication, so
    /// quarantine reconciliation against garbled counts is *exact*.
    pub fn harsh() -> CorruptionConfig {
        CorruptionConfig {
            drop_fraction: 0.05,
            duplicate_fraction: 0.0,
            reorder_fraction: 0.05,
            jitter_fraction: 0.02,
            max_jitter: Micros::from_secs(5),
            truncate_tail: Some(Micros::from_hours(12)),
            garble_fraction: 0.03,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range fractions.
    pub fn validate(&self) {
        for (name, f) in [
            ("drop", self.drop_fraction),
            ("duplicate", self.duplicate_fraction),
            ("reorder", self.reorder_fraction),
            ("jitter", self.jitter_fraction),
            ("garble", self.garble_fraction),
        ] {
            assert!((0.0..=1.0).contains(&f), "{name} fraction in [0, 1]");
        }
    }
}

/// Ground-truth fault counts for one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableFaults {
    /// Rows silently dropped.
    pub dropped: u64,
    /// Rows written twice.
    pub duplicated: u64,
    /// Rows whose timestamp was jittered.
    pub jittered: u64,
    /// Adjacent row pairs swapped.
    pub reordered: u64,
    /// Rows lost to tail truncation.
    pub truncated: u64,
    /// CSV lines garbled to unparseable bytes.
    pub garbled: u64,
}

impl TableFaults {
    /// Total faults injected into the table.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.jittered
            + self.reordered
            + self.truncated
            + self.garbled
    }
}

/// Every fault injected by [`corrupt_trace`] and
/// [`write_trace_dir_lossy`], per table — the ground truth the chaos
/// round-trip reconciles repair reports and quarantines against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Machine-events table faults.
    pub machine_events: TableFaults,
    /// Collection-events table faults.
    pub collection_events: TableFaults,
    /// Instance-events table faults.
    pub instance_events: TableFaults,
    /// Usage table faults.
    pub usage: TableFaults,
}

impl FaultLedger {
    /// Total faults across all tables.
    pub fn total(&self) -> u64 {
        self.machine_events.total()
            + self.collection_events.total()
            + self.instance_events.total()
            + self.usage.total()
    }

    /// Sum of dropped rows across tables.
    pub fn dropped(&self) -> u64 {
        self.machine_events.dropped
            + self.collection_events.dropped
            + self.instance_events.dropped
            + self.usage.dropped
    }

    /// Sum of duplicated rows across tables.
    pub fn duplicated(&self) -> u64 {
        self.machine_events.duplicated
            + self.collection_events.duplicated
            + self.instance_events.duplicated
            + self.usage.duplicated
    }

    /// Sum of garbled lines across tables.
    pub fn garbled(&self) -> u64 {
        self.machine_events.garbled
            + self.collection_events.garbled
            + self.instance_events.garbled
            + self.usage.garbled
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "faults injected: {} total ({} dropped, {} duplicated, {} garbled)",
            self.total(),
            self.dropped(),
            self.duplicated(),
            self.garbled()
        )
    }

    /// Re-exports the ledger as telemetry counters named
    /// `chaos.{table}.{kind}`. Deterministic plane: the corruption
    /// stream is seeded, so the ledger is a pure function of
    /// (seed, config). Zero tallies are skipped.
    pub fn export_metrics(&self, tel: &mut borg_telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let tables = [
            ("machine_events", &self.machine_events),
            ("collection_events", &self.collection_events),
            ("instance_events", &self.instance_events),
            ("usage", &self.usage),
        ];
        for (table, f) in tables {
            let kinds = [
                ("dropped", f.dropped),
                ("duplicated", f.duplicated),
                ("jittered", f.jittered),
                ("reordered", f.reordered),
                ("truncated", f.truncated),
                ("garbled", f.garbled),
            ];
            for (kind, v) in kinds {
                if v > 0 {
                    tel.count(
                        &format!("chaos.{table}.{kind}"),
                        borg_telemetry::Plane::Deterministic,
                        v,
                    );
                }
            }
        }
    }
}

/// How to write a jittered timestamp back into a row; `None` for tables
/// whose timestamps must stay untouched (usage windows).
type JitterFn<'a, T> = Option<&'a dyn Fn(&mut T, Micros)>;

/// Per-row corruption pipeline shared by every table. The order is
/// load-bearing for exact reconciliation: jitter first (so a duplicate
/// is a copy of the row as written), then the truncation check (so a
/// duplicate pair never straddles the cutoff), then drop, then
/// duplicate (so an injected duplicate is never itself dropped —
/// each `duplicated` count is exactly one surviving extra row).
fn corrupt_rows<T: Copy>(
    rows: &[T],
    cfg: &CorruptionConfig,
    rng: &mut StdRng,
    faults: &mut TableFaults,
    cutoff: Option<Micros>,
    time: impl Fn(&T) -> Micros,
    jitter: JitterFn<'_, T>,
) -> Vec<T> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut row = *row;
        if let Some(set_time) = jitter {
            if cfg.jitter_fraction > 0.0 && rng.random_bool(cfg.jitter_fraction) {
                let amt = (rng.random::<f64>() * 2.0 - 1.0) * cfg.max_jitter.as_micros() as f64;
                let t = time(&row).as_micros() as i64 + amt as i64;
                set_time(&mut row, Micros(t.max(0) as u64));
                faults.jittered += 1;
            }
        }
        if let Some(cut) = cutoff {
            if time(&row) > cut {
                faults.truncated += 1;
                continue;
            }
        }
        if cfg.drop_fraction > 0.0 && rng.random_bool(cfg.drop_fraction) {
            faults.dropped += 1;
            continue;
        }
        out.push(row);
        if cfg.duplicate_fraction > 0.0 && rng.random_bool(cfg.duplicate_fraction) {
            out.push(row);
            faults.duplicated += 1;
        }
    }
    // Buffer reordering: swap a fraction of adjacent pairs, each row in
    // at most one swap.
    if cfg.reorder_fraction > 0.0 {
        let mut i = 0;
        while i + 1 < out.len() {
            if rng.random_bool(cfg.reorder_fraction) {
                out.swap(i, i + 1);
                faults.reordered += 1;
                i += 2;
            } else {
                i += 1;
            }
        }
    }
    out
}

/// Runs a trace through the lossy writer's in-memory faults (drop,
/// duplicate, jitter, reorder, truncate), returning the corrupted trace
/// and the exact ledger of what was done. Garbling is a byte-level
/// fault and only happens in [`write_trace_dir_lossy`].
pub fn corrupt_trace(trace: &Trace, cfg: &CorruptionConfig, seed: u64) -> (Trace, FaultLedger) {
    cfg.validate();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ledger = FaultLedger::default();
    let cutoff = cfg
        .truncate_tail
        .map(|tail| Micros(trace.horizon.as_micros().saturating_sub(tail.as_micros())));
    // The metadata row survives corruption untouched.
    let mut out = Trace {
        cell_name: trace.cell_name.clone(),
        schema: trace.schema,
        horizon: trace.horizon,
        ..Trace::default()
    };
    out.machine_events = corrupt_rows(
        &trace.machine_events,
        cfg,
        &mut rng,
        &mut ledger.machine_events,
        cutoff,
        |e| e.time,
        Some(&|e, t| e.time = t),
    );
    out.collection_events = corrupt_rows(
        &trace.collection_events,
        cfg,
        &mut rng,
        &mut ledger.collection_events,
        cutoff,
        |e| e.time,
        Some(&|e, t| e.time = t),
    );
    out.instance_events = corrupt_rows(
        &trace.instance_events,
        cfg,
        &mut rng,
        &mut ledger.instance_events,
        cutoff,
        |e| e.time,
        Some(&|e, t| e.time = t),
    );
    // Usage windows are never jittered: a half-moved window would be a
    // different record, not a recording fault.
    out.usage = corrupt_rows(
        &trace.usage,
        cfg,
        &mut rng,
        &mut ledger.usage,
        cutoff,
        |r| r.start,
        None,
    );
    (out, ledger)
}

/// Writes a trace directory through the lossy writer's byte-level fault:
/// `cfg.garble_fraction` of data lines per table are garbled so they can
/// never parse (the first field becomes non-numeric), each counted in
/// `ledger`. Combine with [`corrupt_trace`] for row-level faults first.
pub fn write_trace_dir_lossy(
    trace: &Trace,
    dir: &std::path::Path,
    cfg: &CorruptionConfig,
    seed: u64,
    ledger: &mut FaultLedger,
) -> std::io::Result<()> {
    use borg_trace::csv::{FILE_COLLECTION, FILE_INSTANCE, FILE_MACHINE};
    cfg.validate();
    let mut rng = StdRng::seed_from_u64(seed);
    let frac = cfg.garble_fraction;
    borg_trace::csv::write_trace_dir_with(trace, dir, &mut |file, line| {
        if frac > 0.0 && rng.random_bool(frac) {
            line.extend_from_slice(b"##corrupt##");
            let table = match file {
                FILE_MACHINE => &mut ledger.machine_events,
                FILE_COLLECTION => &mut ledger.collection_events,
                FILE_INSTANCE => &mut ledger.instance_events,
                _ => &mut ledger.usage,
            };
            table.garbled += 1;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_trace::collection::{
        CollectionEvent, CollectionId, CollectionType, SchedulerKind, UserId, VerticalScalingMode,
    };
    use borg_trace::priority::Priority;
    use borg_trace::state::EventType;
    use borg_trace::trace::SchemaVersion;

    fn cev(id: u64, time_s: u64, ty: EventType) -> CollectionEvent {
        CollectionEvent {
            time: Micros::from_secs(time_s),
            collection_id: CollectionId(id),
            event_type: ty,
            collection_type: CollectionType::Job,
            priority: Priority::new(200),
            scheduler: SchedulerKind::Default,
            vertical_scaling: VerticalScalingMode::Off,
            parent_id: None,
            alloc_collection_id: None,
            user_id: UserId(0),
        }
    }

    fn toy_trace(n: u64) -> Trace {
        let mut t = Trace::new("toy", SchemaVersion::V3Trace2019, Micros::from_days(1));
        for id in 0..n {
            t.collection_events.push(cev(id, id, EventType::Submit));
            t.collection_events
                .push(cev(id, id + 100_000, EventType::Finish));
        }
        t
    }

    #[test]
    fn ledger_balances_row_counts() {
        let t = toy_trace(500);
        let cfg = CorruptionConfig::lossy();
        let (c, ledger) = corrupt_trace(&t, &cfg, 7);
        let f = ledger.collection_events;
        assert!(f.dropped > 0 && f.duplicated > 0, "{ledger:?}");
        assert_eq!(
            c.collection_events.len() as u64,
            t.collection_events.len() as u64 - f.dropped + f.duplicated
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let t = toy_trace(200);
        let cfg = CorruptionConfig::harsh();
        let (a, la) = corrupt_trace(&t, &cfg, 9);
        let (b, lb) = corrupt_trace(&t, &cfg, 9);
        assert_eq!(a.collection_events, b.collection_events);
        assert_eq!(la, lb);
        let (c, lc) = corrupt_trace(&t, &cfg, 10);
        assert!(c.collection_events != a.collection_events || lc != la);
    }

    #[test]
    fn truncation_cuts_the_tail() {
        let mut t = toy_trace(0);
        t.horizon = Micros::from_hours(100);
        t.collection_events.push(cev(1, 0, EventType::Submit));
        let mut late = cev(1, 0, EventType::Finish);
        late.time = Micros::from_hours(99);
        t.collection_events.push(late);
        let cfg = CorruptionConfig {
            drop_fraction: 0.0,
            duplicate_fraction: 0.0,
            reorder_fraction: 0.0,
            jitter_fraction: 0.0,
            max_jitter: Micros::ZERO,
            truncate_tail: Some(Micros::from_hours(12)),
            garble_fraction: 0.0,
        };
        let (c, ledger) = corrupt_trace(&t, &cfg, 1);
        assert_eq!(ledger.collection_events.truncated, 1);
        assert_eq!(c.collection_events.len(), 1);
        assert!(c.collection_events[0].time < Micros::from_hours(88));
    }

    #[test]
    fn duplicates_are_adjacent_exact_copies() {
        let t = toy_trace(300);
        let mut cfg = CorruptionConfig::lossy();
        cfg.drop_fraction = 0.0;
        cfg.reorder_fraction = 0.0;
        let (c, ledger) = corrupt_trace(&t, &cfg, 3);
        let mut adjacent_dups = 0u64;
        for w in c.collection_events.windows(2) {
            if w[0] == w[1] {
                adjacent_dups += 1;
            }
        }
        assert_eq!(adjacent_dups, ledger.collection_events.duplicated);
    }

    #[test]
    fn lossy_writer_garbles_exactly_counted_lines() {
        let t = toy_trace(400);
        let mut cfg = CorruptionConfig::harsh();
        cfg.drop_fraction = 0.0;
        cfg.jitter_fraction = 0.0;
        cfg.reorder_fraction = 0.0;
        cfg.truncate_tail = None;
        let dir = std::env::temp_dir().join(format!("borg_faults_garble_{}", std::process::id()));
        let mut ledger = FaultLedger::default();
        write_trace_dir_lossy(&t, &dir, &cfg, 5, &mut ledger).unwrap();
        assert!(ledger.collection_events.garbled > 0);
        let (read, quarantine) = borg_trace::csv::read_trace_dir_lenient(&dir);
        assert_eq!(quarantine.total_lines(), ledger.garbled());
        assert_eq!(
            read.collection_events.len() as u64,
            t.collection_events.len() as u64 - ledger.collection_events.garbled
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_writer_refuses_a_cell_name_no_reader_takes_back() {
        let mut t = toy_trace(10);
        t.cell_name = "cell,v3-2019".to_string();
        let dir = std::env::temp_dir().join(format!("borg_faults_name_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ledger = FaultLedger::default();
        let err = write_trace_dir_lossy(&t, &dir, &CorruptionConfig::harsh(), 5, &mut ledger)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("\"cell,v3-2019\""), "{err}");
        assert_eq!(ledger.garbled(), 0, "refused before a line was drawn");
        let left = std::fs::read_dir(&dir).map_or(0, |files| files.count());
        assert_eq!(left, 0, "no file was created");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injector_domains_and_clocks() {
        let cfg = FaultConfig {
            domain_size: 4,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, vec![Platform(0); 10], 11);
        assert_eq!(inj.domain_of(5), 4..8);
        assert_eq!(inj.domain_of(9), 8..10);
        assert!(!inj.is_down(3));
        let e0 = inj.epoch(3);
        inj.begin_failure(3, Resources::new(1.0, 1.0));
        assert!(inj.is_down(3));
        assert_ne!(inj.epoch(3), e0);
        assert_eq!(inj.end_repair(3), Some(Resources::new(1.0, 1.0)));
        assert!(!inj.is_down(3));
        assert_eq!(inj.end_repair(3), None);
        for _ in 0..100 {
            assert!(inj.sample_failure_gap() >= Micros::from_secs(1));
            assert!(inj.sample_repair_gap() >= Micros::from_secs(1));
        }
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        let mut cfg = CorruptionConfig::lossy();
        cfg.drop_fraction = 1.5;
        cfg.validate();
    }
}
