//! Trace-generation pipeline: profiles → simulated cell-months, plus the
//! repairing ingestion path for reading traces back from disk.

use borg_sim::{CellOutcome, CellSim, FaultConfig, SimConfig};
use borg_telemetry::{Plane, Telemetry};
use borg_trace::csv::Quarantine;
use borg_trace::repair::{repair, RepairReport};
use borg_trace::time::Micros;
use borg_trace::trace::Trace;
use borg_workload::cells::CellProfile;

/// Named simulation scales, wrapping [`SimConfig`] presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimScale {
    /// ~25 machines, 2 days: unit/integration tests and doctests.
    Tiny,
    /// ~48 machines, 7 days: fast experiment previews.
    Small,
    /// ~60 machines, 31 days: the EXPERIMENTS.md configuration.
    Month,
}

impl SimScale {
    /// The test scale.
    pub fn tiny() -> SimScale {
        SimScale::Tiny
    }

    /// Builds the corresponding [`SimConfig`] with the given seed.
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            SimScale::Tiny => SimConfig::tiny_for_tests(seed),
            SimScale::Small => {
                let mut cfg = SimConfig::month(seed);
                cfg.scale = 0.004;
                cfg.horizon = Micros::from_days(7);
                cfg.snapshot_at = Micros::from_days(3) + Micros::from_hours(13);
                cfg
            }
            SimScale::Month => SimConfig::month(seed),
        }
    }
}

/// Simulates one cell at the given scale.
pub fn simulate_cell(profile: &CellProfile, scale: SimScale, seed: u64) -> CellOutcome {
    CellSim::run_cell(profile, &scale.config(seed))
}

/// Simulates the 2011 cell.
pub fn simulate_2011(scale: SimScale, seed: u64) -> CellOutcome {
    simulate_cell(&CellProfile::cell_2011(), scale, seed)
}

/// Simulates all eight 2019 cells in parallel.
pub fn simulate_2019_all(scale: SimScale, seed: u64) -> Vec<CellOutcome> {
    let profiles = CellProfile::all_2019();
    borg_sim::run_cells_parallel(&profiles, &scale.config(seed))
}

/// Simulates both eras: `(the 2011 cell, the eight 2019 cells)`.
pub fn simulate_both_eras(scale: SimScale, seed: u64) -> (CellOutcome, Vec<CellOutcome>) {
    let y2011 = simulate_2011(scale, seed ^ 0x2011);
    let y2019 = simulate_2019_all(scale, seed);
    (y2011, y2019)
}

/// Simulates one cell with its profile's failure model switched on.
///
/// Identical to [`simulate_cell`] except `cfg.faults` is populated from
/// the profile's [`borg_workload::cells::FailureModel`], so machines
/// fail, tasks are evicted or lost, and the emitted trace carries the
/// corresponding `Remove`/`Add` machine events.
pub fn simulate_cell_faulty(profile: &CellProfile, scale: SimScale, seed: u64) -> CellOutcome {
    let cfg = SimConfig {
        faults: Some(FaultConfig::from_model(&profile.failure_model)),
        ..scale.config(seed)
    };
    CellSim::run_cell(profile, &cfg)
}

/// What the ingestion pipeline had to do to a trace read from disk:
/// everything the lenient reader quarantined plus everything
/// [`repair`] changed, against the total row count actually ingested.
///
/// Analyses that consume a loaded trace attach [`DataQuality::annotation`]
/// to their reports so a repaired trace is never mistaken for a clean one.
#[derive(Debug, Clone, Default)]
pub struct DataQuality {
    /// Lines and tables the lenient reader refused to ingest.
    pub quarantine: Quarantine,
    /// Rows deduplicated, synthesized, or dropped by [`repair`].
    pub repair: RepairReport,
    /// Rows across all four tables after ingestion and repair.
    pub rows_ingested: u64,
}

impl DataQuality {
    /// True when nothing was quarantined and repair was a no-op.
    pub fn is_pristine(&self) -> bool {
        self.quarantine.is_clean() && self.repair.is_noop()
    }

    /// Fraction of the final row count that was touched by quarantine
    /// or repair (0.0 for a pristine load; can exceed 1.0 only for a
    /// pathologically small trace).
    pub fn fraction_affected(&self) -> f64 {
        if self.rows_ingested == 0 {
            return if self.is_pristine() { 0.0 } else { 1.0 };
        }
        let touched = self.quarantine.total_lines() + self.repair.total_actions();
        touched as f64 / self.rows_ingested as f64
    }

    /// One-line annotation for reports, e.g.
    /// `data quality: 2.3% of 14210 rows affected; quarantined 120 line(s)
    /// [...]; repaired: ...`.
    pub fn annotation(&self) -> String {
        if self.is_pristine() {
            return "data quality: pristine (no quarantine, no repairs)".to_string();
        }
        format!(
            "data quality: {:.1}% of {} rows affected; {}; {}",
            self.fraction_affected() * 100.0,
            self.rows_ingested,
            self.quarantine.summary(),
            self.repair.summary()
        )
    }

    /// Re-exports the quarantine and repair tallies as telemetry
    /// counters (`ingest.quarantine.*`, `ingest.repair.*`).
    /// Deterministic plane: both are pure functions of the bytes read.
    /// Zero tallies are skipped, so a pristine load contributes only
    /// `ingest.rows`.
    pub fn export_metrics(&self, tel: &mut Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        tel.count("ingest.rows", Plane::Deterministic, self.rows_ingested);
        for (file, &n) in &self.quarantine.line_counts {
            tel.count(
                &format!("ingest.quarantine.{}", file_slug(file)),
                Plane::Deterministic,
                n,
            );
        }
        if !self.quarantine.table_errors.is_empty() {
            tel.count(
                "ingest.quarantine.table_errors",
                Plane::Deterministic,
                self.quarantine.table_errors.len() as u64,
            );
        }
        let tables = [
            ("machine_events", &self.repair.machine_events),
            ("collection_events", &self.repair.collection_events),
            ("instance_events", &self.repair.instance_events),
            ("usage", &self.repair.usage),
        ];
        for (table, r) in tables {
            for (kind, v) in [
                ("deduped", r.deduped),
                ("synthesized", r.synthesized),
                ("dropped", r.dropped),
            ] {
                if v > 0 {
                    tel.count(
                        &format!("ingest.repair.{table}.{kind}"),
                        Plane::Deterministic,
                        v,
                    );
                }
            }
        }
        for (name, v) in [
            ("lost_inserted", self.repair.lost_inserted),
            ("submits_backfilled", self.repair.submits_backfilled),
            ("machines_backfilled", self.repair.machines_backfilled),
            ("windows_swapped", self.repair.windows_swapped),
            ("histograms_sorted", self.repair.histograms_sorted),
        ] {
            if v > 0 {
                tel.count(&format!("ingest.repair.{name}"), Plane::Deterministic, v);
            }
        }
    }
}

/// `machine_events.csv` → `machine_events`, for metric-name embedding.
fn file_slug(file: &str) -> &str {
    file.strip_suffix(".csv").unwrap_or(file)
}

/// Loads a trace directory through the repairing ingestion pipeline:
/// lenient per-line reads (malformed lines quarantined, not fatal),
/// then [`repair`] to restore lifecycle invariants, returning the
/// repaired trace alongside its [`DataQuality`] record.
pub fn load_trace_dir(dir: &std::path::Path) -> (Trace, DataQuality) {
    load_trace_dir_with(dir, &mut Telemetry::disabled())
}

/// [`load_trace_dir`] with per-stage telemetry: `ingest` (lenient
/// reads) and `repair` spans under `core.load_trace_dir`, plus the
/// [`DataQuality`] tallies re-exported as counters.
pub fn load_trace_dir_with(dir: &std::path::Path, tel: &mut Telemetry) -> (Trace, DataQuality) {
    let load_span = tel.span_enter("core.load_trace_dir");
    let ingest_span = tel.span_enter("ingest");
    let (mut trace, quarantine) = borg_trace::csv::read_trace_dir_lenient(dir);
    tel.span_exit(ingest_span);
    let repair_span = tel.span_enter("repair");
    let report = repair(&mut trace);
    tel.span_exit(repair_span);
    let rows = trace.machine_events.len()
        + trace.collection_events.len()
        + trace.instance_events.len()
        + trace.usage.len();
    let quality = DataQuality {
        quarantine,
        repair: report,
        rows_ingested: rows as u64,
    };
    quality.export_metrics(tel);
    tel.span_exit(load_span);
    (trace, quality)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_simulation_runs() {
        let outcome = simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 1);
        assert!(!outcome.trace.collection_events.is_empty());
        assert!(!outcome.trace.instance_events.is_empty());
        assert_eq!(outcome.metrics.cell_name, "a");
    }

    #[test]
    fn scales_build_valid_configs() {
        for scale in [SimScale::Tiny, SimScale::Small, SimScale::Month] {
            scale.config(1).validate();
        }
    }

    #[test]
    fn era_2011_runs() {
        let outcome = simulate_2011(SimScale::Tiny, 3);
        assert_eq!(outcome.metrics.cell_name, "2011");
    }

    /// Failures leave `Remove` rows that alternate with each machine's
    /// `Add` rows, and a job task is lost only when a machine goes.
    #[test]
    fn faulty_simulation_emits_machine_removes() {
        use borg_trace::collection::CollectionType;
        use borg_trace::machine::MachineEventType as M;
        use borg_trace::state::EventType;
        let outcome = simulate_cell_faulty(&CellProfile::cell_2019('a'), SimScale::Tiny, 13);
        let trace = &outcome.trace;
        assert!(trace.machine_failures() > 0, "no failures injected");
        let mut up = std::collections::BTreeMap::new();
        let mut removed_at = std::collections::BTreeSet::new();
        for e in &trace.machine_events {
            let out_of_turn = match e.event_type {
                M::Add => up.insert(e.machine_id, true) == Some(true),
                M::Remove => up.insert(e.machine_id, false) != Some(true),
                M::Update => continue,
            };
            assert!(!out_of_turn, "{e:?} does not alternate");
            if e.event_type == M::Remove {
                removed_at.insert(e.time);
            }
        }
        let collections = trace.collections();
        let lost = trace.instance_events.iter().filter(|e| {
            e.event_type == EventType::Lost
                && collections[&e.instance_id.collection].collection_type == CollectionType::Job
        });
        for e in lost {
            assert!(removed_at.contains(&e.time), "{e:?}: no machine went then");
        }
    }

    #[test]
    fn load_trace_dir_round_trips_clean_traces() {
        let outcome = simulate_cell(&CellProfile::cell_2019('b'), SimScale::Tiny, 5);
        let dir = std::env::temp_dir().join(format!("borg_load_clean_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        borg_trace::csv::write_trace_dir(&outcome.trace, &dir).expect("write");
        let (trace, quality) = load_trace_dir(&dir);
        assert!(quality.is_pristine(), "{}", quality.annotation());
        assert!(quality.fraction_affected().abs() < f64::EPSILON);
        assert_eq!(
            trace.instance_events.len(),
            outcome.trace.instance_events.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn instrumented_load_records_quality_metrics() {
        let outcome = simulate_cell(&CellProfile::cell_2019('b'), SimScale::Tiny, 5);
        let dir = std::env::temp_dir().join(format!("borg_load_tel_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        borg_trace::csv::write_trace_dir(&outcome.trace, &dir).expect("write");
        let mut tel = Telemetry::enabled();
        let (_, quality) = load_trace_dir_with(&dir, &mut tel);
        let snap = tel.snapshot();
        let rows = snap
            .counters
            .iter()
            .find(|c| c.name == "ingest.rows")
            .expect("ingest.rows counter");
        assert_eq!(rows.value, quality.rows_ingested);
        assert!(snap
            .spans
            .iter()
            .any(|s| s.path == "core.load_trace_dir/ingest"));
        assert!(snap
            .spans
            .iter()
            .any(|s| s.path == "core.load_trace_dir/repair"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_trace_dir_annotates_garbled_input() {
        let outcome = simulate_cell(&CellProfile::cell_2019('c'), SimScale::Tiny, 6);
        let dir = std::env::temp_dir().join(format!("borg_load_garbled_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        borg_trace::csv::write_trace_dir(&outcome.trace, &dir).expect("write");
        // Garble one data line of the instance-events table.
        let path = dir.join(borg_trace::csv::FILE_INSTANCE);
        let text = std::fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 2, "need at least one data line");
        let garbled = format!("##corrupt##{}", lines[1]);
        lines[1] = &garbled;
        std::fs::write(&path, lines.join("\n")).expect("rewrite");
        let (_, quality) = load_trace_dir(&dir);
        assert!(!quality.is_pristine());
        assert_eq!(
            quality.quarantine.count_for(borg_trace::csv::FILE_INSTANCE),
            1
        );
        assert!(quality.annotation().contains("data quality:"));
        assert!(quality.fraction_affected() > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
