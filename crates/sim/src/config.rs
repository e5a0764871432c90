//! Simulation configuration and scaling.

use borg_trace::time::{Micros, MICROS_PER_HOUR, MICROS_PER_MINUTE};

/// Configuration of one cell simulation.
///
/// The `scale` knob shrinks both the machine fleet and the arrival rate by
/// the same factor, so per-machine load, utilization fractions, and
/// distribution shapes are preserved while a month of a 12k-machine cell
/// becomes laptop-sized. Scaled quantities are reported alongside results
/// in EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Fraction of the profile's full-scale machine count and job rate to
    /// simulate (e.g. 0.005 → 60 machines).
    pub scale: f64,
    /// Observation window (the real traces cover a month).
    pub horizon: Micros,
    /// Usage-sampling interval (the trace uses 5 minutes; hourly keeps
    /// monthly simulations cheap and is sufficient for Figures 2–5).
    pub usage_interval: Micros,
    /// Cap on tasks per job (see `borg_workload::jobgen::GenParams`).
    pub task_cap: Option<u32>,
    /// Keep roughly one raw usage record in `keep_usage_every` (1 = all);
    /// aggregated metrics always see every sample.
    pub keep_usage_every: u64,
    /// The 5-minute window (by start time) at which to snapshot per-machine
    /// utilization for Figure 6; defaults to day 15, 13:00.
    pub snapshot_at: Micros,
    /// Per-machine maintenance sweeps per 30 days (§5.2: "a forced OS
    /// upgrade about 1/month per machine").
    pub maintenance_per_month: f64,
    /// Ablation: divide the scheduler's decision time by this factor for
    /// consecutive placements of the same job (Borg's equivalence-class
    /// caching). 1.0 disables the optimization.
    pub equivalence_class_speedup: f64,
    /// Ablation: disable the batch-admission queue — best-effort batch
    /// jobs go straight to the regular scheduler.
    pub disable_batch_queue: bool,
    /// Ablation: force every job's vertical-scaling mode to `Off`
    /// (pre-Autopilot Borg).
    pub disable_autopilot: bool,
    /// Extension (research direction #3 of §10): gang scheduling — a
    /// job's tasks start only when the whole job fits, placed atomically.
    /// Borg itself starts a job as soon as *any* task runs.
    pub gang_scheduling: bool,
    /// Machine-failure injection (`None` disables fault injection
    /// entirely and is bit-identical to a build without it). See
    /// [`crate::faults::FaultConfig`].
    pub faults: Option<crate::faults::FaultConfig>,
    /// Record telemetry (per-event-kind counters/timings, phase spans,
    /// metrics export) into `CellOutcome::telemetry`. Off by default:
    /// disabled telemetry is a single branch per event and produces an
    /// empty snapshot. Telemetry never influences simulation results —
    /// traces are bit-identical either way (see DESIGN.md §12).
    pub telemetry: bool,
    /// Ignored: the cell always runs one placement index, and the field
    /// is kept only because `benchmark/` names it until ROADMAP item 1
    /// deletes it.
    pub placement_shards: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// A laptop-scale month: 0.5% of a cell (≈ 60 machines) for 31 days.
    pub fn month(seed: u64) -> SimConfig {
        SimConfig {
            scale: 0.005,
            horizon: Micros::from_days(31),
            usage_interval: Micros::from_hours(1),
            task_cap: Some(500),
            keep_usage_every: 101,
            snapshot_at: Micros::from_days(15) + Micros::from_hours(13),
            maintenance_per_month: 1.0,
            equivalence_class_speedup: 20.0,
            disable_batch_queue: false,
            disable_autopilot: false,
            gang_scheduling: false,
            faults: None,
            telemetry: false,
            placement_shards: None,
            seed,
        }
    }

    /// A fast configuration for unit and integration tests: ~25 machines,
    /// 2 days.
    pub fn tiny_for_tests(seed: u64) -> SimConfig {
        SimConfig {
            scale: 0.002,
            horizon: Micros::from_days(2),
            usage_interval: Micros::from_minutes(30),
            task_cap: Some(100),
            keep_usage_every: 11,
            snapshot_at: Micros::from_days(1),
            maintenance_per_month: 1.0,
            equivalence_class_speedup: 20.0,
            disable_batch_queue: false,
            disable_autopilot: false,
            gang_scheduling: false,
            faults: None,
            telemetry: false,
            placement_shards: None,
            seed,
        }
    }

    /// Always 1, whatever `placement_shards` holds: kept only because
    /// `benchmark/` names it until ROADMAP item 1 deletes it.
    pub fn effective_shards(&self, _machines: usize) -> usize {
        1
    }

    /// Number of machines to simulate for a profile.
    pub fn machine_count(&self, profile: &borg_workload::cells::CellProfile) -> usize {
        ((profile.machine_count as f64 * self.scale).round() as usize).max(4)
    }

    /// Scaled job arrival rate for a profile.
    pub fn job_rate(&self, profile: &borg_workload::cells::CellProfile) -> f64 {
        (profile.job_rate_per_hour * self.scale).max(0.5)
    }

    /// The usage-interval-aligned snapshot window start.
    pub fn snapshot_window(&self) -> Micros {
        Micros(
            self.snapshot_at.as_micros() / self.usage_interval.as_micros().max(1)
                * self.usage_interval.as_micros(),
        )
    }

    /// Mean time between maintenance sweeps for one machine.
    pub fn maintenance_interval(&self) -> Micros {
        let hours = 30.0 * 24.0 / self.maintenance_per_month.max(1e-6);
        Micros((hours * MICROS_PER_HOUR as f64) as u64)
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values; configurations are programming
    /// artifacts, not runtime data.
    pub fn validate(&self) {
        assert!(self.scale > 0.0 && self.scale <= 1.0, "scale in (0, 1]");
        assert!(self.horizon >= Micros::from_hours(1), "horizon too short");
        assert!(
            self.usage_interval >= Micros(5 * MICROS_PER_MINUTE),
            "usage interval below trace resolution"
        );
        assert!(self.keep_usage_every >= 1, "keep_usage_every >= 1");
        assert!(
            self.equivalence_class_speedup >= 1.0,
            "equivalence-class speedup must be >= 1"
        );
        if let Some(f) = &self.faults {
            f.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_workload::cells::CellProfile;

    #[test]
    fn presets_validate() {
        SimConfig::month(1).validate();
        SimConfig::tiny_for_tests(1).validate();
    }

    #[test]
    fn scaling() {
        let p = CellProfile::cell_2019('a');
        let cfg = SimConfig::month(1);
        assert_eq!(cfg.machine_count(&p), 60);
        assert!((cfg.job_rate(&p) - 16.8).abs() < 1e-9);
    }

    #[test]
    fn snapshot_aligned_to_interval() {
        let cfg = SimConfig::month(1);
        let w = cfg.snapshot_window();
        assert_eq!(w.as_micros() % cfg.usage_interval.as_micros(), 0);
        assert!(w <= cfg.snapshot_at);
    }

    #[test]
    fn maintenance_interval_monthly() {
        let cfg = SimConfig::month(1);
        assert_eq!(cfg.maintenance_interval(), Micros::from_hours(720));
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn bad_scale_panics() {
        let mut cfg = SimConfig::month(1);
        cfg.scale = 0.0;
        cfg.validate();
    }

    #[test]
    fn placement_shards_is_ignored() {
        let mut cfg = SimConfig::tiny_for_tests(1);
        for k in [None, Some(1), Some(16)] {
            cfg.placement_shards = k;
            assert_eq!(cfg.effective_shards(1024), 1, "{k:?}");
        }
    }
}
