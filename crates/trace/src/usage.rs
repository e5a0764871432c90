//! Usage samples.
//!
//! The usage table records, for every instance and every 5-minute window,
//! the average and maximum observed CPU and the average memory, plus — new
//! in the 2019 trace (§3) — a 21-element histogram of CPU utilization
//! within the window, biased towards high percentiles. The paper's §8
//! "peak NCU slack" metric is computed from the per-window maximum CPU and
//! the limit in force.

use crate::instance::InstanceId;
use crate::machine::MachineId;
use crate::resources::Resources;
use crate::time::Micros;

/// The 21 percentile points of the v3 CPU-utilization histogram, biased
/// towards high percentiles as described in §3.
pub const CPU_HISTOGRAM_PERCENTILES: [f64; 21] = [
    0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 85.0, 90.0, 91.0, 92.0, 93.0, 94.0, 95.0,
    96.0, 97.0, 98.0, 99.0, 100.0,
];

/// A 21-element CPU-utilization histogram for one 5-minute window: the CPU
/// usage at each of [`CPU_HISTOGRAM_PERCENTILES`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuHistogram(pub [f32; 21]);

impl CpuHistogram {
    /// The p0 value (minimum within the window).
    pub fn min(&self) -> f32 {
        self.0[0]
    }

    /// The p100 value (maximum within the window).
    pub fn max(&self) -> f32 {
        self.0[20]
    }

    /// The median (p50) value.
    pub fn median(&self) -> f32 {
        self.0[5]
    }

    /// True when percentile values are non-decreasing — an invariant every
    /// valid histogram satisfies.
    pub fn is_monotone(&self) -> bool {
        self.0.windows(2).all(|w| w[0] <= w[1])
    }
}

/// One row of the instance-usage table: one instance over one sampling
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageRecord {
    /// Window start.
    pub start: Micros,
    /// Window end (usually `start + 5 minutes`).
    pub end: Micros,
    /// Which instance.
    pub instance_id: InstanceId,
    /// Machine the instance was running on.
    pub machine_id: MachineId,
    /// Average usage over the window.
    pub avg_usage: Resources,
    /// Maximum observed usage within the window.
    pub max_usage: Resources,
    /// The limit in force during the window (post-Autopilot if scaled).
    pub limit: Resources,
    /// CPU-utilization histogram within the window.
    pub cpu_histogram: CpuHistogram,
}

impl UsageRecord {
    /// Window duration.
    pub fn duration(&self) -> Micros {
        self.end.saturating_sub(self.start)
    }
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::collection::CollectionId;

    fn record(limit_cpu: f64, max_cpu: f64) -> UsageRecord {
        UsageRecord {
            start: Micros::ZERO,
            end: Micros::from_minutes(5),
            instance_id: InstanceId::new(CollectionId(1), 0),
            machine_id: MachineId(0),
            avg_usage: Resources::new(max_cpu * 0.8, 0.1),
            max_usage: Resources::new(max_cpu, 0.12),
            limit: Resources::new(limit_cpu, 0.2),
            cpu_histogram: CpuHistogram([0.0; 21]),
        }
    }

    #[test]
    fn duration() {
        assert_eq!(record(1.0, 0.1).duration(), Micros::from_minutes(5));
    }

    #[test]
    fn percentile_points_are_21_biased_high() {
        assert_eq!(CPU_HISTOGRAM_PERCENTILES.len(), 21);
        // More than half the points are at or above the 80th percentile.
        let high = CPU_HISTOGRAM_PERCENTILES
            .iter()
            .filter(|&&p| p >= 80.0)
            .count();
        assert!(high > 10);
    }
}
