//! Per-task resource-usage processes.
//!
//! Each task's actual usage varies over time below (or, for
//! work-conserving CPU, occasionally near) its limit (§2). The model here
//! is `base × diurnal(t) × noise(window)`: a per-task base rate, a
//! sinusoidal diurnal factor shared by the cell, and deterministic
//! per-window noise derived from a seed — so usage is reproducible and
//! can be evaluated lazily at any time without storing samples.

use borg_trace::resources::Resources;
use borg_trace::time::{Micros, MICROS_PER_HOUR};

/// SplitMix64, the hash behind the deterministic per-window noise.
pub use rand::splitmix64;

/// Uniform in `[0, 1)` from a hash of `(seed, index)`.
fn unit_noise(seed: u64, index: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(index));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic usage process for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageProcess {
    /// Mean usage level (NCU, NMU).
    pub base: Resources,
    /// Relative diurnal swing of CPU usage in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Diurnal phase in hours (the cell's timezone).
    pub phase_hours: f64,
    /// Relative per-window noise in `[0, 1)` (uniform multiplicative).
    pub noise: f64,
    /// Within-window peak-to-average CPU ratio (≥ 1).
    pub peak_factor: f64,
    /// Seed for the deterministic noise stream.
    pub seed: u64,
}

impl UsageProcess {
    /// Creates a process.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn new(
        base: Resources,
        diurnal_amplitude: f64,
        phase_hours: f64,
        noise: f64,
        peak_factor: f64,
        seed: u64,
    ) -> UsageProcess {
        assert!(
            (0.0..1.0).contains(&diurnal_amplitude),
            "amplitude in [0,1)"
        );
        assert!((0.0..1.0).contains(&noise), "noise in [0,1)");
        assert!(peak_factor >= 1.0, "peak factor >= 1");
        assert!(
            base.is_non_negative() && base.is_finite(),
            "base usage must be sane"
        );
        UsageProcess {
            base,
            diurnal_amplitude,
            phase_hours,
            noise,
            peak_factor,
            seed,
        }
    }

    /// Mean of the diurnal factor over `[start, end)`, analytically.
    ///
    /// Depends only on `diurnal_amplitude`, `phase_hours`, and the window
    /// — not on the per-task base or seed — so callers walking many tasks
    /// that share a cell's diurnal shape may evaluate it once and reuse
    /// the result via [`UsageProcess::average_with_diurnal`].
    pub fn diurnal_mean(&self, start: Micros, end: Micros) -> f64 {
        if end <= start || self.diurnal_amplitude == 0.0 {
            return 1.0;
        }
        let omega = 2.0 * std::f64::consts::PI / 24.0; // per hour
        let s = start.as_hours_f64() + self.phase_hours;
        let e = end.as_hours_f64() + self.phase_hours;
        1.0 + self.diurnal_amplitude * ((omega * s).cos() - (omega * e).cos()) / (omega * (e - s))
    }

    /// Multiplicative noise for the 5-minute window containing `t`.
    fn window_noise(&self, t: Micros) -> f64 {
        if self.noise == 0.0 {
            return 1.0;
        }
        let u = unit_noise(self.seed, t.five_minute_index());
        1.0 - self.noise + 2.0 * self.noise * u
    }

    /// Average usage over `[start, end)` including the window noise of
    /// the window containing `start` (callers sample window-aligned).
    pub fn average_over(&self, start: Micros, end: Micros) -> Resources {
        let d = self.diurnal_mean(start, end);
        self.average_with_diurnal(d, start)
    }

    /// [`UsageProcess::average_over`] with the diurnal mean supplied by
    /// the caller: bit-identical to `average_over(start, end)` when `d`
    /// is `diurnal_mean(start, end)` — the final expression is the same
    /// IEEE operation sequence. This is the usage tick's fast path: the
    /// diurnal mean is shared by every task with the cell's amplitude
    /// and phase, so it is computed once per tick, not once per task.
    pub fn average_with_diurnal(&self, d: f64, start: Micros) -> Resources {
        let n = self.window_noise(start);
        Resources::new(self.base.cpu * d * n, self.base.mem * n.sqrt())
    }

    /// Peak CPU usage within `[start, end)`.
    pub fn peak_cpu_over(&self, start: Micros, end: Micros) -> f64 {
        self.average_over(start, end).cpu * self.peak_factor
    }

    /// The usage integral over a task lifetime `[start, end)`, in
    /// resource-hours, ignoring window noise (mean 1).
    pub fn integral_over(&self, start: Micros, end: Micros) -> Resources {
        if end <= start {
            return Resources::ZERO;
        }
        let hours = (end - start).as_micros() as f64 / MICROS_PER_HOUR as f64;
        let d = self.diurnal_mean(start, end);
        Resources::new(self.base.cpu * d * hours, self.base.mem * hours)
    }

    /// Synthetic fine-grained CPU samples within a window, for building
    /// the 21-element histogram: values spread between a floor and the
    /// window peak, deterministic in the seed, written into `out`
    /// (cleared first) so periodic samplers reuse one allocation.
    /// `avg_cpu` is the window's average CPU, `average_over(start,
    /// end).cpu`; the usage tick already holds that value (its pass-1 raw
    /// demand), so the sampler skips the two diurnal cosines and the
    /// window-noise re-evaluation per record.
    pub fn window_cpu_samples_with_avg(
        &self,
        avg_cpu: f64,
        start: Micros,
        count: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let peak = avg_cpu * self.peak_factor;
        let floor = (2.0 * avg_cpu - peak).max(0.0);
        out.extend((0..count).map(|i| {
            let u = unit_noise(self.seed.wrapping_add(1), start.as_micros() ^ i as u64);
            floor + (peak - floor) * u
        }));
    }
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn process() -> UsageProcess {
        UsageProcess::new(Resources::new(0.2, 0.1), 0.3, 0.0, 0.1, 1.5, 42)
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Unit noise covers [0,1).
        let xs: Vec<f64> = (0..1000).map(|i| unit_noise(7, i)).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn full_day_average_is_base() {
        let p = process();
        let avg = p.average_over(Micros::ZERO, Micros::from_days(1));
        // Over a full diurnal period the sinusoid integrates to zero;
        // only the window noise of window 0 remains (within ±10%).
        assert!((avg.cpu / 0.2 - 1.0).abs() < 0.11, "avg = {}", avg.cpu);
    }

    #[test]
    fn integral_scales_with_duration() {
        let p = process();
        let one = p.integral_over(Micros::ZERO, Micros::from_days(1));
        let two = p.integral_over(Micros::ZERO, Micros::from_days(2));
        assert!((two.cpu / one.cpu - 2.0).abs() < 0.02);
        assert!((one.mem - 0.1 * 24.0).abs() < 1e-9);
        assert_eq!(
            p.integral_over(Micros::from_hours(2), Micros::from_hours(1)),
            Resources::ZERO
        );
    }

    #[test]
    fn peak_exceeds_average() {
        let p = process();
        let s = Micros::from_hours(3);
        let e = s + Micros::from_minutes(5);
        let avg = p.average_over(s, e).cpu;
        assert!((p.peak_cpu_over(s, e) / avg - 1.5).abs() < 1e-9);
    }

    #[test]
    fn windows_vary_but_reproducibly() {
        let p = process();
        let w0 = p.average_over(Micros::ZERO, Micros::from_minutes(5)).cpu;
        let w1 = p
            .average_over(Micros::from_minutes(5), Micros::from_minutes(10))
            .cpu;
        assert_ne!(w0, w1); // noise differs per window
        let p2 = process();
        assert_eq!(
            w0,
            p2.average_over(Micros::ZERO, Micros::from_minutes(5)).cpu
        );
    }

    #[test]
    fn cached_diurnal_average_is_bit_identical() {
        let p = process();
        for w in 0..48u64 {
            let s = Micros::from_minutes(30 * w);
            let e = s + Micros::from_minutes(30);
            let d = p.diurnal_mean(s, e);
            assert_eq!(p.average_with_diurnal(d, s), p.average_over(s, e));
        }
    }

    #[test]
    fn histogram_samples_bounded_by_peak() {
        let p = process();
        let s = Micros::from_hours(1);
        let e = s + Micros::from_minutes(5);
        let peak = p.peak_cpu_over(s, e);
        let mut buf = vec![999.0; 3]; // stale contents must be cleared
        p.window_cpu_samples_with_avg(p.average_over(s, e).cpu, s, 100, &mut buf);
        assert_eq!(buf.len(), 100);
        for x in buf {
            assert!(x >= 0.0 && x <= peak + 1e-12);
        }
    }

    #[test]
    fn diurnal_peak_hour_higher_than_trough() {
        let p = UsageProcess::new(Resources::new(0.2, 0.1), 0.5, 0.0, 0.0, 1.0, 0);
        let peak = p
            .average_over(Micros::from_hours(5), Micros::from_hours(7))
            .cpu;
        let trough = p
            .average_over(Micros::from_hours(17), Micros::from_hours(19))
            .cpu;
        assert!(peak > 1.5 * trough, "peak {peak} trough {trough}");
    }
}
