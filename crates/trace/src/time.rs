//! Trace timestamps.
//!
//! Both public traces timestamp events in microseconds from the start of
//! the trace window. [`Micros`] is a thin wrapper that keeps that unit
//! explicit.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds in one second.
pub const MICROS_PER_SECOND: u64 = 1_000_000;
/// Microseconds in one minute.
pub const MICROS_PER_MINUTE: u64 = 60 * MICROS_PER_SECOND;
/// Microseconds in one 5-minute usage-sampling window.
pub const MICROS_PER_FIVE_MINUTES: u64 = 5 * MICROS_PER_MINUTE;
/// Microseconds in one hour (the aggregation bucket of Figures 2 and 4).
pub const MICROS_PER_HOUR: u64 = 60 * MICROS_PER_MINUTE;
/// Microseconds in one day.
pub const MICROS_PER_DAY: u64 = 24 * MICROS_PER_HOUR;

/// A timestamp or duration in microseconds since trace start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero (trace start).
    pub const ZERO: Micros = Micros(0);

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Micros {
        Micros(s * MICROS_PER_SECOND)
    }

    /// Constructs from whole minutes.
    pub const fn from_minutes(m: u64) -> Micros {
        Micros(m * MICROS_PER_MINUTE)
    }

    /// Constructs from whole hours.
    pub const fn from_hours(h: u64) -> Micros {
        Micros(h * MICROS_PER_HOUR)
    }

    /// Constructs from whole days.
    pub const fn from_days(d: u64) -> Micros {
        Micros(d * MICROS_PER_DAY)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SECOND as f64
    }

    /// Value in (fractional) hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_HOUR as f64
    }

    /// Value in (fractional) days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_DAY as f64
    }

    /// Index of the 5-minute usage window containing this timestamp.
    pub const fn five_minute_index(self) -> u64 {
        self.0 / MICROS_PER_FIVE_MINUTES
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub const fn checked_add(self, rhs: Micros) -> Option<Micros> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Micros(v)),
            None => None,
        }
    }

    /// Smaller of two timestamps.
    pub fn min(self, rhs: Micros) -> Micros {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Larger of two timestamps.
    pub fn max(self, rhs: Micros) -> Micros {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Micros::from_secs(60), Micros::from_minutes(1));
        assert_eq!(Micros::from_minutes(60), Micros::from_hours(1));
        assert_eq!(Micros::from_hours(24), Micros::from_days(1));
    }

    #[test]
    fn bucketing() {
        let t = Micros::from_hours(25) + Micros::from_minutes(7);
        assert_eq!(t.five_minute_index(), 25 * 12 + 1);
    }

    #[test]
    fn float_views() {
        let t = Micros::from_hours(36);
        assert_eq!(t.as_hours_f64(), 36.0);
        assert_eq!(t.as_days_f64(), 1.5);
        assert_eq!(Micros::from_secs(3).as_secs_f64(), 3.0);
    }

    #[test]
    fn arithmetic() {
        let a = Micros::from_secs(10);
        let b = Micros::from_secs(4);
        assert_eq!(a - b, Micros::from_secs(6));
        assert_eq!(a + b, Micros::from_secs(14));
        assert_eq!(b.saturating_sub(a), Micros::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Micros::from_secs(14));
    }

    #[test]
    fn ordering_and_min_max() {
        let a = Micros::from_secs(1);
        let b = Micros::from_secs(2);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(Micros(u64::MAX).checked_add(Micros(1)), None);
        assert_eq!(Micros(1).checked_add(Micros(2)), Some(Micros(3)));
    }
}
