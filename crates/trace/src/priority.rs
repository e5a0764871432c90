//! Priorities and tiers.
//!
//! The 2019 trace exposes raw priorities in 0–450; the 2011 trace mapped
//! the twelve distinct raw values in use at the time onto "priority bands"
//! 0–11 (§3). §2 of the paper groups priorities into tiers: free,
//! best-effort batch (beb), mid, production, and monitoring (which the
//! paper merges into production for its analyses).

use std::fmt;

/// A raw 2019-style job priority in `0..=450`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u16);

/// Maximum raw priority value that appears in the 2019 trace.
pub const MAX_PRIORITY: u16 = 450;

/// The twelve distinct raw priority values in the 2011 trace, in band
/// order: band `i` in the 2011 trace corresponds to `RAW_2011_PRIORITIES[i]`
/// (§3 of the paper: "the value 3 in the 2011 trace corresponds to a raw
/// priority of 101").
pub const RAW_2011_PRIORITIES: [u16; 12] =
    [0, 25, 100, 101, 103, 104, 107, 109, 119, 200, 360, 450];

impl Priority {
    /// Creates a priority, clamping to the trace maximum.
    pub fn new(raw: u16) -> Priority {
        Priority(raw.min(MAX_PRIORITY))
    }

    /// Raw value.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The tier this priority belongs to under the 2019 mapping (§2).
    pub const fn tier(self) -> Tier {
        match self.0 {
            0..=99 => Tier::Free,
            100..=115 => Tier::BestEffortBatch,
            116..=119 => Tier::Mid,
            120..=359 => Tier::Production,
            _ => Tier::Monitoring,
        }
    }

    /// The tier merged the way the paper reports results: monitoring jobs
    /// are folded into production (§2, last bullet).
    pub const fn reporting_tier(self) -> Tier {
        match self.tier() {
            Tier::Monitoring => Tier::Production,
            t => t,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A 2011-trace priority band in `0..=11`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PriorityBand2011(pub u8);

impl PriorityBand2011 {
    /// Creates a band, clamping to 11.
    pub fn new(band: u8) -> PriorityBand2011 {
        PriorityBand2011(band.min(11))
    }

    /// The 2011 band of a raw priority: the index of the largest
    /// 2011-known raw value not exceeding it.
    pub fn from_raw(p: Priority) -> PriorityBand2011 {
        let mut band = 0;
        for (i, &raw) in RAW_2011_PRIORITIES.iter().enumerate() {
            if p.0 >= raw {
                band = i as u8;
            }
        }
        PriorityBand2011(band)
    }

    /// The tier this band belongs to under the 2011 mapping (§2): bands
    /// 0–1 free, 2–8 best-effort batch, 9–10 production, 11 monitoring.
    pub const fn tier(self) -> Tier {
        match self.0 {
            0 | 1 => Tier::Free,
            2..=8 => Tier::BestEffortBatch,
            9 | 10 => Tier::Production,
            _ => Tier::Monitoring,
        }
    }
}

/// Workload tiers (§2). Ordered from lowest to highest service level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// No internal charges, no SLOs (2019 priority ≤ 99).
    Free,
    /// Managed by the batch scheduler, low charges, no SLOs (110–115).
    BestEffortBatch,
    /// Weaker SLOs than production (116–119); absent from the 2011 trace.
    Mid,
    /// High availability; evicts lower tiers when needed (120–359).
    Production,
    /// Infrastructure monitoring (≥ 360); merged into production when the
    /// paper reports per-tier results.
    Monitoring,
}

impl Tier {
    /// All tiers, lowest first.
    pub const ALL: [Tier; 5] = [
        Tier::Free,
        Tier::BestEffortBatch,
        Tier::Mid,
        Tier::Production,
        Tier::Monitoring,
    ];

    /// The four tiers the paper plots (monitoring merged into production).
    pub const REPORTING: [Tier; 4] = [
        Tier::Free,
        Tier::BestEffortBatch,
        Tier::Mid,
        Tier::Production,
    ];

    /// Short name used in reports ("free", "beb", "mid", "prod", "mon").
    pub const fn short_name(self) -> &'static str {
        match self {
            Tier::Free => "free",
            Tier::BestEffortBatch => "beb",
            Tier::Mid => "mid",
            Tier::Production => "prod",
            Tier::Monitoring => "mon",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_boundaries_2019() {
        assert_eq!(Priority::new(0).tier(), Tier::Free);
        assert_eq!(Priority::new(99).tier(), Tier::Free);
        assert_eq!(Priority::new(100).tier(), Tier::BestEffortBatch);
        assert_eq!(Priority::new(115).tier(), Tier::BestEffortBatch);
        assert_eq!(Priority::new(116).tier(), Tier::Mid);
        assert_eq!(Priority::new(119).tier(), Tier::Mid);
        assert_eq!(Priority::new(120).tier(), Tier::Production);
        assert_eq!(Priority::new(359).tier(), Tier::Production);
        assert_eq!(Priority::new(360).tier(), Tier::Monitoring);
        assert_eq!(Priority::new(450).tier(), Tier::Monitoring);
    }

    #[test]
    fn monitoring_reports_as_production() {
        assert_eq!(Priority::new(400).reporting_tier(), Tier::Production);
        assert_eq!(Priority::new(50).reporting_tier(), Tier::Free);
    }

    #[test]
    fn clamping() {
        assert_eq!(Priority::new(9999).raw(), MAX_PRIORITY);
        assert_eq!(PriorityBand2011::new(200).0, 11);
    }

    #[test]
    fn band_from_raw_round_trips() {
        // §3: band 3 in 2011 corresponds to raw priority 101.
        assert_eq!(PriorityBand2011::from_raw(Priority(101)).0, 3);
        for (band, &raw) in RAW_2011_PRIORITIES.iter().enumerate() {
            let b = PriorityBand2011::new(band as u8);
            assert_eq!(PriorityBand2011::from_raw(Priority(raw)), b);
        }
        // In-between values map to the band below.
        assert_eq!(PriorityBand2011::from_raw(Priority(102)).0, 3);
        assert_eq!(PriorityBand2011::from_raw(Priority(300)).0, 9);
    }

    #[test]
    fn tier_boundaries_2011() {
        assert_eq!(PriorityBand2011::new(0).tier(), Tier::Free);
        assert_eq!(PriorityBand2011::new(1).tier(), Tier::Free);
        assert_eq!(PriorityBand2011::new(2).tier(), Tier::BestEffortBatch);
        assert_eq!(PriorityBand2011::new(8).tier(), Tier::BestEffortBatch);
        assert_eq!(PriorityBand2011::new(9).tier(), Tier::Production);
        assert_eq!(PriorityBand2011::new(10).tier(), Tier::Production);
        assert_eq!(PriorityBand2011::new(11).tier(), Tier::Monitoring);
    }
}
