//! Per-tier SLO objectives, multi-window burn-rate alerting, and
//! error-budget accounting.
//!
//! The observability question DESIGN.md §17 answers is "did the
//! service keep its promises over this run" — not per query, but per
//! tier. Each tier carries an objective ("`target` of requests
//! complete within `latency_us`") and the engine classifies every
//! terminal outcome as *good* (done within the objective) or *bad*
//! (late, expired, shed, or failed). From those events it computes the
//! SRE-standard **burn rate**: the rate at which the error budget
//! (`1 - target`) is being consumed, where burn 1.0 means "spending
//! the budget exactly as fast as the objective allows".
//!
//! Alerting uses the **multi-window** discipline: an alert fires only
//! when *both* a long window (is the problem real?) and a short window
//! (is it still happening?) burn above the threshold, and resolves
//! when the long window recovers. That makes alerts insensitive to
//! blips but fast to fire during a genuine incident — and, because the
//! engine is driven entirely by (virtual or blessed) time values fed
//! through the service, the full alert sequence is deterministic and
//! byte-replayable under the same seed.
//!
//! Nothing here reads a clock or allocates per-event beyond the sliding
//! window; the engine is sans-io like the [`crate::service::Service`]
//! it observes.

use crate::tier::{AdmissionConfig, Tier};
use std::collections::VecDeque;

/// Objective for one tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSlo {
    /// Latency objective: a request is *good* when it completes within
    /// this budget, µs.
    pub latency_us: u64,
    /// Success target in `[0, 1)`: the fraction of requests that must
    /// be good. The error budget is `1 - target`.
    pub target: f64,
}

/// Burn rate both windows must reach for an alert to fire.
const BURN_THRESHOLD: f64 = 2.0;
/// Events the long window must hold before its burn counts (guards
/// against one bad request firing an alert at startup).
const MIN_EVENTS: u64 = 10;

/// Full SLO-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Whether the engine evaluates anything (off = all no-ops).
    pub enabled: bool,
    /// Per-tier objectives, indexed by [`Tier::index`].
    pub tiers: [TierSlo; 3],
}

impl SloConfig {
    /// A disabled engine: no objectives, no alerts.
    pub fn off() -> SloConfig {
        SloConfig {
            enabled: false,
            tiers: [TierSlo {
                latency_us: u64::MAX,
                target: 0.0,
            }; 3],
        }
    }

    /// Objectives derived from an admission profile: each tier's
    /// latency objective is its deadline, and targets come from
    /// [`Tier::default_slo_target`].
    pub fn for_admission(adm: &AdmissionConfig) -> SloConfig {
        SloConfig {
            enabled: true,
            tiers: [
                TierSlo {
                    latency_us: adm.tiers[0].deadline_us,
                    target: Tier::Prod.default_slo_target(),
                },
                TierSlo {
                    latency_us: adm.tiers[1].deadline_us,
                    target: Tier::Batch.default_slo_target(),
                },
                TierSlo {
                    latency_us: adm.tiers[2].deadline_us,
                    target: Tier::BestEffort.default_slo_target(),
                },
            ],
        }
    }
}

/// Cumulative error-budget ledger for one tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloBudget {
    /// Terminal outcomes observed.
    pub total: u64,
    /// Outcomes that violated the objective.
    pub bad: u64,
    /// Bad outcomes the target allows for this many totals
    /// (`(1 - target) * total`).
    pub allowed: f64,
}

impl SloBudget {
    /// Fraction of the error budget remaining (negative when blown,
    /// 1.0 when untouched or no events yet).
    pub fn remaining_frac(&self) -> f64 {
        if self.allowed <= 0.0 {
            if self.bad == 0 {
                1.0
            } else {
                -(self.bad as f64)
            }
        } else {
            1.0 - self.bad as f64 / self.allowed
        }
    }
}

/// The multi-window burn-rate evaluator. Feed it every terminal
/// outcome via [`SloEngine::on_event`]; read the deterministic alert
/// log via [`SloEngine::alert_lines`].
#[derive(Debug, Clone)]
pub struct SloEngine {
    cfg: SloConfig,
    /// Long evaluation window ("is it real"), µs.
    long_window_us: u64,
    /// Short evaluation window ("is it still happening"), µs.
    short_window_us: u64,
    /// Long-window events per tier: (time µs, good), pruned to the
    /// long window on every feed.
    events: [VecDeque<(u64, bool)>; 3],
    /// Short-window copies of the same events, pruned to the short
    /// window.
    short_events: [VecDeque<(u64, bool)>; 3],
    /// Running (total, bad) tallies kept in lockstep with each deque,
    /// so burn evaluation is O(1) per event instead of a window scan.
    long_counts: [(u64, u64); 3],
    short_counts: [(u64, u64); 3],
    /// Cumulative good/bad tallies per tier.
    good: [u64; 3],
    bad: [u64; 3],
    /// Alert hysteresis: true while an alert is active for the tier.
    active: [bool; 3],
    /// Deterministic alert log: fire and resolve lines in time order.
    alerts: Vec<String>,
    fired: u64,
}

impl SloEngine {
    /// A fresh engine. The windows scale with the slowest tier
    /// objective (long = 8×, at least 8 µs; short = long/8), so the
    /// engine works unchanged across the virtual-time and wall-clock
    /// harnesses.
    pub fn new(cfg: SloConfig) -> SloEngine {
        let long_window_us = cfg
            .tiers
            .iter()
            .map(|t| t.latency_us.saturating_mul(8))
            .fold(8, u64::max);
        SloEngine {
            cfg,
            long_window_us,
            short_window_us: long_window_us / 8,
            events: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            short_events: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            long_counts: [(0, 0); 3],
            short_counts: [(0, 0); 3],
            good: [0; 3],
            bad: [0; 3],
            active: [false; 3],
            alerts: Vec::new(),
            fired: 0,
        }
    }

    /// Classifies a completion latency against the tier's objective.
    pub fn is_good_latency(&self, t: Tier, latency_us: u64) -> bool {
        latency_us <= self.cfg.tiers[t.index()].latency_us
    }

    /// Burn rate from a window's running (total, bad) counters: bad
    /// fraction divided by the error budget. 0.0 with no events.
    fn burn_of(&self, i: usize, counts: (u64, u64)) -> f64 {
        let (total, bad) = counts;
        if total == 0 {
            return 0.0;
        }
        let budget = (1.0 - self.cfg.tiers[i].target).max(1e-9);
        (bad as f64 / total as f64) / budget
    }

    /// Drops events at or before `from` off a window's front, keeping
    /// its counters in lockstep. `from == 0` means "window covers
    /// everything so far" (matches the burn semantics at startup).
    fn prune(dq: &mut VecDeque<(u64, bool)>, counts: &mut (u64, u64), from: u64) {
        if from == 0 {
            return;
        }
        while let Some(&(at, good)) = dq.front() {
            if at > from {
                break;
            }
            dq.pop_front();
            counts.0 -= 1;
            if !good {
                counts.1 -= 1;
            }
        }
    }

    /// Feeds one terminal outcome. Returns `true` when this event
    /// *fires* a new alert (the flight recorder's burn-rate trigger).
    pub fn on_event(&mut self, now_us: u64, t: Tier, good: bool) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let i = t.index();
        if good {
            self.good[i] += 1;
        } else {
            self.bad[i] += 1;
        }
        for (dq, counts) in [
            (&mut self.events[i], &mut self.long_counts[i]),
            (&mut self.short_events[i], &mut self.short_counts[i]),
        ] {
            dq.push_back((now_us, good));
            counts.0 += 1;
            if !good {
                counts.1 += 1;
            }
        }
        let lfrom = now_us.saturating_sub(self.long_window_us);
        Self::prune(&mut self.events[i], &mut self.long_counts[i], lfrom);
        let sfrom = now_us.saturating_sub(self.short_window_us);
        Self::prune(&mut self.short_events[i], &mut self.short_counts[i], sfrom);
        let long = self.burn_of(i, self.long_counts[i]);
        let short = self.burn_of(i, self.short_counts[i]);
        let enough = self.long_counts[i].0 >= MIN_EVENTS;
        if !self.active[i] && enough && long >= BURN_THRESHOLD && short >= BURN_THRESHOLD {
            self.active[i] = true;
            self.fired += 1;
            self.alerts.push(format!(
                "{now_us} alert {} burn_long {long:.2} burn_short {short:.2}",
                t.name()
            ));
            return true;
        }
        if self.active[i] && long < BURN_THRESHOLD {
            self.active[i] = false;
            self.alerts
                .push(format!("{now_us} resolve {} burn_long {long:.2}", t.name()));
        }
        false
    }

    /// True while an alert is active for the tier.
    pub fn is_alerting(&self, t: Tier) -> bool {
        self.active[t.index()]
    }

    /// Alerts fired so far (resolve lines not counted).
    pub fn alerts_fired(&self) -> u64 {
        self.fired
    }

    /// The deterministic alert log: `"{t} alert {tier} ..."` /
    /// `"{t} resolve {tier} ..."` lines in time order.
    pub fn alert_lines(&self) -> &[String] {
        &self.alerts
    }

    /// The alert log as canonical bytes (empty log ⇒ empty bytes) —
    /// part of the determinism surface alongside the event log.
    pub fn alert_bytes(&self) -> Vec<u8> {
        if self.alerts.is_empty() {
            return Vec::new();
        }
        let mut out = self.alerts.join("\n").into_bytes();
        out.push(b'\n');
        out
    }

    /// Cumulative error-budget ledger for a tier.
    pub fn budget(&self, t: Tier) -> SloBudget {
        let i = t.index();
        let total = self.good[i] + self.bad[i];
        SloBudget {
            total,
            bad: self.bad[i],
            allowed: (1.0 - self.cfg.tiers[i].target).max(0.0) * total as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> SloConfig {
        SloConfig {
            enabled: true,
            tiers: [
                TierSlo {
                    latency_us: 50_000,
                    target: 0.999,
                },
                TierSlo {
                    latency_us: 200_000,
                    target: 0.95,
                },
                TierSlo {
                    latency_us: 400_000,
                    target: 0.80,
                },
            ],
        }
    }

    #[test]
    fn all_good_never_alerts() {
        let mut e = SloEngine::new(test_cfg());
        for k in 0..500u64 {
            assert!(!e.on_event(k * 1_000, Tier::Prod, true));
        }
        assert!(e.alert_lines().is_empty());
        assert_eq!(e.alerts_fired(), 0);
        let b = e.budget(Tier::Prod);
        assert_eq!((b.total, b.bad), (500, 0));
        assert!((b.remaining_frac() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_badness_fires_once_then_resolves() {
        let mut e = SloEngine::new(test_cfg());
        // A solid run of failures: burn = (1.0)/(0.05) = 20 ≫ 2.
        let fired: Vec<u64> = (0..50u64)
            .filter(|k| e.on_event(k * 1_000, Tier::Batch, false))
            .collect();
        // Once, on the event that makes up the minimum.
        assert_eq!(fired, [MIN_EVENTS - 1], "hysteresis: one fire per incident");
        assert!(e.is_alerting(Tier::Batch));
        // Recovery: good events dilute the long window's burn.
        for k in 0..2_000u64 {
            e.on_event(50_000 + k * 1_000, Tier::Batch, true);
        }
        assert!(!e.is_alerting(Tier::Batch));
        let lines = e.alert_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("alert batch"));
        assert!(lines[1].contains("resolve batch"));
    }

    #[test]
    fn single_blip_does_not_fire() {
        let mut e = SloEngine::new(test_cfg());
        // One bad event among few: MIN_EVENTS keeps the alarm quiet.
        assert!(!e.on_event(1_000, Tier::BestEffort, false));
        for k in 0..5u64 {
            assert!(!e.on_event(2_000 + k, Tier::BestEffort, true));
        }
        assert!(e.alert_lines().is_empty());
    }

    #[test]
    fn old_badness_outside_short_window_does_not_fire() {
        let mut e = SloEngine::new(test_cfg());
        // Burst of bad events early, then only good ones past the short
        // window: the long window still burns but "is it still
        // happening" says no. Use batch (5% budget): 8 bad of 20 in the
        // long window burns 8 ≫ 2, but the short window is clean.
        for k in 0..8u64 {
            e.on_event(k * 1_000, Tier::Batch, false);
        }
        let clean = e.short_window_us + 10_000;
        assert!(clean + 12_000 < e.long_window_us);
        for k in 0..12u64 {
            let fired = e.on_event(clean + k * 1_000, Tier::Batch, true);
            assert!(!fired, "event {k} fired despite clean short window");
        }
        assert!(e.alert_lines().is_empty());
    }

    #[test]
    fn disabled_engine_is_inert() {
        let mut e = SloEngine::new(SloConfig::off());
        for k in 0..100u64 {
            assert!(!e.on_event(k, Tier::Prod, false));
        }
        assert!(e.alert_lines().is_empty());
        assert!(e.alert_bytes().is_empty());
    }

    #[test]
    fn budget_ledger_tracks_allowance() {
        let mut e = SloEngine::new(test_cfg());
        for k in 0..100u64 {
            // 10% bad against best-effort's 20% budget: half spent.
            e.on_event(k * 1_000, Tier::BestEffort, k % 10 != 0);
        }
        let b = e.budget(Tier::BestEffort);
        assert_eq!((b.total, b.bad), (100, 10));
        assert!((b.allowed - 20.0).abs() < 1e-6);
        assert!((b.remaining_frac() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn for_admission_derives_sane_windows() {
        let cfg = SloConfig::for_admission(&AdmissionConfig::small());
        assert!(cfg.enabled);
        assert_eq!(cfg.tiers[0].latency_us, 50_000);
        assert!(cfg.tiers[0].target > cfg.tiers[2].target);
        let e = SloEngine::new(cfg);
        assert_eq!(e.long_window_us, 3_200_000);
        assert_eq!(e.short_window_us, 400_000);
    }
}
