//! Flight recorder: a bounded ring of recent service events that
//! snapshots itself when something anomalous happens.
//!
//! Aggregate metrics say *that* a run went bad; the flight recorder
//! preserves *what the service was doing at that moment*. Every event-
//! log line is mirrored into a bounded ring buffer, and four anomaly
//! triggers — a prod deadline miss, a circuit breaker opening, a shed
//! spike, a burn-rate alert — freeze a copy of the ring. Snapshot
//! budgets are capped per trigger kind and in total, so a sustained
//! incident produces a handful of representative captures instead of
//! an unbounded dump.
//!
//! Everything is a pure function of the (deterministic) event stream
//! and time values the service feeds in, so the full recorder dump is
//! byte-identical across same-seed runs — it is part of the
//! determinism surface pinned by `tests/serve_witness.rs`.

use std::collections::VecDeque;

/// What tripped a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// A prod-tier request expired (missed its deadline).
    ProdDeadlineMiss,
    /// An epoch's circuit breaker opened.
    BreakerOpen,
    /// Sheds clustered faster than the spike threshold.
    ShedSpike,
    /// The SLO engine fired a burn-rate alert.
    BurnRate,
}

impl TriggerKind {
    /// All trigger kinds, stable order.
    pub const ALL: [TriggerKind; 4] = [
        TriggerKind::ProdDeadlineMiss,
        TriggerKind::BreakerOpen,
        TriggerKind::ShedSpike,
        TriggerKind::BurnRate,
    ];

    /// Stable token for dumps and reports.
    pub fn name(self) -> &'static str {
        match self {
            TriggerKind::ProdDeadlineMiss => "prod_deadline_miss",
            TriggerKind::BreakerOpen => "breaker_open",
            TriggerKind::ShedSpike => "shed_spike",
            TriggerKind::BurnRate => "burn_rate",
        }
    }

    /// Index into per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            TriggerKind::ProdDeadlineMiss => 0,
            TriggerKind::BreakerOpen => 1,
            TriggerKind::ShedSpike => 2,
            TriggerKind::BurnRate => 3,
        }
    }
}

/// Event lines the ring holds.
const RING_CAPACITY: usize = 64;
/// Window of the shed-spike trigger, µs.
const SHED_WINDOW_US: u64 = 100_000;
/// Sheds within the window that count as a spike.
const SHED_SPIKE_THRESHOLD: usize = 8;
/// Snapshot budget per trigger kind.
const PER_TRIGGER_CAP: usize = 2;
/// Snapshot budget across all kinds.
const TOTAL_CAP: usize = 6;

/// Whether the recorder runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Whether anything is recorded (off = all no-ops).
    pub enabled: bool,
}

impl RecorderConfig {
    /// A disabled recorder.
    pub fn off() -> RecorderConfig {
        RecorderConfig { enabled: false }
    }

    /// A recorder with a 64-line ring, shed spike at 8 sheds in 100 ms,
    /// at most 2 snapshots per trigger kind and 6 overall.
    pub fn standard() -> RecorderConfig {
        RecorderConfig { enabled: true }
    }
}

/// One frozen capture of the ring.
#[derive(Debug, Clone)]
pub struct RecorderSnapshot {
    /// What tripped it.
    pub trigger: TriggerKind,
    /// When it tripped, µs.
    pub at_us: u64,
    /// The ring's contents at that instant, oldest first.
    pub lines: Vec<String>,
}

/// See the module docs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    ring: VecDeque<String>,
    /// Recent shed times for the spike trigger.
    sheds: VecDeque<u64>,
    /// Triggers observed per kind (counted even when the snapshot
    /// budget is spent).
    observed: [u64; 4],
    snapshots: Vec<RecorderSnapshot>,
}

impl FlightRecorder {
    /// A fresh recorder.
    pub fn new(cfg: RecorderConfig) -> FlightRecorder {
        FlightRecorder {
            cfg,
            ring: VecDeque::new(),
            sheds: VecDeque::new(),
            observed: [0; 4],
            snapshots: Vec::new(),
        }
    }

    /// Mirrors one event-log line into the ring.
    pub fn push(&mut self, line: &str) {
        if !self.cfg.enabled {
            return;
        }
        if self.ring.len() >= RING_CAPACITY {
            // Reuse the evicted entry's buffer: once the ring is warm,
            // pushing a line allocates nothing.
            if let Some(mut s) = self.ring.pop_front() {
                s.clear();
                s.push_str(line);
                self.ring.push_back(s);
            }
        } else {
            self.ring.push_back(line.to_string());
        }
    }

    /// Notes one shed; fires the shed-spike trigger when the window
    /// fills past the threshold (then resets the window so a sustained
    /// shed storm re-arms instead of firing per shed).
    pub fn note_shed(&mut self, now_us: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.sheds.push_back(now_us);
        let from = now_us.saturating_sub(SHED_WINDOW_US);
        while self.sheds.front().is_some_and(|&at| at < from) {
            self.sheds.pop_front();
        }
        if self.sheds.len() >= SHED_SPIKE_THRESHOLD {
            self.sheds.clear();
            self.trigger(now_us, TriggerKind::ShedSpike);
        }
    }

    /// Records an anomaly; snapshots the ring if budgets allow.
    /// Returns `true` when a snapshot was actually taken.
    pub fn trigger(&mut self, now_us: u64, kind: TriggerKind) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        self.observed[kind.index()] += 1;
        let taken = self.snapshots.iter().filter(|s| s.trigger == kind).count();
        if taken >= PER_TRIGGER_CAP || self.snapshots.len() >= TOTAL_CAP {
            return false;
        }
        self.snapshots.push(RecorderSnapshot {
            trigger: kind,
            at_us: now_us,
            lines: self.ring.iter().cloned().collect(),
        });
        true
    }

    /// Frozen captures, trigger order.
    pub fn snapshots(&self) -> &[RecorderSnapshot] {
        &self.snapshots
    }

    /// Times each trigger kind was observed (with or without budget).
    pub fn observed(&self, kind: TriggerKind) -> u64 {
        self.observed[kind.index()]
    }

    /// The whole recorder state as canonical bytes — header, per-kind
    /// observation counts, then each snapshot with its lines. Part of
    /// the determinism surface.
    pub fn dump_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(&format!("recorder {} snapshot(s)\n", self.snapshots.len()));
        for kind in TriggerKind::ALL {
            out.push_str(&format!(
                "observed {} {}\n",
                kind.name(),
                self.observed[kind.index()]
            ));
        }
        for (i, s) in self.snapshots.iter().enumerate() {
            out.push_str(&format!(
                "-- snapshot {} {} at {} ({} lines)\n",
                i + 1,
                s.trigger.name(),
                s.at_us,
                s.lines.len()
            ));
            for line in &s.lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        out.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_fifo() {
        let mut r = FlightRecorder::new(RecorderConfig::standard());
        for k in 0..RING_CAPACITY + 2 {
            r.push(&format!("line {k}"));
        }
        r.trigger(100, TriggerKind::BreakerOpen);
        let snap = &r.snapshots()[0];
        let want: Vec<String> = (2..RING_CAPACITY + 2)
            .map(|k| format!("line {k}"))
            .collect();
        assert_eq!(snap.lines, want);
    }

    #[test]
    fn budgets_cap_snapshots_but_not_observation_counts() {
        assert_eq!((PER_TRIGGER_CAP, TOTAL_CAP), (2, 6));
        let mut r = FlightRecorder::new(RecorderConfig::standard());
        r.push("x");
        assert!(r.trigger(1, TriggerKind::ProdDeadlineMiss));
        assert!(r.trigger(2, TriggerKind::ProdDeadlineMiss));
        assert!(!r.trigger(3, TriggerKind::ProdDeadlineMiss), "per-kind cap");
        for at in 4..8 {
            assert!(r.trigger(at, TriggerKind::BreakerOpen) == (at < 6));
        }
        assert!(r.trigger(8, TriggerKind::BurnRate));
        assert!(r.trigger(9, TriggerKind::BurnRate));
        assert!(!r.trigger(10, TriggerKind::ShedSpike), "total cap");
        assert_eq!(r.observed(TriggerKind::ProdDeadlineMiss), 3);
        assert_eq!(r.observed(TriggerKind::BreakerOpen), 4);
        assert_eq!(r.observed(TriggerKind::ShedSpike), 1);
        assert_eq!(r.snapshots().len(), TOTAL_CAP);
    }

    #[test]
    fn shed_spike_fires_at_threshold_then_rearms() {
        let mut r = FlightRecorder::new(RecorderConfig::standard());
        for at in 1..SHED_SPIKE_THRESHOLD as u64 {
            r.note_shed(at * 10);
        }
        assert_eq!(r.observed(TriggerKind::ShedSpike), 0);
        r.note_shed(SHED_SPIKE_THRESHOLD as u64 * 10);
        assert_eq!(r.observed(TriggerKind::ShedSpike), 1);
        // The window cleared: one shed short of the threshold stays
        // quiet, the next fires.
        for at in 1..SHED_SPIKE_THRESHOLD as u64 {
            r.note_shed(1_000 + at * 10);
        }
        assert_eq!(r.observed(TriggerKind::ShedSpike), 1);
        r.note_shed(2_000);
        assert_eq!(r.observed(TriggerKind::ShedSpike), 2);
    }

    #[test]
    fn spread_out_sheds_never_spike() {
        let mut r = FlightRecorder::new(RecorderConfig::standard());
        // One shed short of the threshold in every window.
        let gap = SHED_WINDOW_US / (SHED_SPIKE_THRESHOLD as u64 - 2);
        for k in 0..200u64 {
            r.note_shed(k * gap);
        }
        assert_eq!(r.observed(TriggerKind::ShedSpike), 0);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = FlightRecorder::new(RecorderConfig::off());
        r.push("x");
        r.note_shed(1);
        assert!(!r.trigger(2, TriggerKind::BreakerOpen));
        assert!(r.snapshots().is_empty());
        let dump = String::from_utf8(r.dump_bytes()).unwrap_or_default();
        assert!(dump.starts_with("recorder 0 snapshot(s)"));
    }

    #[test]
    fn dump_is_deterministic_for_identical_feeds() {
        let feed = |r: &mut FlightRecorder| {
            for k in 0..10 {
                r.push(&format!("{k} a {k}"));
            }
            r.trigger(9, TriggerKind::BurnRate);
        };
        let mut a = FlightRecorder::new(RecorderConfig::standard());
        let mut b = FlightRecorder::new(RecorderConfig::standard());
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.dump_bytes(), b.dump_bytes());
        assert!(!a.dump_bytes().is_empty());
    }
}
