//! borg-telemetry: dependency-free observability for a deterministic
//! workspace.
//!
//! The workspace's core contract is bit-identity — same seed and config
//! must produce byte-identical traces, and borg-lint statically bans
//! ambient nondeterminism (wall clocks, hash iteration) from library
//! code. Profiling needs a clock. This crate squares that circle by
//! splitting telemetry into planes:
//!
//! * [`Plane::Deterministic`] — counters/histograms derived purely from
//!   simulation state. Covered by the byte-identity contracts: identical
//!   across runs *and* across implementation strategies (naive vs
//!   indexed placement, sequential vs parallel scans).
//! * [`Plane::Engine`] — counters derived from implementation internals
//!   (placement-index hits, cache behavior). Deterministic for a fixed
//!   config, but legitimately different between strategies, so excluded
//!   from cross-implementation comparison.
//! * [`Plane::Timing`] — wall-clock nanoseconds from the one blessed
//!   clock ([`clock::now_ns`]). Excluded from every determinism check.
//!
//! Everything hangs off a [`Telemetry`] value (no globals, no
//! thread-locals — determinism auditing stays local). A disabled
//! instance returns sentinel ids and never allocates, so instrumented
//! code pays one branch when telemetry is off.

pub mod clock;
mod export;
mod grid;
mod registry;
mod span;

pub use export::{
    breakdown_report, chrome_trace_json, fmt_ns, grid_breakdown, human_report, trace_events_json,
    validate_json, KindBreakdown, TraceEvent,
};
pub use grid::PhaseGrid;
pub use registry::{CounterId, CounterRow, HistId, HistRow, Histogram};
pub use span::{SpanRow, SpanToken};

use registry::Registry;
use span::SpanTree;

/// Which determinism contract a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Plane {
    /// Pure function of (seed, config): byte-identical across runs and
    /// across implementation strategies.
    Deterministic,
    /// Deterministic for a fixed config but implementation-specific
    /// (e.g. index cache hits); excluded from cross-strategy checks.
    Engine,
    /// Wall-clock durations; excluded from all determinism checks.
    Timing,
}

impl Plane {
    fn tag(self) -> &'static str {
        match self {
            Plane::Deterministic => "det",
            Plane::Engine => "eng",
            Plane::Timing => "tim",
        }
    }
}

/// An immutable copy of everything a [`Telemetry`] accumulated.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter rows in sorted-name order.
    pub counters: Vec<CounterRow>,
    /// Histogram rows in sorted-name order.
    pub hists: Vec<HistRow>,
    /// Span rows in depth-first, first-seen order.
    pub spans: Vec<SpanRow>,
}

impl Snapshot {
    /// True if nothing was recorded (always the case when disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty() && self.spans.is_empty()
    }

    /// Canonical byte rendering of the *deterministic plane only*:
    /// deterministic counters and histograms, plus the span tree's
    /// shape and counts with all `total_ns` values omitted. Two runs
    /// with the same seed/config — even one naive and one indexed —
    /// must produce identical bytes.
    pub fn deterministic_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for c in &self.counters {
            if c.plane == Plane::Deterministic {
                out.push_str(&format!("c {} {}\n", c.name, c.value));
            }
        }
        for h in &self.hists {
            if h.plane == Plane::Deterministic {
                out.push_str(&format!("h {} {}\n", h.name, h.hist.render()));
            }
        }
        for s in &self.spans {
            out.push_str(&format!("s {} x{}\n", s.path, s.count));
        }
        out.into_bytes()
    }

    /// Canonical byte rendering of deterministic *and* engine planes —
    /// the per-config contract (same seed, same config, same code path
    /// ⇒ identical bytes), still excluding all wall-clock values.
    pub fn config_deterministic_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for c in &self.counters {
            if c.plane != Plane::Timing {
                out.push_str(&format!("c:{} {} {}\n", c.plane.tag(), c.name, c.value));
            }
        }
        for h in &self.hists {
            if h.plane != Plane::Timing {
                out.push_str(&format!(
                    "h:{} {} {}\n",
                    h.plane.tag(),
                    h.name,
                    h.hist.render()
                ));
            }
        }
        for s in &self.spans {
            out.push_str(&format!("s {} x{}\n", s.path, s.count));
        }
        out.into_bytes()
    }

    /// Merges another snapshot into this one: counters and histograms
    /// with the same name combine; span trees concatenate rows (used to
    /// fold per-cell snapshots into a run-level one).
    pub fn merge(&mut self, other: &Snapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|m| m.name == c.name) {
                Some(m) => m.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        for h in &other.hists {
            match self.hists.iter_mut().find(|m| m.name == h.name) {
                Some(m) => m.hist.merge(&h.hist),
                None => self.hists.push(h.clone()),
            }
        }
        self.hists.sort_by(|a, b| a.name.cmp(&b.name));
        for s in &other.spans {
            match self
                .spans
                .iter_mut()
                .find(|m| m.path == s.path && m.depth == s.depth)
            {
                Some(m) => {
                    m.count += s.count;
                    m.total_ns += s.total_ns;
                }
                None => self.spans.push(s.clone()),
            }
        }
    }
}

/// The telemetry accumulator. Construct one per instrumented activity
/// ([`Telemetry::enabled`] / [`Telemetry::disabled`]), thread it
/// through by `&mut`, and take a [`Snapshot`] at the end.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    registry: Registry,
    spans: SpanTree,
}

impl Telemetry {
    /// A recording instance.
    pub fn enabled() -> Telemetry {
        Telemetry {
            enabled: true,
            registry: Registry::default(),
            spans: SpanTree::default(),
        }
    }

    /// A no-op instance: every id is a sentinel, every record call is a
    /// single branch, [`Telemetry::snapshot`] is empty.
    pub fn disabled() -> Telemetry {
        Telemetry {
            enabled: false,
            registry: Registry::default(),
            spans: SpanTree::default(),
        }
    }

    /// Enabled-or-disabled by flag (mirrors `SimConfig::telemetry`).
    pub fn new(enabled: bool) -> Telemetry {
        if enabled {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// Whether this instance records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or looks up) a counter.
    pub fn counter(&mut self, name: &str, plane: Plane) -> CounterId {
        if !self.enabled {
            return CounterId(registry::DISABLED);
        }
        self.registry.counter(name, plane)
    }

    /// Adds `delta` to a counter. No-op for disabled ids.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        if id.0 == registry::DISABLED {
            return;
        }
        self.registry.add(id, delta);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Registers (or looks up) a histogram.
    pub fn hist(&mut self, name: &str, plane: Plane) -> HistId {
        if !self.enabled {
            return HistId(registry::DISABLED);
        }
        self.registry.hist(name, plane)
    }

    /// Records one histogram observation. No-op for disabled ids.
    #[inline]
    pub fn record(&mut self, id: HistId, value: u64) {
        if id.0 == registry::DISABLED {
            return;
        }
        self.registry.record(id, value);
    }

    /// Convenience: register-and-add in one call (cold paths only; hot
    /// loops should hold a [`CounterId`] or use a [`PhaseGrid`]).
    pub fn count(&mut self, name: &str, plane: Plane, delta: u64) {
        if !self.enabled {
            return;
        }
        let id = self.registry.counter(name, plane);
        self.registry.add(id, delta);
    }

    /// Opens a span under the currently open span (reads the blessed
    /// clock once). Exit with [`Telemetry::span_exit`].
    pub fn span_enter(&mut self, name: &str) -> SpanToken {
        if !self.enabled {
            return span::TOKEN_DISABLED;
        }
        self.spans.enter(name, clock::now_ns())
    }

    /// Closes a span, accumulating its wall-clock duration.
    pub fn span_exit(&mut self, token: SpanToken) {
        if token.is_disabled() {
            return;
        }
        let elapsed = clock::now_ns().saturating_sub(token.start_ns);
        self.spans.exit(token, elapsed);
    }

    /// Merges a pre-aggregated (count, total_ns) span under the current
    /// open span without touching the clock.
    pub fn span_aggregate(&mut self, name: &str, count: u64, total_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.add_aggregate(name, count, total_ns);
    }

    /// Copies out everything accumulated so far.
    pub fn snapshot(&self) -> Snapshot {
        if !self.enabled {
            return Snapshot::default();
        }
        Snapshot {
            counters: self.registry.counter_rows(),
            hists: self.registry.hist_rows(),
            spans: self.spans.rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_workload(tel: &mut Telemetry) {
        let outer = tel.span_enter("outer");
        let det = tel.counter("work.items", Plane::Deterministic);
        tel.add(det, 41);
        tel.incr(det);
        let eng = tel.counter("index.hits", Plane::Engine);
        tel.add(eng, 7);
        let tim = tel.counter("work.ns", Plane::Timing);
        tel.add(tim, 123_456);
        let h = tel.hist("work.sizes", Plane::Deterministic);
        tel.record(h, 16);
        tel.span_aggregate("batch", 10, 999);
        tel.span_exit(outer);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tel = Telemetry::disabled();
        record_workload(&mut tel);
        assert!(tel.snapshot().is_empty());
        assert!(tel.snapshot().deterministic_bytes().is_empty());
    }

    #[test]
    fn deterministic_bytes_exclude_engine_and_timing() {
        let mut tel = Telemetry::enabled();
        record_workload(&mut tel);
        let bytes = String::from_utf8(tel.snapshot().deterministic_bytes()).unwrap();
        assert!(bytes.contains("c work.items 42"));
        assert!(!bytes.contains("index.hits"));
        assert!(!bytes.contains("work.ns"));
        // Span shape present, no nanoseconds anywhere.
        assert!(bytes.contains("s outer x1"));
        assert!(bytes.contains("s outer/batch x10"));
    }

    #[test]
    fn config_bytes_include_engine_but_not_timing() {
        let mut tel = Telemetry::enabled();
        record_workload(&mut tel);
        let bytes = String::from_utf8(tel.snapshot().config_deterministic_bytes()).unwrap();
        assert!(bytes.contains("c:eng index.hits 7"));
        assert!(!bytes.contains("work.ns"));
    }

    #[test]
    fn identical_recording_gives_identical_deterministic_bytes() {
        let mut a = Telemetry::enabled();
        let mut b = Telemetry::enabled();
        record_workload(&mut a);
        record_workload(&mut b);
        assert_eq!(
            a.snapshot().deterministic_bytes(),
            b.snapshot().deterministic_bytes()
        );
        assert_eq!(
            a.snapshot().config_deterministic_bytes(),
            b.snapshot().config_deterministic_bytes()
        );
    }

    #[test]
    fn merge_combines_counters_and_spans() {
        let mut a = Telemetry::enabled();
        let mut b = Telemetry::enabled();
        record_workload(&mut a);
        record_workload(&mut b);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let items = merged
            .counters
            .iter()
            .find(|c| c.name == "work.items")
            .unwrap();
        assert_eq!(items.value, 84);
        let outer = merged.spans.iter().find(|s| s.path == "outer").unwrap();
        assert_eq!(outer.count, 2);
        let sizes = merged
            .hists
            .iter()
            .find(|h| h.name == "work.sizes")
            .unwrap();
        assert_eq!(sizes.hist.count, 2);
    }
}
