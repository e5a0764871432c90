//! borg-witness: request-scoped tracing for the serve path.
//!
//! Aggregate tallies (DESIGN.md §15) prove overload behavior in bulk;
//! the witness explains *one query*. Every submission mints a causal
//! **trace id** — a pure hash of (query id, tier, epoch, plan
//! fingerprint) — and the service reports lifecycle edges back here,
//! building a per-query **span tree**:
//!
//! ```text
//! trace ab12… q 17 prod          (root: submission → terminal)
//!   queue      …                 (admission queue / retry backoff)
//!   attempt 0  …                 (dispatch → result fed back)
//!     execute    …               (attempt minus injected stall)
//!       block_scan …             (blocks claimed via the CancelToken)
//!     cancel     …               (zero-length marker: token observed)
//! ```
//!
//! Block-scan attribution rides the [`borg_query::CancelToken`] the
//! service already threads into `try_map_blocks`: workers note each
//! claimed block on the token, the witness reads the count when the
//! attempt's result comes back. The same tree is exported two ways:
//! canonical text bytes (the byte-identity surface the determinism
//! tests pin) and real-timestamp chrome-tracing JSON
//! ([`borg_telemetry::trace_events_json`]).
//!
//! The witness also keeps per-tier **histogram exemplars**: for each
//! latency bucket of the per-tier histogram, the trace id of the first
//! completion that landed there — the hook that resolves "p99 spiked"
//! to a concrete span tree (the `serve` report prints one).

use crate::tier::Tier;
use borg_query::fxhash::FxHasher;
use borg_telemetry::{Histogram, Plane, Telemetry, TraceEvent};
use std::collections::BTreeMap;
use std::hash::Hasher;

/// Span-segment kinds within one query's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    /// Waiting in an admission queue (or retry backoff + requeue).
    Queue,
    /// A dispatched execution attempt, dispatch → result.
    Attempt,
    /// The executing part of an attempt (minus the injected stall).
    Execute,
    /// Block-scan work within the execute segment.
    BlockScan,
    /// Zero-length marker: the attempt observed its cancelled token
    /// (or the query expired while queued).
    Cancel,
}

impl SegKind {
    /// All kinds, stable order.
    pub const ALL: [SegKind; 5] = [
        SegKind::Queue,
        SegKind::Attempt,
        SegKind::Execute,
        SegKind::BlockScan,
        SegKind::Cancel,
    ];

    /// Stable token for exports and metric paths.
    pub fn name(self) -> &'static str {
        match self {
            SegKind::Queue => "queue",
            SegKind::Attempt => "attempt",
            SegKind::Execute => "execute",
            SegKind::BlockScan => "block_scan",
            SegKind::Cancel => "cancel",
        }
    }

    /// The kind whose segments enclose this kind's: `None` for the
    /// root's direct children.
    pub fn parent(self) -> Option<SegKind> {
        match self {
            SegKind::Queue | SegKind::Attempt => None,
            SegKind::Execute | SegKind::Cancel => Some(SegKind::Attempt),
            SegKind::BlockScan => Some(SegKind::Execute),
        }
    }

    /// Depth in the rendered span tree (root is 0).
    pub fn depth(self) -> usize {
        match self {
            SegKind::Queue | SegKind::Attempt => 1,
            SegKind::Execute | SegKind::Cancel => 2,
            SegKind::BlockScan => 3,
        }
    }
}

/// One segment of a query's span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// What kind of work this covers.
    pub kind: SegKind,
    /// Attempt number the segment belongs to (queue segments carry the
    /// attempt they precede).
    pub attempt: u32,
    /// Start, µs.
    pub start_us: u64,
    /// End, µs (== start for markers).
    pub end_us: u64,
    /// Blocks attributed (block-scan segments only).
    pub blocks: u64,
}

/// One query's full trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// The minted causal id.
    pub trace_id: u64,
    /// The query id it witnesses.
    pub query_id: u64,
    /// Priority class.
    pub tier: Tier,
    /// Submission time, µs.
    pub submitted_us: u64,
    /// Terminal time, µs (0 while live).
    pub end_us: u64,
    /// Terminal token: `done`, `expired`, `failed`, a shed reason, or
    /// `live`.
    pub outcome: &'static str,
    /// Segments in creation order.
    pub segments: Vec<Segment>,
}

impl QueryTrace {
    /// Renders the span tree as indented text (one line per segment).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "trace {:016x} q {} {} sub {} end {} {}\n",
            self.trace_id,
            self.query_id,
            self.tier.name(),
            self.submitted_us,
            self.end_us,
            self.outcome
        );
        for s in &self.segments {
            for _ in 0..s.kind.depth() {
                out.push_str("  ");
            }
            let _ = writeln!(
                out,
                "{} a{} {}..{} b{}",
                s.kind.name(),
                s.attempt,
                s.start_us,
                s.end_us,
                s.blocks
            );
        }
        out
    }

    /// Total µs spent in segments of `kind`.
    pub fn time_in(&self, kind: SegKind) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.end_us - s.start_us)
            .sum()
    }
}

/// Witness tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessConfig {
    /// Whether traces are collected (off = all no-ops, zero cost
    /// beyond one branch per hook).
    pub enabled: bool,
}

impl WitnessConfig {
    /// Collecting.
    pub fn on() -> WitnessConfig {
        WitnessConfig { enabled: true }
    }

    /// Inert.
    pub fn off() -> WitnessConfig {
        WitnessConfig { enabled: false }
    }
}

/// Mints the causal trace id for a submission: a pure FxHash of the
/// identifying tuple, so the id is stable across runs (same workload ⇒
/// same ids) yet unique per query within a run.
pub fn mint_trace_id(query_id: u64, tier: Tier, epoch: &str, plan_fingerprint: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(query_id);
    h.write_u8(tier.index() as u8);
    h.write(epoch.as_bytes());
    h.write_u64(plan_fingerprint);
    h.finish()
}

/// See the module docs.
#[derive(Debug, Clone)]
pub struct Witness {
    enabled: bool,
    /// Completed and live traces by query id.
    traces: BTreeMap<u64, QueryTrace>,
    /// Open queue segment per query id: (entered_at, attempt).
    open_queue: BTreeMap<u64, (u64, u32)>,
    /// Open attempt per query id: (attempt, start, stall_us).
    open_attempt: BTreeMap<u64, (u32, u64, u64)>,
    /// First trace id landing in each per-tier latency bucket
    /// (aligned with [`Histogram`]'s 65 bit-length buckets).
    exemplars: [[Option<u64>; 65]; 3],
}

impl Witness {
    /// A fresh witness.
    pub fn new(cfg: WitnessConfig) -> Witness {
        Witness {
            enabled: cfg.enabled,
            traces: BTreeMap::new(),
            open_queue: BTreeMap::new(),
            open_attempt: BTreeMap::new(),
            exemplars: [[None; 65]; 3],
        }
    }

    /// Whether this witness records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A submission entered the service: open the root and the first
    /// queue segment.
    pub fn on_submit(&mut self, now_us: u64, id: u64, tier: Tier, trace_id: u64) {
        if !self.enabled {
            return;
        }
        self.traces.insert(
            id,
            QueryTrace {
                trace_id,
                query_id: id,
                tier,
                submitted_us: now_us,
                end_us: 0,
                outcome: "live",
                segments: Vec::new(),
            },
        );
        self.open_queue.insert(id, (now_us, 0));
    }

    /// An attempt was dispatched: close the queue segment, open the
    /// attempt (remembering the injected stall so the execute
    /// sub-segment can exclude it).
    pub fn on_start(&mut self, now_us: u64, id: u64, attempt: u32, stall_us: u64) {
        if !self.enabled {
            return;
        }
        if let Some((entered, _)) = self.open_queue.remove(&id) {
            if let Some(tr) = self.traces.get_mut(&id) {
                tr.segments.push(Segment {
                    kind: SegKind::Queue,
                    attempt,
                    start_us: entered,
                    end_us: now_us,
                    blocks: 0,
                });
            }
        }
        self.open_attempt.insert(id, (attempt, now_us, stall_us));
    }

    /// A retry was scheduled: the query re-enters waiting state now
    /// (the queue segment covers backoff + requeue until dispatch).
    pub fn on_retry(&mut self, now_us: u64, id: u64, next_attempt: u32) {
        if !self.enabled {
            return;
        }
        self.open_queue.insert(id, (now_us, next_attempt));
    }

    /// An attempt's result came back: close the attempt, derive the
    /// execute / block-scan sub-segments, and drop a cancel marker if
    /// the attempt was cancelled.
    pub fn on_attempt_end(&mut self, now_us: u64, id: u64, cancelled: bool, blocks: u64) {
        if !self.enabled {
            return;
        }
        let Some((attempt, start, stall)) = self.open_attempt.remove(&id) else {
            return;
        };
        let Some(tr) = self.traces.get_mut(&id) else {
            return;
        };
        tr.segments.push(Segment {
            kind: SegKind::Attempt,
            attempt,
            start_us: start,
            end_us: now_us,
            blocks: 0,
        });
        let exec_start = (start + stall).min(now_us);
        tr.segments.push(Segment {
            kind: SegKind::Execute,
            attempt,
            start_us: exec_start,
            end_us: now_us,
            blocks: 0,
        });
        if blocks > 0 {
            tr.segments.push(Segment {
                kind: SegKind::BlockScan,
                attempt,
                start_us: exec_start,
                end_us: now_us,
                blocks,
            });
        }
        if cancelled {
            tr.segments.push(Segment {
                kind: SegKind::Cancel,
                attempt,
                start_us: now_us,
                end_us: now_us,
                blocks: 0,
            });
        }
    }

    /// The query reached a terminal state. Closes any open queue
    /// segment (shed / queued-expiry paths) and stamps the outcome; a
    /// queued expiry also gets a cancel marker.
    pub fn on_terminal(&mut self, now_us: u64, id: u64, outcome: &'static str) {
        if !self.enabled {
            return;
        }
        let queued = self.open_queue.remove(&id);
        self.open_attempt.remove(&id);
        let Some(tr) = self.traces.get_mut(&id) else {
            return;
        };
        if let Some((entered, attempt)) = queued {
            tr.segments.push(Segment {
                kind: SegKind::Queue,
                attempt,
                start_us: entered,
                end_us: now_us,
                blocks: 0,
            });
            if outcome == "expired" {
                tr.segments.push(Segment {
                    kind: SegKind::Cancel,
                    attempt,
                    start_us: now_us,
                    end_us: now_us,
                    blocks: 0,
                });
            }
        }
        tr.end_us = now_us;
        tr.outcome = outcome;
    }

    /// Records a completion latency for the exemplar table: the first
    /// trace to land in a histogram bucket becomes that bucket's
    /// exemplar (deterministic — completion order is part of the
    /// replayable schedule).
    pub fn note_done(&mut self, tier: Tier, latency_us: u64, trace_id: u64) {
        if !self.enabled {
            return;
        }
        let b = Histogram::bucket_of(latency_us);
        let slot = &mut self.exemplars[tier.index()][b];
        if slot.is_none() {
            *slot = Some(trace_id);
        }
    }

    /// The exemplar trace id for a tier's latency bucket, if any
    /// completion landed there.
    pub fn exemplar(&self, tier: Tier, bucket: usize) -> Option<u64> {
        self.exemplars[tier.index()].get(bucket).copied().flatten()
    }

    /// Drill-down: the exemplar for the bucket holding the
    /// `q`-quantile of `hist` (the per-tier latency histogram). A
    /// non-empty bucket always has an exemplar, because every
    /// completion that fed the histogram also fed the exemplar table.
    pub fn exemplar_for(&self, tier: Tier, hist: &Histogram, q: f64) -> Option<(usize, u64)> {
        let b = hist.quantile_bucket(q)?;
        self.exemplar(tier, b).map(|id| (b, id))
    }

    /// A trace by query id.
    pub fn trace(&self, query_id: u64) -> Option<&QueryTrace> {
        self.traces.get(&query_id)
    }

    /// A trace by its minted trace id (linear scan; exports and
    /// drill-downs only).
    pub fn trace_by_id(&self, trace_id: u64) -> Option<&QueryTrace> {
        self.traces.values().find(|t| t.trace_id == trace_id)
    }

    /// Number of traces collected.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no traces were collected.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Canonical text export, query-id order — the byte-identity
    /// surface `tests/serve_witness.rs` pins.
    pub fn export_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for tr in self.traces.values() {
            out.push_str(&tr.render());
        }
        out.into_bytes()
    }

    /// Real-timestamp chrome-tracing events: one lane per query, one
    /// complete event per segment plus a root event per trace. Render
    /// with [`borg_telemetry::trace_events_json`].
    pub fn chrome_events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for tr in self.traces.values() {
            let hex = format!("{:016x}", tr.trace_id);
            out.push(TraceEvent {
                name: format!("q{} {}", tr.query_id, tr.outcome),
                tid: tr.query_id,
                ts_us: tr.submitted_us,
                dur_us: tr.end_us.saturating_sub(tr.submitted_us),
                args: vec![
                    ("trace_id".to_string(), hex.clone()),
                    ("tier".to_string(), tr.tier.name().to_string()),
                ],
            });
            for s in &tr.segments {
                out.push(TraceEvent {
                    name: s.kind.name().to_string(),
                    tid: tr.query_id,
                    ts_us: s.start_us,
                    dur_us: s.end_us - s.start_us,
                    args: vec![
                        ("trace_id".to_string(), hex.clone()),
                        ("attempt".to_string(), s.attempt.to_string()),
                        ("blocks".to_string(), s.blocks.to_string()),
                    ],
                });
            }
        }
        out
    }

    /// Exports per-segment-kind aggregates onto the telemetry engine
    /// plane — grid-style counters (`serve.seg.{kind}.d00.{count,ns}`)
    /// plus span aggregates — so serve-side time breaks down through
    /// the same registry/export path as the sim event loop. Each kind's
    /// ns is its *self* time: its segments' duration minus that of the
    /// segments nested directly inside them, so the kinds partition the
    /// traces' queue + attempt time instead of counting nested time twice.
    pub fn export_telemetry(&self, tel: &mut Telemetry) {
        if !self.enabled || !tel.is_enabled() {
            return;
        }
        let mut counts = [0u64; 5];
        let mut total_us = [0u64; 5];
        for s in self.traces.values().flat_map(|tr| &tr.segments) {
            counts[s.kind as usize] += 1;
            total_us[s.kind as usize] += s.end_us - s.start_us;
        }
        let mut self_us = total_us;
        for kind in SegKind::ALL {
            if let Some(parent) = kind.parent() {
                self_us[parent as usize] -= total_us[kind as usize];
            }
        }
        for kind in SegKind::ALL {
            let (count, ns) = (counts[kind as usize], self_us[kind as usize] * 1_000);
            tel.count(
                &format!("serve.seg.{}.d00.count", kind.name()),
                Plane::Engine,
                count,
            );
            tel.count(
                &format!("serve.seg.{}.d00.ns", kind.name()),
                Plane::Engine,
                ns,
            );
            tel.span_aggregate(&format!("serve.{}", kind.name()), count, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_lifecycle() -> Witness {
        let mut w = Witness::new(WitnessConfig::on());
        let tid = mint_trace_id(7, Tier::Prod, "a", 0xfeed);
        w.on_submit(100, 7, Tier::Prod, tid);
        w.on_start(150, 7, 0, 20);
        w.on_attempt_end(400, 7, false, 3);
        w.on_terminal(400, 7, "done");
        w.note_done(Tier::Prod, 300, tid);
        w
    }

    #[test]
    fn lifecycle_builds_the_span_tree() {
        let w = full_lifecycle();
        let tr = w.trace(7).unwrap();
        assert_eq!(tr.outcome, "done");
        assert_eq!(tr.end_us, 400);
        let kinds: Vec<SegKind> = tr.segments.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SegKind::Queue,
                SegKind::Attempt,
                SegKind::Execute,
                SegKind::BlockScan
            ]
        );
        // Queue 100..150; execute starts after the 20µs stall.
        assert_eq!(tr.time_in(SegKind::Queue), 50);
        assert_eq!(tr.time_in(SegKind::Execute), 230);
        assert_eq!(tr.segments[3].blocks, 3);
        let rendered = tr.render();
        assert!(rendered.contains("block_scan a0 170..400 b3"));
    }

    #[test]
    fn trace_ids_are_pure_and_distinct() {
        let a = mint_trace_id(1, Tier::Prod, "a", 10);
        assert_eq!(a, mint_trace_id(1, Tier::Prod, "a", 10));
        assert_ne!(a, mint_trace_id(2, Tier::Prod, "a", 10));
        assert_ne!(a, mint_trace_id(1, Tier::Batch, "a", 10));
        assert_ne!(a, mint_trace_id(1, Tier::Prod, "b", 10));
    }

    #[test]
    fn cancelled_attempt_gets_a_marker() {
        let mut w = Witness::new(WitnessConfig::on());
        w.on_submit(0, 1, Tier::Batch, 0xabc);
        w.on_start(10, 1, 0, 0);
        w.on_attempt_end(500, 1, true, 2);
        w.on_terminal(500, 1, "expired");
        let tr = w.trace(1).unwrap();
        assert!(tr.segments.iter().any(|s| s.kind == SegKind::Cancel));
        assert_eq!(tr.outcome, "expired");
    }

    #[test]
    fn queued_expiry_closes_queue_with_a_marker() {
        let mut w = Witness::new(WitnessConfig::on());
        w.on_submit(0, 2, Tier::BestEffort, 0xdef);
        w.on_terminal(400, 2, "expired");
        let tr = w.trace(2).unwrap();
        assert_eq!(tr.segments[0].kind, SegKind::Queue);
        assert_eq!(tr.segments[0].end_us, 400);
        assert_eq!(tr.segments[1].kind, SegKind::Cancel);
    }

    #[test]
    fn retry_reopens_the_queue_segment() {
        let mut w = Witness::new(WitnessConfig::on());
        w.on_submit(0, 3, Tier::Prod, 0x123);
        w.on_start(5, 3, 0, 0);
        w.on_attempt_end(50, 3, false, 0);
        w.on_retry(50, 3, 1);
        w.on_start(90, 3, 1, 0);
        w.on_attempt_end(200, 3, false, 4);
        w.on_terminal(200, 3, "done");
        let tr = w.trace(3).unwrap();
        let queues: Vec<&Segment> = tr
            .segments
            .iter()
            .filter(|s| s.kind == SegKind::Queue)
            .collect();
        assert_eq!(queues.len(), 2);
        assert_eq!((queues[1].start_us, queues[1].end_us), (50, 90));
        assert_eq!(queues[1].attempt, 1);
    }

    #[test]
    fn exemplar_is_first_in_bucket_and_quantile_resolvable() {
        let mut w = Witness::new(WitnessConfig::on());
        w.note_done(Tier::Prod, 1_000, 0xAAA);
        w.note_done(Tier::Prod, 1_100, 0xBBB); // same bucket, ignored
        w.note_done(Tier::Prod, 60_000, 0xCCC);
        let mut h = Histogram::default();
        h.record(1_000);
        h.record(1_100);
        h.record(60_000);
        let (b, id) = w.exemplar_for(Tier::Prod, &h, 0.99).unwrap();
        assert_eq!(id, 0xCCC);
        assert_eq!(b, Histogram::bucket_of(60_000));
        let (_, id_low) = w.exemplar_for(Tier::Prod, &h, 0.0).unwrap();
        assert_eq!(id_low, 0xAAA, "first completion wins the bucket");
    }

    #[test]
    fn exports_are_consistent_and_deterministic() {
        let a = full_lifecycle();
        let b = full_lifecycle();
        assert_eq!(a.export_bytes(), b.export_bytes());
        assert!(!a.export_bytes().is_empty());
        let json = borg_telemetry::trace_events_json(&a.chrome_events());
        borg_telemetry::validate_json(&json).unwrap();
        let tr = a.trace_by_id(a.trace(7).unwrap().trace_id).unwrap();
        assert_eq!(tr.query_id, 7);
    }

    #[test]
    fn disabled_witness_is_inert() {
        let mut w = Witness::new(WitnessConfig::off());
        w.on_submit(0, 1, Tier::Prod, 1);
        w.on_start(1, 1, 0, 0);
        w.on_attempt_end(2, 1, false, 5);
        w.on_terminal(2, 1, "done");
        w.note_done(Tier::Prod, 2, 1);
        assert!(w.is_empty());
        assert!(w.export_bytes().is_empty());
        assert!(w.exemplar(Tier::Prod, 2).is_none());
    }

    #[test]
    fn telemetry_export_aggregates_segment_kinds() {
        let w = full_lifecycle();
        let mut tel = Telemetry::enabled();
        w.export_telemetry(&mut tel);
        let snap = tel.snapshot();
        let rows = borg_telemetry::grid_breakdown(&snap, "serve.seg");
        let ns = |kind: &str| rows.iter().find(|r| r.kind == kind).unwrap().total_ns;
        let queue = rows.iter().find(|r| r.kind == "queue").unwrap();
        assert_eq!(queue.count, 1);
        // Self time: attempt 150..400 less execute 170..400; execute
        // less the block scan that covers all of it.
        assert_eq!(ns("queue"), 50_000);
        assert_eq!(ns("attempt"), 20_000);
        assert_eq!(ns("execute"), 0);
        assert_eq!(ns("block_scan"), 230_000);
        // The kinds partition the root span, submission 100 to terminal 400.
        let total: u64 = rows.iter().map(|r| r.total_ns).sum();
        assert_eq!(total, 300_000);
    }
}
