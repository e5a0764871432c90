//! Harness-side spans: one per call into a layer's public function.
//!
//! Spans are kept in memory and written as chrome-tracing JSON when the
//! run ends. A span's *self time* is its duration minus the part of that
//! interval its children cover, so summing self times by module splits an
//! iteration's wall time without counting anything twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<module>.<what>`; `<name>_ms` is the per-layer metric it feeds.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one iteration or one query.
    pub group: u64,
    /// Display lane in the trace viewer (0 for the harness thread).
    pub lane: u32,
}

impl Span {
    /// The layer a span belongs to: the part of its name before the dot.
    pub fn module(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle for an open span; `None` inside when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Collects spans. Recording can be switched off between iterations so the
/// same process yields both sides of the tracing-overhead comparison.
pub struct Tracer {
    origin: Instant,
    /// Whether `enter`/`record` keep anything.
    pub recording: bool,
    /// Group id stamped on spans opened with [`Tracer::enter`].
    pub group: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording,
            group: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            group: self.group,
            lane: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Records a finished interval measured elsewhere (a serve query's
    /// segments, or a child whose duration a layer reported itself).
    /// Returns its index for use as a parent.
    pub fn record(&mut self, span: Span) -> Option<usize> {
        if !self.recording {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent. Children may nest, abut or
/// overlap one another.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time in ms summed per `(group, span name)`.
pub fn self_ms_by_group_and_name(spans: &[Span]) -> BTreeMap<(u64, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry((s.group, s.name)).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Each module's share of the self time summed over the spans whose
/// group is in `groups` (the timed iterations: the shares describe the
/// workload body), largest first.
pub fn module_shares(spans: &[Span], groups: std::ops::Range<u64>) -> Vec<(&'static str, f64)> {
    let mut by_module: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        if groups.contains(&s.group) {
            *by_module.entry(s.module()).or_insert(0) += ns;
        }
    }
    let total: u64 = by_module.values().sum();
    let mut shares: Vec<(&'static str, f64)> = by_module
        .into_iter()
        .map(|(m, ns)| (m, ns as f64 / total.max(1) as f64))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    shares
}

/// Chrome-tracing ("Trace Event Format") JSON: one complete (`X`) event
/// per span, `cat` = module, `tid` = lane, `args` = group and parent.
/// `meta` pairs land in `otherData`.
pub fn chrome_json(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
    }
    out.push_str("},\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"group\":{},\"parent\":{}}}}}",
            s.name,
            s.module(),
            s.lane,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            s.group,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    out.push_str("\n]}\n");
    out
}

/// JSON string escaping for the few free-text values the harness emits.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            group: 1,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 with its own grandchild 20..30; child 70..90.
        let spans = vec![
            span("harness.iteration", 0, 100, None),
            span("sim.run_cell", 10, 60, Some(0)),
            span("workload.generate", 20, 30, Some(1)),
            span("trace.write", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Children 10..50 and 30..80 overlap; a third runs past the parent.
        let spans = vec![
            span("serve.query", 0, 100, None),
            span("serve.queue_wait", 10, 50, Some(0)),
            span("serve.exec", 30, 80, Some(0)),
            span("serve.handoff", 90, 130, Some(0)),
        ];
        // Covered: 10..80 and 90..100 = 80.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn a_child_inside_another_childs_interval_adds_nothing() {
        let spans = vec![
            span("a.root", 0, 50, None),
            span("a.big", 5, 45, Some(0)),
            span("a.small", 10, 20, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_and_switches_off() {
        let mut t = Tracer::new(true);
        t.group = 7;
        let a = t.enter("sim.outer");
        let b = t.enter("sim.inner");
        t.exit(b);
        t.exit(a);
        t.recording = false;
        let c = t.enter("sim.unrecorded");
        t.exit(c);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].group, 7);
        assert_eq!(t.spans()[0].module(), "sim");
    }

    #[test]
    fn shares_sum_to_one_and_json_is_balanced() {
        let spans = vec![
            span("harness.iteration", 0, 100, None),
            span("sim.run_cell", 0, 75, Some(0)),
        ];
        let shares = module_shares(&spans, 1..2);
        assert_eq!(shares[0], ("sim", 0.75));
        assert!((shares.iter().map(|s| s.1).sum::<f64>() - 1.0).abs() < 1e-12);
        let json = chrome_json(&spans, &[("seed", "2019".into())]);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"cat\":\"sim\""));
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
