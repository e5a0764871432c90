//! Snapshot sinks: chrome://tracing JSON for real-timestamped events, a
//! per-kind breakdown report of grid counters, and a dependency-free JSON
//! well-formedness checker used by tests to prove the exporter's output
//! actually parses.

use crate::Snapshot;

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One real-timestamped complete event for the chrome-tracing sink —
/// the shape request-scoped tracers (borg-witness) emit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (span segment kind, etc.).
    pub name: String,
    /// Track id — one lane per logical flow (e.g. per query).
    pub tid: u64,
    /// Start timestamp, µs.
    pub ts_us: u64,
    /// Duration, µs (rendered as at least 1 so zero-length markers stay
    /// visible).
    pub dur_us: u64,
    /// Extra `args` entries, rendered as JSON strings.
    pub args: Vec<(String, String)>,
}

/// Renders real-timestamped events as a chrome://tracing /
/// Perfetto-loadable JSON object (`{"traceEvents": [...]}`), one
/// complete ("X") event per [`TraceEvent`], in input order.
pub fn trace_events_json(events: &[TraceEvent]) -> String {
    let mut out: Vec<String> = Vec::with_capacity(events.len());
    for e in events {
        let args = e
            .args
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        out.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
            json_escape(&e.name),
            e.ts_us,
            e.dur_us.max(1),
            e.tid,
            args
        ));
    }
    format!("{{\"traceEvents\":[{}]}}", out.join(","))
}

/// A per-kind aggregate distilled from grid counters, for breakdown
/// reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindBreakdown {
    /// Kind name (the segment between the prefix and `.dNN`).
    pub kind: String,
    /// Total count across days.
    pub count: u64,
    /// Total timing-plane nanoseconds across days.
    pub total_ns: u64,
}

/// Aggregates `{prefix}.{kind}.dNN.{count,ns}` counters back into
/// per-kind totals, sorted by descending time then name — the shape a
/// profile report wants.
pub fn grid_breakdown(snap: &Snapshot, prefix: &str) -> Vec<KindBreakdown> {
    let mut by_kind: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    let dotted = format!("{prefix}.");
    for row in &snap.counters {
        let Some(rest) = row.name.strip_prefix(&dotted) else {
            continue;
        };
        // rest = "{kind}.dNN.count" | "{kind}.dNN.ns"
        let mut parts = rest.rsplitn(3, '.');
        let field = parts.next().unwrap_or("");
        let day = parts.next().unwrap_or("");
        let kind = parts.next().unwrap_or("");
        if kind.is_empty() || !day.starts_with('d') {
            continue;
        }
        let slot = by_kind.entry(kind.to_string()).or_insert((0, 0));
        match field {
            "count" => slot.0 += row.value,
            "ns" => slot.1 += row.value,
            _ => {}
        }
    }
    let mut out: Vec<KindBreakdown> = by_kind
        .into_iter()
        .map(|(kind, (count, total_ns))| KindBreakdown {
            kind,
            count,
            total_ns,
        })
        .collect();
    out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.kind.cmp(&b.kind)));
    out
}

/// Formats a nanosecond quantity with an adaptive unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a percentage-annotated breakdown table for one grid prefix
/// (e.g. the per-`Ev`-kind event-loop profile).
pub fn breakdown_report(snap: &Snapshot, prefix: &str, title: &str) -> String {
    let rows = grid_breakdown(snap, prefix);
    let total_ns: u64 = rows.iter().map(|r| r.total_ns).sum();
    let total_count: u64 = rows.iter().map(|r| r.count).sum();
    let mut out = format!(
        "{title} (total {} across {} events):\n",
        fmt_ns(total_ns),
        total_count
    );
    for r in &rows {
        let pct = if total_ns == 0 {
            0.0
        } else {
            r.total_ns as f64 * 100.0 / total_ns as f64
        };
        out.push_str(&format!(
            "  {:<20} x{:<10} {:>10}  {:>5.1}%\n",
            r.kind,
            r.count,
            fmt_ns(r.total_ns),
            pct
        ));
    }
    out
}

/// Minimal JSON well-formedness checker (no values are produced — this
/// exists so tests can assert exporter output parses without pulling a
/// JSON dependency into the workspace). Returns `Err(position)` at the
/// first offending byte.
pub fn validate_json(s: &str) -> Result<(), usize> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }
    fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), usize> {
        if depth > 512 {
            return Err(*pos);
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, pos);
                    string(b, pos)?;
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(*pos);
                    }
                    *pos += 1;
                    value(b, pos, depth + 1)?;
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(());
                        }
                        _ => return Err(*pos),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(());
                }
                loop {
                    value(b, pos, depth + 1)?;
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(());
                        }
                        _ => return Err(*pos),
                    }
                }
            }
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, b"true"),
            Some(b'f') => literal(b, pos, b"false"),
            Some(b'n') => literal(b, pos, b"null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
            _ => Err(*pos),
        }
    }
    fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), usize> {
        if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
            *pos += lit.len();
            Ok(())
        } else {
            Err(*pos)
        }
    }
    fn string(b: &[u8], pos: &mut usize) -> Result<(), usize> {
        if b.get(*pos) != Some(&b'"') {
            return Err(*pos);
        }
        *pos += 1;
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            if b.len() < *pos + 5
                                || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                            {
                                return Err(*pos);
                            }
                            *pos += 5;
                        }
                        _ => return Err(*pos),
                    }
                }
                0x00..=0x1f => return Err(*pos),
                _ => *pos += 1,
            }
        }
        Err(*pos)
    }
    fn number(b: &[u8], pos: &mut usize) -> Result<(), usize> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == start || (*pos == start + 1 && b[start] == b'-') {
            return Err(*pos);
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            let frac = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            if *pos == frac {
                return Err(*pos);
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            let exp = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            if *pos == exp {
                return Err(*pos);
            }
        }
        Ok(())
    }
    value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos == b.len() {
        Ok(())
    } else {
        Err(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Plane, Telemetry};

    fn sample_snapshot() -> Snapshot {
        let mut tel = Telemetry::enabled();
        let c = tel.counter("sim.ev.dispatch.d00.count", Plane::Deterministic);
        tel.add(c, 100);
        let n = tel.counter("sim.ev.dispatch.d00.ns", Plane::Timing);
        tel.add(n, 5_000_000);
        let c2 = tel.counter("sim.ev.usage_tick.d01.count", Plane::Deterministic);
        tel.add(c2, 50);
        tel.snapshot()
    }

    #[test]
    fn trace_events_render_as_valid_json() {
        let events = vec![
            TraceEvent {
                name: "queue".into(),
                tid: 7,
                ts_us: 100,
                dur_us: 50,
                args: vec![("trace_id".into(), "deadbeef".into())],
            },
            TraceEvent {
                name: "cancel \"marker\"".into(),
                tid: 7,
                ts_us: 150,
                dur_us: 0,
                args: Vec::new(),
            },
        ];
        let json = trace_events_json(&events);
        validate_json(&json).unwrap();
        assert!(json.contains("\"tid\":7"));
        assert!(json.contains("\"trace_id\":\"deadbeef\""));
        // Zero-length markers render with a visible 1µs duration.
        assert!(json.contains("\"dur\":1"));
    }

    #[test]
    fn breakdown_aggregates_days() {
        let snap = sample_snapshot();
        let rows = grid_breakdown(&snap, "sim.ev");
        assert_eq!(rows.len(), 2);
        // Sorted by descending time: dispatch (5ms) first.
        assert_eq!(rows[0].kind, "dispatch");
        assert_eq!(rows[0].count, 100);
        assert_eq!(rows[0].total_ns, 5_000_000);
        assert_eq!(rows[1].kind, "usage_tick");
        assert_eq!(rows[1].total_ns, 0);
    }

    #[test]
    fn reports_render() {
        let bd = breakdown_report(&sample_snapshot(), "sim.ev", "event loop");
        assert!(bd.contains("dispatch"));
        assert!(bd.contains('%'));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{}").unwrap();
        validate_json("[1, 2.5, -3e4, \"a\\nb\", true, null, {\"k\":[]}]").unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
        assert!(validate_json("01ok").is_err());
        assert!(validate_json("\"unterminated").is_err());
    }
}
