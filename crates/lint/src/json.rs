//! Hand-rolled JSON rendering for `--format json` / `--json FILE`.
//!
//! The linter is dependency-free by design, so this is a minimal
//! writer, not a JSON library: it emits exactly the report shape CI
//! archives and budgets against. Strings are escaped per RFC 8259
//! (quote, backslash, control characters); numbers are emitted with
//! enough precision for millisecond timings.
//!
//! Schema (`version` bumps on breaking change):
//!
//! ```json
//! {
//!   "version": 2,
//!   "findings": [{"file", "line", "rule", "slug", "message"}],
//!   "unused_suppressions": [{"file", "line", "marker", "known"}],
//!   "unused_baseline": ["path:line:RULE"],
//!   "timings_ms": {"lex": 1.2, "D1": 0.3, …},
//!   "total_ms": 12.5,
//!   "files": 93
//! }
//! ```

use crate::WorkspaceReport;

/// Escapes `s` as a JSON string body (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

fn num(ms: f64) -> String {
    // Three decimals is plenty for ms timings and avoids 17-digit noise.
    format!("{ms:.3}")
}

/// Renders the full report as a single JSON document.
pub fn render_report(r: &WorkspaceReport) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n  \"findings\": [");
    for (i, d) in r.diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"slug\": \"{}\", \
             \"message\": \"{}\"}}",
            escape(&d.file),
            d.line,
            d.rule.id(),
            d.rule.slug(),
            escape(&d.message)
        ));
    }
    out.push_str(if r.diags.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"unused_suppressions\": [");
    for (i, u) in r.unused.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"marker\": \"{}\", \"known\": {}}}",
            escape(&u.file),
            u.line,
            escape(&u.marker),
            u.known
        ));
    }
    out.push_str(if r.unused.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"unused_baseline\": [");
    for (i, e) in r.unused_baseline.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape(e)));
    }
    out.push_str("],\n");

    out.push_str("  \"timings_ms\": {");
    for (i, (k, ms)) in r.timings.entries().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", escape(k), num(*ms)));
    }
    out.push_str("},\n");

    out.push_str(&format!("  \"total_ms\": {},\n", num(r.total_ms)));
    out.push_str(&format!("  \"files\": {}\n}}\n", r.n_files));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_sources, Allowlist};

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn report_renders_valid_shape() {
        let src = "pub fn f(xs: &[u64]) -> u64 { *xs.first().unwrap() }\n";
        let report = lint_sources(
            &[("crates/sim/src/x.rs".to_string(), src.to_string())],
            &Allowlist::empty(),
        );
        let json = render_report(&report);
        assert!(json.contains("\"version\": 2"));
        assert!(json.contains("\"rule\": \"S2\""));
        assert!(json.contains("\"total_ms\""));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
