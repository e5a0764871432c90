//! A token-level lexer for Rust source, sufficient for pattern-based
//! static analysis.
//!
//! This is not a full Rust lexer: it produces a flat token stream
//! (identifiers, literals, punctuation, comments) with line numbers,
//! which is what the rule engine in [`crate::rules`] pattern-matches
//! over. It does handle the parts that break naive text scanning:
//! string/char/raw-string literals (so `"Instant::now"` in a string is
//! not a violation), nested block comments, lifetimes vs. char
//! literals, and multi-char operators like `::` that the rules key on.

/// Token classes the rule engine distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `unsafe`, `HashMap`, ...).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Numeric literal (`0`, `0.5`, `1_000u32`, `0xff`).
    Num,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation; multi-char operators (`::`, `->`, `==`) are single
    /// tokens.
    Punct,
    /// Line or block comment, including doc comments; text keeps the
    /// comment markers.
    Comment,
}

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// Multi-char operators, longest first so maximal munch works.
///
/// Deliberately absent: `<<`, `>>`, `<<=`, `>>=`, so every generic
/// bracket of `Vec<Vec<u32>>` is a token of its own. Shift expressions
/// lex as two adjacent angle-bracket tokens; no rule patterns on shifts.
/// `->` stays fused so a return arrow is never read as a generic closer.
const OPS3: &[&str] = &["..=", "..."];
const OPS2: &[&str] = &[
    "::", "->", "=>", "..", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=",
];

/// Lexes `src` into a flat token stream. Unrecognised bytes become
/// single-char `Punct` tokens; the lexer never fails.
pub fn lex(src: &str) -> Vec<Tok> {
    let cs: Vec<char> = src.chars().collect();
    let n = cs.len();
    let mut out = Vec::with_capacity(n / 4);
    let mut i = 0usize;
    let mut line = 1u32;

    let push = |out: &mut Vec<Tok>, kind: TokKind, text: String, line: u32| {
        out.push(Tok { kind, text, line });
    };

    while i < n {
        let c = cs[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < n && cs[i + 1] == '/' {
            let start = i;
            while i < n && cs[i] != '\n' {
                i += 1;
            }
            push(
                &mut out,
                TokKind::Comment,
                cs[start..i].iter().collect(),
                line,
            );
            continue;
        }
        if c == '/' && i + 1 < n && cs[i + 1] == '*' {
            let (start, start_line) = (i, line);
            let mut depth = 0usize;
            while i < n {
                if cs[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if cs[i] == '/' && i + 1 < n && cs[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if cs[i] == '*' && i + 1 < n && cs[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            push(
                &mut out,
                TokKind::Comment,
                cs[start..i].iter().collect(),
                start_line,
            );
            continue;
        }

        // Raw / byte / c strings and byte chars: r"", r#""#, b"", br"",
        // b'', c"". Fall through to plain identifier when not followed
        // by a quote.
        if c == 'r' || c == 'b' || c == 'c' {
            let mut j = i + 1;
            let mut is_raw = c == 'r';
            if c == 'b' && j < n && cs[j] == 'r' {
                is_raw = true;
                j += 1;
            }
            if is_raw && j < n && (cs[j] == '"' || cs[j] == '#') {
                // Raw string: count #s, then read to `"` + #s.
                let start = i;
                let start_line = line;
                let mut hashes = 0usize;
                while j < n && cs[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && cs[j] == '"' {
                    j += 1;
                    'raw: while j < n {
                        if cs[j] == '\n' {
                            line += 1;
                            j += 1;
                        } else if cs[j] == '"' {
                            let mut k = j + 1;
                            let mut seen = 0usize;
                            while k < n && cs[k] == '#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break 'raw;
                            }
                            j += 1;
                        } else {
                            j += 1;
                        }
                    }
                    push(
                        &mut out,
                        TokKind::Str,
                        cs[start..j].iter().collect(),
                        start_line,
                    );
                    i = j;
                    continue;
                }
                // `r#ident` raw identifier: fall through as ident below.
            }
            if (c == 'b' || c == 'c') && i + 1 < n && cs[i + 1] == '"' {
                let (start, start_line) = (i, line);
                i += 1; // at the quote; reuse plain-string scan below
                i = scan_plain_string(&cs, i, &mut line);
                push(
                    &mut out,
                    TokKind::Str,
                    cs[start..i].iter().collect(),
                    start_line,
                );
                continue;
            }
            if c == 'b' && i + 1 < n && cs[i + 1] == '\'' {
                let start = i;
                i = scan_char_literal(&cs, i + 1);
                push(&mut out, TokKind::Char, cs[start..i].iter().collect(), line);
                continue;
            }
        }

        // Identifiers and keywords (incl. raw identifiers `r#loop`).
        if c == '_' || c.is_alphabetic() {
            let start = i;
            if c == 'r' && i + 1 < n && cs[i + 1] == '#' {
                i += 2;
            }
            while i < n && (cs[i] == '_' || cs[i].is_alphanumeric()) {
                i += 1;
            }
            push(
                &mut out,
                TokKind::Ident,
                cs[start..i].iter().collect(),
                line,
            );
            continue;
        }

        // Numbers: integer part, optional fraction (not `..`), optional
        // exponent, optional type suffix — glued into one token.
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
                i += 1;
            }
            if i + 1 < n && cs[i] == '.' && cs[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
                    i += 1;
                }
            } else if i < n && cs[i] == '.' && (i + 1 >= n || cs[i + 1] != '.') {
                // Trailing-dot float like `1.` (but not `1..n`).
                i += 1;
            }
            if i < n && (cs[i] == '+' || cs[i] == '-') && cs[i - 1].eq_ignore_ascii_case(&'e') {
                i += 1;
                while i < n && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
                    i += 1;
                }
            }
            push(&mut out, TokKind::Num, cs[start..i].iter().collect(), line);
            continue;
        }

        // Plain strings.
        if c == '"' {
            let (start, start_line) = (i, line);
            i = scan_plain_string(&cs, i, &mut line);
            push(
                &mut out,
                TokKind::Str,
                cs[start..i].iter().collect(),
                start_line,
            );
            continue;
        }

        // `'` starts either a char literal or a lifetime/label.
        if c == '\'' {
            if i + 1 < n && cs[i + 1] == '\\' {
                let start = i;
                i = scan_char_literal(&cs, i);
                push(&mut out, TokKind::Char, cs[start..i].iter().collect(), line);
                continue;
            }
            if i + 2 < n && cs[i + 2] == '\'' && cs[i + 1] != '\'' {
                push(&mut out, TokKind::Char, cs[i..i + 3].iter().collect(), line);
                i += 3;
                continue;
            }
            // Lifetime / label: `'` + ident chars.
            let start = i;
            i += 1;
            while i < n && (cs[i] == '_' || cs[i].is_alphanumeric()) {
                i += 1;
            }
            push(
                &mut out,
                TokKind::Lifetime,
                cs[start..i].iter().collect(),
                line,
            );
            continue;
        }

        // Punctuation, maximal munch on the fixed operator tables.
        let rest3: String = cs[i..n.min(i + 3)].iter().collect();
        let rest2: String = cs[i..n.min(i + 2)].iter().collect();
        if OPS3.contains(&rest3.as_str()) {
            push(&mut out, TokKind::Punct, rest3, line);
            i += 3;
        } else if OPS2.contains(&rest2.as_str()) {
            push(&mut out, TokKind::Punct, rest2, line);
            i += 2;
        } else {
            push(&mut out, TokKind::Punct, c.to_string(), line);
            i += 1;
        }
    }
    out
}

/// Scans a `"…"` body starting at the opening quote; returns the index
/// one past the closing quote and bumps `line` across embedded
/// newlines.
fn scan_plain_string(cs: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = cs.len();
    i += 1; // opening quote
    while i < n {
        match cs[i] {
            '\\' => i = (i + 2).min(n),
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scans a char/byte-char literal starting at the opening `'`; returns
/// the index one past the closing `'`.
fn scan_char_literal(cs: &[char], mut i: usize) -> usize {
    let n = cs.len();
    i += 1; // opening quote
    while i < n {
        match cs[i] {
            '\\' => i = (i + 2).min(n),
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_paths() {
        let ts = kinds("SystemTime::now()");
        assert_eq!(ts[0], (TokKind::Ident, "SystemTime".into()));
        assert_eq!(ts[1], (TokKind::Punct, "::".into()));
        assert_eq!(ts[2], (TokKind::Ident, "now".into()));
    }

    #[test]
    fn strings_hide_their_content() {
        let ts = kinds(r#"let x = "Instant::now() // not a comment";"#);
        assert!(ts.iter().all(|(k, t)| *k != TokKind::Ident || t != "now"));
        assert!(ts.iter().any(|(k, _)| *k == TokKind::Str));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let ts = kinds(r##"let x = r#"a "quoted" b"#; y"##);
        assert!(ts
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("quoted")));
        assert_eq!(ts.last().unwrap().1, "y");
    }

    #[test]
    fn lifetime_vs_char() {
        let ts = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert!(ts.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(ts.iter().any(|(k, t)| *k == TokKind::Char && t == "'x'"));
        assert!(ts.iter().any(|(k, t)| *k == TokKind::Char && t == "'\\n'"));
    }

    #[test]
    fn nested_block_comments() {
        let ts = kinds("/* outer /* inner */ still */ x");
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].0, TokKind::Comment);
        assert_eq!(ts[1].1, "x");
    }

    #[test]
    fn ranges_are_not_floats() {
        let ts = kinds("for i in 0..n {}");
        assert!(ts.iter().any(|(k, t)| *k == TokKind::Num && t == "0"));
        assert!(ts.iter().any(|(k, t)| *k == TokKind::Punct && t == ".."));
    }

    #[test]
    fn raw_identifiers_stay_single_tokens() {
        // `r#fn` / `r#type` are ordinary identifiers that happen to
        // spell keywords; the rules must see them as one Ident
        // (with the `r#` sigil preserved) and NOT as the `fn` keyword.
        let ts = kinds("fn r#fn() { r#type(); }");
        assert_eq!(ts[0], (TokKind::Ident, "fn".into()));
        assert_eq!(ts[1], (TokKind::Ident, "r#fn".into()));
        assert!(ts
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#type"));
        // And a raw identifier is not mistaken for a raw string.
        let ts = kinds(r##"let r#match = r#"text"#;"##);
        assert!(ts
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#match"));
        assert!(ts
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("text")));
    }

    #[test]
    fn nested_generic_closers_are_individual_tokens() {
        // `Vec<Vec<u32>>` closes two generic depths with two `>`
        // tokens, never one glued `>>` shift token.
        let ts = kinds("fn f() -> Vec<Vec<u32>> { g::<Option<Option<u8>>>() }");
        let closers = ts.iter().filter(|(k, t)| *k == TokKind::Punct && t == ">");
        assert_eq!(closers.count(), 5, "every `>` lexes on its own");
        assert!(ts.iter().all(|(_, t)| t != ">>"));
    }

    #[test]
    fn return_arrow_is_never_a_generic_closer() {
        // Inside nested generics, `->` (one token) stays distinct from
        // `>` so a `Fn() -> T` bound is not read as a closer.
        let ts = kinds("fn apply<F: Fn(u32) -> Vec<u32>>(f: F) -> u8 { 0 }");
        let arrows = ts.iter().filter(|(_, t)| t == "->").count();
        let closers = ts.iter().filter(|(_, t)| t == ">").count();
        assert_eq!(arrows, 2, "both return arrows lex as `->`");
        assert_eq!(closers, 2, "generic closers: Vec<..> and the <F: ..>");
    }

    #[test]
    fn line_numbers_track_newlines() {
        let ts = lex("a\nb\n\"two\nline\"\nc");
        let find = |name: &str| ts.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 2);
        assert_eq!(find("c"), 5);
    }
}
