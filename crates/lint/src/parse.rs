//! A lightweight item parser on top of [`crate::lexer`]: recovers
//! `fn` / `impl` / `trait` boundaries and call sites per file.
//!
//! This is the structural layer the workspace call graph
//! ([`crate::graph`]) is built from. It is deliberately *not* a Rust
//! parser — it recognises exactly the shapes name resolution needs:
//!
//! * **Function items** with their qualified name (`Type::method` for
//!   `impl`/`trait` scopes, the bare name for free functions), the
//!   token span and line span of their body, and whether they sit in a
//!   `#[cfg(test)]` region (test items are excluded from the graph so
//!   naive in-test reference models can never police library code).
//! * **Call sites** inside each body, in three shapes: `name(…)`
//!   (bare), `Head::name(…)` (qualified — `Self::` is rewritten to the
//!   enclosing impl type), and `.name(…)` (method). Calls inside
//!   closures belong to the enclosing function; nested `fn` items get
//!   their own node and their tokens are excluded from the parent.
//! * **Macro invocations are not calls**: `foo!(…)` is skipped (the
//!   token rules handle `panic!` and friends directly).
//!
//! Raw identifiers (`r#fn` is a *name*, never the keyword) and the
//! `->` / `>` distinction inside nested generics (the lexer emits every
//! generic closer as its own `>` token — see [`crate::lexer`]) are the
//! two lexer-level properties this parser depends on.

use crate::lexer::{Tok, TokKind};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `name(…)` — a free-function call (or tuple-struct constructor;
    /// unresolvable names simply produce no edge).
    Bare(String),
    /// `Head::name(…)` — the last two path segments; `Self::name` has
    /// already been rewritten to the enclosing impl type.
    Qualified(String, String),
    /// `.name(…)` — a method call, resolvable only by name.
    Method(String),
    /// `name as fn(…) -> …` — a function passed by pointer. The graph
    /// treats it as a call edge (the pointer may be invoked anywhere),
    /// and `ServePool::new` sites use it to recover the worker fn.
    FnRef(String),
}

/// A call site: what is called, and where from.
#[derive(Debug, Clone)]
pub struct Call {
    pub callee: Callee,
    pub line: u32,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name, `r#` sigil stripped.
    pub name: String,
    /// `Type::name` inside an `impl`/`trait` scope, else the bare name.
    pub qual: String,
    /// Trait-qualified alias (`Trait::name`) for `impl Trait for Type`
    /// methods, so `<T as Trait>::name`-style call sites resolve too.
    pub trait_qual: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the body's closing brace.
    pub end_line: u32,
    /// Token index range of the body (inclusive of both braces).
    pub body: (usize, usize),
    /// True when the item sits in a `#[test]`/`#[cfg(test)]` region.
    pub is_test: bool,
    /// Call sites in the body, excluding nested `fn` items' bodies.
    pub calls: Vec<Call>,
}

/// Every function item of one file, in source order.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
}

/// Keywords that look like `name(` call sites but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "move", "fn", "in",
    "let", "else", "as", "where", "unsafe", "async", "await", "dyn", "impl", "ref", "mut", "pub",
    "use", "mod", "const", "static", "type", "trait", "enum", "struct", "union", "extern",
];

/// Strips the raw-identifier sigil: `r#type` → `type`.
fn strip_raw(name: &str) -> &str {
    name.strip_prefix("r#").unwrap_or(name)
}

/// True for the *keyword* `fn` (a raw identifier `r#fn` is a name).
fn is_fn_keyword(t: &Tok) -> bool {
    t.kind == TokKind::Ident && t.text == "fn"
}

/// Parses one file's (comment-free) token stream into function items.
/// `in_test` is the per-token test-region mask from
/// [`crate::rules::test_regions`].
pub fn parse_file(toks: &[Tok], in_test: &[bool]) -> ParsedFile {
    let brace_match = match_braces(toks);
    let mut fns = Vec::new();
    collect_fns(toks, in_test, &brace_match, 0, toks.len(), None, &mut fns);
    // Attribute call sites: each fn owns its body minus nested fn
    // bodies (items are in source order, so children follow parents).
    let spans: Vec<(usize, usize)> = fns.iter().map(|f| f.body).collect();
    for f in fns.iter_mut() {
        let children: Vec<(usize, usize)> = spans
            .iter()
            .copied()
            .filter(|&(s, e)| s > f.body.0 && e <= f.body.1 && (s, e) != f.body)
            .collect();
        f.calls = extract_calls(toks, f.body, &children, f.qual.as_str());
    }
    ParsedFile { fns }
}

/// Computes, for every `{` token, the index of its matching `}`.
fn match_braces(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut out = vec![None; toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    out[open] = Some(i);
                }
            }
            _ => {}
        }
    }
    out
}

/// Walks `[start, end)` collecting `fn` items; `scope` is the enclosing
/// impl/trait type, applied to method quals. Recurses into `impl`,
/// `trait`, `mod`, and `fn` bodies.
fn collect_fns(
    toks: &[Tok],
    in_test: &[bool],
    brace_match: &[Option<usize>],
    start: usize,
    end: usize,
    scope: Option<(&str, Option<&str>)>,
    out: &mut Vec<FnItem>,
) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" => {
                // `impl [<…>] Type { … }` or `impl [<…>] Trait for Type { … }`.
                if let Some((type_name, trait_name, open)) = parse_impl_header(toks, i, end) {
                    if let Some(close) = brace_match[open] {
                        collect_fns(
                            toks,
                            in_test,
                            brace_match,
                            open + 1,
                            close.min(end),
                            Some((type_name, trait_name)),
                            out,
                        );
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            "trait" => {
                // `trait Name [<…>] [: bounds] { … }` — default method
                // bodies resolve under `Name::method`.
                let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident);
                if let (Some(name), Some(open)) = (name, find_body_open(toks, i + 1, end)) {
                    if let Some(close) = brace_match[open] {
                        let qual = strip_raw(&name.text);
                        collect_fns(
                            toks,
                            in_test,
                            brace_match,
                            open + 1,
                            close.min(end),
                            Some((qual, None)),
                            out,
                        );
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            "mod" => {
                // Modules do not change quals; just descend in the same
                // scope (inline `mod { … }` only — `mod name;` has no body).
                if let Some(open) = find_body_open(toks, i + 1, end) {
                    if toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokKind::Ident && open == i + 2)
                    {
                        if let Some(close) = brace_match[open] {
                            collect_fns(
                                toks,
                                in_test,
                                brace_match,
                                open + 1,
                                close.min(end),
                                scope,
                                out,
                            );
                            i = close + 1;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            "fn" if is_fn_keyword(t) => {
                // `fn` in type position (`as fn(J) -> R`, `Fn(..)`) has
                // no following identifier.
                let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    i += 1;
                    continue;
                };
                match find_body_open(toks, i + 2, end) {
                    Some(open) => {
                        if let Some(close) = brace_match[open] {
                            let name = strip_raw(&name_tok.text).to_string();
                            let qual = match scope {
                                Some((ty, _)) => format!("{ty}::{name}"),
                                None => name.clone(),
                            };
                            let trait_qual = scope
                                .and_then(|(_, tr)| tr)
                                .map(|tr| format!("{tr}::{name}"));
                            out.push(FnItem {
                                name,
                                qual,
                                trait_qual,
                                line: t.line,
                                end_line: toks[close].line,
                                body: (open, close),
                                is_test: in_test.get(i).copied().unwrap_or(false),
                                calls: Vec::new(),
                            });
                            // Descend for nested `fn` items (they carry
                            // the same impl scope — good enough).
                            collect_fns(
                                toks,
                                in_test,
                                brace_match,
                                open + 1,
                                close.min(end),
                                scope,
                                out,
                            );
                            i = close + 1;
                            continue;
                        }
                        i = open + 1;
                    }
                    // Bodiless decl (`fn f(…);` in a trait): skip past
                    // the signature.
                    None => i += 2,
                }
            }
            _ => i += 1,
        }
    }
}

/// From a position inside an item header, finds the token index of the
/// body-opening `{` at zero paren/bracket/angle depth, or `None` if a
/// `;` ends the item first. This is where the `->`-vs-`>` distinction
/// matters: `->` is a single token, so `Fn(u32) -> Vec<u32>` bounds
/// never unbalance the angle depth.
fn find_body_open(toks: &[Tok], from: usize, end: usize) -> Option<usize> {
    let mut angle = 0isize;
    let mut paren = 0isize;
    let mut i = from;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 && angle <= 0 => return Some(i),
                ";" if paren == 0 && angle <= 0 => return None,
                // `=` ends associated-type / const items (`type X = …;`)
                // but also appears in default const generics; the `;`
                // arm above is the real terminator either way.
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parses an `impl` header starting at `at` (the `impl` token): returns
/// `(type_name, trait_name, body_open_index)`. The type name is the
/// last path segment before the body/`where`; for `impl Trait for Type`
/// the trait's last segment is returned separately.
fn parse_impl_header(toks: &[Tok], at: usize, end: usize) -> Option<(&str, Option<&str>, usize)> {
    let open = find_body_open(toks, at + 1, end)?;
    // Collect top-level idents of the header, noting a `for` split.
    let mut angle = 0isize;
    let mut paren = 0isize;
    let mut before_for: Option<&str> = None;
    let mut current: Option<&str> = None;
    let mut i = at + 1;
    while i < open {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                _ => {}
            },
            TokKind::Ident if angle == 0 && paren == 0 => match t.text.as_str() {
                "for" => {
                    before_for = current.take();
                }
                "where" => break,
                _ => current = Some(strip_raw(&t.text)),
            },
            _ => {}
        }
        i += 1;
    }
    let type_name = current?;
    Some((type_name, before_for, open))
}

/// Extracts call sites from `span` (a body's token range), skipping the
/// `children` sub-spans (nested fn bodies). `self_type` rewrites
/// `Self::name` calls.
fn extract_calls(
    toks: &[Tok],
    span: (usize, usize),
    children: &[(usize, usize)],
    self_qual: &str,
) -> Vec<Call> {
    let self_type = self_qual.split("::").next().unwrap_or(self_qual);
    let mut out = Vec::new();
    let mut i = span.0;
    while i <= span.1 {
        if let Some(&(_, child_end)) = children.iter().find(|&&(s, e)| s <= i && i <= e) {
            i = child_end + 1;
            continue;
        }
        let t = &toks[i];
        let next_is = |j: usize, s: &str| toks.get(j).is_some_and(|t| t.text == s);
        // A raw identifier is always a name; only plain spellings of
        // keywords disqualify a candidate.
        let is_name =
            |t: &Tok| t.text.starts_with("r#") || !NON_CALL_KEYWORDS.contains(&t.text.as_str());
        // `name as fn(…)` — a fn-pointer cast of a named function.
        if t.kind == TokKind::Ident && is_name(t) && next_is(i + 1, "as") && next_is(i + 2, "fn") {
            out.push(Call {
                callee: Callee::FnRef(strip_raw(&t.text).to_string()),
                line: t.line,
            });
            i += 3;
            continue;
        }
        if t.kind == TokKind::Ident && next_is(i + 1, "(") {
            let name = strip_raw(&t.text);
            if is_name(t) {
                let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
                let callee = match prev {
                    Some(".") => Some(Callee::Method(name.to_string())),
                    Some("::") => {
                        // Walk back one segment for the head; `Self`
                        // resolves to the enclosing impl type. A
                        // non-ident head (turbofish `>::new`) yields no
                        // edge — documented resolution limit.
                        i.checked_sub(2)
                            .map(|h| &toks[h])
                            .filter(|h| h.kind == TokKind::Ident)
                            .map(|h| {
                                let head = strip_raw(&h.text);
                                let head = if head == "Self" { self_type } else { head };
                                Callee::Qualified(head.to_string(), name.to_string())
                            })
                    }
                    _ => Some(Callee::Bare(name.to_string())),
                };
                if let Some(callee) = callee {
                    out.push(Call {
                        callee,
                        line: t.line,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_regions;

    fn parse(src: &str) -> ParsedFile {
        let toks: Vec<Tok> = lex(src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Comment)
            .collect();
        let mask = test_regions(&toks);
        parse_file(&toks, &mask)
    }

    fn quals(pf: &ParsedFile) -> Vec<&str> {
        pf.fns.iter().map(|f| f.qual.as_str()).collect()
    }

    #[test]
    fn free_fns_and_impl_methods() {
        let pf = parse(
            "pub fn top() { helper(); }\n\
             fn helper() {}\n\
             impl Widget {\n    pub fn step(&mut self) { self.tick(); Other::go(); }\n}\n",
        );
        assert_eq!(quals(&pf), vec!["top", "helper", "Widget::step"]);
        let step = &pf.fns[2];
        assert!(step
            .calls
            .iter()
            .any(|c| c.callee == Callee::Method("tick".into())));
        assert!(step
            .calls
            .iter()
            .any(|c| c.callee == Callee::Qualified("Other".into(), "go".into())));
    }

    #[test]
    fn trait_impls_carry_both_quals() {
        let pf = parse(
            "impl Runner for Widget {\n    fn run(&self) -> Vec<Vec<u32>> { Vec::new() }\n}\n",
        );
        assert_eq!(quals(&pf), vec!["Widget::run"]);
        assert_eq!(pf.fns[0].trait_qual.as_deref(), Some("Runner::run"));
    }

    #[test]
    fn generic_signatures_find_their_bodies() {
        // The `->` inside the `Fn` bound and the nested `Vec<Vec<…>>`
        // closers are exactly the satellite's lexer gaps.
        let pf = parse(
            "pub fn apply<F: Fn(u32) -> Vec<u32>>(f: F) -> Vec<Vec<u32>> {\n    inner(f)\n}\n\
             fn inner<F>(_f: F) -> Vec<Vec<u32>> { Vec::new() }\n",
        );
        assert_eq!(quals(&pf), vec!["apply", "inner"]);
        assert!(pf.fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Bare("inner".into())));
    }

    #[test]
    fn raw_identifiers_are_names_not_keywords() {
        let pf = parse("pub fn r#type() { r#match(); }\nfn r#match() {}\n");
        assert_eq!(quals(&pf), vec!["type", "match"]);
        assert!(pf.fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Bare("match".into())));
        // `as fn(J) -> R` casts must not register a phantom item —
        // they register a fn-pointer *reference* instead.
        let pf = parse("fn outer() { take(go as fn(u32) -> u32); }\nfn go(x: u32) -> u32 { x }\n");
        assert_eq!(quals(&pf), vec!["outer", "go"]);
        assert!(pf.fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::FnRef("go".into())));
    }

    #[test]
    fn closures_attribute_calls_to_the_enclosing_fn() {
        let pf = parse("fn outer() { let f = |x: u32| helper(x); f(3); }\nfn helper(_x: u32) {}\n");
        assert!(pf.fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Bare("helper".into())));
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let pf = parse("fn outer() {\n    fn inner() { deep(); }\n    inner();\n}\nfn deep() {}\n");
        assert_eq!(quals(&pf), vec!["outer", "inner", "deep"]);
        let outer = &pf.fns[0];
        assert!(outer
            .calls
            .iter()
            .any(|c| c.callee == Callee::Bare("inner".into())));
        assert!(
            !outer
                .calls
                .iter()
                .any(|c| c.callee == Callee::Bare("deep".into())),
            "deep() belongs to inner, not outer"
        );
        assert!(pf.fns[1]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Bare("deep".into())));
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let pf = parse("impl Widget {\n    fn a(&self) { Self::b(); }\n    fn b() {}\n}\n");
        assert!(pf.fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Qualified("Widget".into(), "b".into())));
    }

    #[test]
    fn test_items_are_marked() {
        let pf = parse("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn model() { lib(); }\n}\n");
        assert!(!pf.fns[0].is_test);
        assert!(pf.fns[1].is_test, "items under #[cfg(test)] are test items");
    }

    #[test]
    fn macros_are_not_calls() {
        let pf = parse("fn f() { println!(\"x\"); assert_eq!(1, 1); real(); }\nfn real() {}\n");
        let calls = &pf.fns[0].calls;
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].callee, Callee::Bare("real".into()));
    }

    #[test]
    fn mod_blocks_descend_without_qualifying() {
        let pf = parse("mod inner {\n    pub fn f() { g(); }\n    fn g() {}\n}\n");
        assert_eq!(quals(&pf), vec!["f", "g"]);
    }
}
