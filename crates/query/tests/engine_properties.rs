//! Property tests: the query engine against naive reference
//! implementations, over randomized tables.
//!
//! The optimized engine encodes keys as integers, aggregates in blocks,
//! and sorts packed integer images of its keys; the references here use
//! the original row-at-a-time `Value`/`GroupKey` semantics. Generators cover
//! nulls, `-0.0`/`+0.0` floats, duplicate keys, and cross-dictionary
//! strings. The randomized tables stay below one parallel block so float
//! accumulation order matches the references exactly; cross-block
//! determinism is checked separately by
//! `parallel_pipeline_matches_sequential`. Deterministic tests below the
//! `proptest!` block cover what small random tables cannot: numeric keys
//! at high cardinality over several blocks, the live-column pass against
//! step-by-step execution, and copy-on-write column sharing.

// The reference percentile oracle mirrors the engine's bounded
// floor/ceil rank indexing.
#![allow(clippy::cast_possible_truncation)]

use borg_query::join::{join, JoinKind};
use borg_query::prelude::*;
use borg_query::value::GroupKey;
use borg_query::Agg;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

fn int_table(name: &str, xs: &[i64]) -> Table {
    let mut t = Table::new(vec![(name.to_string(), DataType::Int)]);
    for &x in xs {
        t.push_row(vec![Value::Int(x)]).unwrap();
    }
    t
}

/// Splits rows into groups keyed by `Value::group_key`, in first-appearance
/// order: the reference for the engine's group-by ordering contract.
fn naive_groups(t: &Table, keys: &[&str]) -> (Vec<usize>, Vec<Vec<usize>>) {
    let cols: Vec<_> = keys.iter().map(|k| t.column(k).unwrap()).collect();
    let mut lookup: HashMap<Vec<GroupKey>, usize> = HashMap::new();
    let mut first_rows = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for row in 0..t.num_rows() {
        let gk: Vec<GroupKey> = cols.iter().map(|c| c.get(row).group_key()).collect();
        let next = members.len();
        let idx = *lookup.entry(gk).or_insert(next);
        if idx == members.len() {
            first_rows.push(row);
            members.push(Vec::new());
        }
        members[idx].push(row);
    }
    (first_rows, members)
}

/// The group's numeric input values in row order (`None` = null).
fn group_values(t: &Table, rows: &[usize], col: &str) -> Vec<Option<f64>> {
    rows.iter()
        .map(|&r| t.value(r, col).unwrap().as_f64())
        .collect()
}

const STR_POOL: [&str; 5] = ["", "a", "b", "aa", "prod"];

/// Decodes one generated row tuple into (k_s, k_f, v, w) cell values.
fn decode_row(s: u8, f: u8, c: u8, x: f64, i: i64) -> Vec<Value> {
    let k_s = match s {
        0 => Value::Null,
        _ => Value::str(STR_POOL[(s - 1) as usize]),
    };
    let k_f = match f {
        0 => Value::Null,
        1 => Value::Float(-0.0),
        2 => Value::Float(0.0),
        3 => Value::Float(1.5),
        _ => Value::Float(x),
    };
    let v = if c == 0 {
        Value::Null
    } else {
        Value::Float(x * 1.25)
    };
    let w = if c == 1 { Value::Null } else { Value::Int(i) };
    vec![k_s, k_f, v, w]
}

fn mixed_table(rows: &[(u8, u8, u8, f64, i64)]) -> Table {
    let mut t = Table::new(vec![
        ("k_s", DataType::Str),
        ("k_f", DataType::Float),
        ("v", DataType::Float),
        ("w", DataType::Int),
    ]);
    for &(s, f, c, x, i) in rows {
        t.push_row(decode_row(s, f, c, x, i)).unwrap();
    }
    t
}

/// Adds the key columns whose images are wide or degenerate: `wide`
/// (ints over the whole `i64` range), `bits` (floats from raw bit
/// patterns), `flag` (bools) and `void` (all null), each with nulls.
/// The last two rows are fixed, so `wide` always holds `i64::MIN` and
/// `i64::MAX` (a 65-bit image) and `bits` always `-inf` and NaN (64).
fn with_wide_keys(t: Table, cells: &[(u8, i64, u8, u64, u8)]) -> Table {
    assert_eq!(t.num_rows(), cells.len() + 2);
    const MANTISSA: u64 = (1 << 52) - 1;
    let fixed = [(1, 0, 4, 0, 1), (2, 0, 1, 7, 2)];
    let cells = || cells.iter().chain(&fixed);
    let wide = cells()
        .map(|&(sel, raw, ..)| match sel {
            0 => None,
            1 => Some(i64::MIN),
            2 => Some(i64::MAX),
            3 => Some(raw % 3 - 1),
            _ => Some(raw),
        })
        .collect();
    let bits = cells()
        .map(|&(_, _, sel, raw, _)| match sel {
            0 => None,
            1 => Some(f64::from_bits(f64::NAN.to_bits() | (raw & MANTISSA))),
            2 => Some(f64::from_bits((-f64::NAN).to_bits() | (raw & MANTISSA))),
            3 => Some(f64::INFINITY),
            4 => Some(f64::NEG_INFINITY),
            5 => Some(-0.0),
            6 => Some(0.0),
            7 => Some(f64::from_bits(raw & MANTISSA)), // subnormal
            8 => Some(-f64::from_bits(raw & MANTISSA)),
            _ => Some(f64::from_bits(raw)),
        })
        .collect();
    let flag = cells()
        .map(|&(.., sel)| [None, Some(false), Some(true)][sel as usize])
        .collect();
    let n = t.num_rows();
    t.with_column("wide", borg_query::Column::Int(wide))
        .unwrap()
        .with_column("bits", borg_query::Column::Float(bits))
        .unwrap()
        .with_column("flag", borg_query::Column::Bool(flag))
        .unwrap()
        .with_column(
            "void",
            borg_query::Column::Int(borg_query::PrimVec::nulls(n)),
        )
        .unwrap()
}

/// The sort reference: a stable index sort with the row-at-a-time
/// `Value` comparator, plus the two rules the engine documents and
/// `Value::compare` (which widens to `f64` and has no answer for NaN)
/// leaves open: ints order exactly, and NaNs tie after `+inf`.
fn naive_sort(t: &Table, keys: &[(&str, SortOrder)]) -> Table {
    fn cell_cmp(a: &Value, b: &Value) -> Ordering {
        let nan = |v: &Value| matches!(v, Value::Float(x) if x.is_nan());
        match (a, b) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            _ if nan(a) || nan(b) => nan(a).cmp(&nan(b)),
            _ => a.sort_key_cmp(b),
        }
    }
    let cols: Vec<_> = keys.iter().map(|(k, _)| t.column(k).unwrap()).collect();
    let mut idx: Vec<u32> = (0..t.num_rows() as u32).collect();
    idx.sort_by(|&a, &b| {
        for (c, &(_, ord)) in cols.iter().zip(keys) {
            let mut o = cell_cmp(&c.get(a as usize), &c.get(b as usize));
            if ord == SortOrder::Descending {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    t.take_rows(&idx)
}

/// An int column's cells (`None` = null).
fn ints(t: &Table, column: &str) -> Vec<Option<i64>> {
    match t.column(column).unwrap() {
        borg_query::Column::Int(v) => v.iter().collect(),
        other => panic!("{column} is {:?}, not int", other.data_type()),
    }
}

/// Table equality with float cells compared by bit pattern: NaN cells
/// equal themselves, and `-0.0` is not `+0.0`.
fn same_bits(a: &Table, b: &Table) -> bool {
    a.column_names() == b.column_names()
        && a.num_rows() == b.num_rows()
        && (0..a.num_columns()).all(|c| match (a.column_at(c), b.column_at(c)) {
            (borg_query::Column::Float(x), borg_query::Column::Float(y)) => x
                .iter()
                .zip(y.iter())
                .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits)),
            (x, y) => x == y,
        })
}

/// Every aggregate kind over the float input `v` and the int input `w`:
/// what the label-key group-by tests check.
fn every_aggregate() -> Vec<Agg> {
    vec![
        Agg::count_all("n"),
        Agg::count("v", "nv"),
        Agg::sum("v", "s"),
        Agg::mean("v", "m"),
        Agg::min("v", "lo"),
        Agg::max("v", "hi"),
        Agg::variance("v", "var"),
        Agg::percentile("v", 50.0, "p50"),
        Agg::count_distinct("w", "d"),
        Agg::count_distinct("v", "dv"),
    ]
}

/// [`every_aggregate`] grouped by `keys`, row at a time: the key cells of
/// each [`naive_groups`] group's first row, then every aggregate folded
/// over the group's rows in row order with the engine's operations. On a
/// table whose float sums are exact in any order this is the engine's
/// output bit for bit, however many blocks it spans.
fn naive_aggregates(t: &Table, keys: &[&str]) -> Table {
    use borg_query::Column;
    let (first_rows, members) = naive_groups(t, keys);
    let mut cols: Vec<(String, Column)> = Vec::new();
    for k in keys {
        let mut c = Column::empty(t.column(k).unwrap().data_type());
        for &r in &first_rows {
            c.push(t.value(r, k).unwrap(), k).unwrap();
        }
        cols.push((k.to_string(), c));
    }
    let mut counts: [Vec<Option<i64>>; 4] = Default::default();
    let mut floats: [Vec<Option<f64>>; 6] = Default::default();
    for rows in &members {
        let present: Vec<f64> = group_values(t, rows, "v").into_iter().flatten().collect();
        let distinct = |col: &str| {
            let set: HashSet<GroupKey> = rows
                .iter()
                .map(|&r| t.value(r, col).unwrap())
                .filter(|v| !v.is_null())
                .map(|v| v.group_key())
                .collect();
            set.len() as i64
        };
        let nf = present.len() as f64;
        let seen = !present.is_empty();
        let sum = present.iter().fold(0.0, |s, &x| s + x);
        let sum_sq = present.iter().fold(0.0, |s, &x| s + x * x);
        let mut sorted = present.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = seen.then(|| {
            let rank = 0.5 * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        });
        let group_counts = [
            rows.len() as i64,
            present.len() as i64,
            distinct("w"),
            distinct("v"),
        ];
        let group_floats = [
            seen.then_some(sum),
            seen.then(|| sum / nf),
            present.iter().copied().reduce(f64::min),
            present.iter().copied().reduce(f64::max),
            (present.len() >= 2).then(|| {
                let mean = sum / nf;
                (sum_sq - nf * mean * mean) / (nf - 1.0)
            }),
            p50,
        ];
        for (out, x) in counts.iter_mut().zip(group_counts) {
            out.push(Some(x));
        }
        for (out, x) in floats.iter_mut().zip(group_floats) {
            out.push(x);
        }
    }
    let [n, nv, d, dv] = counts.map(|c| Column::Int(c.into_iter().collect()));
    let [s, m, lo, hi, var, p50] = floats.map(|c| Column::Float(c.into_iter().collect()));
    for (name, c) in [
        ("n", n),
        ("nv", nv),
        ("s", s),
        ("m", m),
        ("lo", lo),
        ("hi", hi),
        ("var", var),
        ("p50", p50),
        ("d", d),
        ("dv", dv),
    ] {
        cols.push((name.to_string(), c));
    }
    Table::from_columns(cols).unwrap()
}

proptest! {
    #[test]
    fn inner_join_matches_nested_loop(
        left in prop::collection::vec(0i64..10, 0..40),
        right in prop::collection::vec(0i64..10, 0..40),
    ) {
        let lt = int_table("k", &left);
        let mut rt = Table::new(vec![("k", DataType::Int), ("tag", DataType::Int)]);
        for (i, &x) in right.iter().enumerate() {
            rt.push_row(vec![Value::Int(x), Value::Int(i as i64)]).unwrap();
        }
        let out = join(&lt, &rt, &["k"], &["k"], JoinKind::Inner).unwrap();
        let expected: usize = left
            .iter()
            .map(|&l| right.iter().filter(|&&r| r == l).count())
            .sum();
        prop_assert_eq!(out.num_rows(), expected);
    }

    #[test]
    fn left_join_keeps_every_left_row(
        left in prop::collection::vec(0i64..10, 0..40),
        right in prop::collection::vec(0i64..10, 0..40),
    ) {
        let lt = int_table("k", &left);
        let mut rt = Table::new(vec![("k", DataType::Int), ("tag", DataType::Int)]);
        for (i, &x) in right.iter().enumerate() {
            rt.push_row(vec![Value::Int(x), Value::Int(i as i64)]).unwrap();
        }
        let out = join(&lt, &rt, &["k"], &["k"], JoinKind::LeftOuter).unwrap();
        let expected: usize = left
            .iter()
            .map(|&l| right.iter().filter(|&&r| r == l).count().max(1))
            .sum();
        prop_assert_eq!(out.num_rows(), expected);
    }

    #[test]
    fn arithmetic_matches_rust(a in -1000i64..1000, b in -1000i64..1000) {
        let mut t = Table::new(vec![("a", DataType::Int), ("b", DataType::Int)]);
        t.push_row(vec![Value::Int(a), Value::Int(b)]).unwrap();
        let sum = col("a").add(col("b")).eval_row(&t, 0).unwrap();
        let product = col("a").mul(col("b")).eval_row(&t, 0).unwrap();
        prop_assert_eq!(sum, Value::Int(a.wrapping_add(b)));
        prop_assert_eq!(product, Value::Int(a.wrapping_mul(b)));
        let cmp = col("a").lt(col("b")).eval_row(&t, 0).unwrap();
        prop_assert_eq!(cmp, Value::Bool(a < b));
    }

    #[test]
    fn percentile_agg_matches_analysis_crate(
        xs in prop::collection::vec(-100.0f64..100.0, 1..60),
        p in 0.0f64..100.0,
    ) {
        let mut t = Table::new(vec![("v", DataType::Float)]);
        for &x in &xs {
            t.push_row(vec![Value::Float(x)]).unwrap();
        }
        let out = Query::from(t)
            .group_by(&[], vec![Agg::percentile("v", p, "q")])
            .run()
            .unwrap();
        let got = out.value(0, "q").unwrap().as_f64().unwrap();
        let expected = borg_analysis::Ccdf::from_samples(xs).percentile(p).unwrap();
        prop_assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
    }

    #[test]
    fn limit_truncates(xs in prop::collection::vec(-100i64..100, 0..50), n in 0usize..60) {
        let t = int_table("v", &xs);
        let out = Query::from(t).limit(n).run().unwrap();
        prop_assert_eq!(out.num_rows(), xs.len().min(n));
    }

    #[test]
    fn derive_then_project_preserves_rows(xs in prop::collection::vec(-100i64..100, 0..50)) {
        let t = int_table("v", &xs);
        let out = Query::from(t)
            .derive("double", col("v").mul(lit(2i64)))
            .select(&["double"])
            .run()
            .unwrap();
        prop_assert_eq!(out.num_rows(), xs.len());
        for (r, &x) in xs.iter().enumerate() {
            prop_assert_eq!(out.value(r, "double").unwrap(), Value::Int(x * 2));
        }
    }

    #[test]
    fn group_by_matches_naive_reference(
        rows in prop::collection::vec((0u8..6, 0u8..5, 0u8..4, -4.0f64..4.0, 0i64..4), 0..100),
    ) {
        let t = mixed_table(&rows);
        let out = borg_query::groupby::group_by(
            &t,
            &["k_s", "k_f"],
            &[
                Agg::count_all("n"),
                Agg::count("v", "nv"),
                Agg::sum("v", "s"),
                Agg::mean("v", "m"),
                Agg::min("v", "lo"),
                Agg::max("v", "hi"),
                Agg::variance("v", "var"),
                Agg::percentile("v", 50.0, "p50"),
                Agg::count_distinct("w", "d"),
                Agg::count_distinct("v", "dv"),
            ],
        )
        .unwrap();

        let (first_rows, members) = naive_groups(&t, &["k_s", "k_f"]);
        prop_assert_eq!(out.num_rows(), first_rows.len());
        for (g, (&fr, rows)) in first_rows.iter().zip(&members).enumerate() {
            // Key columns carry the group's first-appearance values.
            prop_assert_eq!(out.value(g, "k_s").unwrap(), t.value(fr, "k_s").unwrap());
            prop_assert_eq!(out.value(g, "k_f").unwrap(), t.value(fr, "k_f").unwrap());

            let vals = group_values(&t, rows, "v");
            let present: Vec<f64> = vals.iter().flatten().copied().collect();
            prop_assert_eq!(out.value(g, "n").unwrap(), Value::Int(rows.len() as i64));
            prop_assert_eq!(
                out.value(g, "nv").unwrap(),
                Value::Int(present.len() as i64)
            );

            // Accumulate in row order with the same operations the engine
            // uses, so float results are bit-identical, not just close.
            let (mut s, mut sq, mut seen) = (0.0f64, 0.0f64, false);
            let (mut lo, mut hi) = (None, None);
            for &v in &present {
                s += v;
                sq += v * v;
                seen = true;
                lo = Some(lo.map_or(v, |x: f64| x.min(v)));
                hi = Some(hi.map_or(v, |x: f64| x.max(v)));
            }
            let nf = present.len() as f64;
            let want_sum = if seen { Value::Float(s) } else { Value::Null };
            let want_mean = if seen { Value::Float(s / nf) } else { Value::Null };
            let want_var = if present.len() < 2 {
                Value::Null
            } else {
                let mean = s / nf;
                Value::Float((sq - nf * mean * mean) / (nf - 1.0))
            };
            let want_p50 = if present.is_empty() {
                Value::Null
            } else {
                let mut xs = present.clone();
                xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let rank = 0.5 * (xs.len() - 1) as f64;
                let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
                let frac = rank - lo as f64;
                Value::Float(xs[lo] * (1.0 - frac) + xs[hi] * frac)
            };
            let distinct = |col: &str| -> HashSet<GroupKey> {
                rows.iter()
                    .map(|&r| t.value(r, col).unwrap())
                    .filter(|v| !v.is_null())
                    .map(|v| v.group_key())
                    .collect()
            };

            prop_assert_eq!(out.value(g, "s").unwrap(), want_sum);
            prop_assert_eq!(out.value(g, "m").unwrap(), want_mean);
            prop_assert_eq!(out.value(g, "lo").unwrap(), lo.map_or(Value::Null, Value::Float));
            prop_assert_eq!(out.value(g, "hi").unwrap(), hi.map_or(Value::Null, Value::Float));
            prop_assert_eq!(out.value(g, "var").unwrap(), want_var);
            prop_assert_eq!(out.value(g, "p50").unwrap(), want_p50);
            prop_assert_eq!(out.value(g, "d").unwrap(), Value::Int(distinct("w").len() as i64));
            prop_assert_eq!(out.value(g, "dv").unwrap(), Value::Int(distinct("v").len() as i64));
        }
    }

    #[test]
    fn sort_matches_naive_stable_sort(
        rows in prop::collection::vec(
            (
                (0u8..6, 0u8..5, 0u8..4, -4.0f64..4.0, 0i64..6),
                (0u8..6, i64::MIN..i64::MAX, 0u8..12, 0u64..u64::MAX, 0u8..3),
            ),
            0..80,
        ),
        o1 in 0u8..2,
        o2 in 0u8..2,
    ) {
        let (mut narrow, wide): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        narrow.extend([(1, 3, 2, 0.0, 0), (2, 4, 3, 1.0, 5)]);
        let t = with_wide_keys(mixed_table(&narrow), &wide);
        let order = |o: u8| if o == 0 { SortOrder::Ascending } else { SortOrder::Descending };
        let (o1, o2) = (order(o1), order(o2));
        // Summed key widths, known from the inputs: the whole table has
        // at most 82 rows (7 position bits), `wide` is 65 bits, `bits` 64.
        let key_sets: [&[(&str, SortOrder)]; 5] = [
            &[("k_s", o1), ("k_f", o2), ("w", SortOrder::Ascending)],
            // 3 + 2 + 3 + 7: one u64.
            &[("k_s", o1), ("flag", o2), ("w", SortOrder::Ascending)],
            // An all-null key orders nothing, alone or among others.
            &[("void", o1)],
            // 65 + 0 + 3 + 7: one u128.
            &[("wide", o1), ("void", o2), ("k_s", SortOrder::Ascending)],
            // 65 + 64 and more: over 128, so passes, in mixed directions.
            &[("wide", o1), ("bits", o2), ("k_f", SortOrder::Descending), ("flag", SortOrder::Ascending)],
        ];
        for keys in key_sets {
            for table in [t.clone(), t.head(1), t.head(0)] {
                let sorted = borg_query::sort::sort_by(&table, keys).unwrap();
                prop_assert!(
                    same_bits(&sorted, &naive_sort(&table, keys)),
                    "keys {:?} over {} rows", keys, table.num_rows()
                );
            }
        }
    }

    #[test]
    fn join_matches_naive_nested_loop(
        left in prop::collection::vec((0u8..4, 0u8..5), 0..40),
        right in prop::collection::vec((0u8..4, 0u8..5), 0..40),
    ) {
        // Left keys are (Str, Int); right keys are (Str, Float) interned in
        // a different dictionary order — exercising cross-dictionary string
        // matching and numeric Int/Float key equality, with nulls.
        const LPOOL: [&str; 3] = ["a", "b", "c"];
        const RPOOL: [&str; 3] = ["c", "b", "zz"];
        let mut lt = Table::new(vec![
            ("k_s", DataType::Str),
            ("k_n", DataType::Int),
            ("lid", DataType::Int),
        ]);
        for (i, &(s, n)) in left.iter().enumerate() {
            let k_s = if s == 0 { Value::Null } else { Value::str(LPOOL[(s - 1) as usize]) };
            let k_n = if n == 0 { Value::Null } else { Value::Int((n - 1) as i64) };
            lt.push_row(vec![k_s, k_n, Value::Int(i as i64)]).unwrap();
        }
        let mut rt = Table::new(vec![
            ("k_s", DataType::Str),
            ("k_n", DataType::Float),
            ("rid", DataType::Int),
        ]);
        for (i, &(s, n)) in right.iter().enumerate() {
            let k_s = if s == 0 { Value::Null } else { Value::str(RPOOL[(s - 1) as usize]) };
            let k_n = if n == 0 { Value::Null } else { Value::Float((n - 1) as f64) };
            rt.push_row(vec![k_s, k_n, Value::Int(i as i64)]).unwrap();
        }

        // Reference: nested loop with `group_eq`, nulls never matching,
        // matches emitted in (left row, right row) order.
        let pairs = |kind: JoinKind| {
            let mut out: Vec<(usize, Option<usize>)> = Vec::new();
            for lr in 0..lt.num_rows() {
                let mut matched = false;
                for rr in 0..rt.num_rows() {
                    let ok = ["k_s", "k_n"].iter().all(|k| {
                        let lv = lt.value(lr, k).unwrap();
                        let rv = rt.value(rr, k).unwrap();
                        !lv.is_null() && !rv.is_null() && lv.group_eq(&rv)
                    });
                    if ok {
                        out.push((lr, Some(rr)));
                        matched = true;
                    }
                }
                if !matched && kind == JoinKind::LeftOuter {
                    out.push((lr, None));
                }
            }
            out
        };

        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            let out = join(&lt, &rt, &["k_s", "k_n"], &["k_s", "k_n"], kind).unwrap();
            let expected = pairs(kind);
            prop_assert_eq!(out.num_rows(), expected.len());
            for (i, &(lr, rr)) in expected.iter().enumerate() {
                prop_assert_eq!(out.value(i, "k_s").unwrap(), lt.value(lr, "k_s").unwrap());
                prop_assert_eq!(out.value(i, "k_n").unwrap(), lt.value(lr, "k_n").unwrap());
                prop_assert_eq!(out.value(i, "lid").unwrap(), lt.value(lr, "lid").unwrap());
                let want_rid = rr.map_or(Value::Null, |r| rt.value(r, "rid").unwrap());
                prop_assert_eq!(out.value(i, "rid").unwrap(), want_rid);
            }
        }
    }

    #[test]
    fn filter_matches_row_at_a_time_eval(
        rows in prop::collection::vec((0u8..6, 0u8..5, 0u8..4, -4.0f64..4.0, 0i64..4), 0..80),
    ) {
        let t = mixed_table(&rows);
        let pred = col("v").gt(lit(0.0)).or(col("k_s").eq(lit("a")));
        let out = Query::from(t.clone()).filter(pred.clone()).run().unwrap();
        // Reference: keep rows where the scalar evaluator says
        // `Bool(true)`; null predicates drop the row.
        let mask: Vec<bool> = (0..t.num_rows())
            .map(|r| pred.eval_row(&t, r).unwrap() == Value::Bool(true))
            .collect();
        prop_assert_eq!(out, t.filter_rows(&mask));
    }

    #[test]
    fn label_and_bool_keys_match_naive_aggregates(
        rows in prop::collection::vec(
            ((0u8..6, 0u8..5, 0u8..4, -4.0f64..4.0, 0i64..4), 0u8..3),
            0..100,
        ),
    ) {
        let (cells, flags): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        let flag = flags
            .iter()
            .map(|&f| [None, Some(false), Some(true)][f as usize])
            .collect();
        let t = mixed_table(&cells)
            .with_column("flag", borg_query::Column::Bool(flag))
            .unwrap();
        for keys in [&[][..], &["k_s"], &["flag"], &["k_s", "flag"], &["flag", "k_s"]] {
            let out = borg_query::groupby::group_by(&t, keys, &every_aggregate()).unwrap();
            let want = naive_aggregates(&t, keys);
            prop_assert!(same_bits(&out, &want), "keys {:?}\n{}\nvs\n{}", keys, out, want);
        }
    }
}

/// The rows a multi-block test nulls in every nullable int, float and
/// bool column: the last row of block 0, the first of block 1, and the
/// table's last row.
fn block_edge(i: usize, n: usize) -> bool {
    use borg_query::parallel::BLOCK_ROWS;
    i == BLOCK_ROWS - 1 || i == BLOCK_ROWS || i == n - 1
}

/// A full filter → group-by → sort pipeline over a table spanning several
/// parallel blocks must produce identical values *and row order* whatever
/// the worker-thread count — and so must the filter alone, whose
/// nullable int, float and bool columns carry validity masks with nulls
/// at the block edges.
#[test]
fn parallel_pipeline_matches_sequential() {
    use borg_query::parallel::{override_threads, BLOCK_ROWS};
    let n = BLOCK_ROWS * 2 + 1234;
    let tiers = ["prod", "batch", "free", "mid"];
    let mut t = Table::new(vec![
        ("tier", DataType::Str),
        ("cpu", DataType::Float),
        ("id", DataType::Int),
        ("w", DataType::Int),
        ("f", DataType::Float),
        ("flag", DataType::Bool),
    ]);
    t.reserve_rows(n);
    let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
    for i in 0..n {
        let edge = block_edge(i, n);
        t.push_row(vec![
            or_null(i % 97 == 0, Value::str(tiers[i % 4])),
            or_null(i % 31 == 0, Value::Float((i % 1000) as f64 * 0.25 - 100.0)),
            Value::Int(i as i64),
            or_null(edge || i % 41 == 0, Value::Int((i * 13 % 1000) as i64)),
            or_null(edge, Value::Float((i % 64) as f64 * 0.5)),
            or_null(edge, Value::Bool(i % 5 == 0)),
        ])
        .unwrap();
    }
    let pred = col("cpu").gt(lit(-50.0)).or(col("flag"));
    let run = || {
        let filtered = Query::from(t.clone()).filter(pred.clone()).run().unwrap();
        let grouped = Query::from(t.clone())
            .filter(pred.clone())
            .group_by(
                &["tier", "flag"],
                vec![
                    Agg::sum("cpu", "s"),
                    Agg::mean("cpu", "m"),
                    Agg::count_all("n"),
                    Agg::count_distinct("id", "d"),
                    Agg::sum("w", "sw"),
                    Agg::count("w", "nw"),
                    Agg::max("f", "hi"),
                ],
            )
            .sort_by("s", SortOrder::Descending)
            .run()
            .unwrap();
        (filtered, grouped)
    };
    override_threads(1);
    let sequential = run();
    override_threads(8);
    let parallel = run();
    override_threads(0);
    assert_eq!(sequential, parallel);
    let (filtered, grouped) = &sequential;
    assert!(grouped.num_rows() > 0);
    // The three edge rows pass the filter (their `cpu` is above -50), so
    // their nulls, and the masks, survive it.
    for c in ["f", "flag"] {
        let column = filtered.column(c).unwrap();
        let nulls = (0..filtered.num_rows())
            .filter(|&r| column.is_null_at(r))
            .count();
        assert_eq!(nulls, 3, "{c}");
    }
}

/// The row gather behind sort and join deals columns over the worker
/// threads. Over a table of more than two blocks with all four column
/// types and nulls (some only at the block edges), two two-key sorts and
/// an inner and a left-outer join with unmatched rows must give the same
/// table on one thread and on eight — and the table `take_rows` gives one
/// column at a time, which never leaves the calling thread.
#[test]
fn gather_is_the_same_for_any_thread_count() {
    use borg_query::parallel::{override_threads, BLOCK_ROWS};
    use borg_query::Column;
    let n = BLOCK_ROWS * 2 + 4321;
    let tiers = ["prod", "batch", "free", "mid"];
    let nth = |i: usize, every: usize| i % every != every - 1;
    let left = Table::from_columns(vec![
        ("id", Column::Int((0..n).map(|i| Some(i as i64)).collect())),
        (
            "tier",
            Column::Str((0..n).map(|i| nth(i, 89).then(|| tiers[i % 4])).collect()),
        ),
        (
            "cpu",
            Column::Float(
                (0..n)
                    .map(|i| nth(i, 31).then(|| (i * 7919 % 1000) as f64 * 0.25 - 100.0))
                    .collect(),
            ),
        ),
        (
            "k",
            Column::Int(
                (0..n)
                    .map(|i| nth(i, 53).then(|| (i * 31 % 700) as i64))
                    .collect(),
            ),
        ),
        (
            "hot",
            Column::Bool((0..n).map(|i| nth(i, 13).then_some(i % 3 == 0)).collect()),
        ),
        // Nulls at the block edges only, or there and sparsely: the masks
        // a gather across blocks must carry row for row.
        (
            "w",
            Column::Int(
                (0..n)
                    .map(|i| (!block_edge(i, n)).then_some((i * 17 % 900) as i64))
                    .collect(),
            ),
        ),
        (
            "f",
            Column::Float(
                (0..n)
                    .map(|i| (!block_edge(i, n) && nth(i, 97)).then_some(i as f64 * 0.125))
                    .collect(),
            ),
        ),
        (
            "flag",
            Column::Bool(
                (0..n)
                    .map(|i| (!block_edge(i, n)).then_some(i % 2 == 0))
                    .collect(),
            ),
        ),
    ])
    .unwrap();
    // Keys 0..500 of the left's 0..700, some twice: matched, doubly
    // matched and unmatched left rows.
    let m = 600usize;
    let right = Table::from_columns(vec![
        (
            "k",
            Column::Int((0..m).map(|i| Some((i % 500) as i64)).collect()),
        ),
        ("rid", Column::Int((0..m).map(|i| Some(i as i64)).collect())),
        (
            "weight",
            Column::Float(
                (0..m)
                    .map(|i| nth(i, 7).then_some(i as f64 * 0.5))
                    .collect(),
            ),
        ),
        (
            "zone",
            Column::Str(
                (0..m)
                    .map(|i| nth(i, 11).then(|| ["a", "b", "c"][i % 3]))
                    .collect(),
            ),
        ),
    ])
    .unwrap();

    // `out`'s columns, each gathered alone from `source` by the row list
    // that `rows_of` names (null = a row past the end).
    let column_by_column = |out: &Table, source: &Table, rows_of: &str, cols: &[&str]| {
        let rows: Vec<u32> = ints(out, rows_of)
            .iter()
            .map(|r| r.map_or(u32::MAX, |r| r as u32))
            .collect();
        for c in cols {
            let alone = source.project(&[c]).unwrap().take_rows(&rows);
            assert!(
                same_bits(&out.project(&[c]).unwrap(), &alone),
                "column {c} by {rows_of}"
            );
        }
    };
    let run = || {
        let sorted = Query::from(left.clone())
            .sort_by_many(&[
                ("tier", SortOrder::Ascending),
                ("cpu", SortOrder::Descending),
            ])
            .run()
            .unwrap();
        let inner = Query::from(left.clone())
            .join(right.clone(), &["k"], &["k"])
            .run()
            .unwrap();
        let outer = Query::from(left.clone())
            .left_join(right.clone(), &["k"], &["k"])
            .run()
            .unwrap();
        let by_masked = Query::from(left.clone())
            .sort_by_many(&[("flag", SortOrder::Ascending), ("w", SortOrder::Descending)])
            .run()
            .unwrap();
        [sorted, inner, outer, by_masked]
    };
    override_threads(1);
    let sequential = run();
    override_threads(8);
    let parallel = run();
    override_threads(0);
    for (seq, par) in sequential.iter().zip(&parallel) {
        assert!(same_bits(seq, par));
        assert!(
            seq.num_rows() > BLOCK_ROWS,
            "more than one block: fanned out"
        );
    }
    let [sorted, inner, outer, by_masked] = &parallel;
    let left_cols = ["id", "tier", "cpu", "k", "hot", "w", "f", "flag"];
    column_by_column(sorted, &left, "id", &left_cols);
    column_by_column(by_masked, &left, "id", &left_cols);
    // Nulls sort first ascending: the three edge rows lead, in row order.
    assert_eq!(
        ints(by_masked, "id")[..3],
        [BLOCK_ROWS - 1, BLOCK_ROWS, n - 1].map(|r| Some(r as i64))
    );
    for joined in [inner, outer] {
        column_by_column(joined, &left, "id", &left_cols);
        column_by_column(joined, &right, "rid", &["rid", "weight", "zone"]);
    }
    let unmatched = |t: &Table| ints(t, "rid").iter().filter(|r| r.is_none()).count();
    assert_eq!(unmatched(inner), 0);
    assert!(unmatched(outer) > 1000);
    assert_eq!(outer.num_rows(), inner.num_rows() + unmatched(outer));
}

/// Integer and integer-valued-float keys at high cardinality, over more
/// than one block so the partial merge runs, with null and ±0.0 keys:
/// the case whose hash-table behaviour the 4-value dictionary keys of the
/// other tests never reach. Values are multiples of 0.25, so float sums
/// are exact and the block-order merge equals the row-order reference.
#[test]
fn high_cardinality_numeric_keys_match_naive() {
    use borg_query::parallel::BLOCK_ROWS;
    let n = BLOCK_ROWS * 2 + 5000;
    let mut t = Table::new(vec![
        ("k_i", DataType::Int),
        ("k_f", DataType::Float),
        ("v", DataType::Float),
        ("w_i", DataType::Int),
        ("w_f", DataType::Float),
    ]);
    t.reserve_rows(n);
    for i in 0..n {
        let k_i = if i % 1013 == 0 {
            Value::Null
        } else {
            Value::Int(((i * 48_271) % 30_011) as i64 - 1000)
        };
        let k_f = match i % 5 {
            0 => Value::Float(-0.0),
            1 => Value::Float(0.0),
            2 => Value::Null,
            _ => Value::Float(((i / 7) % 3) as f64),
        };
        let v = if i % 17 == 0 {
            Value::Null
        } else {
            Value::Float((i % 64) as f64 * 0.25 - 4.0)
        };
        let w_i = if i % 19 == 0 {
            Value::Null
        } else {
            Value::Int((i % 11) as i64)
        };
        let w_f = match i % 7 {
            0 => Value::Float(-0.0),
            1 => Value::Float(0.0),
            2 => Value::Null,
            _ => Value::Float((i % 4) as f64),
        };
        t.push_row(vec![k_i, k_f, v, w_i, w_f]).unwrap();
    }
    let out = borg_query::groupby::group_by(
        &t,
        &["k_i", "k_f"],
        &[
            Agg::count_all("n"),
            Agg::sum("v", "s"),
            Agg::min("v", "lo"),
            Agg::max("v", "hi"),
            Agg::count_distinct("w_i", "d_i"),
            Agg::count_distinct("w_f", "d_f"),
        ],
    )
    .unwrap();

    let (first_rows, members) = naive_groups(&t, &["k_i", "k_f"]);
    assert!(first_rows.len() >= 50_000, "{} groups", first_rows.len());
    assert_eq!(out.num_rows(), first_rows.len());
    let distinct = |rows: &[usize], col: &str| -> i64 {
        let set: HashSet<GroupKey> = rows
            .iter()
            .map(|&r| t.value(r, col).unwrap())
            .filter(|v| !v.is_null())
            .map(|v| v.group_key())
            .collect();
        set.len() as i64
    };
    for (g, (&fr, rows)) in first_rows.iter().zip(&members).enumerate() {
        assert_eq!(out.value(g, "k_i").unwrap(), t.value(fr, "k_i").unwrap());
        assert_eq!(out.value(g, "k_f").unwrap(), t.value(fr, "k_f").unwrap());
        let present: Vec<f64> = group_values(&t, rows, "v").into_iter().flatten().collect();
        let float = |x: Option<f64>| x.map_or(Value::Null, Value::Float);
        assert_eq!(out.value(g, "n").unwrap(), Value::Int(rows.len() as i64));
        assert_eq!(
            out.value(g, "s").unwrap(),
            float((!present.is_empty()).then(|| present.iter().sum()))
        );
        assert_eq!(
            out.value(g, "lo").unwrap(),
            float(present.iter().copied().reduce(f64::min))
        );
        assert_eq!(
            out.value(g, "hi").unwrap(),
            float(present.iter().copied().reduce(f64::max))
        );
        assert_eq!(
            out.value(g, "d_i").unwrap(),
            Value::Int(distinct(rows, "w_i"))
        );
        assert_eq!(
            out.value(g, "d_f").unwrap(),
            Value::Int(distinct(rows, "w_f"))
        );
    }
}

/// Label and bool keys over more than two blocks, with a label that first
/// appears in the last block: the blocks' partials merge into the naive
/// reference's groups, in its order, with every aggregate equal bit for
/// bit (the float inputs are multiples of 0.25, so every sum is exact in
/// any order), on one thread and on eight.
#[test]
fn label_keys_over_several_blocks_match_naive() {
    use borg_query::parallel::{override_threads, BLOCK_ROWS};
    let n = BLOCK_ROWS * 2 + 777;
    let tiers = ["prod", "batch", "free", "mid", "beb"];
    let events = [
        "submit", "queue", "enable", "schedule", "evict", "fail", "finish", "kill", "lost",
        "update",
    ];
    let mut t = Table::new(vec![
        ("tier", DataType::Str),
        ("event", DataType::Str),
        ("flag", DataType::Bool),
        ("v", DataType::Float),
        ("w", DataType::Int),
    ]);
    t.reserve_rows(n);
    let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
    for i in 0..n {
        let event = if i >= BLOCK_ROWS * 2 && i % 3 == 0 {
            "late"
        } else {
            events[(i / 3) % events.len()]
        };
        t.push_row(vec![
            or_null(i % 13 == 0, Value::str(tiers[i % tiers.len()])),
            or_null(i % 101 == 0, Value::str(event)),
            or_null(i % 11 == 0, Value::Bool(i % 4 == 0)),
            or_null(i % 17 == 0, Value::Float((i % 64) as f64 * 0.25 - 4.0)),
            or_null(i % 19 == 0, Value::Int((i % 23) as i64)),
        ])
        .unwrap();
    }
    for keys in [&["tier", "event", "flag"][..], &["flag", "event"]] {
        let want = naive_aggregates(&t, keys);
        assert!(want.num_rows() > 30, "{} groups", want.num_rows());
        for threads in [1, 8] {
            override_threads(threads);
            let out = borg_query::groupby::group_by(&t, keys, &every_aggregate()).unwrap();
            override_threads(0);
            assert!(same_bits(&out, &want), "keys {keys:?}, {threads} thread(s)");
        }
    }
}

/// A filter keeps its input's dictionary, so the label column of a
/// filtered table holds codes that no row uses any more: here 3 of 40.
/// Grouping it must still give the naive reference's groups, in order.
#[test]
fn label_keys_of_a_filtered_table_match_naive() {
    let labels: Vec<String> = (0..40).map(|i| format!("l{i:02}")).collect();
    let mut t = Table::new(vec![
        ("k", DataType::Str),
        ("flag", DataType::Bool),
        ("v", DataType::Float),
        ("w", DataType::Int),
        ("slot", DataType::Int),
    ]);
    for i in 0..5000usize {
        let k = if i % 29 == 0 {
            Value::Null
        } else {
            Value::str(labels[(i * 7) % labels.len()].as_str())
        };
        let flag = if i % 7 == 0 {
            Value::Null
        } else {
            Value::Bool(i % 3 == 0)
        };
        let v = if i % 5 == 0 {
            Value::Null
        } else {
            Value::Float((i % 32) as f64 * 0.5 - 8.0)
        };
        t.push_row(vec![
            k,
            flag,
            v,
            Value::Int((i % 9) as i64),
            Value::Int((i % 40) as i64),
        ])
        .unwrap();
    }
    let filtered = Query::from(t)
        .filter(col("slot").lt(lit(3i64)))
        .run()
        .unwrap();
    let k = filtered.column("k").unwrap().str_vec().unwrap();
    let used: HashSet<u32> = k.codes().iter().copied().collect();
    assert_eq!(k.dict_len(), 40);
    assert_eq!(used.len(), 4, "three labels and null");
    for keys in [&["k"][..], &["k", "flag"], &["flag", "k"]] {
        let out = borg_query::groupby::group_by(&filtered, keys, &every_aggregate()).unwrap();
        assert!(
            same_bits(&out, &naive_aggregates(&filtered, keys)),
            "keys {keys:?}"
        );
    }
}

/// One label key whose domain (its strings plus null) is
/// `DIRECT_SLOTS`, then one slot more: the largest key set that indexes
/// its groups directly and the smallest that hashes them. Both group like
/// the naive reference, and the plan's counters name the path each took.
#[test]
fn label_key_at_and_over_the_direct_bound_match_naive() {
    use borg_query::groupby::DIRECT_SLOTS;
    use borg_telemetry::Telemetry;
    for (strings, path) in [(DIRECT_SLOTS - 1, "dense"), (DIRECT_SLOTS, "hashed")] {
        let mut t = Table::new(vec![
            ("k", DataType::Str),
            ("v", DataType::Float),
            ("w", DataType::Int),
        ]);
        for i in 0..strings * 3 {
            let k = if i % 97 == 0 {
                Value::Null
            } else {
                Value::str(format!("s{}", (i * 31) % strings))
            };
            let v = Value::Float((i % 16) as f64 * 0.25);
            t.push_row(vec![k, v, Value::Int((i % 5) as i64)]).unwrap();
        }
        assert_eq!(
            t.column("k").unwrap().str_vec().unwrap().dict_len(),
            strings
        );
        let mut tel = Telemetry::enabled();
        let out = Query::from(t.clone())
            .group_by(&["k"], every_aggregate())
            .run_with(&mut tel)
            .unwrap();
        let want = naive_aggregates(&t, &["k"]);
        assert_eq!(want.num_rows(), strings + 1);
        assert!(same_bits(&out, &want), "{strings} strings");
        let blocks: Vec<(String, u64)> = tel
            .snapshot()
            .counters
            .iter()
            .filter(|c| c.name.ends_with("_blocks"))
            .map(|c| (c.name.clone(), c.value))
            .collect();
        let want_blocks = vec![(format!("query.op.group_by.{path}_blocks"), 1)];
        assert_eq!(blocks, want_blocks, "{strings} strings");
    }
}

/// Int keys joined to Float keys at high cardinality, with null, ±0.0
/// and non-integral right keys, against a hash-of-`GroupKey` reference
/// that emits matches in (left row, right row) order.
#[test]
fn mixed_numeric_join_keys_match_naive_at_high_cardinality() {
    let (n_left, n_right) = (40_000usize, 25_000usize);
    let mut lt = Table::new(vec![("k", DataType::Int), ("lid", DataType::Int)]);
    for i in 0..n_left {
        let k = if i % 211 == 0 {
            Value::Null
        } else {
            Value::Int(((i * 7919) % 18_000) as i64 - 3000)
        };
        lt.push_row(vec![k, Value::Int(i as i64)]).unwrap();
    }
    let mut rt = Table::new(vec![("k", DataType::Float), ("rid", DataType::Int)]);
    for i in 0..n_right {
        let k = match i % 9 {
            0 => Value::Null,
            1 => Value::Float(-0.0),
            2 => Value::Float(((i * 31) % 12_000) as f64 + 0.5),
            _ => Value::Float(((i * 104_729) % 12_000) as f64 - 2000.0),
        };
        rt.push_row(vec![k, Value::Int(i as i64)]).unwrap();
    }
    let mut by_key: HashMap<GroupKey, Vec<usize>> = HashMap::new();
    for r in 0..n_right {
        let v = rt.value(r, "k").unwrap();
        if !v.is_null() {
            by_key.entry(v.group_key()).or_default().push(r);
        }
    }
    assert!(
        by_key.len() >= 10_000,
        "{} distinct right keys",
        by_key.len()
    );
    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
        let mut expected: Vec<(usize, Option<usize>)> = Vec::new();
        for l in 0..n_left {
            let v = lt.value(l, "k").unwrap();
            match by_key.get(&v.group_key()).filter(|_| !v.is_null()) {
                Some(rows) => expected.extend(rows.iter().map(|&r| (l, Some(r)))),
                None if kind == JoinKind::LeftOuter => expected.push((l, None)),
                None => {}
            }
        }
        let out = join(&lt, &rt, &["k"], &["k"], kind).unwrap();
        assert_eq!(out.num_rows(), expected.len());
        assert!(expected.iter().any(|(_, r)| r.is_some()));
        let (lid, rid) = (ints(&out, "lid"), ints(&out, "rid"));
        for (i, &(l, r)) in expected.iter().enumerate() {
            assert_eq!(lid[i], Some(l as i64), "row {i}");
            assert_eq!(rid[i], r.map(|r| r as i64), "row {i}");
        }
    }
}

/// Joins through `Query::run_with` and returns the output with the
/// build's path, as its `query.op.join.*_builds` counter names it.
fn join_with_path(lt: &Table, rt: &Table, keys: &[&str], kind: JoinKind) -> (Table, String) {
    use borg_telemetry::Telemetry;
    let mut tel = Telemetry::enabled();
    let q = Query::from(lt.clone());
    let q = match kind {
        JoinKind::Inner => q.join(rt.clone(), keys, keys),
        JoinKind::LeftOuter => q.left_join(rt.clone(), keys, keys),
    };
    let out = q.run_with(&mut tel).unwrap();
    let paths: Vec<String> = tel
        .snapshot()
        .counters
        .iter()
        .filter_map(|c| {
            c.name
                .strip_prefix("query.op.join.")?
                .strip_suffix("_builds")
        })
        .map(str::to_string)
        .collect();
    assert_eq!(paths.len(), 1, "{paths:?}");
    (out, paths[0].clone())
}

/// The nested-loop reference: (left row, right row) pairs in left then
/// right row order, keys compared by `group_eq` with nulls never
/// matching; an unmatched left row of a left outer join pairs with `None`.
fn nested_loop_pairs(
    lt: &Table,
    rt: &Table,
    keys: &[&str],
    kind: JoinKind,
) -> Vec<(usize, Option<usize>)> {
    let mut out = Vec::new();
    for lr in 0..lt.num_rows() {
        let before = out.len();
        for rr in 0..rt.num_rows() {
            let ok = keys.iter().all(|k| {
                let (lv, rv) = (lt.value(lr, k).unwrap(), rt.value(rr, k).unwrap());
                !lv.is_null() && !rv.is_null() && lv.group_eq(&rv)
            });
            if ok {
                out.push((lr, Some(rr)));
            }
        }
        if out.len() == before && kind == JoinKind::LeftOuter {
            out.push((lr, None));
        }
    }
    out
}

/// The join's (`lid`, `rid`) columns against the expected row pairs.
fn assert_pairs(out: &Table, expected: &[(usize, Option<usize>)], what: &str) {
    let want_lid: Vec<Option<i64>> = expected.iter().map(|&(l, _)| Some(l as i64)).collect();
    let want_rid: Vec<Option<i64>> = expected.iter().map(|&(_, r)| r.map(|r| r as i64)).collect();
    assert_eq!(ints(out, "lid"), want_lid, "{what}");
    assert_eq!(ints(out, "rid"), want_rid, "{what}");
}

/// A join-key table: `k0` and `k1` from codes (0 = null, else
/// `base + (code - 3) * spread`), then the row number as `id_col`.
fn coded_keys(rows: &[(u8, u8)], base: i64, spread: i64, k0_float: bool, id_col: &str) -> Table {
    let value = |code: u8| (code != 0).then(|| base + (i64::from(code) - 3) * spread);
    let k0 = if k0_float {
        borg_query::Column::Float(
            rows.iter()
                .map(|&(c, _)| value(c).map(|x| x as f64))
                .collect(),
        )
    } else {
        borg_query::Column::Int(rows.iter().map(|&(c, _)| value(c)).collect())
    };
    Table::from_columns(vec![
        ("k0", k0),
        (
            "k1",
            borg_query::Column::Int(rows.iter().map(|&(_, c)| value(c)).collect()),
        ),
        (
            id_col,
            borg_query::Column::Int((0..rows.len() as i64).map(Some).collect()),
        ),
    ])
    .unwrap()
}

proptest! {
    /// Int key columns on both sides of the dense bound (spread 1 packs
    /// them, spread 700 spreads them past 4 slots per row + 1024), around
    /// zero with negatives, at both edges of ±2^53 and past 2^54 (where
    /// distinct ints share an `f64`), with nulls on either side, duplicate
    /// build keys, one or two keys, an Int–Float pair and both join kinds,
    /// against the nested loop.
    #[test]
    fn join_matches_naive_nested_loop_on_int_keys(
        left in prop::collection::vec((0u8..6, 0u8..6), 0..30),
        right in prop::collection::vec((0u8..6, 0u8..6), 0..30),
        arity in 1usize..3,
    ) {
        const EDGE: i64 = 1 << 53;
        let keys = &["k0", "k1"][..arity];
        let mut paths = HashSet::new();
        for base in [0, 2 - EDGE, EDGE - 3, 2 * EDGE] {
            for spread in [1, 700] {
                for k0_float in [false, true] {
                    let lt = coded_keys(&left, base, spread, false, "lid");
                    let rt = coded_keys(&right, base, spread, k0_float, "rid");
                    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
                        let (out, path) = join_with_path(&lt, &rt, keys, kind);
                        let what = format!("{base} {spread} {k0_float} {kind:?} {path}");
                        assert_pairs(&out, &nested_loop_pairs(&lt, &rt, keys, kind), &what);
                        prop_assert_eq!(out.column("k0").unwrap().len(), out.num_rows());
                        paths.insert(path);
                    }
                }
            }
        }
        prop_assert_eq!(paths.len(), 2);
    }

    /// A left outer join on unique build keys keeps every left row once,
    /// in order, so its left columns are the input's, nulls included.
    #[test]
    fn left_join_keeps_every_left_row_on_unique_int_keys(
        left in prop::collection::vec((0u8..8, 0u8..1), 0..40),
        present in 0u16..256,
    ) {
        let right: Vec<(u8, u8)> = (1..8).filter(|b| present >> b & 1 == 1).map(|b| (b, 0)).collect();
        let lt = coded_keys(&left, -1, 1, false, "lid");
        let rt = coded_keys(&right, -1, 1, false, "rid");
        let (out, path) = join_with_path(&lt, &rt, &["k0"], JoinKind::LeftOuter);
        prop_assert_eq!(path, "dense");
        prop_assert_eq!(out.num_rows(), lt.num_rows());
        for name in ["k0", "k1", "lid"] {
            prop_assert_eq!(out.column(name).unwrap(), lt.column(name).unwrap());
        }
        assert_pairs(&out, &nested_loop_pairs(&lt, &rt, &["k0"], JoinKind::LeftOuter), "unique");
    }
}

/// Int keys joined to Int keys at high cardinality over several blocks,
/// with nulls on both sides and duplicate build keys: packed closely they
/// take the slot table, spread a million apart the hash table, and both
/// match a hash-of-`GroupKey` reference.
#[test]
fn int_join_keys_match_naive_at_high_cardinality_on_both_paths() {
    let (n_left, n_right) = (40_000usize, 25_000usize);
    for (scale, want_path) in [(1i64, "dense"), (1_000_003, "hashed")] {
        let mut lt = Table::new(vec![("k", DataType::Int), ("lid", DataType::Int)]);
        for i in 0..n_left {
            let k = if i % 211 == 0 {
                Value::Null
            } else {
                Value::Int((((i * 7919) % 18_000) as i64 - 3000) * scale)
            };
            lt.push_row(vec![k, Value::Int(i as i64)]).unwrap();
        }
        let mut rt = Table::new(vec![("k", DataType::Int), ("rid", DataType::Int)]);
        for i in 0..n_right {
            let k = if i % 9 == 0 {
                Value::Null
            } else {
                Value::Int((((i * 104_729) % 12_000) as i64 - 2000) * scale)
            };
            rt.push_row(vec![k, Value::Int(i as i64)]).unwrap();
        }
        let mut by_key: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for r in 0..n_right {
            let v = rt.value(r, "k").unwrap();
            if !v.is_null() {
                by_key.entry(v.group_key()).or_default().push(r);
            }
        }
        assert!(
            by_key.len() >= 10_000,
            "{} distinct right keys",
            by_key.len()
        );
        assert!(by_key.values().any(|rows| rows.len() > 1));
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            let mut expected: Vec<(usize, Option<usize>)> = Vec::new();
            for l in 0..n_left {
                let v = lt.value(l, "k").unwrap();
                match by_key.get(&v.group_key()).filter(|_| !v.is_null()) {
                    Some(rows) => expected.extend(rows.iter().map(|&r| (l, Some(r)))),
                    None if kind == JoinKind::LeftOuter => expected.push((l, None)),
                    None => {}
                }
            }
            assert!(expected.iter().any(|(_, r)| r.is_some()));
            let (out, path) = join_with_path(&lt, &rt, &["k"], kind);
            assert_eq!(path, want_path);
            assert_pairs(&out, &expected, &format!("{scale} {kind:?}"));
        }
    }
}

/// Past ±2^53 distinct ints share an `f64`, and the engine matches keys
/// by their `f64` value: 2^54 + 1 and 2^54 + 2 both round to 2^54, and
/// 2^53 + 1 ties to 2^53. A build key inside ±2^53 converts exactly, so
/// the slot table's integer equality agrees there; one at or past the
/// edge sends the build to the hash table.
#[test]
fn int_keys_past_2_53_join_by_their_f64_value() {
    const EDGE: i64 = 1 << 53;
    let table = |keys: &[i64], id: &str| {
        Table::from_columns(vec![
            (
                "k",
                borg_query::Column::Int(keys.iter().map(|&k| Some(k)).collect()),
            ),
            (
                id,
                borg_query::Column::Int((0..keys.len() as i64).map(Some).collect()),
            ),
        ])
        .unwrap()
    };
    /// Left keys, right keys, the build's path, the left rows that match.
    type Case = (
        &'static [i64],
        &'static [i64],
        &'static str,
        &'static [usize],
    );
    let cases: [Case; 6] = [
        (
            &[2 * EDGE + 1, 2 * EDGE, 2 * EDGE + 3],
            &[2 * EDGE + 2],
            "hashed",
            &[0, 1],
        ),
        (
            &[-2 * EDGE - 1, -2 * EDGE, -2 * EDGE - 3],
            &[-2 * EDGE - 2],
            "hashed",
            &[0, 1],
        ),
        (&[EDGE + 1, EDGE - 1], &[EDGE], "hashed", &[0]),
        (&[-EDGE - 1, -EDGE + 1], &[-EDGE], "hashed", &[0]),
        (&[EDGE - 1, EDGE, EDGE + 1], &[EDGE - 1], "dense", &[0]),
        (&[-EDGE + 1, -EDGE, -EDGE - 1], &[-EDGE + 1], "dense", &[0]),
    ];
    for (left, right, want_path, matched) in cases {
        let (lt, rt) = (table(left, "lid"), table(right, "rid"));
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            let (out, path) = join_with_path(&lt, &rt, &["k"], kind);
            let expected = nested_loop_pairs(&lt, &rt, &["k"], kind);
            let hits: Vec<usize> = expected
                .iter()
                .filter(|(_, r)| r.is_some())
                .map(|&(l, _)| l)
                .collect();
            assert_eq!(hits, matched, "{left:?} ⋈ {right:?}");
            assert_eq!(path, want_path, "{left:?} ⋈ {right:?}");
            assert_pairs(&out, &expected, &format!("{left:?} ⋈ {right:?} {kind:?}"));
        }
    }
}

/// One plan step, interpreted two ways by the pruning-equivalence test.
#[derive(Clone)]
enum Op {
    Filter(Expr),
    Select(Vec<&'static str>),
    Derive(&'static str, Expr),
    GroupBy(Vec<&'static str>, Vec<Agg>),
    Sort(Vec<(&'static str, SortOrder)>),
    Join(Table, Vec<&'static str>, Vec<&'static str>, JoinKind),
    Limit(usize),
}

/// The plan through `Query`, i.e. with the live-column pass.
fn via_query(source: &Table, plan: &[Op]) -> Result<Table, borg_query::QueryError> {
    let mut q = Query::from(source.clone());
    for op in plan.iter().cloned() {
        q = match op {
            Op::Filter(p) => q.filter(p),
            Op::Select(cols) => q.select(&cols),
            Op::Derive(name, e) => q.derive(name, e),
            Op::GroupBy(keys, aggs) => q.group_by(&keys, aggs),
            Op::Sort(keys) => q.sort_by_many(&keys),
            Op::Join(right, lk, rk, JoinKind::Inner) => q.join(right, &lk, &rk),
            Op::Join(right, lk, rk, JoinKind::LeftOuter) => q.left_join(right, &lk, &rk),
            Op::Limit(n) => q.limit(n),
        };
    }
    q.run()
}

/// The plan as plain operator calls, every step on the full table.
fn step_by_step(source: &Table, plan: &[Op]) -> Result<Table, borg_query::QueryError> {
    let mut t = source.clone();
    for op in plan.iter().cloned() {
        t = match op {
            Op::Filter(p) => borg_query::ops::filter(&t, &p)?,
            Op::Select(cols) => borg_query::ops::project(&t, &cols)?,
            Op::Derive(name, e) => borg_query::ops::derive(t, name, &e)?,
            Op::GroupBy(keys, aggs) => borg_query::groupby::group_by(&t, &keys, &aggs)?,
            Op::Sort(keys) => borg_query::sort::sort_by(&t, &keys)?,
            Op::Join(right, lk, rk, kind) => join(&t, &right, &lk, &rk, kind)?,
            Op::Limit(n) => {
                let keep: Vec<u32> = (0..t.num_rows().min(n) as u32).collect();
                t.take_rows(&keep)
            }
        };
    }
    Ok(t)
}

/// The live-column pass must be invisible: every plan gives the table,
/// or the error, that the unpruned step-by-step execution gives.
#[test]
fn pruned_plans_equal_step_by_step_execution() {
    use borg_query::QueryError;
    let events = ["submit", "schedule", "evict", "finish"];
    let tiers = ["free", "beb", "mid", "prod"];
    let mut inst = Table::new(vec![
        ("time", DataType::Int),
        ("collection_id", DataType::Int),
        ("instance_index", DataType::Int),
        ("event", DataType::Str),
        ("machine_id", DataType::Int),
        ("cpu_request", DataType::Float),
        ("priority", DataType::Int),
        ("tier", DataType::Str),
        ("scheduler", DataType::Int),
        ("right_note", DataType::Int),
    ]);
    for i in 0..4000usize {
        inst.push_row(vec![
            Value::Int((i * 37_000_000) as i64),
            Value::Int((i % 300) as i64),
            Value::Int((i / 300) as i64),
            Value::str(events[(i / 3) % 4]),
            if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int((i % 16) as i64)
            },
            Value::Float((i % 40) as f64 * 0.125),
            Value::Int([25, 112, 117, 200][i % 4]),
            Value::str(tiers[i % 4]),
            Value::Int(i as i64),
            Value::Int(-(i as i64)),
        ])
        .unwrap();
    }
    let mut coll = Table::new(vec![
        ("collection_id", DataType::Int),
        ("scheduler", DataType::Str),
        ("vertical_scaling", DataType::Str),
        ("note", DataType::Int),
        ("user_id", DataType::Int),
    ]);
    for c in 0..250usize {
        coll.push_row(vec![
            Value::Int(c as i64),
            Value::str(["default", "batch"][c % 2]),
            Value::str(["off", "constrained", "full"][c % 3]),
            Value::Int(c as i64 * 10),
            Value::Int((c % 23) as i64),
        ])
        .unwrap();
    }
    let is = |c: &'static str, s: &'static str| col(c).eq(lit(s));
    let join_coll = |kind| {
        Op::Join(
            coll.clone(),
            vec!["collection_id"],
            vec!["collection_id"],
            kind,
        )
    };

    let plans: Vec<(&str, Vec<Op>)> = vec![
        // The battery's shapes.
        (
            "fig8",
            vec![
                Op::Filter(is("event", "submit").and(is("tier", "prod"))),
                Op::Derive("hour", col("time").bucket(3.6e9)),
                Op::GroupBy(vec!["hour"], vec![Agg::count_all("jobs")]),
            ],
        ),
        (
            "fig9",
            vec![
                Op::Filter(is("event", "submit")),
                Op::GroupBy(
                    vec!["collection_id", "instance_index"],
                    vec![Agg::count_all("submits")],
                ),
            ],
        ),
        (
            "tier_event_counts",
            vec![Op::GroupBy(
                vec!["tier", "event"],
                vec![Agg::count_all("n")],
            )],
        ),
        (
            "users_distinct",
            vec![
                Op::Filter(is("event", "submit")),
                Op::GroupBy(vec!["tier"], vec![Agg::count_distinct("priority", "users")]),
                Op::Sort(vec![("users", SortOrder::Descending)]),
            ],
        ),
        (
            "sort_tier_time",
            vec![Op::Sort(vec![
                ("tier", SortOrder::Ascending),
                ("time", SortOrder::Descending),
            ])],
        ),
        (
            "submits",
            vec![
                Op::Filter(is("event", "submit")),
                Op::Select(vec!["collection_id", "tier", "event"]),
            ],
        ),
        (
            "join_then_group",
            vec![
                join_coll(JoinKind::Inner),
                Op::GroupBy(
                    vec!["right_scheduler", "vertical_scaling"],
                    vec![Agg::count_all("events"), Agg::sum("cpu_request", "cpu")],
                ),
            ],
        ),
        (
            "p99_by_machine",
            vec![Op::GroupBy(
                vec!["machine_id"],
                vec![Agg::percentile("cpu_request", 99.0, "p99")],
            )],
        ),
        (
            "filter_selective",
            vec![Op::Filter(
                col("machine_id").eq(lit(7i64)).and(is("event", "evict")),
            )],
        ),
        // borg-serve's PlanSpec shape: filter → group → sort → limit.
        (
            "planspec_full",
            vec![
                Op::Filter(col("priority").ge(lit(103i64))),
                Op::GroupBy(vec!["tier"], vec![Agg::max("cpu_request", "peak")]),
                Op::Sort(vec![("peak", SortOrder::Descending)]),
                Op::Limit(3),
            ],
        ),
        (
            "planspec_scan_limit",
            vec![
                Op::Filter(col("time").lt(lit(1_000_000_000i64))),
                Op::Limit(10),
            ],
        ),
        // Steps whose live set the rules have to get right.
        (
            "count_only_keeps_no_column",
            vec![
                Op::Filter(is("event", "evict")),
                Op::GroupBy(vec![], vec![Agg::count_all("n")]),
            ],
        ),
        (
            "derive_from_nothing",
            vec![Op::Derive("one", lit(1i64)), Op::Select(vec!["one"])],
        ),
        (
            "derive_overwrites_then_reads_it",
            vec![
                Op::Derive("priority", col("priority").add(col("machine_id"))),
                Op::Sort(vec![("time", SortOrder::Descending)]),
                Op::Limit(500),
                Op::GroupBy(vec!["priority"], vec![Agg::mean("cpu_request", "m")]),
            ],
        ),
        (
            "outer_join_sort_limit_select",
            vec![
                Op::Filter(col("instance_index").ge(lit(2i64))),
                join_coll(JoinKind::LeftOuter),
                Op::Sort(vec![
                    ("user_id", SortOrder::Ascending),
                    ("time", SortOrder::Ascending),
                ]),
                Op::Limit(700),
                Op::Select(vec!["user_id", "scheduler", "note"]),
            ],
        ),
        (
            "clash_observed_only_through_the_left_name",
            vec![
                join_coll(JoinKind::Inner),
                Op::GroupBy(vec!["scheduler"], vec![Agg::count_all("n")]),
            ],
        ),
        // Plans that must fail, and how.
        (
            "filter_reads_a_projected_away_column",
            vec![
                Op::Select(vec!["time", "tier"]),
                Op::Filter(is("event", "submit")),
                Op::GroupBy(vec!["tier"], vec![Agg::count_all("n")]),
            ],
        ),
        (
            "group_by_unknown_key",
            vec![
                Op::Filter(is("event", "submit")),
                Op::GroupBy(vec!["nope"], vec![Agg::count_all("n")]),
            ],
        ),
        (
            "no_clash_so_no_right_prefix",
            vec![
                join_coll(JoinKind::Inner),
                Op::GroupBy(vec!["right_vertical_scaling"], vec![Agg::count_all("n")]),
            ],
        ),
        (
            "sort_by_unknown_before_select",
            vec![
                Op::Sort(vec![("missing", SortOrder::Ascending)]),
                Op::Select(vec!["time"]),
            ],
        ),
        (
            "first_error_wins",
            vec![
                Op::Derive("x", col("ghost").add(lit(1i64))),
                Op::Select(vec!["also_missing"]),
            ],
        ),
        (
            "type_error_in_an_unobserved_derive",
            vec![
                Op::Derive("x", col("tier").add(lit(1i64))),
                Op::GroupBy(vec!["tier"], vec![Agg::count_all("n")]),
            ],
        ),
        (
            "renamed_right_column_collides_unobserved",
            vec![
                Op::Derive("note", col("time")),
                join_coll(JoinKind::Inner),
                Op::GroupBy(vec!["tier"], vec![Agg::count_all("n")]),
            ],
        ),
    ];
    let mut failures = 0;
    for (name, plan) in &plans {
        let pruned = via_query(&inst, plan);
        let full = step_by_step(&inst, plan);
        assert_eq!(pruned, full, "plan {name}");
        failures += usize::from(full.is_err());
    }
    assert_eq!(failures, 7, "the failing plans fail");
    let unknown = |name: &str, column: &str| {
        let plan = &plans.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(
            via_query(&inst, plan),
            Err(QueryError::UnknownColumn(column.to_string())),
            "plan {name}"
        );
    };
    unknown("filter_reads_a_projected_away_column", "event");
    unknown("group_by_unknown_key", "nope");
    unknown("no_clash_so_no_right_prefix", "right_vertical_scaling");
    unknown("sort_by_unknown_before_select", "missing");
    unknown("first_error_wins", "ghost");
}

/// `Table` handles share column buffers until one of them appends.
#[test]
fn table_handles_share_buffers_and_copy_on_write() {
    let mut a = Table::new(vec![("id", DataType::Int), ("name", DataType::Str)]);
    for (i, s) in ["x", "y", "z"].iter().enumerate() {
        a.push_row(vec![Value::Int(i as i64), Value::str(*s)])
            .unwrap();
    }
    let same_buffer =
        |l: &Table, r: &Table, c: &str| std::ptr::eq(l.column(c).unwrap(), r.column(c).unwrap());

    let mut b = a.clone();
    assert!(same_buffer(&a, &b, "id") && same_buffer(&a, &b, "name"));
    let projected = a.project(&["name"]).unwrap();
    assert!(same_buffer(&a, &projected, "name"));
    let whole = a.head(10);
    assert!(same_buffer(&a, &whole, "id"));
    let widened = a
        .clone()
        .with_column("flag", borg_query::Column::Bool(vec![true; 3].into()))
        .unwrap();
    assert!(same_buffer(&a, &widened, "id"));
    let through_query = Query::from(a.clone()).select(&["id"]).run().unwrap();
    assert!(same_buffer(&a, &through_query, "id"));

    // A write through one handle never shows through another.
    let before = a.clone();
    b.push_row(vec![Value::Int(9), Value::str("w")]).unwrap();
    assert_eq!((a.num_rows(), b.num_rows()), (3, 4));
    assert_eq!(a, before);
    assert!(!same_buffer(&a, &b, "id") && !same_buffer(&a, &b, "name"));
    assert_eq!(b.value(3, "name").unwrap(), Value::str("w"));
    assert_eq!(projected.num_rows(), 3);
    assert_eq!(a.head(2).num_rows(), 2);

    // A rejected row copies nothing and changes nothing.
    let mut c = a.clone();
    assert!(c.push_row(vec![Value::str("bad"), Value::Null]).is_err());
    assert!(same_buffer(&a, &c, "id"));
    c.reserve_rows(100);
    assert_eq!(a, before);
    assert_eq!(c, before);

    // The sole owner appends in place.
    let mut sole = Table::new(vec![("v", DataType::Int)]);
    sole.reserve_rows(4);
    sole.push_row(vec![Value::Int(1)]).unwrap();
    let at = std::ptr::from_ref(sole.column("v").unwrap());
    sole.push_row(vec![Value::Int(2)]).unwrap();
    assert!(std::ptr::eq(at, sole.column("v").unwrap()));
}
