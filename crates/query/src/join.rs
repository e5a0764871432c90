//! Joins over encoded keys: a slot table for dense Int keys, a hash
//! table for the rest.
//!
//! The build side numbers the distinct right keys in first-appearance
//! order and lays each key's rows out contiguously; the probe walks the
//! left rows in order and emits each matched key's rows — no `Value`s,
//! no cloned `String`s, no per-key allocation.
//!
//! When every key pair is Int–Int, every non-null right key lies strictly
//! inside ±2^53 and the product of the right keys' ranges is at most 4
//! slots per right row plus 1024, a key's number lives in a flat slot
//! table indexed by its offset in those ranges: a left row costs one
//! bounds check per key and one slot read, with no encoding and no hash.
//! Otherwise keys are encoded once per column into flat `u64` vectors
//! ([`crate::keys`]), the build numbers them in a [`GroupTable`], and the
//! probe looks fixed-width `[u64]` row keys up in it. When every left row
//! matches once (or, left outer, at most once), the left columns pass to
//! the output ungathered.
//! For string key pairs, the right column's dictionary codes are
//! remapped into the left column's dictionary up front, so the probe
//! compares integer codes directly; right strings absent from the left
//! pool get a sentinel no left row can produce.
//!
//! Output assembly is `take`-based over `u32` row lists, the output
//! columns dealt over the query threads ([`crate::table::take_columns`]):
//! string columns share their dictionary with the input instead of
//! cloning row values.

use crate::cancel::{self, CancelToken};
use crate::cast::code32;
use crate::column::{Column, DataType, PrimVec};
use crate::dict::NULL_CODE;
use crate::error::QueryError;
use crate::keys::{encode_column, hash_key, EncodedCol, GroupTable, STR_NULL};
use crate::table::{take_columns, Table};
use std::collections::BTreeSet;

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Keep only matching row pairs.
    Inner,
    /// Keep every left row; unmatched right columns become null.
    LeftOuter,
}

/// Key-type compatibility: pairs outside one class can never be equal
/// (ints and floats compare numerically, as in `Value::compare`).
fn compatible(l: DataType, r: DataType) -> bool {
    let class = |dt: DataType| match dt {
        DataType::Int | DataType::Float => 0u8,
        DataType::Str => 1,
        DataType::Bool => 2,
    };
    class(l) == class(r)
}

/// Encodes a right-side key column into the left column's key space.
fn encode_right(lcol: &Column, rcol: &Column) -> EncodedCol {
    match (lcol, rcol) {
        (Column::Str(l), Column::Str(r)) => {
            // Strings absent from the left pool can never match a probe;
            // give them per-code sentinels above every valid left key.
            let map = r.code_mapping_into(l);
            let keys = r
                .codes()
                .iter()
                .map(|&c| match c {
                    NULL_CODE => STR_NULL,
                    c => match map[c as usize] {
                        NULL_CODE => (1u64 << 32) | c as u64,
                        lc => lc as u64,
                    },
                })
                .collect();
            EncodedCol {
                keys,
                null_key: STR_NULL,
            }
        }
        _ => encode_column(rcol),
    }
}

/// The group of a dense slot that no right key fills.
const NO_GROUP: u32 = u32::MAX;

/// Ints strictly inside ±`EXACT_INT` convert to `f64` exactly, and an int
/// outside converts to an `f64` outside, so for a build key inside it
/// `i64` equality is the `num_key(x as f64)` equality of the hashed path.
const EXACT_INT: i64 = 1 << 53;

/// The most slots a dense build may use for `rows` build rows: a fixed
/// multiple of the rows, plus room for a small table's sparse ids.
fn dense_slot_bound(rows: usize) -> usize {
    rows.saturating_mul(4).saturating_add(1024)
}

/// One Int key column of a dense join, read against the build side's
/// non-null range `min .. min + span` of the same key.
struct DenseKey<'a> {
    values: &'a [i64],
    valid: Option<&'a [bool]>,
    min: i64,
    span: usize,
}

impl DenseKey<'_> {
    /// The row's offset in the range; `None` for a null or a value outside.
    // `d < span`, a `usize`, bounds the narrowing.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    fn offset(&self, row: usize) -> Option<usize> {
        if self.valid.is_some_and(|v| !v[row]) {
            return None;
        }
        // Below `min` wraps past every span (`|min| < 2^53`).
        let d = self.values[row].wrapping_sub(self.min) as u64;
        (d < self.span as u64).then_some(d as usize)
    }
}

/// The row's slot in the mixed-radix product of the keys' ranges.
#[inline]
fn dense_slot(keys: &[DenseKey], row: usize) -> Option<usize> {
    keys.iter()
        .try_fold(0, |slot, k| Some(slot * k.span + k.offset(row)?))
}

/// The left and right key views of a dense build: every key pair is
/// Int–Int, every non-null right key lies strictly inside ±2^53, and the
/// product of the right keys' ranges is within [`dense_slot_bound`].
/// `None` sends the join down the hashed path.
fn dense_keys<'a>(
    lcols: &[&'a Column],
    rcols: &[&'a Column],
    build_rows: usize,
) -> Option<(Vec<DenseKey<'a>>, Vec<DenseKey<'a>>)> {
    let (mut lkeys, mut rkeys) = (Vec::new(), Vec::new());
    let mut slots = 1usize;
    for (l, r) in lcols.iter().zip(rcols) {
        let (Column::Int(l), Column::Int(r)) = (l, r) else {
            return None;
        };
        let valid = |row: usize| r.validity().is_none_or(|v| v[row]);
        let mut range: Option<(i64, i64)> = None;
        for (row, &x) in r.values().iter().enumerate() {
            if valid(row) {
                if x <= -EXACT_INT || x >= EXACT_INT {
                    return None;
                }
                range = Some(range.map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x))));
            }
        }
        // A key with no non-null build value matches nothing: an empty range.
        let (min, span) = match range {
            Some((lo, hi)) => (lo, usize::try_from(hi - lo).ok()?.checked_add(1)?),
            None => (0, 0),
        };
        slots = slots.checked_mul(span)?;
        let view = |v: &'a PrimVec<i64>| DenseKey {
            values: v.values(),
            valid: v.validity(),
            min,
            span,
        };
        lkeys.push(view(l));
        rkeys.push(view(r));
    }
    (slots <= dense_slot_bound(build_rows)).then_some((lkeys, rkeys))
}

/// Lays each group's build rows out contiguously, in row order: group
/// `g`'s rows are `matches[starts[g]..starts[g + 1]]`.
fn lay_out(groups: usize, keyed_rows: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
    let mut starts = vec![0usize; groups + 1];
    for &(g, _) in keyed_rows {
        starts[g as usize + 1] += 1;
    }
    for g in 0..groups {
        starts[g + 1] += starts[g];
    }
    let mut next = starts.clone();
    let mut matches = vec![0u32; keyed_rows.len()];
    for &(g, row) in keyed_rows {
        matches[next[g as usize]] = row;
        next[g as usize] += 1;
    }
    (starts, matches)
}

/// Probes the left rows in order: `group_of(row)` is the row's build
/// group, `None` for a null key or a miss. Returns the output's left and
/// right row lists; an unmatched left row of a left outer join names the
/// row past the right table's end, which `Column::take` turns into null.
/// The left list is `None` when it would be every left row once, in order.
fn probe(
    left_rows: usize,
    right_rows: usize,
    kind: JoinKind,
    starts: &[usize],
    matches: &[u32],
    mut group_of: impl FnMut(usize) -> Option<u32>,
) -> (Option<Vec<u32>>, Vec<u32>) {
    let mut lrows: Vec<u32> = Vec::with_capacity(left_rows);
    let mut rrows: Vec<u32> = Vec::with_capacity(left_rows);
    let mut once = true;
    let missing = code32(right_rows);
    // Every group one row (unique build keys): group `g` is `matches[g]`.
    let unique = matches.len() + 1 == starts.len();
    for row in 0..code32(left_rows) {
        match group_of(row as usize) {
            Some(g) if unique => {
                lrows.push(row);
                rrows.push(matches[g as usize]);
            }
            Some(g) => {
                let rows = &matches[starts[g as usize]..starts[g as usize + 1]];
                once &= rows.len() == 1;
                for &r in rows {
                    lrows.push(row);
                    rrows.push(r);
                }
            }
            None if kind == JoinKind::LeftOuter => {
                lrows.push(row);
                rrows.push(missing);
            }
            None => once = false,
        }
    }
    ((!once).then_some(lrows), rrows)
}

/// Hash-joins `left` and `right` on equality of the given key columns
/// (pairwise: `left_keys[i] == right_keys[i]`). Null keys never match,
/// SQL-style. Right-side key columns are dropped from the output;
/// remaining right columns that clash with a left name get a `right_`
/// prefix.
pub fn join(
    left: &Table,
    right: &Table,
    left_keys: &[&str],
    right_keys: &[&str],
    kind: JoinKind,
) -> Result<Table, QueryError> {
    join_live(left, right, left_keys, right_keys, kind, None, None).map(|(t, _)| t)
}

/// [`join`] that gathers only the output columns named in `live`
/// (`None` = all). Output names, their order and every error are those
/// of the full join; `left` must still hold each column whose presence
/// the naming rule inspects ([`naming_columns`]). `cancel` is checked
/// after the build, after the probe and before each gathered column.
/// Also returns the build's path, `dense` or `hashed`.
pub(crate) fn join_live(
    left: &Table,
    right: &Table,
    left_keys: &[&str],
    right_keys: &[&str],
    kind: JoinKind,
    live: Option<&BTreeSet<String>>,
    cancel: Option<&CancelToken>,
) -> Result<(Table, &'static str), QueryError> {
    if left_keys.len() != right_keys.len() {
        return Err(QueryError::InvalidParameter(format!(
            "join key arity {} vs {}",
            left_keys.len(),
            right_keys.len()
        )));
    }
    let lcols: Vec<&Column> = left_keys
        .iter()
        .map(|k| left.column(k))
        .collect::<Result<_, _>>()?;
    let rcols: Vec<&Column> = right_keys
        .iter()
        .map(|k| right.column(k))
        .collect::<Result<_, _>>()?;

    // Output schema first: (name, from the right side?, source column).
    let mut schema: Vec<(String, bool, &Column)> =
        Vec::with_capacity(left.num_columns() + right.num_columns());
    for (i, name) in left.column_names().iter().enumerate() {
        schema.push((name.clone(), false, left.column_at(i)));
    }
    for (i, name) in right.column_names().iter().enumerate() {
        if right_keys.contains(&name.as_str()) {
            continue;
        }
        let out_name = if left.column_names().contains(name) {
            format!("right_{name}")
        } else {
            name.clone()
        };
        if schema.iter().any(|(n, ..)| *n == out_name) {
            return Err(QueryError::DuplicateColumn(out_name));
        }
        schema.push((out_name, true, right.column_at(i)));
    }

    // Build side: number the distinct right keys (null keys never match),
    // then lay each key's rows out contiguously, in row order.
    let dense = dense_keys(&lcols, &rcols, right.num_rows());
    let path = if dense.is_some() { "dense" } else { "hashed" };
    let (left_rows, right_indices) = match dense {
        Some((lkeys, rkeys)) => {
            let mut slots = vec![NO_GROUP; rkeys.iter().map(|k| k.span).product()];
            let mut groups = 0u32;
            let mut keyed_rows: Vec<(u32, u32)> = Vec::new();
            for row in 0..right.num_rows() {
                if let Some(s) = dense_slot(&rkeys, row) {
                    if slots[s] == NO_GROUP {
                        slots[s] = groups;
                        groups += 1;
                    }
                    keyed_rows.push((slots[s], code32(row)));
                }
            }
            let (starts, matches) = lay_out(groups as usize, &keyed_rows);
            cancel::check(cancel)?;
            let group = |s: usize| (slots[s] != NO_GROUP).then_some(slots[s]);
            let (n, m) = (left.num_rows(), right.num_rows());
            // One key, the common case, skips the fold's per-row loop.
            match &lkeys[..] {
                [k] => probe(n, m, kind, &starts, &matches, |row| group(k.offset(row)?)),
                keys => probe(n, m, kind, &starts, &matches, |row| {
                    group(dense_slot(keys, row)?)
                }),
            }
        }
        None => {
            // Pairs from different type classes can never match; with an
            // empty index every probe misses, which reproduces the old
            // row-at-a-time semantics (inner: no rows; left outer: every
            // left row unmatched).
            let matchable = lcols
                .iter()
                .zip(&rcols)
                .all(|(l, r)| compatible(l.data_type(), r.data_type()));
            let lkeys: Vec<EncodedCol> = lcols.iter().map(|c| encode_column(c)).collect();
            let rkeys: Vec<EncodedCol> = lcols
                .iter()
                .zip(&rcols)
                .map(|(l, r)| encode_right(l, r))
                .collect();
            let mut index = GroupTable::new(rkeys.len());
            let mut keyed_rows: Vec<(u32, u32)> = Vec::new();
            let mut key_buf = vec![0u64; rkeys.len()];
            if matchable {
                'rows: for row in 0..right.num_rows() {
                    for (slot, e) in key_buf.iter_mut().zip(&rkeys) {
                        if e.is_null(row) {
                            continue 'rows;
                        }
                        *slot = e.keys[row];
                    }
                    let (g, _) = index.find_or_insert(&key_buf, hash_key(&key_buf));
                    keyed_rows.push((g, code32(row)));
                }
            }
            let (starts, matches) = lay_out(index.len(), &keyed_rows);
            cancel::check(cancel)?;
            probe(
                left.num_rows(),
                right.num_rows(),
                kind,
                &starts,
                &matches,
                |row| {
                    for (slot, e) in key_buf.iter_mut().zip(&lkeys) {
                        if e.is_null(row) {
                            return None;
                        }
                        *slot = e.keys[row];
                    }
                    index.find(&key_buf, hash_key(&key_buf))
                },
            )
        }
    };

    cancel::check(cancel)?;

    // Materialize the observable output columns; `take` shares string
    // dictionaries, so no cell values are cloned here. When each left row
    // appears once, in order, the left columns pass through unchanged.
    let (names, jobs): (Vec<String>, Vec<(&Column, &[u32])>) = schema
        .into_iter()
        .filter(|(name, ..)| live.is_none_or(|l| l.contains(name)))
        .filter_map(|(name, from_right, col)| {
            let rows = if from_right {
                Some(&right_indices)
            } else {
                left_rows.as_ref()
            };
            rows.map(|rows| (name, (col, rows.as_slice())))
        })
        .unzip();
    let mut out_cols = names.into_iter().zip(take_columns(&jobs, cancel)?);
    let out = match left_rows {
        Some(_) => Table::from_columns_of_len(out_cols.collect(), Some(right_indices.len()))?,
        None => out_cols.try_fold(left.keep(live), |t, (name, col)| t.with_column(name, col))?,
    };
    Ok((out, path))
}

/// The left-side column names whose presence decides the join's output
/// names and its duplicate-name error: a right column `c` is renamed
/// `right_c` when the left has `c`, and then collides when the left
/// also has `right_c`. A plan that prunes the left input must keep them.
pub(crate) fn naming_columns(right: &Table) -> impl Iterator<Item = String> + '_ {
    right
        .column_names()
        .iter()
        .flat_map(|c| [c.clone(), format!("right_{c}")])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DataType;
    use crate::value::Value;

    fn jobs() -> Table {
        let mut t = Table::new(vec![("job", DataType::Int), ("tier", DataType::Str)]);
        for (j, tier) in [(1, "prod"), (2, "beb"), (3, "free")] {
            t.push_row(vec![Value::Int(j), Value::str(tier)]).unwrap();
        }
        t
    }

    fn tasks() -> Table {
        let mut t = Table::new(vec![("job", DataType::Int), ("cpu", DataType::Float)]);
        for (j, cpu) in [(1, 0.5), (1, 0.7), (2, 0.1), (9, 0.9)] {
            t.push_row(vec![Value::Int(j), Value::Float(cpu)]).unwrap();
        }
        t
    }

    #[test]
    fn inner_join_matches() {
        let out = join(&jobs(), &tasks(), &["job"], &["job"], JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 3); // job 1 × 2, job 2 × 1
        assert_eq!(out.value(0, "tier").unwrap(), Value::str("prod"));
        assert_eq!(out.value(0, "cpu").unwrap(), Value::Float(0.5));
        assert_eq!(out.value(2, "tier").unwrap(), Value::str("beb"));
    }

    #[test]
    fn left_outer_keeps_unmatched() {
        let out = join(&jobs(), &tasks(), &["job"], &["job"], JoinKind::LeftOuter).unwrap();
        assert_eq!(out.num_rows(), 4); // free job 3 kept with null cpu
        let last = out.num_rows() - 1;
        assert_eq!(out.value(last, "job").unwrap(), Value::Int(3));
        assert!(out.value(last, "cpu").unwrap().is_null());
    }

    #[test]
    fn null_keys_never_match() {
        let mut l = Table::new(vec![("k", DataType::Int)]);
        l.push_row(vec![Value::Null]).unwrap();
        let mut r = Table::new(vec![("k", DataType::Int), ("v", DataType::Int)]);
        r.push_row(vec![Value::Null, Value::Int(1)]).unwrap();
        let inner = join(&l, &r, &["k"], &["k"], JoinKind::Inner).unwrap();
        assert_eq!(inner.num_rows(), 0);
        let outer = join(&l, &r, &["k"], &["k"], JoinKind::LeftOuter).unwrap();
        assert_eq!(outer.num_rows(), 1);
        assert!(outer.value(0, "v").unwrap().is_null());
    }

    #[test]
    fn name_clash_prefixed() {
        let mut r = Table::new(vec![("job", DataType::Int), ("tier", DataType::Str)]);
        r.push_row(vec![Value::Int(1), Value::str("x")]).unwrap();
        let out = join(&jobs(), &r, &["job"], &["job"], JoinKind::Inner).unwrap();
        assert!(out.column_names().contains(&"right_tier".to_string()));
    }

    #[test]
    fn key_arity_checked() {
        assert!(join(&jobs(), &tasks(), &["job"], &[], JoinKind::Inner).is_err());
    }

    #[test]
    fn string_keys_join_across_dictionaries() {
        // Right table interns strings in a different order (different
        // codes); join must still match on string value.
        let mut r = Table::new(vec![("tier", DataType::Str), ("w", DataType::Float)]);
        for (t, w) in [("free", 0.0), ("unknown", 9.0), ("prod", 1.0)] {
            r.push_row(vec![Value::str(t), Value::Float(w)]).unwrap();
        }
        let out = join(&jobs(), &r, &["tier"], &["tier"], JoinKind::LeftOuter).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, "w").unwrap(), Value::Float(1.0)); // prod
        assert!(out.value(1, "w").unwrap().is_null()); // beb unmatched
        assert_eq!(out.value(2, "w").unwrap(), Value::Float(0.0)); // free
    }

    #[test]
    fn int_and_float_keys_compare_numerically() {
        let mut l = Table::new(vec![("k", DataType::Int)]);
        l.push_row(vec![Value::Int(2)]).unwrap();
        let mut r = Table::new(vec![("k", DataType::Float), ("v", DataType::Int)]);
        r.push_row(vec![Value::Float(2.0), Value::Int(7)]).unwrap();
        let out = join(&l, &r, &["k"], &["k"], JoinKind::Inner).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "v").unwrap(), Value::Int(7));
    }

    #[test]
    fn incompatible_key_types_never_match() {
        let mut l = Table::new(vec![("k", DataType::Int)]);
        l.push_row(vec![Value::Int(1)]).unwrap();
        let mut r = Table::new(vec![("k", DataType::Bool), ("v", DataType::Int)]);
        r.push_row(vec![Value::Bool(true), Value::Int(7)]).unwrap();
        let inner = join(&l, &r, &["k"], &["k"], JoinKind::Inner).unwrap();
        assert_eq!(inner.num_rows(), 0);
        let outer = join(&l, &r, &["k"], &["k"], JoinKind::LeftOuter).unwrap();
        assert_eq!(outer.num_rows(), 1);
        assert!(outer.value(0, "v").unwrap().is_null());
    }

    #[test]
    fn a_token_set_before_the_join_cancels_it() {
        let n = crate::parallel::BLOCK_ROWS * 2 + 5;
        let left = Table::from_columns(vec![
            (
                "k",
                Column::Int((0..n).map(|i| Some((i % 50) as i64)).collect()),
            ),
            ("v", Column::Float((0..n).map(|i| Some(i as f64)).collect())),
        ])
        .unwrap();
        let right = Table::from_columns(vec![
            ("k", Column::Int((0..40).map(Some).collect())),
            ("w", Column::Int((0..40).map(|i| Some(i * 10)).collect())),
        ])
        .unwrap();
        let run = |kind, token| {
            join_live(&left, &right, &["k"], &["k"], kind, None, token).map(|(t, _)| t)
        };
        let token = CancelToken::new();
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            assert_eq!(run(kind, Some(&token)), run(kind, None));
        }
        token.cancel();
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            assert_eq!(run(kind, Some(&token)), Err(QueryError::Cancelled));
        }
    }

    fn keyed(col: Column) -> Table {
        let n = col.len();
        Table::from_columns(vec![
            ("k", col),
            ("v", Column::Int((0..n as i64).map(Some).collect())),
        ])
        .unwrap()
    }

    fn path_of(left: Column, right: Column) -> &'static str {
        let (l, r) = (keyed(left), keyed(right));
        join_live(&l, &r, &["k"], &["k"], JoinKind::Inner, None, None)
            .unwrap()
            .1
    }

    #[test]
    fn the_build_takes_the_dense_path_only_for_int_keys_in_a_small_exact_range() {
        let ints = |xs: &[Option<i64>]| Column::Int(xs.iter().copied().collect());
        let probe = || ints(&[Some(1), Some(5), None]);
        // 2 build rows allow 4 · 2 + 1024 = 1032 slots; a null row counts.
        assert_eq!(path_of(probe(), ints(&[Some(-500), Some(531)])), "dense");
        assert_eq!(path_of(probe(), ints(&[Some(-500), Some(532)])), "hashed");
        assert_eq!(
            path_of(probe(), ints(&[Some(-500), Some(535), None])),
            "dense"
        );
        assert_eq!(path_of(probe(), ints(&[None, None])), "dense");
        let edge = EXACT_INT - 1;
        assert_eq!(path_of(probe(), ints(&[Some(edge)])), "dense");
        assert_eq!(path_of(probe(), ints(&[Some(-edge)])), "dense");
        assert_eq!(path_of(probe(), ints(&[Some(edge + 1)])), "hashed");
        assert_eq!(path_of(probe(), ints(&[Some(-edge - 1)])), "hashed");
        let floats = Column::Float(vec![Some(1.0)].into_iter().collect());
        assert_eq!(path_of(probe(), floats.clone()), "hashed");
        assert_eq!(path_of(floats, ints(&[Some(1)])), "hashed");
    }

    #[test]
    fn two_int_keys_are_dense_while_their_ranges_product_fits() {
        let table = |a: &[i64], b: &[i64]| {
            Table::from_columns(vec![
                ("a", Column::Int(a.iter().map(|&x| Some(x)).collect())),
                ("b", Column::Int(b.iter().map(|&x| Some(x)).collect())),
                ("v", Column::Int((0..a.len() as i64).map(Some).collect())),
            ])
            .unwrap()
        };
        let left = table(&[0, 3, 31, 31], &[0, 32, 31, 32]);
        // 32 × 32 = 1024 slots fit two build rows; 32 × 33 do not.
        let run = |right: &Table| {
            join_live(
                &left,
                right,
                &["a", "b"],
                &["a", "b"],
                JoinKind::Inner,
                None,
                None,
            )
            .unwrap()
        };
        let (out, path) = run(&table(&[0, 31], &[0, 31]));
        assert_eq!((ints(&out, "v"), path), (vec![0, 2], "dense"));
        let (out, path) = run(&table(&[0, 31], &[0, 32]));
        assert_eq!((ints(&out, "v"), path), (vec![0, 3], "hashed"));
    }

    #[test]
    fn a_left_value_past_the_range_misses_without_wrapping() {
        let left = keyed(Column::Int(
            [i64::MIN, i64::MAX, -EXACT_INT + 1, 7, EXACT_INT - 1]
                .into_iter()
                .map(Some)
                .collect(),
        ));
        let right = keyed(Column::Int(
            [-EXACT_INT + 1, 7, EXACT_INT - 1]
                .into_iter()
                .map(Some)
                .collect(),
        ));
        let (out, path) = join_live(
            &left,
            &right,
            &["k"],
            &["k"],
            JoinKind::LeftOuter,
            None,
            None,
        )
        .unwrap();
        assert_eq!(path, "hashed"); // the range is far wider than the rows
        let want: Vec<Value> = [None, None, Some(0), Some(1), Some(2)]
            .into_iter()
            .map(|r| r.map_or(Value::Null, Value::Int))
            .collect();
        let got: Vec<Value> = (0..5).map(|i| out.value(i, "right_v").unwrap()).collect();
        assert_eq!(got, want);
        // The same keys packed close together take the slot table.
        let right = keyed(Column::Int([5, 7, 9].into_iter().map(Some).collect()));
        let (out, path) = join_live(
            &left,
            &right,
            &["k"],
            &["k"],
            JoinKind::LeftOuter,
            None,
            None,
        )
        .unwrap();
        assert_eq!(path, "dense");
        let got: Vec<Value> = (0..5).map(|i| out.value(i, "right_v").unwrap()).collect();
        let want = [
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Int(1),
            Value::Null,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn left_columns_pass_through_shared_when_each_left_row_matches_once() {
        let left = keyed(Column::Int([3, 1, 2, 1].into_iter().map(Some).collect()));
        let right = jobs();
        let (out, _) =
            join_live(&left, &right, &["k"], &["job"], JoinKind::Inner, None, None).unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.column("v").unwrap(), left.column("v").unwrap());
        assert_eq!(out.value(0, "tier").unwrap(), Value::str("free"));
        assert_eq!(out.value(3, "tier").unwrap(), Value::str("prod"));
        // A miss (inner) or a double match drops the shortcut, not a row.
        let mut twice = jobs();
        twice
            .push_row(vec![Value::Int(2), Value::str("mid")])
            .unwrap();
        let (out, _) =
            join_live(&left, &twice, &["k"], &["job"], JoinKind::Inner, None, None).unwrap();
        assert_eq!(ints(&out, "v"), [0, 1, 2, 2, 3]);
        let short = keyed(Column::Int([3, 9, 1].into_iter().map(Some).collect()));
        let (out, _) = join_live(
            &short,
            &right,
            &["k"],
            &["job"],
            JoinKind::Inner,
            None,
            None,
        )
        .unwrap();
        assert_eq!(ints(&out, "v"), [0, 2]);
    }

    fn ints(t: &Table, name: &str) -> Vec<i64> {
        (0..t.num_rows())
            .map(|i| t.value(i, name).unwrap().as_i64().unwrap())
            .collect()
    }
}
