//! Hash joins over encoded keys.
//!
//! Keys are encoded once per column into flat `u64` vectors
//! ([`crate::keys`]); the build side numbers the distinct right keys in
//! a flat [`GroupTable`] and lays each key's rows out contiguously, and
//! the probe looks fixed-width `[u64]` row keys up in it — no `Value`s,
//! no cloned `String`s, no per-key allocation.
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
use crate::column::{Column, DataType};
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
    join_live(left, right, left_keys, right_keys, kind, None, None)
}

/// [`join`] that gathers only the output columns named in `live`
/// (`None` = all). Output names, their order and every error are those
/// of the full join; `left` must still hold each column whose presence
/// the naming rule inspects ([`naming_columns`]). `cancel` is checked
/// after the build, after the probe and before each gathered column.
pub(crate) fn join_live(
    left: &Table,
    right: &Table,
    left_keys: &[&str],
    right_keys: &[&str],
    kind: JoinKind,
    live: Option<&BTreeSet<String>>,
    cancel: Option<&CancelToken>,
) -> Result<Table, QueryError> {
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

    // Pairs from different type classes can never match; with an empty
    // index every probe misses, which reproduces the old row-at-a-time
    // semantics (inner: no rows; left outer: every left row unmatched).
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

    // Build side: number the distinct right keys (null keys never match),
    // then lay each key's rows out contiguously, in row order.
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
    let mut starts = vec![0usize; index.len() + 1];
    for &(g, _) in &keyed_rows {
        starts[g as usize + 1] += 1;
    }
    for g in 0..index.len() {
        starts[g + 1] += starts[g];
    }
    let mut next = starts.clone();
    let mut matches = vec![0u32; keyed_rows.len()];
    for &(g, row) in &keyed_rows {
        matches[next[g as usize]] = row;
        next[g as usize] += 1;
    }
    cancel::check(cancel)?;

    // Probe with the left side, in left row order.
    let mut left_rows: Vec<u32> = Vec::with_capacity(left.num_rows());
    let mut right_indices: Vec<u32> = Vec::with_capacity(left.num_rows());
    // Out-of-range marker: `Column::take` turns it into null.
    let missing = code32(right.num_rows());
    let mut key_buf = vec![0u64; lkeys.len()];
    'probe: for row in 0..code32(left.num_rows()) {
        let at = row as usize;
        for (slot, e) in key_buf.iter_mut().zip(&lkeys) {
            if e.is_null(at) {
                if kind == JoinKind::LeftOuter {
                    left_rows.push(row);
                    right_indices.push(missing);
                }
                continue 'probe;
            }
            *slot = e.keys[at];
        }
        match index.find(&key_buf, hash_key(&key_buf)) {
            Some(g) => {
                for &r in &matches[starts[g as usize]..starts[g as usize + 1]] {
                    left_rows.push(row);
                    right_indices.push(r);
                }
            }
            None => {
                if kind == JoinKind::LeftOuter {
                    left_rows.push(row);
                    right_indices.push(missing);
                }
            }
        }
    }

    cancel::check(cancel)?;

    // Materialize the observable output columns; `take` shares string
    // dictionaries, so no cell values are cloned here.
    let (names, jobs): (Vec<String>, Vec<(&Column, &[u32])>) = schema
        .into_iter()
        .filter(|(name, ..)| live.is_none_or(|l| l.contains(name)))
        .map(|(name, from_right, col)| {
            let rows = if from_right {
                &right_indices
            } else {
                &left_rows
            };
            (name, (col, rows.as_slice()))
        })
        .unzip();
    let out_cols = names
        .into_iter()
        .zip(take_columns(&jobs, cancel)?)
        .collect();
    Table::from_columns_of_len(out_cols, Some(left_rows.len()))
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
        let run = |kind, token| join_live(&left, &right, &["k"], &["k"], kind, None, token);
        let token = CancelToken::new();
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            assert_eq!(run(kind, Some(&token)), run(kind, None));
        }
        token.cancel();
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            assert_eq!(run(kind, Some(&token)), Err(QueryError::Cancelled));
        }
    }
}
