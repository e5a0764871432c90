//! Sorting, decorate-sort-undecorate style.
//!
//! Instead of comparing [`crate::value::Value`]s (which clones strings
//! and re-dispatches on type for every comparison), each sort key column
//! is encoded **once** into a vector of order-preserving `u128` keys:
//!
//! * nulls encode as `0`, so they sort first ascending — as before;
//! * ints use the classic sign-flip trick, floats the IEEE-754
//!   order-bits trick (`-0.0` normalized to `+0.0` so they tie, NaN
//!   canonicalized to sort after `+inf`);
//! * strings decorate with their dictionary value's lexicographic rank,
//!   so string comparisons become integer comparisons;
//! * descending keys are bitwise-complemented, which reverses the whole
//!   order (nulls last — as before).
//!
//! The sort itself is an unstable index sort with the original row index
//! as the final tiebreak, which is equivalent to a stable sort.

use crate::column::Column;
use crate::error::QueryError;
use crate::keys::num_key;
use crate::table::Table;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Smallest first (nulls first).
    Ascending,
    /// Largest first (nulls last).
    Descending,
}

/// Monotone `u64` image of a non-null numeric value: preserves `<` on
/// the widened `f64` (with `-0.0` tied to `+0.0`, NaN after `+inf`).
#[inline]
fn order_bits(f: f64) -> u64 {
    let bits = if f.is_nan() {
        f64::NAN.to_bits() // one canonical NaN, whatever its source payload
    } else {
        num_key(f) // normalizes -0.0 so the two zeros tie
    };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Order-preserving `u128` image of one cell: null < every non-null.
#[inline]
fn decorate(non_null_key: Option<u64>) -> u128 {
    match non_null_key {
        None => 0,
        Some(k) => (1u128 << 64) | k as u128,
    }
}

/// Encodes a whole column into per-row sort keys for `order`.
fn sort_keys(col: &Column, order: SortOrder) -> Vec<u128> {
    let mut keys: Vec<u128> = match col {
        Column::Int(v) => v
            .iter()
            .map(|c| decorate(c.map(|x| (x as u64) ^ (1 << 63))))
            .collect(),
        Column::Float(v) => v.iter().map(|c| decorate(c.map(order_bits))).collect(),
        Column::Str(v) => {
            let ranks = v.lex_ranks();
            v.codes()
                .iter()
                .map(|&code| {
                    decorate((code != crate::dict::NULL_CODE).then(|| ranks[code as usize] as u64))
                })
                .collect()
        }
        Column::Bool(v) => v.iter().map(|c| decorate(c.map(|b| b as u64))).collect(),
    };
    if order == SortOrder::Descending {
        for k in &mut keys {
            *k = !*k;
        }
    }
    keys
}

/// The row permutation that stably sorts `table` by a sequence of
/// `(column, order)` keys, earlier keys taking precedence.
pub(crate) fn sort_indices(
    table: &Table,
    keys: &[(&str, SortOrder)],
) -> Result<Vec<usize>, QueryError> {
    let decorated: Vec<Vec<u128>> = keys
        .iter()
        .map(|(name, order)| table.column(name).map(|c| sort_keys(c, *order)))
        .collect::<Result<_, _>>()?;
    let mut indices: Vec<u32> = (0..crate::cast::code32(table.num_rows())).collect();
    indices.sort_unstable_by(|&a, &b| {
        for keys in &decorated {
            let ord = keys[a as usize].cmp(&keys[b as usize]);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b) // original position: stability without a stable sort
    });
    Ok(indices.into_iter().map(|i| i as usize).collect())
}

/// Stable sort of `table` by a sequence of `(column, order)` keys, with
/// earlier keys taking precedence.
pub fn sort_by(table: &Table, keys: &[(&str, SortOrder)]) -> Result<Table, QueryError> {
    Ok(table.take_rows(&sort_indices(table, keys)?))
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::column::DataType;
    use crate::value::Value;

    fn table() -> Table {
        let mut t = Table::new(vec![("k", DataType::Str), ("v", DataType::Int)]);
        for (k, v) in [("b", 2), ("a", 3), ("b", 1), ("a", 1)] {
            t.push_row(vec![Value::str(k), Value::Int(v)]).unwrap();
        }
        t
    }

    #[test]
    fn single_key_ascending() {
        let out = sort_by(&table(), &[("v", SortOrder::Ascending)]).unwrap();
        let vs: Vec<Value> = (0..4).map(|r| out.value(r, "v").unwrap()).collect();
        assert_eq!(
            vs,
            vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn multi_key() {
        let out = sort_by(
            &table(),
            &[("k", SortOrder::Ascending), ("v", SortOrder::Descending)],
        )
        .unwrap();
        assert_eq!(out.value(0, "k").unwrap(), Value::str("a"));
        assert_eq!(out.value(0, "v").unwrap(), Value::Int(3));
        assert_eq!(out.value(2, "k").unwrap(), Value::str("b"));
        assert_eq!(out.value(2, "v").unwrap(), Value::Int(2));
    }

    #[test]
    fn stability() {
        // Equal keys preserve input order.
        let out = sort_by(&table(), &[("k", SortOrder::Ascending)]).unwrap();
        // "a" rows were (a,3) then (a,1) in input order.
        assert_eq!(out.value(0, "v").unwrap(), Value::Int(3));
        assert_eq!(out.value(1, "v").unwrap(), Value::Int(1));
    }

    #[test]
    fn nulls_order() {
        let mut t = Table::new(vec![("v", DataType::Int)]);
        t.push_row(vec![Value::Int(5)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Int(1)]).unwrap();
        let asc = sort_by(&t, &[("v", SortOrder::Ascending)]).unwrap();
        assert!(asc.value(0, "v").unwrap().is_null());
        let desc = sort_by(&t, &[("v", SortOrder::Descending)]).unwrap();
        assert!(desc.value(2, "v").unwrap().is_null());
    }

    #[test]
    fn unknown_column() {
        assert!(sort_by(&table(), &[("missing", SortOrder::Ascending)]).is_err());
    }

    #[test]
    fn int_extremes_order_correctly() {
        let mut t = Table::new(vec![("v", DataType::Int)]);
        for v in [0, i64::MAX, i64::MIN, -1, 1, i64::MAX - 1, i64::MIN + 1] {
            t.push_row(vec![Value::Int(v)]).unwrap();
        }
        let out = sort_by(&t, &[("v", SortOrder::Ascending)]).unwrap();
        let vs: Vec<i64> = (0..7)
            .map(|r| out.value(r, "v").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(
            vs,
            vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]
        );
    }

    #[test]
    fn float_edge_values_order_correctly() {
        let mut t = Table::new(vec![("v", DataType::Float)]);
        for v in [
            1.0,
            f64::NEG_INFINITY,
            -0.0,
            f64::INFINITY,
            0.0,
            -1.5,
            f64::NAN,
        ] {
            t.push_row(vec![Value::Float(v)]).unwrap();
        }
        let out = sort_by(&t, &[("v", SortOrder::Ascending)]).unwrap();
        let vs: Vec<f64> = (0..7)
            .map(|r| out.value(r, "v").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(vs[0], f64::NEG_INFINITY);
        assert_eq!(vs[1], -1.5);
        // -0.0 and 0.0 tie; stability keeps input order (-0.0 first).
        assert!(vs[2] == 0.0 && vs[2].is_sign_negative());
        assert!(vs[3] == 0.0 && !vs[3].is_sign_negative());
        assert_eq!(vs[4], 1.0);
        assert_eq!(vs[5], f64::INFINITY);
        assert!(vs[6].is_nan(), "NaN sorts after +inf");
    }

    #[test]
    fn string_sort_uses_lexicographic_order() {
        let mut t = Table::new(vec![("s", DataType::Str)]);
        for s in ["prod", "beb", "free", "mid"] {
            t.push_row(vec![Value::str(s)]).unwrap();
        }
        t.push_row(vec![Value::Null]).unwrap();
        let out = sort_by(&t, &[("s", SortOrder::Descending)]).unwrap();
        assert_eq!(out.value(0, "s").unwrap(), Value::str("prod"));
        assert_eq!(out.value(3, "s").unwrap(), Value::str("beb"));
        assert!(out.value(4, "s").unwrap().is_null()); // nulls last descending
    }
}
