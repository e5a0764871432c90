//! Sorting: one sort of packed integers.
//!
//! No [`crate::value::Value`] is compared and no comparator runs. Each
//! key column is read as a **range-compressed image** per cell:
//!
//! * a non-null cell first gets an order-preserving `u64` — ints by the
//!   sign-flip trick, floats by the IEEE-754 order-bits trick (`-0.0`
//!   normalized to `+0.0` so they tie, NaN canonicalized to sort after
//!   `+inf`), strings by their dictionary value's lexicographic rank,
//!   bools as 0/1;
//! * the image is that value minus the column's smallest, plus one, and
//!   null is `0`, so nulls sort first ascending;
//! * a descending key stores `largest image − image` instead, which
//!   reverses the whole order (nulls last);
//! * the key is as wide as its largest image: 3 bits for four tiers and
//!   null, 37 for a day of microseconds, 65 at most (`i64::MIN`,
//!   `i64::MAX` and null in one column).
//!
//! A row's images are concatenated, first key highest, above the row's
//! number, into a `u64` when they fit and a `u128` otherwise, and the
//! integers are sorted with `sort_unstable`. The row number in the low
//! bits makes every integer distinct, so an unstable sort has no ties to
//! reorder, and rows with equal keys come out in input order: the sort
//! is stable. The low bits of the sorted integers are the permutation.
//!
//! Keys too wide for 128 bits run through the same kernel in passes,
//! from the last group of keys to the first. A later pass packs its
//! group's images above each row's *position* after the pass before, so
//! ties keep the order the less significant keys gave them. One key and
//! a row number are at most 65 + 32 bits, so a group always exists.
//!
//! The bounds come from one scan of each key column and the images from
//! a second, written straight into the packed vector: no per-key image
//! vector is built.

use crate::cancel::{self, CancelToken};
use crate::cast::code32;
use crate::column::{Column, PrimVec};
use crate::dict::NULL_CODE;
use crate::error::QueryError;
use crate::keys::num_key;
use crate::table::Table;
use std::ops::{Add, BitOr, Shl};

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

/// Calls `f(i, cell)` for every position `i`, where `cell` is the
/// order-preserving `u64` of the cell in row `i` — or in row `at[i]`,
/// when an earlier pass has already moved the rows — and `None` for
/// null. `ranks` are the column's lexicographic ranks (string columns).
fn for_each_cell(
    col: &Column,
    ranks: &[u32],
    at: Option<&[u32]>,
    mut f: impl FnMut(usize, Option<u64>),
) {
    /// A plain-value column: every slot's `u64`, or `None` where the
    /// mask says null.
    fn each<T: Copy + Default>(
        v: &PrimVec<T>,
        at: Option<&[u32]>,
        bits: impl Fn(T) -> u64,
        mut f: impl FnMut(usize, Option<u64>),
    ) {
        let row = |i: usize| at.map_or(i, |rows| rows[i] as usize);
        let values = v.values();
        match v.validity() {
            None => (0..values.len()).for_each(|i| f(i, Some(bits(values[row(i)])))),
            Some(valid) => (0..values.len()).for_each(|i| {
                let r = row(i);
                f(i, valid[r].then(|| bits(values[r])));
            }),
        }
    }
    match col {
        Column::Int(v) => each(v, at, |x| (x as u64) ^ (1 << 63), f),
        Column::Float(v) => each(v, at, order_bits, f),
        Column::Str(v) => {
            let codes = v.codes();
            (0..codes.len()).for_each(|i| {
                let code = codes[at.map_or(i, |rows| rows[i] as usize)];
                f(
                    i,
                    (code != NULL_CODE).then(|| u64::from(ranks[code as usize])),
                );
            });
        }
        Column::Bool(v) => each(v, at, u64::from, f),
    }
}

/// The integer a row's images and its position are packed into: `u64`
/// when they fit, `u128` otherwise.
trait Packed:
    Copy
    + Ord
    + From<u32>
    + From<u64>
    + Into<u128>
    + Add<Output = Self>
    + Shl<u32, Output = Self>
    + BitOr<Output = Self>
{
}

impl Packed for u64 {}
impl Packed for u128 {}

/// The low 32 bits of a packed integer, where the position sits.
fn low32(packed: impl Into<u128>) -> u32 {
    let b = packed.into().to_le_bytes();
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// One sort key: its column, direction, and the bounds that compress
/// its images.
struct Key<'a> {
    col: &'a Column,
    ranks: Vec<u32>,
    order: SortOrder,
    /// Smallest and largest `u64` among the non-null cells.
    lo: u64,
    hi: u64,
    /// Width of the largest image; `0` when every cell is null.
    bits: u32,
}

impl<'a> Key<'a> {
    fn new(col: &'a Column, order: SortOrder) -> Key<'a> {
        let ranks = col.str_vec().map(|v| v.lex_ranks()).unwrap_or_default();
        let mut bounds: Option<(u64, u64)> = None;
        for_each_cell(col, &ranks, None, |_, cell| {
            if let Some(x) = cell {
                bounds = Some(bounds.map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x))));
            }
        });
        let (lo, hi) = bounds.unwrap_or((0, 0));
        let largest = u128::from(hi - lo) + 1;
        Key {
            col,
            ranks,
            order,
            lo,
            hi,
            bits: bounds.map_or(0, |_| u128::BITS - largest.leading_zeros()),
        }
    }

    /// The image of one cell. `K` holds `self.bits` bits, which the
    /// caller's choice of width guarantees.
    #[inline]
    fn image<K: Packed>(&self, cell: Option<u64>) -> K {
        let one = K::from(1u32);
        match (self.order, cell) {
            (SortOrder::Ascending, None) => K::from(0u32),
            (SortOrder::Ascending, Some(x)) => K::from(x - self.lo) + one,
            (SortOrder::Descending, None) => K::from(self.hi - self.lo) + one,
            (SortOrder::Descending, Some(x)) => K::from(self.hi - x),
        }
    }
}

/// One pass of the kernel over `n` rows, whose positions take
/// `position_bits` (1 to 32): packs the images of `group` above each
/// row's position, sorts, and returns the rows in their new order. `at`
/// is the order an earlier pass left (`None` = table order); its
/// positions are what this pass breaks ties by.
fn sort_pass<K: Packed>(
    group: &[Key<'_>],
    n: usize,
    position_bits: u32,
    at: Option<&[u32]>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<u32>, QueryError> {
    let mut packed: Vec<K> = (0..code32(n)).map(K::from).collect();
    let mut shift = position_bits;
    for key in group.iter().rev() {
        for_each_cell(key.col, &key.ranks, at, |i, cell| {
            packed[i] = packed[i] | (key.image::<K>(cell) << shift);
        });
        shift += key.bits;
    }
    cancel::check(cancel)?;
    packed.sort_unstable();
    cancel::check(cancel)?;
    let mask = u32::MAX >> (u32::BITS - position_bits);
    Ok(packed
        .iter()
        .map(|&k| {
            let position = low32(k) & mask;
            at.map_or(position, |rows| rows[position as usize])
        })
        .collect())
}

/// The row permutation that stably sorts `table` by a sequence of
/// `(column, order)` keys, earlier keys taking precedence. `cancel` is
/// checked after the keys are packed and after the sort, in every pass.
pub(crate) fn sort_indices(
    table: &Table,
    keys: &[(&str, SortOrder)],
    cancel: Option<&CancelToken>,
) -> Result<Vec<u32>, QueryError> {
    let mut keys: Vec<Key<'_>> = keys
        .iter()
        .map(|(name, order)| table.column(name).map(|c| Key::new(c, *order)))
        .collect::<Result<_, _>>()?;
    let n = table.num_rows();
    if n < 2 {
        return Ok((0..code32(n)).collect());
    }
    keys.retain(|k| k.bits > 0); // an all-null column orders nothing
    let position_bits = usize::BITS - (n - 1).leading_zeros();
    let mut order: Option<Vec<u32>> = None;
    let mut end = keys.len();
    loop {
        // The longest run of keys ending at `end` that fits 128 bits
        // beside the position.
        let mut start = end;
        let mut bits = position_bits;
        while start > 0 && bits + keys[start - 1].bits <= u128::BITS {
            start -= 1;
            bits += keys[start].bits;
        }
        let (group, at) = (&keys[start..end], order.as_deref());
        let sorted = if bits <= u64::BITS {
            sort_pass::<u64>(group, n, position_bits, at, cancel)?
        } else {
            sort_pass::<u128>(group, n, position_bits, at, cancel)?
        };
        if start == 0 {
            return Ok(sorted);
        }
        order = Some(sorted);
        end = start;
    }
}

/// Stable sort of `table` by a sequence of `(column, order)` keys, with
/// earlier keys taking precedence.
pub fn sort_by(table: &Table, keys: &[(&str, SortOrder)]) -> Result<Table, QueryError> {
    Ok(table.take_rows(&sort_indices(table, keys, None)?))
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

    /// `n` rows over more than one block: a key with few values, a
    /// descending unique key, and a payload column.
    fn multi_block_table() -> Table {
        let n = crate::parallel::BLOCK_ROWS * 2 + 11;
        Table::from_columns(vec![
            (
                "k",
                Column::Int((0..n).map(|i| Some((i % 7) as i64)).collect()),
            ),
            (
                "t",
                Column::Int((0..n).map(|i| Some((i * 31 % n) as i64)).collect()),
            ),
            ("v", Column::Float((0..n).map(|i| Some(i as f64)).collect())),
        ])
        .unwrap()
    }

    #[test]
    fn a_token_set_before_the_sort_cancels_it() {
        let t = multi_block_table();
        let keys = [("k", SortOrder::Ascending), ("t", SortOrder::Descending)];
        let token = CancelToken::new();
        let clear = sort_indices(&t, &keys, Some(&token)).unwrap();
        assert_eq!(clear, sort_indices(&t, &keys, None).unwrap());
        assert_eq!(
            t.take_rows_cancel(&clear, Some(&token)),
            Ok(sort_by(&t, &keys).unwrap())
        );
        token.cancel();
        assert_eq!(
            sort_indices(&t, &keys, Some(&token)),
            Err(QueryError::Cancelled)
        );
        assert_eq!(
            t.take_rows_cancel(&clear, Some(&token)),
            Err(QueryError::Cancelled)
        );
    }

    #[test]
    fn key_widths_follow_the_observed_range() {
        let bits = |col: Column, order| Key::new(&col, order).bits;
        let ints = |xs: &[Option<i64>]| Column::Int(xs.iter().copied().collect());
        // Null is image 0, so n distinct values need room for n + 1.
        assert_eq!(bits(ints(&[Some(5)]), SortOrder::Ascending), 1);
        assert_eq!(bits(ints(&[Some(10), Some(12)]), SortOrder::Descending), 2);
        assert_eq!(
            bits(ints(&[Some(-3), None, Some(4)]), SortOrder::Ascending),
            4
        );
        assert_eq!(bits(ints(&[None, None]), SortOrder::Descending), 0);
        assert_eq!(bits(ints(&[]), SortOrder::Ascending), 0);
        assert_eq!(
            bits(
                ints(&[Some(i64::MIN), Some(i64::MAX)]),
                SortOrder::Ascending
            ),
            65
        );
        assert_eq!(
            bits(Column::Bool(vec![true, false].into()), SortOrder::Ascending),
            2
        );
    }

    #[test]
    fn keys_wider_than_128_bits_sort_in_passes() {
        // 65 + 65 + 65 bits of keys: three passes, last key first.
        let ends = [i64::MIN, 0, i64::MAX];
        let mut t = Table::new(vec![
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ]);
        for i in 0..54usize {
            // Each triple twice, so ties reach the row number.
            let (a, b, c) = (ends[i % 3], ends[i / 3 % 3], ends[i / 9 % 3]);
            t.push_row(vec![Value::Int(a), Value::Int(b), Value::Int(c)])
                .unwrap();
        }
        let keys = [
            ("c", SortOrder::Descending),
            ("a", SortOrder::Ascending),
            ("b", SortOrder::Descending),
        ];
        let order = sort_indices(&t, &keys, None).unwrap();
        let mut want: Vec<u32> = (0..54).collect();
        want.sort_by_key(|&r| {
            let at = |c: &str| t.value(r as usize, c).unwrap().as_i64().unwrap();
            (
                std::cmp::Reverse(at("c")),
                at("a"),
                std::cmp::Reverse(at("b")),
            )
        });
        assert_eq!(order, want);
    }
}
