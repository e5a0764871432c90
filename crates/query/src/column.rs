//! Typed columnar storage.
//!
//! Numeric and boolean columns are plain value vectors plus a validity
//! mask ([`PrimVec`]); string columns are dictionary codes with a
//! reserved null code ([`StrVec`]). Either way a cell is its value's
//! width — 8 bytes for an `i64` or `f64`, 4 for a string code, 1 for a
//! bool — and null costs one mask byte, only in a column that has a null.

use crate::dict::StrVec;
use crate::error::QueryError;
use crate::value::Value;
use std::ops::Range;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
}

impl DataType {
    /// Lowercase type name.
    pub const fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
        }
    }
}

/// A nullable vector of plain values: one value per row and, when some
/// row is null, a validity mask (`true` = the row holds a value).
///
/// The layout is canonical, so the derived `==` compares cells: a null
/// row's value slot holds the type's zero (`0`, `+0.0`, `false`), and a
/// mask with no `false` in it is dropped. Every constructor and operator
/// below keeps both rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrimVec<T> {
    values: Vec<T>,
    valid: Option<Vec<bool>>,
}

/// The entries of `xs` whose `mask` entry is `true`; `kept` of them.
fn keep<X: Copy>(xs: &[X], mask: &[bool], kept: usize) -> Vec<X> {
    let mut out = Vec::with_capacity(kept);
    out.extend(xs.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x));
    out
}

impl<T: Copy + Default> PrimVec<T> {
    /// An empty vector.
    pub fn new() -> PrimVec<T> {
        PrimVec {
            values: Vec::new(),
            valid: None,
        }
    }

    /// An empty vector with room for `n` rows.
    pub fn with_capacity(n: usize) -> PrimVec<T> {
        PrimVec {
            values: Vec::with_capacity(n),
            valid: None,
        }
    }

    /// `n` null rows.
    pub fn nulls(n: usize) -> PrimVec<T> {
        PrimVec::from_zeroed(vec![T::default(); n], Some(vec![false; n]))
    }

    /// A vector from its values and a validity mask of the same length
    /// (`None` = no nulls). Null slots are zeroed and an all-`true` mask
    /// is dropped, so any two calls describing the same cells are `==`.
    pub(crate) fn from_parts(mut values: Vec<T>, valid: Option<Vec<bool>>) -> PrimVec<T> {
        if let Some(mask) = &valid {
            debug_assert_eq!(mask.len(), values.len());
            for (x, &ok) in values.iter_mut().zip(mask) {
                *x = if ok { *x } else { T::default() };
            }
        }
        PrimVec::from_zeroed(values, valid)
    }

    /// [`PrimVec::from_parts`] for values whose null slots already hold
    /// zero: only drops an all-`true` mask.
    fn from_zeroed(values: Vec<T>, valid: Option<Vec<bool>>) -> PrimVec<T> {
        PrimVec {
            values,
            valid: valid.filter(|mask| mask.contains(&false)),
        }
    }

    /// Reserves room for `additional` more rows.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
        if let Some(mask) = &mut self.valid {
            mask.reserve(additional);
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The row's value; `None` for null or out-of-range rows.
    #[inline]
    pub fn get(&self, row: usize) -> Option<T> {
        let x = *self.values.get(row)?;
        self.is_valid(row).then_some(x)
    }

    /// True when the row holds a value (out-of-range rows do not).
    #[inline]
    pub(crate) fn is_valid(&self, row: usize) -> bool {
        match &self.valid {
            None => row < self.values.len(),
            Some(mask) => mask.get(row).copied().unwrap_or(false),
        }
    }

    /// Every row's value slot; a null row's holds zero.
    pub(crate) fn values(&self) -> &[T] {
        &self.values
    }

    /// The validity mask; `None` when no row is null.
    pub(crate) fn validity(&self) -> Option<&[bool]> {
        self.valid.as_deref()
    }

    /// The value slots and the mask, moved out.
    pub(crate) fn into_parts(self) -> (Vec<T>, Option<Vec<bool>>) {
        (self.values, self.valid)
    }

    /// Appends a row. The first null creates the mask.
    pub fn push(&mut self, x: Option<T>) {
        match (x, &mut self.valid) {
            (Some(x), None) => self.values.push(x),
            (Some(x), Some(mask)) => {
                self.values.push(x);
                mask.push(true);
            }
            (None, mask) => {
                let mask = mask.get_or_insert_with(|| {
                    let mut all = Vec::with_capacity(self.values.capacity());
                    all.resize(self.values.len(), true);
                    all
                });
                mask.push(false);
                self.values.push(T::default());
            }
        }
    }

    /// Iterates the rows as `Option<T>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        (0..self.len()).map(move |row| self.get(row))
    }

    /// Rows selected by `mask` (same length; `true` keeps). Allocation is
    /// sized exactly from the mask's population count.
    pub(crate) fn filter(&self, mask: &[bool]) -> PrimVec<T> {
        let kept = mask.iter().filter(|&&m| m).count();
        PrimVec::from_zeroed(
            keep(&self.values, mask, kept),
            self.valid.as_ref().map(|v| keep(v, mask, kept)),
        )
    }

    /// Rows rearranged to `indices` order; an out-of-range index (a left
    /// join's unmatched marker) gives a null row.
    pub(crate) fn take(&self, indices: &[u32]) -> PrimVec<T> {
        let n = self.values.len();
        let mut missing = false;
        let mut values = Vec::with_capacity(indices.len());
        values.extend(indices.iter().map(|&i| match self.values.get(i as usize) {
            Some(&x) => x,
            None => {
                missing = true;
                T::default()
            }
        }));
        let valid = match &self.valid {
            Some(mask) => Some(
                indices
                    .iter()
                    .map(|&i| mask.get(i as usize).copied().unwrap_or(false))
                    .collect(),
            ),
            None if missing => Some(indices.iter().map(|&i| (i as usize) < n).collect()),
            None => None,
        };
        PrimVec::from_zeroed(values, valid)
    }

    /// The contiguous rows `range`.
    pub(crate) fn slice(&self, range: Range<usize>) -> PrimVec<T> {
        PrimVec::from_zeroed(
            self.values[range.clone()].to_vec(),
            self.valid.as_ref().map(|v| v[range].to_vec()),
        )
    }
}

impl<T: Copy + Default> From<Vec<T>> for PrimVec<T> {
    /// A vector with no nulls.
    fn from(values: Vec<T>) -> PrimVec<T> {
        PrimVec {
            values,
            valid: None,
        }
    }
}

impl<T: Copy + Default> FromIterator<Option<T>> for PrimVec<T> {
    fn from_iter<I: IntoIterator<Item = Option<T>>>(iter: I) -> PrimVec<T> {
        let iter = iter.into_iter();
        let mut v = PrimVec::with_capacity(iter.size_hint().0);
        for x in iter {
            v.push(x);
        }
        v
    }
}

/// A nullable, typed column of values.
///
/// Strings are dictionary-encoded ([`StrVec`]): each distinct string is
/// stored once in a shared pool and rows hold dense `u32` codes, so the
/// relational operators compare integers rather than cloned `String`s.
/// Ints, floats and bools are [`PrimVec`]s: plain values plus a mask.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(PrimVec<i64>),
    /// Float column.
    Float(PrimVec<f64>),
    /// String column (dictionary-encoded).
    Str(StrVec),
    /// Boolean column.
    Bool(PrimVec<bool>),
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> Column {
        Column::with_capacity(dt, 0)
    }

    /// An empty column with room for `n` rows.
    pub fn with_capacity(dt: DataType, n: usize) -> Column {
        match dt {
            DataType::Int => Column::Int(PrimVec::with_capacity(n)),
            DataType::Float => Column::Float(PrimVec::with_capacity(n)),
            DataType::Str => Column::Str(StrVec::with_capacity(n)),
            DataType::Bool => Column::Bool(PrimVec::with_capacity(n)),
        }
    }

    /// Reserves room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Column::Int(v) => v.reserve(additional),
            Column::Float(v) => v.reserve(additional),
            Column::Str(v) => v.reserve(additional),
            Column::Bool(v) => v.reserve(additional),
        }
    }

    /// The column's declared type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row` (out-of-range returns `Null`).
    ///
    /// This is the boundary where dictionary codes become owned
    /// [`Value::Str`]s; hot paths inside the engine use the typed
    /// accessors ([`Column::f64_at`], [`Column::str_vec`], …) instead.
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => v.get(row).map_or(Value::Null, Value::Int),
            Column::Float(v) => v.get(row).map_or(Value::Null, Value::Float),
            Column::Str(v) => v
                .get(row)
                .map_or(Value::Null, |s| Value::Str(s.to_string())),
            Column::Bool(v) => v.get(row).map_or(Value::Null, Value::Bool),
        }
    }

    /// Numeric view of one cell: ints widen to `f64`; `None` for nulls
    /// and non-numeric columns. No `Value` is materialized.
    #[inline]
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int(v) => v.get(row).map(|x| x as f64),
            Column::Float(v) => v.get(row),
            _ => None,
        }
    }

    /// True when the cell is null (out-of-range counts as null).
    #[inline]
    pub fn is_null_at(&self, row: usize) -> bool {
        match self {
            Column::Int(v) => !v.is_valid(row),
            Column::Float(v) => !v.is_valid(row),
            Column::Str(v) => v.get(row).is_none(),
            Column::Bool(v) => !v.is_valid(row),
        }
    }

    /// The dictionary-encoded string storage, for string columns.
    pub fn str_vec(&self) -> Option<&StrVec> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Appends a value, checking its type against the column.
    ///
    /// Integers are accepted into float columns (widening); everything
    /// else must match exactly or be `Null`.
    pub fn push(&mut self, value: Value, column_name: &str) -> Result<(), QueryError> {
        let expected = self.data_type().name();
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(Some(x)),
            (Column::Float(v), Value::Int(x)) => v.push(Some(x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Str(x)) => v.push(Some(&x)),
            (Column::Str(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(x)) => v.push(Some(x)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (_, other) => {
                return Err(QueryError::TypeMismatch {
                    column: column_name.to_string(),
                    expected,
                    actual: format!("{other:?}"),
                });
            }
        }
        Ok(())
    }

    /// A new column containing only the rows selected by `mask` (same
    /// length as the column; `true` keeps).
    pub fn filter(&self, mask: &[bool]) -> Column {
        match self {
            Column::Int(v) => Column::Int(v.filter(mask)),
            Column::Float(v) => Column::Float(v.filter(mask)),
            Column::Str(v) => Column::Str(v.filter(mask)),
            Column::Bool(v) => Column::Bool(v.filter(mask)),
        }
    }

    /// A new column with rows rearranged to `indices` order
    /// (out-of-range indices become null).
    pub fn take(&self, indices: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(v.take(indices)),
            Column::Float(v) => Column::Float(v.take(indices)),
            Column::Str(v) => Column::Str(v.take(indices)),
            Column::Bool(v) => Column::Bool(v.take(indices)),
        }
    }

    /// The first `n` rows (all of them when there are fewer).
    pub fn head(&self, n: usize) -> Column {
        let rows = 0..n.min(self.len());
        match self {
            Column::Int(v) => Column::Int(v.slice(rows)),
            Column::Float(v) => Column::Float(v.slice(rows)),
            Column::Str(v) => Column::Str(v.slice(rows)),
            Column::Bool(v) => Column::Bool(v.slice(rows)),
        }
    }

    /// Iterates the column as [`Value`]s.
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// All non-null values as `f64` (ints widened); `None` for non-numeric
    /// columns.
    pub fn numeric_values(&self) -> Option<Vec<f64>> {
        match self {
            Column::Int(v) => Some(v.iter().flatten().map(|x| x as f64).collect()),
            Column::Float(v) => Some(v.iter().flatten().collect()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Float(1.5), "x").unwrap();
        c.push(Value::Int(2), "x").unwrap(); // widening
        c.push(Value::Null, "x").unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Float(1.5));
        assert_eq!(c.get(1), Value::Float(2.0));
        assert_eq!(c.get(2), Value::Null);
        assert_eq!(c.get(99), Value::Null);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::empty(DataType::Int);
        assert!(c.push(Value::str("nope"), "x").is_err());
        assert!(c.push(Value::Float(1.0), "x").is_err()); // no narrowing
    }

    #[test]
    fn filter_and_take() {
        let mut c = Column::empty(DataType::Int);
        for i in 0..5 {
            c.push(Value::Int(i), "x").unwrap();
        }
        let f = c.filter(&[true, false, true, false, true]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.get(2), Value::Int(4));
        let t = c.take(&[4, 0]);
        assert_eq!(t.get(0), Value::Int(4));
        assert_eq!(t.get(1), Value::Int(0));
    }

    #[test]
    fn string_columns_dictionary_encode() {
        let mut c = Column::empty(DataType::Str);
        for s in ["prod", "beb", "prod", "prod"] {
            c.push(Value::str(s), "tier").unwrap();
        }
        c.push(Value::Null, "tier").unwrap();
        let sv = c.str_vec().unwrap();
        assert_eq!(sv.dict_len(), 2); // two distinct strings despite 4 rows
        assert_eq!(sv.code(0), sv.code(2));
        assert_eq!(c.get(0), Value::str("prod"));
        assert_eq!(c.get(4), Value::Null);
        // Filter shares the pool instead of cloning strings.
        let f = c.filter(&[true, true, false, false, true]);
        assert_eq!(f.str_vec().unwrap().get(0), Some("prod"));
        assert!(f.str_vec().unwrap().same_dict(sv));
    }

    #[test]
    fn typed_accessors() {
        let mut c = Column::empty(DataType::Int);
        c.push(Value::Int(3), "x").unwrap();
        c.push(Value::Null, "x").unwrap();
        assert_eq!(c.f64_at(0), Some(3.0));
        assert_eq!(c.f64_at(1), None);
        assert!(!c.is_null_at(0));
        assert!(c.is_null_at(1));
        assert!(c.is_null_at(7));
        assert!(c.str_vec().is_none());
    }

    #[test]
    fn numeric_values_skip_nulls() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Float(1.0), "x").unwrap();
        c.push(Value::Null, "x").unwrap();
        c.push(Value::Float(3.0), "x").unwrap();
        assert_eq!(c.numeric_values(), Some(vec![1.0, 3.0]));
        let s = Column::empty(DataType::Str);
        assert_eq!(s.numeric_values(), None);
    }

    #[test]
    fn iter_values() {
        let mut c = Column::empty(DataType::Bool);
        c.push(Value::Bool(true), "x").unwrap();
        c.push(Value::Bool(false), "x").unwrap();
        let vs: Vec<Value> = c.iter_values().collect();
        assert_eq!(vs, vec![Value::Bool(true), Value::Bool(false)]);
    }

    /// `[7, null, 9, null]` built row by row.
    fn with_nulls() -> PrimVec<i64> {
        [Some(7), None, Some(9), None].into_iter().collect()
    }

    #[test]
    fn the_first_null_creates_the_mask_and_zeroes_its_slot() {
        let mut v = PrimVec::from(vec![5i64, 6]);
        assert_eq!(v.validity(), None);
        v.push(Some(4));
        assert_eq!(v.validity(), None, "no null, no mask");
        v.push(None);
        v.push(Some(8));
        assert_eq!(v.values(), &[5, 6, 4, 0, 8]);
        assert_eq!(v.validity(), Some(&[true, true, true, false, true][..]));
        let parts = PrimVec::from_parts(
            vec![5, 6, 4, -3, 8],
            Some(vec![true, true, true, false, true]),
        );
        assert_eq!(parts, v, "from_parts zeroes the null slot");
        assert_eq!(
            PrimVec::<f64>::nulls(0),
            PrimVec::new(),
            "an empty mask has no false"
        );
    }

    #[test]
    fn take_past_the_end_is_null_and_creates_the_mask() {
        let v = PrimVec::from(vec![1.5f64, 2.5, 3.5]);
        let joined = v.take(&[2, 3, 0]); // 3 is the unmatched-row marker
        assert_eq!(joined.validity(), Some(&[true, false, true][..]));
        assert_eq!(joined.values(), &[3.5, 0.0, 1.5]);
        assert_eq!(
            joined.iter().collect::<Vec<_>>(),
            [Some(3.5), None, Some(1.5)]
        );
        let masked = with_nulls().take(&[u32::MAX, 2]);
        assert_eq!(masked.iter().collect::<Vec<_>>(), [None, Some(9)]);
        assert_eq!(masked.values(), &[0, 9]);
    }

    #[test]
    fn operators_that_leave_no_null_drop_the_mask() {
        let v = with_nulls();
        let plain = PrimVec::from(vec![7i64, 9]);
        let filtered = v.filter(&[true, false, true, false]);
        let taken = v.take(&[0, 2]);
        let head = v.slice(0..1);
        for (got, want) in [(&filtered, &plain), (&taken, &plain)] {
            assert_eq!(got.validity(), None);
            assert_eq!(got, want, "same cells, same bytes");
        }
        assert_eq!(head, PrimVec::from(vec![7i64]));
        let c = Column::Int(v);
        assert_eq!(c.head(1), Column::Int(PrimVec::from(vec![7])));
        assert_eq!(
            c.filter(&[true, false, true, false]),
            Column::Int(plain.clone())
        );
        assert_eq!(c.take(&[0, 2]), Column::Int(plain));
        // A kept null keeps the mask.
        assert_eq!(c.take(&[1]).get(0), Value::Null);
    }

    #[test]
    fn a_null_slot_is_never_read_as_a_value() {
        use crate::groupby::{group_by, Agg};
        use crate::sort::{sort_by, SortOrder};
        // The null slot holds 0, which is also a real cell here.
        let c = Column::Int([Some(0), None, Some(-1)].into_iter().collect());
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.f64_at(1), None);
        assert_eq!(c.numeric_values(), Some(vec![0.0, -1.0]));
        let t = crate::table::Table::from_columns(vec![("k", c)]).unwrap();
        let asc = sort_by(&t, &[("k", SortOrder::Ascending)]).unwrap();
        let order: Vec<Value> = (0..3).map(|r| asc.value(r, "k").unwrap()).collect();
        assert_eq!(order, [Value::Null, Value::Int(-1), Value::Int(0)]);
        let groups = group_by(&t, &["k"], &[Agg::count_all("n")]).unwrap();
        assert_eq!(groups.num_rows(), 3, "null is its own group, not 0's");
        assert_eq!(groups.value(1, "k").unwrap(), Value::Null);
        let keys = crate::keys::encode_column(t.column("k").unwrap());
        assert!(keys.is_null(1) && !keys.is_null(0));
        let b = Column::Bool([Some(false), None].into_iter().collect());
        assert_eq!(b.get(1), Value::Null);
        let f = Column::Float([None, Some(0.0)].into_iter().collect());
        assert_eq!(f.f64_at(0), None);
        assert_eq!(f.numeric_values(), Some(vec![0.0]));
    }

    #[test]
    fn an_all_null_result_is_a_float_column() {
        use crate::expr::{col, lit};
        let t = crate::table::Table::from_columns(vec![
            ("i", Column::Int(PrimVec::nulls(3))),
            ("b", Column::Bool(PrimVec::nulls(3))),
            ("v", Column::Int(PrimVec::from(vec![4, 5, 6]))),
        ])
        .unwrap();
        let all_null = Column::Float(PrimVec::nulls(3));
        for e in [
            col("i"),
            col("b"),
            col("i").add(lit(1i64)),
            col("b").not(),
            col("v").div(lit(0i64)),
            col("v").gt(col("i")),
        ] {
            assert_eq!(e.eval_column(&t).unwrap(), all_null, "{e:?}");
        }
        // One value anywhere keeps the type. The 5 / 0 row is null, and
        // its slot holds zero rather than what the division left there.
        let some = col("v").div(col("v").sub(lit(5i64)));
        let some = some.eval_column(&t).unwrap();
        let want = [Some(-4.0), None, Some(6.0)].into_iter().collect();
        assert_eq!(some, Column::Float(want));
        let Column::Float(v) = &some else {
            unreachable!("a float column")
        };
        assert_eq!(v.values(), &[-4.0, 0.0, 6.0]);
    }
}
