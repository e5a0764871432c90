//! Typed columnar storage.

use crate::dict::StrVec;
use crate::error::QueryError;
use crate::value::Value;

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

/// A nullable, typed column of values.
///
/// Strings are dictionary-encoded ([`StrVec`]): each distinct string is
/// stored once in a shared pool and rows hold dense `u32` codes, so the
/// relational operators compare integers rather than cloned `String`s.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// Float column.
    Float(Vec<Option<f64>>),
    /// String column (dictionary-encoded).
    Str(StrVec),
    /// Boolean column.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> Column {
        match dt {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(StrVec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// An empty column with room for `n` rows.
    pub fn with_capacity(dt: DataType, n: usize) -> Column {
        match dt {
            DataType::Int => Column::Int(Vec::with_capacity(n)),
            DataType::Float => Column::Float(Vec::with_capacity(n)),
            DataType::Str => Column::Str(StrVec::with_capacity(n)),
            DataType::Bool => Column::Bool(Vec::with_capacity(n)),
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
            Column::Int(v) => v
                .get(row)
                .copied()
                .flatten()
                .map_or(Value::Null, Value::Int),
            Column::Float(v) => v
                .get(row)
                .copied()
                .flatten()
                .map_or(Value::Null, Value::Float),
            Column::Str(v) => v
                .get(row)
                .map_or(Value::Null, |s| Value::Str(s.to_string())),
            Column::Bool(v) => v
                .get(row)
                .copied()
                .flatten()
                .map_or(Value::Null, Value::Bool),
        }
    }

    /// Numeric view of one cell: ints widen to `f64`; `None` for nulls
    /// and non-numeric columns. No `Value` is materialized.
    #[inline]
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int(v) => v.get(row).copied().flatten().map(|x| x as f64),
            Column::Float(v) => v.get(row).copied().flatten(),
            _ => None,
        }
    }

    /// True when the cell is null (out-of-range counts as null).
    #[inline]
    pub fn is_null_at(&self, row: usize) -> bool {
        match self {
            Column::Int(v) => v.get(row).copied().flatten().is_none(),
            Column::Float(v) => v.get(row).copied().flatten().is_none(),
            Column::Str(v) => v.get(row).is_none(),
            Column::Bool(v) => v.get(row).copied().flatten().is_none(),
        }
    }

    /// The dictionary-encoded string storage, for string columns.
    pub fn str_vec(&self) -> Option<&StrVec> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The raw integer cells, for int columns.
    pub fn int_slice(&self) -> Option<&[Option<i64>]> {
        match self {
            Column::Int(v) => Some(v),
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
    /// length as the column; `true` keeps). Allocation is sized exactly
    /// from the mask's population count.
    pub fn filter(&self, mask: &[bool]) -> Column {
        fn keep<T: Copy>(v: &[Option<T>], mask: &[bool]) -> Vec<Option<T>> {
            let kept = mask.iter().filter(|&&m| m).count();
            let mut out = Vec::with_capacity(kept);
            out.extend(v.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x));
            out
        }
        match self {
            Column::Int(v) => Column::Int(keep(v, mask)),
            Column::Float(v) => Column::Float(keep(v, mask)),
            Column::Str(v) => Column::Str(v.filter(mask)),
            Column::Bool(v) => Column::Bool(keep(v, mask)),
        }
    }

    /// A new column with rows rearranged to `indices` order
    /// (out-of-range indices become null).
    pub fn take(&self, indices: &[u32]) -> Column {
        fn gather<T: Copy>(v: &[Option<T>], idx: &[u32]) -> Vec<Option<T>> {
            let mut out = Vec::with_capacity(idx.len());
            out.extend(idx.iter().map(|&i| v.get(i as usize).copied().flatten()));
            out
        }
        match self {
            Column::Int(v) => Column::Int(gather(v, indices)),
            Column::Float(v) => Column::Float(gather(v, indices)),
            Column::Str(v) => Column::Str(v.take(indices)),
            Column::Bool(v) => Column::Bool(gather(v, indices)),
        }
    }

    /// The first `n` rows (all of them when there are fewer).
    pub fn head(&self, n: usize) -> Column {
        let n = n.min(self.len());
        match self {
            Column::Int(v) => Column::Int(v[..n].to_vec()),
            Column::Float(v) => Column::Float(v[..n].to_vec()),
            Column::Str(v) => Column::Str(v.slice(0..n)),
            Column::Bool(v) => Column::Bool(v[..n].to_vec()),
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
            Column::Int(v) => Some(v.iter().flatten().map(|&x| x as f64).collect()),
            Column::Float(v) => Some(v.iter().flatten().copied().collect()),
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
        assert_eq!(c.int_slice().unwrap().len(), 2);
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
}
