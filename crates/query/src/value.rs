//! Scalar values.

use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed scalar cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// SQL-style null.
    Null,
}

impl Value {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints widen to floats; `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; `None` for anything but `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view; `None` for anything but `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style three-valued comparison: `None` when either side is null
    /// or the types are not comparable. Ints and floats compare
    /// numerically.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// A total ordering for sorting: nulls first, then by natural order;
    /// incomparable cross-type pairs order by a type rank so sorting never
    /// panics.
    pub fn sort_key_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (rank(self), rank(other)) {
            (a, b) if a != b => a.cmp(&b),
            _ => self.compare(other).unwrap_or(Ordering::Equal),
        }
    }

    /// Equality for grouping: nulls group together; numerics compare
    /// numerically.
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Null, _) | (_, Value::Null) => false,
            _ => self.compare(other) == Some(Ordering::Equal),
        }
    }

    /// A hashable group key for this value.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Int(i) => GroupKey::Num((*i as f64).to_bits()),
            Value::Float(f) => GroupKey::Num(if *f == 0.0 {
                0.0f64.to_bits()
            } else {
                f.to_bits()
            }),
            Value::Str(s) => GroupKey::Str(s.clone()),
        }
    }
}

/// Hashable projection of a [`Value`], used as a hash-map key in group-by
/// and join.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// Null key.
    Null,
    /// Boolean key.
    Bool(bool),
    /// Numeric key (bit pattern of the f64 widening; -0.0 normalized).
    Num(u64),
    /// String key.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "null"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(1).compare(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_comparisons_are_none() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
    }

    #[test]
    fn sort_key_total_order() {
        let mut vs = [
            Value::str("b"),
            Value::Int(3),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
        ];
        vs.sort_by(|a, b| a.sort_key_cmp(b));
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Float(1.5));
        assert_eq!(vs[3], Value::Int(3));
        assert_eq!(vs[4], Value::str("b"));
    }

    #[test]
    fn group_keys() {
        assert_eq!(Value::Int(2).group_key(), Value::Float(2.0).group_key());
        assert_eq!(
            Value::Float(0.0).group_key(),
            Value::Float(-0.0).group_key()
        );
        assert_ne!(Value::Null.group_key(), Value::Int(0).group_key());
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(!Value::Null.group_eq(&Value::Int(0)));
    }

    #[test]
    fn views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Float(1.0).as_i64(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::str("a").to_string(), "a");
    }
}
