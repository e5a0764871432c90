//! Tables: named, typed columns of equal length.
//!
//! Columns are immutable once built and held behind [`Arc`]s, so
//! `clone`, [`Table::project`], [`Table::with_column`] and
//! [`Table::head`] past the end share buffers — O(columns), not
//! O(bytes). The two appending methods ([`Table::push_row`],
//! [`Table::reserve_rows`]) copy a shared column before writing to it,
//! so a write through one handle never shows through another.

use crate::cancel::CancelToken;
use crate::column::{Column, DataType};
use crate::error::QueryError;
use crate::parallel;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A table: an ordered set of named columns with equal row counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    names: Vec<String>,
    columns: Vec<Arc<Column>>,
    /// Held apart from the columns so that a table pruned to no columns
    /// (a plan that only counts rows) still knows how many it has.
    rows: usize,
}

impl Table {
    /// Creates an empty table with the given schema.
    ///
    /// # Panics
    ///
    /// Panics on duplicate column names (a schema is a programming
    /// artifact, not runtime data).
    pub fn new<S: Into<String>>(schema: Vec<(S, DataType)>) -> Table {
        let mut names = Vec::with_capacity(schema.len());
        let mut columns = Vec::with_capacity(schema.len());
        for (name, dt) in schema {
            let name = name.into();
            assert!(
                !names.contains(&name),
                "duplicate column name {name:?} in schema"
            );
            names.push(name);
            columns.push(Arc::new(Column::empty(dt)));
        }
        Table {
            names,
            columns,
            rows: 0,
        }
    }

    /// Builds a table directly from named columns.
    pub fn from_columns<S: Into<String>>(cols: Vec<(S, Column)>) -> Result<Table, QueryError> {
        Table::from_columns_of_len(cols, None)
    }

    /// [`Table::from_columns`] for a known row count (`Some`), which
    /// every column must have and which holds even with no columns.
    pub(crate) fn from_columns_of_len<S: Into<String>>(
        cols: Vec<(S, Column)>,
        mut len: Option<usize>,
    ) -> Result<Table, QueryError> {
        let mut names = Vec::with_capacity(cols.len());
        let mut columns = Vec::with_capacity(cols.len());
        for (name, col) in cols {
            let name = name.into();
            if names.contains(&name) {
                return Err(QueryError::DuplicateColumn(name));
            }
            if let Some(l) = len {
                if col.len() != l {
                    return Err(QueryError::ArityMismatch {
                        expected: l,
                        actual: col.len(),
                    });
                }
            } else {
                len = Some(col.len());
            }
            names.push(name);
            columns.push(Arc::new(col));
        }
        Ok(Table {
            names,
            columns,
            rows: len.unwrap_or(0),
        })
    }

    /// Column names, in declaration order.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize, QueryError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| QueryError::UnknownColumn(name.to_string()))
    }

    /// A column by name.
    pub fn column(&self, name: &str) -> Result<&Column, QueryError> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// A column by position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// One cell.
    pub fn value(&self, row: usize, column: &str) -> Result<Value, QueryError> {
        Ok(self.column(column)?.get(row))
    }

    /// Reserves room for `additional` more rows in every column —
    /// call before a `push_row` loop of known size to avoid repeated
    /// reallocation.
    pub fn reserve_rows(&mut self, additional: usize) {
        for col in &mut self.columns {
            Arc::make_mut(col).reserve(additional);
        }
    }

    /// Appends a row; values must match the schema positionally.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), QueryError> {
        if row.len() != self.columns.len() {
            return Err(QueryError::ArityMismatch {
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        // Validate all fields before mutating any column so a failed push
        // cannot leave ragged columns.
        for (i, value) in row.iter().enumerate() {
            let dt = self.columns[i].data_type();
            let ok = matches!(
                (dt, value),
                (DataType::Int, Value::Int(_))
                    | (DataType::Float, Value::Float(_) | Value::Int(_))
                    | (DataType::Str, Value::Str(_))
                    | (DataType::Bool, Value::Bool(_))
            ) || value.is_null();
            if !ok {
                return Err(QueryError::TypeMismatch {
                    column: self.names[i].clone(),
                    expected: dt.name(),
                    actual: format!("{value:?}"),
                });
            }
        }
        for (i, value) in row.into_iter().enumerate() {
            let name = &self.names[i];
            Arc::make_mut(&mut self.columns[i])
                .push(value, name)
                // lint: library-panic-ok (the loop above type-checked every cell)
                .expect("row pre-validated");
        }
        self.rows += 1;
        Ok(())
    }

    /// One row as values.
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// A new table keeping only rows where `mask` is true.
    pub fn filter_rows(&self, mask: &[bool]) -> Table {
        Table {
            names: self.names.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.filter(mask)))
                .collect(),
            rows: mask.iter().filter(|&&m| m).count(),
        }
    }

    /// A new table with rows rearranged to `indices` order
    /// (out-of-range indices become null rows).
    pub fn take_rows(&self, indices: &[u32]) -> Table {
        // With no token the gather never cancels; the fallback is unreachable.
        self.take_rows_cancel(indices, None)
            .unwrap_or_else(|_| self.head(0))
    }

    /// [`Table::take_rows`] that stops between columns once `cancel` is
    /// set ([`QueryError::Cancelled`], the gathered columns dropped).
    pub(crate) fn take_rows_cancel(
        &self,
        indices: &[u32],
        cancel: Option<&CancelToken>,
    ) -> Result<Table, QueryError> {
        let jobs: Vec<(&Column, &[u32])> = self.columns.iter().map(|c| (&**c, indices)).collect();
        Ok(Table {
            names: self.names.clone(),
            columns: take_columns(&jobs, cancel)?
                .into_iter()
                .map(Arc::new)
                .collect(),
            rows: indices.len(),
        })
    }

    /// The first `n` rows (the whole table, sharing its buffers, when it
    /// has no more than `n`).
    pub fn head(&self, n: usize) -> Table {
        if n >= self.num_rows() {
            return self.clone();
        }
        Table {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| Arc::new(c.head(n))).collect(),
            rows: n,
        }
    }

    /// This table without the columns a plan can no longer observe:
    /// `live` names the observable ones (`None` = all). Shares buffers.
    pub(crate) fn keep(&self, live: Option<&BTreeSet<String>>) -> Table {
        let Some(live) = live else {
            return self.clone();
        };
        let (names, columns) = self
            .names
            .iter()
            .zip(&self.columns)
            .filter(|(name, _)| live.contains(*name))
            .map(|(name, col)| (name.clone(), Arc::clone(col)))
            .unzip();
        Table {
            names,
            columns,
            rows: self.rows,
        }
    }

    /// A new table with only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Table, QueryError> {
        let mut out_names = Vec::with_capacity(names.len());
        let mut out_cols = Vec::with_capacity(names.len());
        for &n in names {
            let idx = self.column_index(n)?;
            out_names.push(self.names[idx].clone());
            out_cols.push(Arc::clone(&self.columns[idx]));
        }
        Ok(Table {
            names: out_names,
            columns: out_cols,
            rows: self.rows,
        })
    }

    /// Adds (or replaces) a column; must match the row count.
    pub fn with_column(
        mut self,
        name: impl Into<String>,
        col: Column,
    ) -> Result<Table, QueryError> {
        let name = name.into();
        if col.len() != self.rows && self.num_columns() > 0 {
            return Err(QueryError::ArityMismatch {
                expected: self.rows,
                actual: col.len(),
            });
        }
        self.rows = col.len();
        if let Ok(idx) = self.column_index(&name) {
            self.columns[idx] = Arc::new(col);
        } else {
            self.names.push(name);
            self.columns.push(Arc::new(col));
        }
        Ok(self)
    }
}

/// Gathers every `(column, row list)` pair — [`Column::take`] — dealing
/// the columns over the query threads. A gather of one block of rows or
/// fewer stays on the calling thread, as a scan of one block does, and
/// so does a gather of one column; each column is built whole by one
/// worker, so the output is the same for any thread count.
pub(crate) fn take_columns(
    jobs: &[(&Column, &[u32])],
    cancel: Option<&CancelToken>,
) -> Result<Vec<Column>, QueryError> {
    let rows = jobs.iter().map(|(_, idx)| idx.len()).max().unwrap_or(0);
    let threads = if rows <= parallel::BLOCK_ROWS {
        1
    } else {
        parallel::num_threads()
    };
    parallel::try_map_items(jobs.len(), threads, cancel, |j| jobs[j].0.take(jobs[j].1))
}

impl fmt::Display for Table {
    /// Renders the table in a compact aligned-text form (useful in
    /// examples and experiment harnesses).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.names.iter().map(String::len).collect();
        let rows: Vec<Vec<String>> = (0..self.num_rows())
            .map(|r| {
                self.columns
                    .iter()
                    .enumerate()
                    .map(|(c, col)| {
                        let s = match col.get(r) {
                            Value::Float(x) => format!("{x:.6}"),
                            v => v.to_string(),
                        };
                        widths[c] = widths[c].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        for (i, name) in self.names.iter().enumerate() {
            write!(f, "{:>w$}  ", name, w = widths[i])?;
        }
        writeln!(f)?;
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                write!(f, "{:>w$}  ", cell, w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec![("id", DataType::Int), ("name", DataType::Str)]);
        t.push_row(vec![Value::Int(1), Value::str("a")]).unwrap();
        t.push_row(vec![Value::Int(2), Value::str("b")]).unwrap();
        t.push_row(vec![Value::Int(3), Value::Null]).unwrap();
        t
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.value(1, "name").unwrap(), Value::str("b"));
        assert_eq!(t.value(2, "name").unwrap(), Value::Null);
        assert!(t.value(0, "nope").is_err());
    }

    #[test]
    fn arity_checked() {
        let mut t = sample();
        assert!(t.push_row(vec![Value::Int(4)]).is_err());
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn failed_push_leaves_table_rectangular() {
        let mut t = sample();
        // Second field has the wrong type; first must not be committed.
        assert!(t.push_row(vec![Value::Int(4), Value::Bool(true)]).is_err());
        assert_eq!(t.column("id").unwrap().len(), 3);
        assert_eq!(t.column("name").unwrap().len(), 3);
    }

    #[test]
    fn filter_and_take() {
        let t = sample();
        let f = t.filter_rows(&[true, false, true]);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(1, "id").unwrap(), Value::Int(3));
        let r = t.take_rows(&[2, 0]);
        assert_eq!(r.value(0, "id").unwrap(), Value::Int(3));
    }

    #[test]
    fn project_reorders() {
        let t = sample();
        let p = t.project(&["name", "id"]).unwrap();
        assert_eq!(p.column_names(), &["name".to_string(), "id".to_string()]);
        assert!(t.project(&["missing"]).is_err());
    }

    #[test]
    fn with_column_replaces_or_adds() {
        let t = sample();
        let mut flag = Column::empty(DataType::Bool);
        for _ in 0..3 {
            flag.push(Value::Bool(true), "f").unwrap();
        }
        let t = t.with_column("flag", flag).unwrap();
        assert_eq!(t.num_columns(), 3);
        let short = Column::empty(DataType::Bool);
        assert!(t.with_column("oops", short).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_schema_panics() {
        Table::new(vec![("x", DataType::Int), ("x", DataType::Int)]);
    }

    #[test]
    fn from_columns_validates() {
        let mut a = Column::empty(DataType::Int);
        a.push(Value::Int(1), "a").unwrap();
        let b = Column::empty(DataType::Int);
        assert!(Table::from_columns(vec![("a", a), ("b", b)]).is_err());
    }

    #[test]
    fn display_renders() {
        let s = sample().to_string();
        assert!(s.contains("id"));
        assert!(s.contains("null"));
    }
}
