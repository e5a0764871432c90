#![warn(missing_docs)]

//! An in-memory columnar query engine.
//!
//! The analyses in *Borg: the Next Generation* were run on Google BigQuery
//! (§3, §9). This crate is the reproduction's stand-in: a small, typed,
//! columnar engine with filtering, projection, hash group-by aggregation,
//! sorting, and hash joins — enough to express every query the paper runs,
//! over in-memory trace tables.
//!
//! # Examples
//!
//! ```
//! use borg_query::prelude::*;
//!
//! let mut t = Table::new(vec![
//!     ("tier", DataType::Str),
//!     ("cpu_hours", DataType::Float),
//! ]);
//! t.push_row(vec![Value::str("prod"), Value::Float(10.0)]).unwrap();
//! t.push_row(vec![Value::str("beb"), Value::Float(2.0)]).unwrap();
//! t.push_row(vec![Value::str("prod"), Value::Float(5.0)]).unwrap();
//!
//! let result = Query::from(t)
//!     .filter(col("cpu_hours").gt(lit(1.0)))
//!     .group_by(&["tier"], vec![Agg::sum("cpu_hours", "total")])
//!     .sort_by("total", SortOrder::Descending)
//!     .run()
//!     .unwrap();
//! assert_eq!(result.num_rows(), 2);
//! assert_eq!(result.value(0, "total").unwrap(), Value::Float(15.0));
//! ```

pub mod bridge;
pub mod cache;
pub mod cancel;
pub mod cast;
pub mod column;
pub mod dict;
pub mod error;
pub mod expr;
pub mod fxhash;
pub mod groupby;
pub mod join;
mod keys;
pub mod ops;
pub mod parallel;
pub mod query;
pub mod sort;
pub mod table;
pub mod value;

pub use cache::{CacheOutcome, CacheStats, ResultCache};
pub use cancel::CancelToken;
pub use column::{Column, DataType, PrimVec};
pub use dict::StrVec;
pub use error::QueryError;
pub use expr::{col, lit, Expr};
pub use groupby::{Agg, AggKind};
pub use query::Query;
pub use sort::SortOrder;
pub use table::Table;
pub use value::Value;

/// Convenient glob import for query construction.
pub mod prelude {
    pub use crate::column::DataType;
    pub use crate::expr::{col, lit, Expr};
    pub use crate::groupby::Agg;
    pub use crate::query::Query;
    pub use crate::sort::SortOrder;
    pub use crate::table::Table;
    pub use crate::value::Value;
}
