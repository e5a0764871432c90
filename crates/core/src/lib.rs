#![warn(missing_docs)]

//! The paper pipeline: one module per analysis of
//! *Borg: the Next Generation* (EuroSys 2020).
//!
//! [`pipeline`] turns cell profiles into simulated traces;
//! [`analyses`] contains one module per table/figure, each returning
//! plain-data results that the experiment binaries print and
//! EXPERIMENTS.md records; [`report`] renders ASCII tables and series;
//! [`tables`] turns a trace into relational tables for the query engine.
//!
//! # Examples
//!
//! ```
//! use borg_core::pipeline::{simulate_cell, SimScale};
//! use borg_workload::cells::CellProfile;
//!
//! let outcome = simulate_cell(&CellProfile::cell_2019('a'), SimScale::tiny(), 7);
//! let util = outcome.average_cpu_util_by_tier();
//! assert!(!util.is_empty());
//! ```

pub mod analyses;
pub mod pipeline;
pub mod report;
pub mod tables;
