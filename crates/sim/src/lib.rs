#![warn(missing_docs)]

//! Discrete-event Borg cell simulator.
//!
//! This crate reproduces, at reduced scale, the scheduling machinery whose
//! *observable outcomes* the paper's trace records: a logically centralized
//! scheduler placing tasks onto heterogeneous machines (best-fit with
//! tier-discounted over-commitment), priority preemption, a batch-admission
//! queue for best-effort batch jobs (§3), alloc sets hosting other jobs'
//! tasks (§5.1), parent-child kill cascades (§5.2), maintenance and
//! over-commit evictions, task retries (the §6.2 rescheduling churn), and
//! Autopilot-style vertical scaling (§8).
//!
//! The simulator consumes a [`borg_workload`] workload and emits a
//! [`borg_trace::trace::Trace`] in the 2019 v3 schema, plus pre-aggregated
//! [`metrics::SimMetrics`] for the analyses that would otherwise need the
//! full 2.8 TiB of usage samples.
//!
//! # Examples
//!
//! ```
//! use borg_sim::{CellSim, SimConfig};
//! use borg_workload::cells::CellProfile;
//!
//! let profile = CellProfile::cell_2019('a');
//! let cfg = SimConfig::tiny_for_tests(42);
//! let outcome = CellSim::run_cell(&profile, &cfg);
//! assert!(!outcome.trace.collection_events.is_empty());
//! ```

pub mod autopilot;
pub mod cell;
pub mod check;
pub mod config;
pub mod event;
pub mod faults;
pub mod index;
pub mod machine;
pub mod metrics;
pub mod multi;
pub mod pending;
#[cfg(test)]
mod reference;
pub mod runset;
pub mod shard;

pub use cell::{CellOutcome, CellSim};
pub use config::SimConfig;
pub use faults::{
    corrupt_trace, write_trace_dir_lossy, CorruptionConfig, FaultConfig, FaultInjector,
    FaultLedger, TableFaults,
};
pub use index::PlacementIndex;
pub use metrics::SimMetrics;
pub use multi::run_cells_parallel;
pub use shard::ShardedPlacement;
