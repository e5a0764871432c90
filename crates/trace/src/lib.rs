#![warn(missing_docs)]

//! Data model for Google cluster traces.
//!
//! This crate models the two public Borg trace formats compared by
//! *Borg: the Next Generation* (EuroSys 2020):
//!
//! * the **2019 "v3" trace**: eight cells, collections (jobs *and* alloc
//!   sets), instance events, 5-minute usage samples with CPU-utilization
//!   histograms, raw priorities 0–450, batch queueing, parent-child job
//!   dependencies, and vertical-scaling annotations;
//! * the **2011 "v2" trace**: one cell, twelve priority bands, jobs and
//!   tasks only (alloc sets elided).
//!
//! The model is deliberately close to the published schemas so analyses
//! written against this crate read like the BigQuery SQL in the paper.
//!
//! # Examples
//!
//! ```
//! use borg_trace::priority::{Priority, Tier};
//!
//! assert_eq!(Priority::new(200).tier(), Tier::Production);
//! assert_eq!(Priority::new(112).tier(), Tier::BestEffortBatch);
//! ```

pub mod collection;
pub mod csv;
mod f32_display;
mod group;
pub mod instance;
pub mod machine;
pub mod priority;
pub mod repair;
pub mod resources;
pub mod state;
pub mod time;
pub mod trace;
pub mod usage;
pub mod validate;

pub use collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, VerticalScalingMode,
};
pub use csv::{Quarantine, QuarantinedLine};
pub use group::{for_each_lifecycle, Lifecycle, Side, Walked};
pub use instance::{InstanceEvent, InstanceId};
pub use machine::{MachineEvent, MachineEventType, MachineId, Platform};
pub use priority::{Priority, PriorityBand2011, Tier};
pub use repair::{repair, RepairReport, TableRepair};
pub use resources::Resources;
pub use state::{count_transitions, EventType, InstanceState, StateMachine, TransitionCounts};
pub use time::{Micros, MICROS_PER_HOUR};
pub use trace::{SchemaVersion, Trace};
pub use usage::{CpuHistogram, UsageRecord, CPU_HISTOGRAM_PERCENTILES};

/// Runs `spawned` on a scoped thread while this thread runs `mine`, and
/// returns both results once the two are done; a panic on the spawned
/// side is raised again here, with its payload. The directory reader and
/// writer and the lifecycle walk share it, so the crate holds one
/// `thread::scope`.
pub(crate) fn on_two_threads<S: Send, M>(
    spawned: impl FnOnce() -> S + Send,
    mine: impl FnOnce() -> M,
) -> (S, M) {
    std::thread::scope(|scope| {
        let spawned = scope.spawn(spawned);
        let mine = mine();
        let spawned = spawned
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (spawned, mine)
    })
}
