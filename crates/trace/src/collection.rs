//! Collections: jobs and alloc sets.
//!
//! The 2019 trace introduces *collections* — the union of jobs and alloc
//! sets (§3, §5.1). An alloc set reserves resources on machines (its
//! *alloc instances*) into which other jobs' tasks can later be placed.
//! Collection events also carry the new-in-2019 attributes the paper
//! analyzes: the scheduler kind (batch vs default), the vertical-scaling
//! mode (§8), and the parent job for dependency cascades (§5.2).

use crate::priority::Priority;
use crate::state::EventType;
use crate::time::Micros;
use std::fmt;

/// Identifier of a collection (job or alloc set) within one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollectionId(pub u64);

impl fmt::Display for CollectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier of the (anonymized) submitting user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// Job or alloc set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectionType {
    /// A job: a set of tasks running the same binary.
    Job,
    /// An alloc set: a set of reserved-resource alloc instances.
    AllocSet,
}

impl CollectionType {
    /// Lowercase name as used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            CollectionType::Job => "job",
            CollectionType::AllocSet => "alloc_set",
        }
    }
}

/// Which scheduler admits the collection (§3 "batch queueing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The regular Borg scheduler.
    Default,
    /// The batch scheduler, which queues jobs until the cell can handle
    /// them and then hands them to the regular scheduler.
    Batch,
}

/// Autopilot vertical-scaling mode of a collection (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VerticalScalingMode {
    /// Resource limits are user-specified and never adjusted.
    Off,
    /// Autoscaled subject to user-provided constraints.
    Constrained,
    /// Fully autoscaled.
    Full,
}

impl VerticalScalingMode {
    /// All modes in report order.
    pub const ALL: [VerticalScalingMode; 3] = [
        VerticalScalingMode::Off,
        VerticalScalingMode::Constrained,
        VerticalScalingMode::Full,
    ];

    /// Lowercase name as used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            VerticalScalingMode::Off => "off",
            VerticalScalingMode::Constrained => "constrained",
            VerticalScalingMode::Full => "full",
        }
    }
}

/// One row of the collection-events table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionEvent {
    /// Event timestamp.
    pub time: Micros,
    /// Which collection.
    pub collection_id: CollectionId,
    /// What happened.
    pub event_type: EventType,
    /// Job or alloc set.
    pub collection_type: CollectionType,
    /// Raw 2019-style priority.
    pub priority: Priority,
    /// Which scheduler manages this collection.
    pub scheduler: SchedulerKind,
    /// Vertical-scaling mode.
    pub vertical_scaling: VerticalScalingMode,
    /// Parent job, if any: when the parent terminates, this collection is
    /// killed automatically (§3 "job dependencies").
    pub parent_id: Option<CollectionId>,
    /// The alloc set this job's tasks run inside, if any (§5.1).
    pub alloc_collection_id: Option<CollectionId>,
    /// Submitting user.
    pub user_id: UserId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(CollectionType::Job.name(), "job");
        assert_eq!(CollectionType::AllocSet.name(), "alloc_set");
        assert_eq!(VerticalScalingMode::Full.name(), "full");
    }

    #[test]
    fn display_collection_id() {
        assert_eq!(CollectionId(42).to_string(), "c42");
    }
}
