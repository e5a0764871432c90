//! Instance events.
//!
//! An *instance* is one replica of a collection: a task of a job, or an
//! alloc instance of an alloc set. Instance events record the lifecycle of
//! each replica, including which machine it was placed on and its resource
//! request (limit).

use crate::collection::CollectionId;
use crate::machine::MachineId;
use crate::priority::Priority;
use crate::resources::Resources;
use crate::state::EventType;
use crate::time::Micros;
use std::fmt;

/// Identifier of an instance: collection plus replica index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    /// Owning collection.
    pub collection: CollectionId,
    /// Replica index within the collection.
    pub index: u32,
}

impl InstanceId {
    /// Creates an instance id.
    pub const fn new(collection: CollectionId, index: u32) -> InstanceId {
        InstanceId { collection, index }
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.collection, self.index)
    }
}

/// One row of the instance-events table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceEvent {
    /// Event timestamp.
    pub time: Micros,
    /// Which instance.
    pub instance_id: InstanceId,
    /// What happened.
    pub event_type: EventType,
    /// Machine the instance is (or was) placed on; `None` before first
    /// placement.
    pub machine_id: Option<MachineId>,
    /// Requested resources — the *limit* the scheduler enforces (§2). For
    /// memory this is a hard bound; CPU may exceed it when the machine is
    /// not overloaded (work-conserving).
    pub request: Resources,
    /// Priority inherited from the owning collection.
    pub priority: Priority,
    /// The alloc instance this task runs inside, if any: the owning alloc
    /// set's collection id and the alloc-instance index.
    pub alloc_instance: Option<InstanceId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_id_display() {
        let id = InstanceId::new(CollectionId(5), 3);
        assert_eq!(id.to_string(), "c5/3");
    }

    #[test]
    fn instance_id_ordering_groups_by_collection() {
        let a = InstanceId::new(CollectionId(1), 9);
        let b = InstanceId::new(CollectionId(2), 0);
        assert!(a < b);
    }
}
