//! Immutable trace epochs: the data the service queries.
//!
//! A long-running service reloads its trace periodically; each load is
//! an **epoch** — the four relational trace tables frozen behind an
//! `Arc`, tagged with a monotonically increasing sequence number.
//! Sessions always see a consistent epoch (queries never straddle a
//! reload), and the sequence number keys the result cache so stale
//! results can never be served for a reloaded epoch of the same name.

use borg_query::{QueryError, Table};
use borg_trace::trace::Trace;

/// One of the four published trace tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableId {
    /// Collection lifecycle events.
    CollectionEvents,
    /// Instance lifecycle events.
    InstanceEvents,
    /// Machine add/remove/update events.
    MachineEvents,
    /// 5-minute instance usage windows.
    Usage,
}

impl TableId {
    /// All four tables, in published order.
    pub const ALL: [TableId; 4] = [
        TableId::CollectionEvents,
        TableId::InstanceEvents,
        TableId::MachineEvents,
        TableId::Usage,
    ];

    /// Index into per-table arrays.
    fn index(self) -> usize {
        match self {
            TableId::CollectionEvents => 0,
            TableId::InstanceEvents => 1,
            TableId::MachineEvents => 2,
            TableId::Usage => 3,
        }
    }
}

/// An immutable snapshot of one trace, ready to query.
#[derive(Debug)]
pub struct Epoch {
    /// Caller-chosen name (e.g. cell name or directory stem).
    pub name: String,
    /// Load sequence number: the caller numbers its loads, and the result
    /// cache keys on it.
    pub seq: u64,
    tables: [Table; 4],
}

impl Epoch {
    /// Builds an epoch from an in-memory trace.
    pub fn from_trace(name: &str, seq: u64, trace: &Trace) -> Result<Epoch, QueryError> {
        Ok(Epoch {
            name: name.to_string(),
            seq,
            tables: [
                borg_core::tables::collection_events_table(trace)?,
                borg_core::tables::instance_events_table(trace)?,
                borg_core::tables::machine_events_table(trace)?,
                borg_core::tables::usage_table(trace)?,
            ],
        })
    }

    /// The requested table.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Row count of the requested table (drives the virtual cost
    /// model).
    pub fn rows(&self, id: TableId) -> usize {
        self.table(id).num_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_core::pipeline::{simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;

    #[test]
    fn epochs_get_fresh_sequence_numbers() {
        let outcome = simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 1);
        let e1 = Epoch::from_trace("a", 0, &outcome.trace).unwrap();
        let e2 = Epoch::from_trace("a", 1, &outcome.trace).unwrap();
        assert_eq!((e1.seq, e2.seq), (0, 1), "each load keeps its sequence");
        for id in TableId::ALL {
            assert_eq!(e1.rows(id), e2.rows(id));
        }
        assert!(e1.rows(TableId::InstanceEvents) > 0);
    }
}
