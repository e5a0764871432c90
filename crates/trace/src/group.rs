//! Grouping rows by entity without a map: one sort of compact keys.
//!
//! `repair` and `validate` both need every entity's rows together and in
//! time order. Collecting them into a `BTreeMap<Id, Vec<Row>>` costs a
//! heap vector per entity and copies every row; sorting `(entity, time,
//! input position)` keys once gives the same grouping — consecutive keys
//! with equal `entity` are exactly "that entity's rows, stably sorted by
//! time" — and the rows themselves stay where they are.

use crate::time::Micros;

/// Where one input row falls in entity-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RowKey<K> {
    /// The entity the row belongs to.
    pub entity: K,
    /// The row's timestamp.
    pub time: Micros,
    /// The row's index in the table it came from.
    pub pos: usize,
}

/// One key per row of `rows`, sorted by `(entity, time, input position)`.
pub(crate) fn entity_order<T, K: Ord + Copy>(
    rows: &[T],
    key: &impl Fn(&T) -> (K, Micros),
) -> Vec<RowKey<K>> {
    let mut keys: Vec<RowKey<K>> = rows
        .iter()
        .enumerate()
        .map(|(pos, row)| {
            let (entity, time) = key(row);
            RowKey { entity, time, pos }
        })
        .collect();
    // Positions are distinct, so no two keys compare equal.
    keys.sort_unstable();
    keys
}
