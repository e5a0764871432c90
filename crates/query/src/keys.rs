//! Fixed-width `u64` key encodings for grouping and joining.
//!
//! Group-by and join used to build a `Vec<GroupKey>` per row — one enum
//! (often holding a cloned `String`) per key cell. This module encodes a
//! key column once, up front, into a flat `Vec<u64>` whose equality
//! classes match [`crate::value::Value::group_key`]:
//!
//! * numerics widen to `f64` and compare by bit pattern, with `-0.0`
//!   normalized to `+0.0` (so `Int(2)`, `Float(2.0)` and `-0.0`/`+0.0`
//!   group together exactly as before);
//! * strings use their dictionary codes;
//! * booleans use 0/1.
//!
//! Nulls get a per-type sentinel that no non-null cell can produce, so
//! null cells group with each other and with nothing else. Row keys are
//! then fixed-width `[u64]` slices: hashable with no per-row allocation.
//!
//! [`GroupTable`] is the one hash table those keys go into: group-by
//! partials, the block-order merge, `COUNT(DISTINCT)` and the join build
//! side all use it.

use crate::cast::code32;
use crate::column::{Column, PrimVec};
use crate::dict::NULL_CODE;
use crate::fxhash::{finalize, FxHasher};
use std::hash::Hasher;

/// Null sentinel for numeric cells: the bit pattern of `-0.0`, which is
/// unreachable because [`num_key`] normalizes `-0.0` to `+0.0`.
pub const NUM_NULL: u64 = 0x8000_0000_0000_0000;
/// Null sentinel for string cells (never a valid dictionary code).
pub const STR_NULL: u64 = NULL_CODE as u64;
/// Null sentinel for boolean cells.
pub const BOOL_NULL: u64 = 2;

/// The grouping key of one non-null numeric cell.
#[inline]
pub fn num_key(f: f64) -> u64 {
    // `-0.0 == 0.0`, so equal-comparing values must encode equally.
    if f == 0.0 {
        0
    } else {
        f.to_bits()
    }
}

/// A key column encoded to one `u64` per row.
pub struct EncodedCol {
    /// Per-row keys.
    pub keys: Vec<u64>,
    /// The value `keys[row]` takes when the cell is null.
    pub null_key: u64,
}

impl EncodedCol {
    /// True when the cell at `row` is null.
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        self.keys[row] == self.null_key
    }
}

/// Encodes a column for grouping (equality semantics of
/// [`crate::value::Value::group_key`]).
pub fn encode_column(col: &Column) -> EncodedCol {
    /// Every value slot's key, then the null sentinel over the masked rows.
    fn encode<T: Copy + Default>(
        v: &PrimVec<T>,
        null_key: u64,
        key: impl Fn(T) -> u64,
    ) -> EncodedCol {
        let mut keys: Vec<u64> = v.values().iter().map(|&x| key(x)).collect();
        if let Some(valid) = v.validity() {
            for (k, &ok) in keys.iter_mut().zip(valid) {
                *k = if ok { *k } else { null_key };
            }
        }
        EncodedCol { keys, null_key }
    }
    match col {
        Column::Int(v) => encode(v, NUM_NULL, |x| num_key(x as f64)),
        Column::Float(v) => encode(v, NUM_NULL, num_key),
        Column::Str(v) => EncodedCol {
            keys: v.codes().iter().map(|&c| c as u64).collect(),
            null_key: STR_NULL,
        },
        Column::Bool(v) => encode(v, BOOL_NULL, u64::from),
    }
}

/// Hash of one fixed-width row key: the FxHash word loop plus the
/// finaliser, so tables may index by its low bits (see [`crate::fxhash`]
/// for why the raw hash of a numeric key must not be used that way).
#[inline]
pub fn hash_key(key: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &word in key {
        h.write_u64(word);
    }
    finalize(h.finish())
}

const EMPTY: u64 = u64::MAX;
const TAG_MASK: u64 = 0xffff_ffff_0000_0000;

/// The group index packed in the low half of an occupied slot.
// The high half is the tag; dropping it is the point.
#[allow(clippy::cast_possible_truncation)]
#[inline]
fn slot_group(slot: u64) -> u32 {
    // lint: truncating-cast-ok (keeps the low 32 bits, which hold a code32 group index)
    slot as u32
}

/// A flat open-addressing table from fixed-width `[u64]` keys to dense
/// group indices, numbered in order of first insertion.
///
/// Keys live back to back in one arena (`stride` words each), hashes in
/// a parallel vector, and each slot packs the hash's high 32 bits (a tag
/// that rejects most mismatches without touching the arena) with the
/// group index. Slots are probed linearly from the hash's low bits and
/// kept at most half full. Stored hashes make growth and the merge of
/// one table into another free of re-hashing.
pub struct GroupTable {
    stride: usize,
    keys: Vec<u64>,
    hashes: Vec<u64>,
    slots: Vec<u64>,
}

impl GroupTable {
    /// An empty table for keys of `stride` words (zero is allowed: every
    /// key is then the empty key, i.e. one group).
    pub fn new(stride: usize) -> GroupTable {
        GroupTable {
            stride,
            keys: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The key of group `g`.
    #[inline]
    pub fn key(&self, g: usize) -> &[u64] {
        &self.keys[g * self.stride..(g + 1) * self.stride]
    }

    /// The stored hash of group `g`.
    #[inline]
    pub fn hash(&self, g: usize) -> u64 {
        self.hashes[g]
    }

    /// The slot holding `key`, or the empty slot where it would go.
    // The mask keeps the index below the slot count, whatever usize is.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    fn probe(&self, key: &[u64], hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let tag = hash & TAG_MASK;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY
                || (slot & TAG_MASK == tag && self.key(slot_group(slot) as usize) == key)
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The group of `key`, if present. `hash` must be [`hash_key`]`(key)`.
    #[inline]
    pub fn find(&self, key: &[u64], hash: u64) -> Option<u32> {
        let slot = self.slots[self.probe(key, hash)];
        (slot != EMPTY).then_some(slot_group(slot))
    }

    /// The group of `key` and whether this call created it. `hash` must
    /// be [`hash_key`]`(key)`.
    #[inline]
    pub fn find_or_insert(&mut self, key: &[u64], hash: u64) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.stride);
        let i = self.probe(key, hash);
        let slot = self.slots[i];
        if slot != EMPTY {
            return (slot_group(slot), false);
        }
        let g = code32(self.hashes.len());
        // The all-ones group index under an all-ones tag would read as EMPTY.
        assert!(g != u32::MAX, "group table overflow");
        self.slots[i] = (hash & TAG_MASK) | u64::from(g);
        self.keys.extend_from_slice(key);
        self.hashes.push(hash);
        if self.hashes.len() * 2 > self.slots.len() {
            self.grow();
        }
        (g, true)
    }

    /// Doubles the slot array and re-seats every group from its stored hash.
    #[allow(clippy::cast_possible_truncation)]
    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        let mut slots = vec![EMPTY; mask + 1];
        for (g, &hash) in self.hashes.iter().enumerate() {
            let mut i = hash as usize & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = (hash & TAG_MASK) | g as u64;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DataType;
    use crate::value::Value;

    fn encode_values(dt: DataType, vs: &[Value]) -> EncodedCol {
        let mut c = Column::empty(dt);
        for v in vs {
            c.push(v.clone(), "x").unwrap();
        }
        encode_column(&c)
    }

    #[test]
    fn int_and_float_share_equality_classes() {
        let i = encode_values(DataType::Int, &[Value::Int(2), Value::Int(0), Value::Null]);
        let f = encode_values(
            DataType::Float,
            &[Value::Float(2.0), Value::Float(-0.0), Value::Null],
        );
        assert_eq!(i.keys, f.keys);
        assert!(i.is_null(2));
        assert!(!i.is_null(1));
    }

    #[test]
    fn zero_never_collides_with_null() {
        let c = encode_values(DataType::Float, &[Value::Float(0.0), Value::Null]);
        assert_ne!(c.keys[0], c.keys[1]);
    }

    #[test]
    fn strings_encode_as_codes() {
        let c = encode_values(
            DataType::Str,
            &[
                Value::str("a"),
                Value::str("b"),
                Value::str("a"),
                Value::Null,
            ],
        );
        assert_eq!(c.keys[0], c.keys[2]);
        assert_ne!(c.keys[0], c.keys[1]);
        assert!(c.is_null(3));
    }

    #[test]
    fn hash_key_spreads_small_integers_over_the_low_bits() {
        // The group table indexes by the low bits; see the fxhash tests
        // for what the raw hash does to these keys.
        let distinct = |keys: Vec<Vec<u64>>| {
            let mut low: Vec<u64> = keys.iter().map(|k| hash_key(k) & 0xfff).collect();
            low.sort_unstable();
            low.dedup();
            low.len()
        };
        let one = (0..4096).map(|i| vec![num_key(f64::from(i))]).collect();
        let two = (0..4096)
            .map(|i| vec![num_key(f64::from(i / 64)), num_key(f64::from(i % 64))])
            .collect();
        assert!(distinct(one) >= 2048);
        assert!(distinct(two) >= 2048);
    }

    #[test]
    fn group_table_numbers_keys_by_first_insertion() {
        let mut t = GroupTable::new(2);
        let keys: Vec<[u64; 2]> = (0..5000u64)
            .map(|i| [num_key((i % 1000) as f64), i % 3])
            .collect();
        let mut seen: Vec<[u64; 2]> = Vec::new();
        for k in &keys {
            let (g, new) = t.find_or_insert(k, hash_key(k));
            match seen.iter().position(|s| s == k) {
                Some(want) => assert_eq!((g as usize, new), (want, false)),
                None => {
                    assert_eq!((g as usize, new), (seen.len(), true));
                    seen.push(*k);
                }
            }
        }
        assert_eq!(t.len(), 3000);
        for (g, k) in seen.iter().enumerate() {
            assert_eq!(t.key(g), k);
            assert_eq!(t.hash(g), hash_key(k));
            assert_eq!(t.find(k, hash_key(k)), Some(code32(g)));
        }
        let absent = [num_key(1e9), 7];
        assert_eq!(t.find(&absent, hash_key(&absent)), None);
    }

    #[test]
    fn group_table_with_empty_keys_is_one_group() {
        let mut t = GroupTable::new(0);
        assert_eq!(t.find_or_insert(&[], hash_key(&[])), (0, true));
        assert_eq!(t.find_or_insert(&[], hash_key(&[])), (0, false));
        assert_eq!(t.len(), 1);
        assert!(t.key(0).is_empty());
    }

    #[test]
    fn bools_encode_distinctly() {
        let c = encode_values(
            DataType::Bool,
            &[Value::Bool(false), Value::Bool(true), Value::Null],
        );
        assert_eq!(c.keys, vec![0, 1, BOOL_NULL]);
    }
}
