//! A fast, non-cryptographic hasher for the engine's hot hash maps.
//!
//! The standard library's SipHash is DoS-resistant but costs real time in
//! group-by and join inner loops. Keys here are either fixed-width `u64`
//! encodings or short interned strings from trusted in-process data, so
//! the rustc-style multiply-rotate hash (FxHash) is the right trade.
//!
//! Two hashers live here and only one of them is a determinism surface:
//!
//! * [`FxHasher`] is the raw hash. borg-serve feeds its `finish()` into
//!   plan fingerprints, trace ids, retry jitter, chaos draws and log
//!   digests, so its output is **byte-stable** and must never change.
//! * [`FxMapHasher`] (behind [`FxHashMap`]/[`FxHashSet`]) is the raw hash
//!   plus [`finalize`]. It only picks hash-table buckets, so it is free
//!   to change. The finaliser exists because the raw hash ends on a
//!   multiply: a key whose words have `z` trailing zero bits (the `f64`
//!   bit pattern of a small integer has ≥ 38) hashes to a value with
//!   `z` trailing zero bits, and tables that index by the low bits put
//!   every such key in one bucket.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// rustc-FxHash: one multiply and rotate per word.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Folds the high half of a widening multiply into the low half, so
/// every output bit depends on every input bit. Applied to a raw
/// [`FxHasher`] value before its low bits index a hash table.
#[inline]
// The casts take the two 64-bit halves of the 128-bit product on purpose.
#[allow(clippy::cast_possible_truncation)]
pub fn finalize(hash: u64) -> u64 {
    let wide = u128::from(hash) * u128::from(SEED);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// [`FxHasher`] with [`finalize`] applied in `finish`: the hasher of
/// [`FxHashMap`] and [`FxHashSet`]. Not a determinism surface.
#[derive(Default)]
pub struct FxMapHasher(FxHasher);

impl Hasher for FxMapHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0.write_u64(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0.write_u32(n);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.0.write_u8(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.0.write_usize(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.0.finish())
    }
}

/// `HashMap` keyed with [`FxMapHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxMapHasher>>;

/// `HashSet` keyed with [`FxMapHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxMapHasher>>;

/// Snapshot of a hash map's entries in key-sorted order — the blessed
/// way (borg-lint rule D1) to iterate an [`FxHashMap`] when anything
/// order-sensitive is derived from the traversal.
pub fn sorted_entries<K: Ord + Clone, V: Clone>(map: &FxHashMap<K, V>) -> Vec<(K, V)> {
    let mut v: Vec<(K, V)> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::num_key;
    use std::hash::{BuildHasher, Hash};

    /// Distinct values of the low 12 bits (what a 4096-bucket table
    /// indexes by) of hasher `H` over `keys`.
    fn low12_distinct<H: Hasher + Default, K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        let build = BuildHasherDefault::<H>::default();
        let buckets: HashSet<u64> = keys.map(|k| build.hash_one(k) & 0xfff).collect();
        buckets.len()
    }

    #[test]
    fn small_integer_keys_spread_over_the_low_bits() {
        // The f64 bit pattern of an integer below 4096 has at least 40
        // trailing zero bits; the raw hash keeps them (one word) or collapses to
        // at most 32 low-bit patterns (two words). 4096 uniform draws
        // into 4096 buckets would hit about 2589 of them.
        let one = || (0..4096).map(|i| [num_key(f64::from(i))]);
        let two = || (0..4096).map(|i| [num_key(f64::from(i / 64)), num_key(f64::from(i % 64))]);
        let boxed = || one().map(|k| -> Box<[u64]> { Box::new(k) });
        assert_eq!(low12_distinct::<FxHasher, _>(one()), 1);
        assert!(low12_distinct::<FxHasher, _>(two()) <= 32);
        for (name, reached) in [
            ("one-word", low12_distinct::<FxMapHasher, _>(one())),
            ("two-word", low12_distinct::<FxMapHasher, _>(two())),
            ("slice", low12_distinct::<FxMapHasher, _>(boxed())),
        ] {
            assert!(
                reached >= 2048,
                "{name} keys reach {reached} of 4096 buckets"
            );
        }
    }

    #[test]
    fn raw_hasher_is_byte_stable() {
        // borg-serve derives plan fingerprints, trace ids, retry jitter,
        // chaos draws and log digests from these values.
        let mut h = FxHasher::default();
        h.write_u64(42);
        assert_eq!(h.finish(), 0x5e77_c80c_6b95_bc72);
        h.write_u32(7);
        h.write_u8(1);
        h.write_usize(1 << 40);
        h.write(b"borg: the next generation");
        assert_eq!(h.finish(), 0x1356_f830_011a_d1d0);
        assert_eq!(FxHasher::default().finish(), 0);
    }

    #[test]
    fn maps_work_and_distribute() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);

        let mut s: FxHashSet<Box<[u64]>> = FxHashSet::default();
        s.insert(vec![1, 2].into_boxed_slice());
        assert!(s.contains(&[1u64, 2][..]));
    }

    #[test]
    fn string_keys_hash_consistently() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("prod".into(), 1);
        assert_eq!(m.get("prod"), Some(&1));
        assert_eq!(m.get("beb"), None);
    }
}
