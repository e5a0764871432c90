//! A tiny deterministic multiply-xor hasher for the simulator's interior
//! hash tables.
//!
//! The hot paths key tables by small integers ((job, task) pairs, machine
//! slots, request-shape bits). std's default `RandomState` pays SipHash
//! prices for DoS resistance the simulator does not need, and seeds
//! per-instance, which makes iteration order differ between two tables
//! holding identical keys. This hasher is fast and fixed-seeded.
//!
//! Iteration order over these maps is still arbitrary (it depends on
//! capacity growth history), so simulation state must never be derived
//! from unsorted iteration — the same rule as for std's tables.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Multiplier from FxHash (Firefox's hasher): odd, high bit entropy.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-xor hasher; see module docs.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |x: u64| {
            let mut h = FxHasher::default();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn maps_work() {
        let mut m: FxHashMap<(usize, usize), u32> = FxHashMap::default();
        m.insert((3, 4), 7);
        assert_eq!(m.get(&(3, 4)), Some(&7));
    }
}
