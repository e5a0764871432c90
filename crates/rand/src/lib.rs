#![warn(missing_docs)]

//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this workspace-local
//! crate provides the (small) slice of the `rand` API the rest of the
//! workspace uses: the [`Rng`] core trait, the [`RngExt`] extension with
//! `random::<T>()`, [`SeedableRng::seed_from_u64`], and a deterministic
//! [`rngs::StdRng`].
//!
//! The generator is xoshiro256++ seeded via SplitMix64 — statistically
//! solid for simulation workloads and fully deterministic for a given
//! seed. Streams differ from the real `rand::rngs::StdRng`, which is
//! fine: every consumer in this workspace seeds explicitly and asserts
//! distributional (not stream-exact) properties.

/// SplitMix64's increment: the odd integer nearest 2^64 / φ.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea and Flood, 2014): the word the generator puts
/// out from state `x`, whose next state is `x + GAMMA` — equally a
/// 64-bit hash of `x`. It seeds [`rngs::StdRng`]; the workload's usage
/// noise and the proptest shim's generator are built on it too.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source of random 64-bit words.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Extension methods available on every [`Rng`].
pub trait RngExt: Rng {
    /// A uniformly random value of type `T` (for floats: uniform in
    /// `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T {
        T::sample_from(self)
    }

    /// A uniformly random value in `[low, high)`.
    fn random_range(&mut self, range: core::ops::Range<f64>) -> f64 {
        range.start + self.random::<f64>() * (range.end - range.start)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Types that can be sampled uniformly from an [`Rng`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for i64 {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> i64 {
        rng.next_u64() as i64
    }
}

impl Standard for bool {
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample_from<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Generators that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, Rng, SeedableRng, GAMMA};

    /// The workspace's standard deterministic generator (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // SplitMix64 expansion, the reference seeding procedure for
            // xoshiro: the first four outputs of a stream started at
            // `seed`, a non-zero state for every seed.
            StdRng {
                s: [0u64, 1, 2, 3].map(|k| splitmix64(seed.wrapping_add(k.wrapping_mul(GAMMA)))),
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn works_through_unsized_refs() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.random::<f64>()
        }
        let mut rng = StdRng::seed_from_u64(1);
        let x = draw(&mut rng);
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn range_and_bool() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.random_range(-2.0..5.0);
            assert!((-2.0..5.0).contains(&x));
        }
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }
}
