#![warn(missing_docs)]

//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace-local
//! crate implements the subset of proptest the test suites use: the
//! [`proptest!`] macro over `name(arg in strategy, ...)` test functions,
//! range and tuple strategies, `prop::collection::vec`, and the
//! `prop_assert!`/`prop_assert_eq!` assertion macros.
//!
//! Unlike real proptest there is no shrinking: a failing case panics with
//! the offending inputs printed via the assertion message, and every run
//! is deterministic (the RNG is seeded from the test name and case
//! index), so failures reproduce exactly under `cargo test`.

use std::ops::Range;

/// Deterministic test-case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// A generator keyed by test name and case index, so each test gets
    /// an independent, reproducible stream.
    pub fn deterministic(test_name: &str, case: u32) -> TestRng {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = rand::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Test-run configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values for one test argument.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*
    };
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.next_f64() as f32) * (self.end - self.start)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
            }
        }
    };
}

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s with random length and elements.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A vector whose length is drawn from `len` and whose elements are
    /// drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::generate(&self.len, rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}

/// Property assertion (no shrinking; behaves like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Property equality assertion (behaves like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Property inequality assertion (behaves like `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...)` body is
/// run for every random case, with arguments drawn from the strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng =
                        $crate::TestRng::deterministic(stringify!($name), __case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in -5i64..7, y in 0.5f64..2.5, n in 0u8..4) {
            prop_assert!((-5..7).contains(&x));
            prop_assert!((0.5..2.5).contains(&y));
            prop_assert!(n < 4);
        }

        #[test]
        fn vec_strategy_length(xs in prop::collection::vec(0i64..10, 2..6)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 6);
            prop_assert!(xs.iter().all(|&x| (0..10).contains(&x)));
        }

        #[test]
        fn tuple_of_ranges(t in (0u32..3, -1.0f64..1.0)) {
            prop_assert!(t.0 < 3);
            prop_assert!((-1.0..1.0).contains(&t.1));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::deterministic("x", 0);
        let mut b = crate::TestRng::deterministic("x", 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::deterministic("x", 1);
        assert_ne!(
            crate::TestRng::deterministic("x", 0).next_u64(),
            c.next_u64()
        );
    }
}
