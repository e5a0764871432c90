//! Checked index/code narrowing (borg-lint rule S3).
//!
//! The engine packs row ids and dictionary codes into `u32` (half the
//! footprint of `usize` columns, and the take/remap kernels stream
//! twice as many per cache line). A silent `as u32` would wrap at 2^32
//! rows and corrupt results without any diagnostic; every narrowing
//! therefore routes through [`code32`], which panics loudly at the
//! capacity boundary instead.

/// Narrows a row index / dictionary size to the engine's `u32` code
/// space, panicking with a clear capacity message on overflow.
///
/// The panic is deliberate: 2^32 rows is an engine capacity limit (like
/// exceeding memory), not a recoverable query error, and threading a
/// `Result` through every take/remap inner loop would tax exactly the
/// kernels the u32 encoding exists to speed up.
#[inline]
pub fn code32(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(code) => code,
        // lint: library-panic-ok (engine capacity limit, documented above)
        Err(_) => panic!("borg-query capacity exceeded: {n} does not fit the u32 row/code space"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_in_range() {
        assert_eq!(code32(0), 0);
        assert_eq!(code32(123_456), 123_456);
        assert_eq!(code32(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn panics_past_u32() {
        code32(u32::MAX as usize + 1);
    }
}
