//! An `f32` written as `Display` writes it, without going through `fmt`.
//!
//! The specification is byte equality with `Display` over all 2³² bit
//! patterns (DESIGN.md §11, file-format invariant (1)) and nothing else:
//! `matches_display_on_every_bit_pattern` below checks exactly that, and
//! a toolchain whose `Display` moved would fail it. The digits are Ryu's
//! (Adams, PLDI 2018) for single precision with one difference: at an
//! exact tie between two shortest candidates Ryu rounds to even and std
//! rounds up (2⁻¹² is `0.00024414063` here and in std, `…062` in Ryu), so
//! Ryu's tie branch is gone, and with it the bookkeeping of whether the
//! digits removed from the value itself were all zeros, which only that
//! branch read.

const POW5_INV_BITCOUNT: u32 = 59;
const POW5_BITCOUNT: u32 = 61;

/// `ceil(log2(5^e))`, and 1 for `e == 0`.
const fn pow5bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `floor(log10(2^e))`.
const fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))`.
const fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

const fn pow5(e: u32) -> u128 {
    let mut p = 1u128;
    let mut i = 0;
    while i < e {
        p *= 5;
        i += 1;
    }
    p
}

/// `floor(2^(pow5bits(q) - 1 + 59) / 5^q) + 1`: the reciprocal of `5^q`
/// to 59 significant bits, rounded up.
const POW5_INV_SPLIT: [u64; 31] = {
    let mut table = [0u64; 31];
    let mut q = 0;
    while q < table.len() {
        let bits = pow5bits(q as u32) - 1 + POW5_INV_BITCOUNT;
        // 2^128 (q = 30) is one past `u128`; 5^30 does not divide it, so
        // one less has the same floor.
        let power = if bits == 128 {
            u128::MAX
        } else {
            1u128 << bits
        };
        table[q] = (power / pow5(q as u32)) as u64 + 1;
        q += 1;
    }
    table
};

/// The top 61 bits of `5^i`.
const POW5_SPLIT: [u64; 47] = {
    let mut table = [0u64; 47];
    let mut i = 0;
    while i < table.len() {
        let bits = pow5bits(i as u32);
        let power = pow5(i as u32);
        table[i] = if bits > POW5_BITCOUNT {
            (power >> (bits - POW5_BITCOUNT)) as u64
        } else {
            (power as u64) << (POW5_BITCOUNT - bits)
        };
        i += 1;
    }
    table
};

/// `floor(m * factor / 2^shift)`.
fn mul_shift(m: u32, factor: u64, shift: u32) -> u32 {
    ((u128::from(m) * u128::from(factor)) >> shift) as u32
}

/// Whether `5^p` divides `value`.
fn multiple_of_pow5(mut value: u32, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// The shortest decimal `digits × 10^exponent` that reads back as the
/// finite non-zero float with these two fields, the closest of the
/// shortest, a tie going up.
fn shortest(mantissa: u32, exponent: u32) -> (u32, i32) {
    // The float is `m2 × 2^(e2 + 2)`; two bits lower, its neighbours'
    // halfway points are integers too.
    let (m2, e2) = if exponent == 0 {
        (mantissa, 1 - 127 - 23 - 2)
    } else {
        (1 << 23 | mantissa, exponent as i32 - 127 - 23 - 2)
    };
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mp = 4 * m2 + 2;
    // The gap below a power of two is half the gap above it.
    let mm_shift = u32::from(mantissa != 0 || exponent <= 1);
    let mm = 4 * m2 - 1 - mm_shift;

    // The value and both bounds scaled by a power of ten that leaves
    // about nine digits; `last` is the digit of the value cut off last.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_exact = false;
    let mut last = 0;
    if e2 >= 0 {
        let e2 = e2 as u32;
        let q = log10_pow2(e2);
        e10 = q as i32;
        let shift = |q: u32| q + POW5_INV_BITCOUNT + pow5bits(q) - 1 - e2;
        let scaled = |m: u32| mul_shift(m, POW5_INV_SPLIT[q as usize], shift(q));
        (vr, vp, vm) = (scaled(mv), scaled(mp), scaled(mm));
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            // No digit will be removed below, yet rounding needs one.
            last = mul_shift(mv, POW5_INV_SPLIT[q as usize - 1], shift(q - 1)) % 10;
        }
        // At most one of the three is a multiple of five.
        if q <= 9 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u32::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(e2.unsigned_abs());
        e10 = q as i32 + e2;
        let i = e2.unsigned_abs() - q;
        let shift = |i: u32| POW5_BITCOUNT + e2.unsigned_abs() - i - pow5bits(i);
        let scaled = |m: u32| mul_shift(m, POW5_SPLIT[i as usize], shift(i));
        (vr, vp, vm) = (scaled(mv), scaled(mp), scaled(mm));
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            last = mul_shift(mv, POW5_SPLIT[i as usize + 1], shift(i + 1)) % 10;
        }
        // `mm` has `q` trailing zero bits only if the lower gap is 2.
        if q <= 1 {
            if accept_bounds {
                vm_is_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Digits go while more than one candidate is left between the bounds.
    let mut removed = 0;
    while vp / 10 > vm / 10 {
        vm_is_exact &= vm.is_multiple_of(10);
        last = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_is_exact {
        while vm.is_multiple_of(10) {
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // One up when the value sits on a lower bound that is not its own, or
    // the cut digit says so — 5 followed by zeros included: std's rule.
    let up = (vr == vm && !(accept_bounds && vm_is_exact)) || last >= 5;
    (vr + u32::from(up), e10 + removed)
}

/// Appends `v` as `Display` writes it.
pub(crate) fn push(out: &mut Vec<u8>, v: f32) {
    let bits = v.to_bits();
    let negative = bits >> 31 != 0;
    let (mantissa, exponent) = (bits & 0x007f_ffff, bits >> 23 & 0xff);
    if exponent == 0xff {
        let text: &[u8] = match (mantissa, negative) {
            (0, false) => b"inf",
            (0, true) => b"-inf",
            _ => b"NaN",
        };
        out.extend_from_slice(text);
        return;
    }
    if negative {
        out.push(b'-');
    }
    if mantissa == 0 && exponent == 0 {
        out.push(b'0');
        return;
    }
    let (mut digits, exponent) = shortest(mantissa, exponent);
    let mut text = [0u8; 9];
    let mut at = text.len();
    while digits != 0 {
        at -= 1;
        text[at] = b'0' + (digits % 10) as u8;
        digits /= 10;
    }
    let text = &text[at..];
    // Digits in front of the decimal point; `Display` has no exponent form.
    let point = exponent + text.len() as i32;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(text);
    } else if point as usize >= text.len() {
        out.extend_from_slice(text);
        out.resize(out.len() + point as usize - text.len(), b'0');
    } else {
        let (whole, fraction) = text.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
    }
}

#[cfg(test)]
mod tests {
    use super::push;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::fmt::Write as _;

    /// Both directions for one bit pattern, through buffers the caller
    /// keeps: the bytes are `Display`'s, and they read back as the bits.
    #[derive(Default)]
    struct Checker {
        ours: Vec<u8>,
        std: String,
    }

    impl Checker {
        fn check(&mut self, bits: u32) {
            let v = f32::from_bits(bits);
            self.ours.clear();
            push(&mut self.ours, v);
            self.std.clear();
            write!(self.std, "{v}").expect("a String takes any write");
            if self.ours != self.std.as_bytes() {
                let ours = String::from_utf8_lossy(&self.ours);
                panic!("bits {bits:#010x}: wrote {ours}, Display {}", self.std);
            }
            if !v.is_nan() {
                let back = self.std.parse::<f32>().map(f32::to_bits);
                assert_eq!(back, Ok(bits), "bits {bits:#010x} read from {}", self.std);
            }
        }
    }

    #[test]
    fn matches_display_on_a_stratified_sample() {
        let mut c = Checker::default();
        // ±0, subnormals, every binade's first, middle and last floats,
        // both infinities and quiet and signalling NaNs of both signs.
        for exponent in 0..=0xff_u32 {
            for mantissa in [0, 1, 2, 0x3f_ffff, 0x40_0000, 0x7f_fffe, 0x7f_ffff] {
                for sign in [0, 1 << 31] {
                    c.check(sign | exponent << 23 | mantissa);
                }
            }
        }
        // The first exact tie (2⁻¹²), where Ryu and std part ways.
        c.check(0x3980_0000);
        // The one float `f64::from_str` narrowed by `as` reads back wrong.
        c.check(0x15ae_43fd);
        c.check(0x95ae_43fd);
        let mut rng = StdRng::seed_from_u64(0x0f32);
        for _ in 0..2_000_000 {
            c.check(rng.random());
        }
    }

    /// All 2³² bit patterns, half on each of two threads; about four
    /// minutes in release on two cores (`scripts/check.sh --chaos`).
    #[test]
    #[ignore = "exhaustive: run in release"]
    fn matches_display_on_every_bit_pattern() {
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            for half in [0..=u32::MAX >> 1, 1 << 31..=u32::MAX] {
                s.spawn(move || {
                    let mut c = Checker::default();
                    half.for_each(|bits| c.check(bits));
                });
            }
        });
        println!("2^32 bit patterns in {:.0?}", started.elapsed());
    }
}
