//! Order statistics by selection.
//!
//! An analysis that reads a few ranks of a sample and returns no
//! distribution needs no sorted copy of it. [`percentiles_by_selection`]
//! finds each type-7 percentile with `select_nth_unstable` on order keys
//! and returns [`crate::Ccdf::percentile`]'s value bit for bit: the rank
//! arithmetic is one [`Rank`], shared with the sorted view, and the keys'
//! order is `total_cmp`'s.

/// The `u64` whose unsigned order among keys is `total_cmp`'s order among
/// floats: a negative value's bits are all flipped (larger magnitude,
/// smaller key), anything else only gains the top bit (above every
/// negative, order among themselves kept). The map is a bijection on bit
/// patterns, so equal keys are the same float bits.
pub fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`].
pub fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// The finite values of `xs`, in their order, as order keys. The keys
/// take over `xs`'s own buffer (`f64` and `u64` share a layout, so the
/// collect runs in place): a column becomes its keys without a second
/// allocation.
pub fn into_finite_keys(xs: Vec<f64>) -> Vec<u64> {
    xs.into_iter()
        .filter(|x| x.is_finite())
        .map(order_key)
        .collect()
}

/// Where the type-7 `p`-th percentile of `n` ascending values sits: the
/// rank `lo` at or below it and the weight `frac` of rank `lo + 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rank {
    /// The rank at or below the percentile.
    pub lo: usize,
    /// Weight of rank `lo + 1`; 0 when the percentile falls on `lo`.
    pub frac: f64,
}

impl Rank {
    /// The rank of the `p`-th percentile (0 ≤ `p` ≤ 100) among `n`
    /// values; `None` when `n` is 0 or `p` is outside `[0, 100]`.
    pub fn of(p: f64, n: usize) -> Option<Rank> {
        if n == 0 || !(0.0..=100.0).contains(&p) {
            return None;
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        Some(Rank {
            lo,
            frac: rank - lo as f64,
        })
    }

    /// The percentile from the values at ranks `lo` and `lo + 1`; `upper`
    /// is only asked for when the percentile falls between them, and its
    /// `None` (no rank above) is passed on.
    pub fn value(self, lower: f64, upper: impl FnOnce() -> Option<f64>) -> Option<f64> {
        if self.frac == 0.0 {
            Some(lower)
        } else {
            Some(lower * (1.0 - self.frac) + upper()? * self.frac)
        }
    }
}

/// The type-7 percentiles `ps` of the sample whose order keys are `keys`,
/// by selection; `None` when any `p` has no rank to read: `keys` is
/// empty or the `p` is outside `[0, 100]`.
///
/// The ranks are selected in ascending order, each among the keys the
/// one before left to its right, and a percentile between two ranks
/// takes the smallest of those for the upper one. `keys` is reordered:
/// afterwards each rank asked for holds its key, with no greater key to
/// its left and no smaller one to its right. Equal keys are equal bits,
/// so where selection puts ties cannot show.
///
/// # Examples
///
/// ```
/// use borg_analysis::select::{order_key, percentiles_by_selection};
///
/// let mut keys = [4.0, 1.0, 3.0, 2.0].map(order_key);
/// assert_eq!(percentiles_by_selection(&mut keys, [50.0, 100.0]), Some([2.5, 4.0]));
/// ```
pub fn percentiles_by_selection<const N: usize>(
    keys: &mut [u64],
    ps: [f64; N],
) -> Option<[f64; N]> {
    let mut ranks = [Rank { lo: 0, frac: 0.0 }; N];
    for (rank, &p) in ranks.iter_mut().zip(&ps) {
        *rank = Rank::of(p, keys.len())?;
    }
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    order.sort_unstable_by_key(|&i| ranks[i].lo);
    let mut out = [0.0; N];
    // Every key from `settled` on is no smaller than the ranks selected so far.
    let mut settled = 0;
    for i in order {
        let rank = ranks[i];
        if rank.lo >= settled {
            keys[settled..].select_nth_unstable(rank.lo - settled);
            settled = rank.lo + 1;
        }
        let upper = || keys[rank.lo + 1..].iter().min().map(|&k| from_order_key(k));
        out[i] = rank.value(from_order_key(keys[rank.lo]), upper)?;
    }
    Some(out)
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_as_total_cmp_and_round_trip() {
        let xs = [
            f64::NEG_INFINITY,
            -2.0,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            1.5,
            f64::MAX,
        ];
        for pair in xs.windows(2) {
            assert!(order_key(pair[0]) < order_key(pair[1]), "{pair:?}");
        }
        for x in xs.into_iter().chain([f64::NAN, -f64::NAN]) {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }
    }

    /// The keys are written over the column's own buffer.
    #[test]
    fn finite_keys_reuse_the_buffer_and_drop_non_finite_values() {
        let xs = vec![3.0, f64::NAN, -1.0, f64::INFINITY, 0.5];
        let buffer = xs.as_ptr() as usize;
        let keys = into_finite_keys(xs);
        assert_eq!(keys.as_ptr() as usize, buffer);
        assert_eq!(keys, [3.0, -1.0, 0.5].map(order_key));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let mut keys = [5.0, 1.0, 3.0, 2.0, 4.0].map(order_key);
        let got = percentiles_by_selection(&mut keys, [100.0, 0.0, 50.0, 62.5, 50.0]);
        assert_eq!(got, Some([5.0, 1.0, 3.0, 3.5, 3.0]));
        let mut one = [order_key(7.0)];
        assert_eq!(
            percentiles_by_selection(&mut one, [0.0, 33.0, 100.0]),
            Some([7.0; 3])
        );
    }

    #[test]
    fn nothing_to_select_or_a_rank_out_of_range_is_none() {
        assert_eq!(percentiles_by_selection(&mut [], [50.0]), None);
        let mut keys = [1.0, 2.0].map(order_key);
        for p in [-1.0, 100.5, f64::NAN, f64::INFINITY] {
            assert_eq!(percentiles_by_selection(&mut keys, [50.0, p]), None, "{p}");
        }
        assert_eq!(percentiles_by_selection(&mut keys, []), Some([]));
    }

    /// Each asked rank holds its key, smaller keys to its left and larger
    /// ones to its right.
    #[test]
    fn selected_ranks_partition_the_keys() {
        let mut keys: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 1000).collect();
        let ps = [90.0, 10.0, 50.0];
        percentiles_by_selection(&mut keys, ps).expect("in range");
        for p in ps {
            let lo = Rank::of(p, keys.len()).expect("in range").lo;
            assert_eq!(keys[lo], lo as u64, "p {p}");
            assert!(keys[..lo].iter().all(|&k| k <= keys[lo]), "p {p}");
            assert!(keys[lo..].iter().all(|&k| k >= keys[lo]), "p {p}");
        }
    }
}
