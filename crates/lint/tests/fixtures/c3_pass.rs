//! C3 passing fixture: the library reduces through a sequential loop,
//! and the order-sensitive shortcut is allowed only behind an
//! annotation.

pub fn total(xs: &[f64]) -> f64 {
    sum_seq(xs.iter().copied()) + fast_total(xs)
}

fn sum_seq(it: impl Iterator<Item = f64>) -> f64 {
    let mut acc = 0.0;
    for x in it {
        acc += x;
    }
    acc
}

fn fast_total(xs: &[f64]) -> f64 {
    // lint: order-sensitive-reduction-ok (tolerance-checked against sum_seq in tests)
    xs.iter().sum::<f64>()
}
