//! C3 failing fixture (linted as library code of a crate in
//! `C3_CRATES`): helpers that re-associate float reductions and pick
//! winners with order-sensitive reducers. The `unreached` helper
//! carries the same hazard and is called from nowhere: C3 polices the
//! whole library of a contract crate, so it fires too.

pub fn combine(xs: &[f64]) -> f64 {
    total(xs) + total_fold(xs) + best(xs).unwrap_or(0.0) + lowest(xs).unwrap_or(0.0)
}

fn total(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>()
}

fn total_fold(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, x| acc + x)
}

fn best(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(|a, b| a.total_cmp(b))
}

fn lowest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

pub fn latest(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .enumerate()
        .max_by_key(|(i, _)| *i)
        .map(|(_, x)| x)
}

pub fn unreached(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>()
}
