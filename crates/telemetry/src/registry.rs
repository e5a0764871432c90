//! Named counters and histograms with interned handles.
//!
//! Registration returns a dense [`CounterId`]/[`HistId`] so hot loops
//! increment by index instead of hashing a name per event. Names are
//! interned in a `BTreeMap`, so every snapshot iterates in sorted name
//! order — deterministic by construction (borg-lint D1 would flag a
//! hash map here).

use crate::Plane;
use std::collections::BTreeMap;

/// Handle to a registered counter. The sentinel value returned by a
/// disabled [`crate::Telemetry`] makes every increment a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) u32);

pub(crate) const DISABLED: u32 = u32::MAX;

/// One counter's snapshot row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    /// Dotted metric name, e.g. `sim.ev.dispatch.d00.count`.
    pub name: String,
    /// Which determinism plane the value belongs to.
    pub plane: Plane,
    /// Accumulated value.
    pub value: u64,
}

/// A power-of-two-bucket histogram of `u64` observations: bucket `i`
/// counts values whose bit length is `i` (bucket 0 holds zeros). Purely
/// arithmetic, so it lives in the deterministic plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observations with `bit_length == i`.
    pub buckets: [u64; 65],
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Index of the bucket that holds `value` (its bit length).
    pub fn bucket_of(value: u64) -> usize {
        64 - value.leading_zeros() as usize
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds another histogram into this one, bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Inclusive upper bound of bucket `b` (`2^b - 1`; `u64::MAX` for
    /// the top bucket).
    pub fn bucket_bound(b: usize) -> u64 {
        if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Index of the bucket holding the `q`-quantile observation, or
    /// `None` for an empty histogram. The rank is computed on exact
    /// integer counts, so for any given histogram contents the answer
    /// is exact and deterministic.
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q * count),
        // floored at 1 so q=0 means "the smallest observation's bucket".
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(b);
            }
        }
        Some(64)
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`q` in `[0, 1]`, clamped), or 0 for an empty histogram. The
    /// resolution is the power-of-two bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bucket(q).map_or(0, Histogram::bucket_bound)
    }

    /// Compact `lo..hi:count` rendering of the non-empty buckets, used
    /// by snapshots (stable, human-greppable).
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let lo: u64 = if b == 0 { 0 } else { 1u64 << (b - 1) };
            parts.push(format!("{lo}+:{n}"));
        }
        format!("n={} sum={} [{}]", self.count, self.sum, parts.join(" "))
    }
}

/// One histogram's snapshot row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistRow {
    /// Dotted metric name.
    pub name: String,
    /// Determinism plane.
    pub plane: Plane,
    /// The full histogram.
    pub hist: Histogram,
}

/// The counter/histogram store behind [`crate::Telemetry`].
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counter_ids: BTreeMap<String, u32>,
    counters: Vec<(String, Plane, u64)>,
    hist_ids: BTreeMap<String, u32>,
    hists: Vec<(String, Plane, Histogram)>,
}

impl Registry {
    /// Interns `name`, returning its dense id. Re-registration returns
    /// the existing id (the first plane wins).
    pub(crate) fn counter(&mut self, name: &str, plane: Plane) -> CounterId {
        if let Some(&id) = self.counter_ids.get(name) {
            return CounterId(id);
        }
        let id = self.counters.len() as u32;
        self.counter_ids.insert(name.to_string(), id);
        self.counters.push((name.to_string(), plane, 0));
        CounterId(id)
    }

    pub(crate) fn add(&mut self, id: CounterId, delta: u64) {
        if let Some(slot) = self.counters.get_mut(id.0 as usize) {
            slot.2 += delta;
        }
    }

    pub(crate) fn hist(&mut self, name: &str, plane: Plane) -> HistId {
        if let Some(&id) = self.hist_ids.get(name) {
            return HistId(id);
        }
        let id = self.hists.len() as u32;
        self.hist_ids.insert(name.to_string(), id);
        self.hists
            .push((name.to_string(), plane, Histogram::default()));
        HistId(id)
    }

    pub(crate) fn record(&mut self, id: HistId, value: u64) {
        if let Some(slot) = self.hists.get_mut(id.0 as usize) {
            slot.2.record(value);
        }
    }

    /// Counter rows in sorted-name order.
    pub(crate) fn counter_rows(&self) -> Vec<CounterRow> {
        self.counter_ids
            .iter()
            .filter_map(|(name, &id)| {
                self.counters
                    .get(id as usize)
                    .map(|(_, plane, value)| CounterRow {
                        name: name.clone(),
                        plane: *plane,
                        value: *value,
                    })
            })
            .collect()
    }

    /// Histogram rows in sorted-name order.
    pub(crate) fn hist_rows(&self) -> Vec<HistRow> {
        self.hist_ids
            .iter()
            .filter_map(|(name, &id)| {
                self.hists.get(id as usize).map(|(_, plane, hist)| HistRow {
                    name: name.clone(),
                    plane: *plane,
                    hist: hist.clone(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_and_accumulate() {
        let mut r = Registry::default();
        let a = r.counter("b.x", Plane::Deterministic);
        let b = r.counter("a.y", Plane::Deterministic);
        assert_eq!(a, r.counter("b.x", Plane::Deterministic));
        r.add(a, 2);
        r.add(a, 3);
        r.add(b, 1);
        let rows = r.counter_rows();
        // Sorted by name, not registration order.
        assert_eq!(rows[0].name, "a.y");
        assert_eq!(rows[1].value, 5);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.buckets[0], 1); // zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[11], 1); // 1024
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        assert!(h.render().contains("n=5"));
    }

    #[test]
    fn quantile_walks_bucket_bounds() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in [1u64, 2, 2, 100, 1000] {
            h.record(v);
        }
        // Ranks: q=0.2 → rank 1 (bucket of 1, bound 1);
        // q=0.5 → rank 3 (bucket of 2..4, bound 3);
        // q=0.99 → rank 5 (bucket of 512..1024, bound 1023).
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.2), 1);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(7.0), 1023);
        assert_eq!(h.quantile(-1.0), 1);
    }
}
