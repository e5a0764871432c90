//! The running-task set as a dense bitmap.
//!
//! Every task gets a global id at workload load: ids are contiguous per
//! job, assigned in job order, so ascending id *is* ascending
//! `(job, task)` — the iteration order the usage tick, finalize, and the
//! legacy reference walk all rely on. Membership updates are single bit
//! operations (the event loop starts/stops a task far more often than a
//! tick iterates), and iteration walks words between two hint indices
//! that track the live span, so long-dead id prefixes cost nothing
//! (DESIGN.md §13).

/// Set of running `(job, task)` pairs over a fixed job/task universe.
///
/// Replaces an ordered set: `collect_into` yields exactly the sequence
/// `BTreeSet<(usize, usize)>` iteration would, bit for bit.
#[derive(Debug, Default)]
pub struct RunningSet {
    /// One bit per global task id; set while the task is running.
    words: Vec<u64>,
    /// First global id of each job's tasks: `id = base[job] + task`.
    base: Vec<u32>,
    /// `(job, task)` for each global id — the inverse of `base`.
    pairs: Vec<(u32, u32)>,
    /// Every set bit lies in `words[lo..hi]`. `lo` advances lazily as
    /// the oldest jobs drain; both snap back if an old task restarts.
    lo: usize,
    hi: usize,
    len: usize,
}

impl RunningSet {
    /// Builds the (empty) set over a universe of jobs given each job's
    /// task count, in job order.
    pub fn new(task_counts: impl Iterator<Item = usize>) -> RunningSet {
        let mut base = Vec::new();
        let mut pairs = Vec::new();
        for (job, n) in task_counts.enumerate() {
            // lint: library-panic-ok (a >4-billion-task workload is unrepresentable elsewhere in the sim)
            base.push(u32::try_from(pairs.len()).expect("task-id space fits u32"));
            for t in 0..n {
                pairs.push((job as u32, t as u32));
            }
        }
        RunningSet {
            words: vec![0u64; pairs.len().div_ceil(64)],
            base,
            pairs,
            lo: 0,
            hi: 0,
            len: 0,
        }
    }

    #[inline]
    fn slot(&self, job: usize, task: usize) -> (usize, u64) {
        let id = self.base[job] as usize + task;
        (id / 64, 1u64 << (id % 64))
    }

    /// Marks a task running. Idempotent, like the set it replaces.
    #[inline]
    pub fn insert(&mut self, job: usize, task: usize) {
        let (w, bit) = self.slot(job, task);
        let word = &mut self.words[w];
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
        // A restarted task of an old (or not-yet-seen-running) job can
        // land outside the current live span; widen to cover it.
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
    }

    /// Marks a task stopped. Removing an absent task is a no-op.
    #[inline]
    pub fn remove(&mut self, job: usize, task: usize) {
        let (w, bit) = self.slot(job, task);
        self.len -= usize::from(self.words[w] & bit != 0);
        self.words[w] &= !bit;
    }

    /// Number of running tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no task is running.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends every running pair to `out` in ascending `(job, task)`
    /// order (ids are dense in job-then-task order, so ascending id is
    /// that order). Trims the live-span hints past drained edge words on
    /// the way — the reason this takes `&mut self`.
    pub fn collect_into(&mut self, out: &mut Vec<(usize, usize)>) {
        while self.lo < self.hi && self.words[self.lo] == 0 {
            self.lo += 1;
        }
        while self.hi > self.lo && self.words[self.hi - 1] == 0 {
            self.hi -= 1;
        }
        out.reserve(self.len);
        for w in self.lo..self.hi {
            let mut bits = self.words[w];
            while bits != 0 {
                let id = w * 64 + bits.trailing_zeros() as usize;
                let (j, t) = self.pairs[id];
                out.push((j as usize, t as usize));
                bits &= bits - 1;
            }
        }
    }

    /// The running pairs as a fresh sorted vector.
    pub fn to_vec(&mut self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.len);
        self.collect_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_workload::usage_model::splitmix64;
    use std::collections::BTreeSet;

    #[test]
    fn insert_remove_len() {
        let mut s = RunningSet::new([3, 2, 4].into_iter());
        assert!(s.is_empty());
        s.insert(1, 0);
        s.insert(0, 2);
        s.insert(1, 0); // idempotent
        assert_eq!(s.len(), 2);
        s.remove(2, 3); // absent: no-op
        assert_eq!(s.len(), 2);
        s.remove(1, 0);
        assert_eq!(s.to_vec(), vec![(0, 2)]);
    }

    #[test]
    fn iteration_is_job_then_task_order() {
        let mut s = RunningSet::new([2, 1, 3].into_iter());
        for (j, t) in [(2, 2), (0, 1), (1, 0), (2, 0), (0, 0)] {
            s.insert(j, t);
        }
        assert_eq!(s.to_vec(), vec![(0, 0), (0, 1), (1, 0), (2, 0), (2, 2)]);
    }

    #[test]
    fn empty_jobs_and_empty_universe() {
        let mut s = RunningSet::new([0, 0, 2, 0].into_iter());
        s.insert(2, 1);
        assert_eq!(s.to_vec(), vec![(2, 1)]);
        let mut none = RunningSet::new(std::iter::empty());
        assert!(none.to_vec().is_empty());
    }

    /// Random churn against the ordered set the bitmap replaced: every
    /// snapshot must match `BTreeSet` iteration exactly, including after
    /// the live-span hints have advanced and an old task restarts.
    #[test]
    fn matches_btreeset_under_churn() {
        const JOBS: usize = 40;
        for seed in 0..8u64 {
            let counts: Vec<usize> = (0..JOBS)
                .map(|j| (splitmix64(seed ^ j as u64) % 7) as usize)
                .collect();
            let mut real = RunningSet::new(counts.iter().copied());
            let mut model: BTreeSet<(usize, usize)> = BTreeSet::new();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut draw = move || {
                state = splitmix64(state);
                state
            };
            for step in 0..2000 {
                let j = (draw() as usize) % JOBS;
                if counts[j] == 0 {
                    continue;
                }
                let t = (draw() as usize) % counts[j];
                match draw() % 3 {
                    0 => {
                        real.insert(j, t);
                        model.insert((j, t));
                    }
                    1 => {
                        real.remove(j, t);
                        model.remove(&(j, t));
                    }
                    _ => {
                        assert_eq!(real.len(), model.len(), "seed {seed}, step {step}");
                        assert_eq!(
                            real.to_vec(),
                            model.iter().copied().collect::<Vec<_>>(),
                            "seed {seed}, step {step}: iteration diverges"
                        );
                    }
                }
            }
            assert_eq!(real.to_vec(), model.into_iter().collect::<Vec<_>>());
        }
    }
}
