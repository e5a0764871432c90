//! A persistent ownership-transfer worker pool for deterministic fan-out.
//!
//! `std::thread::scope` is the right tool for coarse one-shot parallelism
//! (see `borg_query::parallel::map_blocks`), but a placement probe runs
//! millions of times per simulated month and cannot afford a thread spawn
//! per call. [`WorkerPool`] keeps a fixed set of workers alive for the
//! lifetime of its owner and moves *owned* jobs to them over channels —
//! no scoped borrows, no locks, no unsafe code, no new dependencies:
//!
//! * Every job is tagged with its batch position, and results land in a
//!   slot vector by tag, so the output order is the input order no
//!   matter which worker finished first. Scheduling can never change
//!   what a batch returns — the same discipline as `map_blocks`'s fixed
//!   partitioning + ordered merge, which keeps parallel callers
//!   bit-identical to their sequential counterparts (DESIGN.md §14).
//! * The calling thread is a worker too: [`WorkerPool::run_batch`]
//!   dispatches jobs `1..` and computes job `0` inline, so a pool of
//!   `n` workers uses `n + 1` cores, and a pool of zero workers
//!   degenerates to a plain sequential loop over the batch (the
//!   single-core / K=1 path).
//! * Dropping the pool closes the job channels; workers observe the
//!   hangup, drain, and exit, and `Drop` joins them.
//!
//! Jobs must be owned values (`J: Send + 'static`): the sharded
//! placement layer, the pool's only client, moves whole per-shard
//! `PlacementIndex` values into jobs and back out with the results (a
//! handful of `Vec` headers per move); the pool goes when the shard
//! layer does. One-shot fan-outs such as `multi::run_cells_parallel`
//! use a scoped work-claiming loop instead. A panicking job is caught
//! inside the worker loop
//! (`catch_unwind`), carried back over the result channel, and
//! re-raised on the caller **after** the whole batch has drained: the
//! lowest-tagged panic wins, so which panic the caller observes does
//! not depend on scheduling, the channels never hold stale tags, and
//! the pool stays usable (and `Drop` joins cleanly) afterwards.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A fixed set of worker threads executing `fn(J) -> R` jobs moved to
/// them by value. See the module docs for the determinism argument.
pub struct WorkerPool<J: Send + 'static, R: Send + 'static> {
    /// One job channel per worker; jobs are dealt round-robin.
    job_txs: Vec<Sender<(usize, J)>>,
    /// Tagged results from every worker; `Err` carries a caught panic.
    results: Receiver<(usize, std::thread::Result<R>)>,
    handles: Vec<JoinHandle<()>>,
    run: fn(J) -> R,
}

impl<J: Send + 'static, R: Send + 'static> WorkerPool<J, R> {
    /// Spawns `workers` threads running `run`. Zero workers is valid
    /// and makes every batch run inline on the caller.
    pub fn new(workers: usize, run: fn(J) -> R) -> WorkerPool<J, R> {
        let (res_tx, results) = channel::<(usize, std::thread::Result<R>)>();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<(usize, J)>();
            let res_tx = res_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("borg-pool-{w}"))
                .spawn(move || {
                    while let Ok((tag, job)) = rx.recv() {
                        let out = catch_unwind(AssertUnwindSafe(|| run(job)));
                        if res_tx.send((tag, out)).is_err() {
                            break; // Pool dropped mid-flight.
                        }
                    }
                })
                // lint: library-panic-ok (spawn failure is unrecoverable resource exhaustion)
                .expect("spawn pool worker");
            job_txs.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            job_txs,
            results,
            handles,
            run,
        }
    }

    /// Number of spawned worker threads (the calling thread adds one).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs one batch: job `i`'s result is at index `i` of the returned
    /// vector, regardless of which thread computed it. The caller
    /// computes job `0` inline (and the whole batch when the pool has
    /// no workers or the batch has one job).
    pub fn run_batch(&mut self, jobs: Vec<J>) -> Vec<R> {
        if self.job_txs.is_empty() || jobs.len() <= 1 {
            return jobs.into_iter().map(self.run).collect();
        }
        let n = jobs.len();
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut first = None;
        for (tag, job) in jobs.into_iter().enumerate() {
            if tag == 0 {
                first = Some(job);
                continue;
            }
            let w = (tag - 1) % self.job_txs.len();
            // lint: library-panic-ok (workers only exit after this sender drops)
            self.job_txs[w].send((tag, job)).expect("pool worker alive");
        }
        // lint: library-panic-ok (the tag == 0 arm above always ran)
        let first = first.expect("first job reserved for the caller");
        // Collect every outcome before surfacing any panic: the result
        // channel must be fully drained, or the next batch would receive
        // this batch's stale tags and fill the wrong slots.
        let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
        let run = self.run;
        match catch_unwind(AssertUnwindSafe(|| run(first))) {
            Ok(r) => slots[0] = Some(r),
            Err(p) => panics.push((0, p)),
        }
        for _ in 1..n {
            // lint: library-panic-ok (workers catch job panics and never exit early)
            let (tag, r) = self.results.recv().expect("pool worker alive");
            match r {
                Ok(r) => slots[tag] = Some(r),
                Err(p) => panics.push((tag, p)),
            }
        }
        if !panics.is_empty() {
            // Arrival order is scheduling-dependent; the lowest job tag
            // is not. Re-raise that one so the surfaced panic is
            // deterministic for a given batch.
            panics.sort_by_key(|(tag, _)| *tag);
            let (_, payload) = panics.swap_remove(0);
            resume_unwind(payload);
        }
        slots
            .into_iter()
            // lint: library-panic-ok (tags 0..n were each dispatched exactly once)
            .map(|s| s.expect("every job produced a result"))
            .collect()
    }
}

impl<J: Send + 'static, R: Send + 'static> Drop for WorkerPool<J, R> {
    fn drop(&mut self) {
        self.job_txs.clear(); // Hang up; workers drain and exit.
        for h in self.handles.drain(..) {
            // Job panics are caught in the worker loop and re-raised by
            // run_batch; never double-panic during drop.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x: u64) -> u64 {
        x * x
    }

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [0, 1, 3, 7] {
            let mut pool = WorkerPool::new(workers, square as fn(u64) -> u64);
            let jobs: Vec<u64> = (0..50).collect();
            let out = pool.run_batch(jobs);
            assert_eq!(out, (0..50).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let mut pool = WorkerPool::new(2, square as fn(u64) -> u64);
        assert!(pool.run_batch(Vec::new()).is_empty());
        assert_eq!(pool.run_batch(vec![9]), vec![81]);
    }

    #[test]
    fn pool_survives_many_batches() {
        // The persistence property: one spawn, many probes.
        let mut pool = WorkerPool::new(2, square as fn(u64) -> u64);
        assert_eq!(pool.workers(), 2);
        for round in 0..200u64 {
            let out = pool.run_batch(vec![round, round + 1, round + 2]);
            assert_eq!(
                out,
                vec![
                    round * round,
                    (round + 1) * (round + 1),
                    (round + 2) * (round + 2)
                ]
            );
        }
    }

    #[test]
    fn worker_panic_surfaces_and_pool_stays_usable() {
        // Regression: a panicking job used to kill its worker with jobs
        // still queued on its channel, leaving run_batch blocked on
        // recv forever. The panic must surface on the caller and the
        // pool must keep working afterwards.
        fn boom(x: u64) -> u64 {
            if x % 10 == 3 {
                panic!("job rejected: {x}");
            }
            x * x
        }
        let mut pool = WorkerPool::new(3, boom as fn(u64) -> u64);
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_batch((0..20).collect())))
            .expect_err("a panicking job must surface");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        // Jobs 3 and 13 both panic; the lowest tag wins deterministically.
        assert_eq!(msg, "job rejected: 3");
        // The batch fully drained, so the pool is immediately reusable.
        let out = pool.run_batch(vec![1, 2, 4]);
        assert_eq!(out, vec![1, 4, 16]);
        // Dropping the pool at end of scope must join cleanly (the test
        // would hang here before the fix).
    }

    #[test]
    fn inline_job_panic_still_drains_dispatched_work() {
        // Job 0 runs on the caller; its panic must not strand the
        // results the workers are about to send.
        fn boom_zero(x: u64) -> u64 {
            if x == 0 {
                panic!("zero");
            }
            x
        }
        let mut pool = WorkerPool::new(2, boom_zero as fn(u64) -> u64);
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_batch((0..8).collect())))
            .expect_err("job 0 panics");
        assert_eq!(err.downcast_ref::<&str>().copied(), Some("zero"));
        assert_eq!(pool.run_batch(vec![5, 6]), vec![5, 6]);
    }

    #[test]
    fn owned_state_round_trips_through_workers() {
        // The ownership-transfer pattern the shard layer relies on:
        // move a value in, get it back with the answer.
        fn push(mut v: Vec<u64>) -> Vec<u64> {
            let n = v.iter().sum();
            v.push(n);
            v
        }
        let mut pool = WorkerPool::new(3, push as fn(Vec<u64>) -> Vec<u64>);
        let jobs: Vec<Vec<u64>> = (0..8).map(|s| vec![s, s + 1]).collect();
        let out = pool.run_batch(jobs);
        for (s, v) in out.into_iter().enumerate() {
            let s = s as u64;
            assert_eq!(v, vec![s, s + 1, 2 * s + 1]);
        }
    }
}
