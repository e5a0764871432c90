//! The streaming worker pool behind the real (wall-clock) service.
//!
//! A service needs a *streaming* pool, not a batch one (dispatch a
//! batch, wait for all of it): jobs are submitted one at a time as the
//! admission layer releases them, and results are polled as they land.
//! Every message is a tagged tuple, and results carry the query id so
//! completion order cannot scramble attribution. Two rules keep it
//! robust:
//!
//! * the worker loop wraps every job in `catch_unwind`, so a panicking
//!   query (chaos or real) becomes a [`JobResult::Panicked`] message
//!   instead of a dead worker and a deadlocked caller;
//! * jobs are assigned to *idle* workers only (the pool tracks
//!   busyness), so one stalled query never head-of-line blocks another
//!   behind it on the same channel.
//!
//! Dropping the pool hangs up the job channels; workers drain and exit,
//! and `Drop` joins them.

use crate::chaos::Fault;
use crate::epoch::Epoch;
use crate::plan::{table_bytes, PlanSpec};
use borg_query::{CancelToken, QueryError};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One execution attempt, as handed to a pool worker.
pub struct ServeJob {
    /// The plan to run.
    pub plan: PlanSpec,
    /// The epoch to run it against.
    pub epoch: Arc<Epoch>,
    /// Cooperative cancellation token (cancelled by the service when
    /// the deadline passes; observed at engine block boundaries).
    pub cancel: CancelToken,
    /// Chaos fault to inject: a real sleep and/or a real panic.
    pub fault: Fault,
}

/// How a pool job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobResult {
    /// Completed; canonical rendered result bytes.
    Done(Vec<u8>),
    /// The engine observed the cancelled token.
    Cancelled,
    /// The worker panicked (and was caught).
    Panicked,
}

/// Executes one job: injected stall, injected panic, then the real
/// query with the cancellation token threaded into the engine. A panic
/// anywhere in the job is caught here and comes back as
/// [`JobResult::Panicked`], so no unwind crosses the pool boundary and
/// the worker lives on; `chaos_panic_comes_back_as_a_result` holds this.
pub fn run_serve_job(job: ServeJob) -> JobResult {
    if job.fault.stall_us > 0 {
        std::thread::sleep(std::time::Duration::from_micros(job.fault.stall_us));
    }
    let out = catch_unwind(AssertUnwindSafe(|| {
        if job.fault.panics {
            // lint: library-panic-ok (chaos-injected panic, caught just above)
            panic!("chaos: injected worker panic");
        }
        let table = job.epoch.table(job.plan.table).clone();
        job.plan.execute(table, Some(job.cancel.clone()))
    }));
    match out {
        Ok(Ok(t)) => JobResult::Done(table_bytes(&t)),
        Ok(Err(QueryError::Cancelled)) => JobResult::Cancelled,
        // A malformed plan is a worker-side failure, same as a panic.
        Ok(Err(_)) => JobResult::Panicked,
        Err(_) => JobResult::Panicked,
    }
}

/// A fixed set of worker threads executing [`ServeJob`]s one at a time.
/// See the module docs.
pub struct ServePool {
    /// One job channel per worker.
    job_txs: Vec<Sender<(u64, ServeJob)>>,
    /// Tagged results from every worker.
    results: Receiver<(u64, JobResult)>,
    handles: Vec<JoinHandle<()>>,
    busy: Vec<bool>,
    /// Which worker holds each in-flight query id.
    assignment: BTreeMap<u64, usize>,
}

impl ServePool {
    /// Spawns `workers` threads running `run` (normally
    /// [`run_serve_job`]; injectable for tests).
    pub fn new(workers: usize, run: fn(ServeJob) -> JobResult) -> ServePool {
        let (res_tx, results) = channel::<(u64, JobResult)>();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<(u64, ServeJob)>();
            let res_tx = res_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("borg-serve-{w}"))
                .spawn(move || {
                    while let Ok((tag, job)) = rx.recv() {
                        // run() catches job panics itself (see
                        // run_serve_job); a panic here would be a pool
                        // bug, not a job failure.
                        if res_tx.send((tag, run(job))).is_err() {
                            break; // Pool dropped mid-flight.
                        }
                    }
                })
                // lint: library-panic-ok (spawn failure is unrecoverable resource exhaustion)
                .expect("spawn serve worker");
            job_txs.push(tx);
            handles.push(handle);
        }
        ServePool {
            job_txs,
            results,
            handles,
            busy: vec![false; workers],
            assignment: BTreeMap::new(),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs submitted but not yet collected.
    pub fn in_flight(&self) -> usize {
        self.assignment.len()
    }

    /// Submits one job to an idle worker. Returns `false` (dropping
    /// the job) if every worker is busy — the admission layer's quotas
    /// are sized to the pool, so this is a caller bug, not overload.
    pub fn submit(&mut self, id: u64, job: ServeJob) -> bool {
        let Some(w) = self.busy.iter().position(|b| !b) else {
            return false;
        };
        // lint: library-panic-ok (workers only exit after this sender drops)
        self.job_txs[w].send((id, job)).expect("serve worker alive");
        self.busy[w] = true;
        self.assignment.insert(id, w);
        true
    }

    /// Collects one finished job, if any.
    pub fn poll(&mut self) -> Option<(u64, JobResult)> {
        match self.results.try_recv() {
            Ok((id, r)) => {
                if let Some(w) = self.assignment.remove(&id) {
                    self.busy[w] = false;
                }
                Some((id, r))
            }
            Err(TryRecvError::Empty) => None,
            // Disconnected would mean every worker died; workers catch
            // job panics, so treat it as drained.
            Err(TryRecvError::Disconnected) => None,
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.job_txs.clear(); // Hang up; workers drain and exit.
        for h in self.handles.drain(..) {
            // Job panics were caught inside run(); never double-panic
            // during drop.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::TableId;
    use borg_core::pipeline::{simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;
    use std::sync::{Condvar, Mutex};

    fn tiny_epoch() -> Arc<Epoch> {
        let outcome = simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 1);
        Arc::new(Epoch::from_trace("a", 0, &outcome.trace).unwrap())
    }

    fn job(epoch: &Arc<Epoch>, fault: Fault) -> ServeJob {
        ServeJob {
            plan: PlanSpec::scan(TableId::MachineEvents),
            epoch: Arc::clone(epoch),
            cancel: CancelToken::new(),
            fault,
        }
    }

    fn drain(pool: &mut ServePool, want: usize) -> Vec<(u64, JobResult)> {
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while got.len() < want {
            if let Some(r) = pool.poll() {
                got.push(r);
            } else {
                assert!(std::time::Instant::now() < deadline, "pool drain timed out");
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        got
    }

    /// Holds every machine-events job until the gate opens, so a test
    /// can make the first-submitted job finish second.
    static GATE: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());

    fn gated_job(job: ServeJob) -> JobResult {
        if job.plan.table == TableId::MachineEvents {
            let (open, opened) = &GATE;
            let mut open = open.lock().unwrap();
            while !*open {
                open = opened.wait(open).unwrap();
            }
        }
        run_serve_job(job)
    }

    /// Opens [`GATE`] when dropped. Declared after the pool, it drops
    /// first, so a failed assert unwinds into a join of workers that are
    /// free to finish rather than hanging on a parked one.
    struct OpenGateOnDrop;

    impl Drop for OpenGateOnDrop {
        fn drop(&mut self) {
            *GATE.0.lock().unwrap_or_else(|e| e.into_inner()) = true;
            GATE.1.notify_all();
        }
    }

    #[test]
    fn executes_and_reports_per_id() {
        // Two plans with different result bytes, and the first job held
        // until the second is collected: a pool that attributed results
        // by submission order rather than by tag would swap them.
        let epoch = tiny_epoch();
        let expected = |table: TableId| {
            JobResult::Done(table_bytes(
                &PlanSpec::scan(table)
                    .execute(epoch.table(table).clone(), None)
                    .unwrap(),
            ))
        };
        let (first, second) = (TableId::MachineEvents, TableId::CollectionEvents);
        assert_ne!(expected(first), expected(second));

        let mut pool = ServePool::new(2, gated_job);
        let gate = OpenGateOnDrop;
        for (id, table) in [(7, first), (8, second)] {
            let mut j = job(&epoch, Fault::none());
            j.plan = PlanSpec::scan(table);
            assert!(pool.submit(id, j));
        }
        assert_eq!(pool.in_flight(), 2);
        let mut got = drain(&mut pool, 1);
        drop(gate);
        got.extend(drain(&mut pool, 1));
        assert_eq!(got, vec![(8, expected(second)), (7, expected(first))]);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn chaos_panic_comes_back_as_a_result() {
        let epoch = tiny_epoch();
        let mut pool = ServePool::new(1, run_serve_job);
        assert!(pool.submit(
            1,
            job(
                &epoch,
                Fault {
                    stall_us: 0,
                    panics: true
                }
            )
        ));
        let got = drain(&mut pool, 1);
        assert_eq!(got, vec![(1, JobResult::Panicked)]);
        // The worker survived: a follow-up job still runs.
        assert!(pool.submit(2, job(&epoch, Fault::none())));
        let got = drain(&mut pool, 1);
        assert!(matches!(got[0], (2, JobResult::Done(_))));
    }

    #[test]
    fn cancelled_token_short_circuits() {
        let epoch = tiny_epoch();
        let mut pool = ServePool::new(1, run_serve_job);
        // Cancellation is observed at engine step/block boundaries; a
        // bare scan has no steps, so give the plan a filter.
        let mut j = job(&epoch, Fault::none());
        j.plan.filter = Some(crate::plan::FilterSpec {
            column: "machine_id".into(),
            op: crate::plan::CmpOp::Ge,
            value: 0,
        });
        j.cancel.cancel(); // Deadline already passed at dispatch.
        assert!(pool.submit(3, j));
        let got = drain(&mut pool, 1);
        assert_eq!(got, vec![(3, JobResult::Cancelled)]);
    }

    #[test]
    fn refuses_to_overcommit() {
        let epoch = tiny_epoch();
        let mut pool = ServePool::new(1, run_serve_job);
        assert!(pool.submit(
            1,
            job(
                &epoch,
                Fault {
                    stall_us: 20_000,
                    panics: false
                }
            )
        ));
        assert!(
            !pool.submit(2, job(&epoch, Fault::none())),
            "no idle worker"
        );
        drain(&mut pool, 1);
    }
}
