//! The discrete-event queue.

use borg_trace::time::Micros;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events driving the simulation. Indices refer into the cell's job,
/// task, alloc-set, and machine tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A job arrives at the Borgmaster.
    JobSubmit {
        /// Index into the workload's job list.
        job: usize,
    },
    /// An alloc set arrives.
    AllocSubmit {
        /// Index into the workload's alloc-set list.
        alloc: usize,
    },
    /// An alloc set's reservation expires.
    AllocExpire {
        /// Index into the workload's alloc-set list.
        alloc: usize,
    },
    /// The scheduler finishes one placement decision.
    Dispatch,
    /// A job reaches its realized end (finish, kill, or fail).
    JobEnd {
        /// Index into the workload's job list.
        job: usize,
    },
    /// A flaky task's current attempt is interrupted.
    TaskInterrupt {
        /// Owning job index.
        job: usize,
        /// Task index within the job.
        task: usize,
        /// Attempt this interrupt was scheduled for (stale ones are
        /// ignored).
        attempt: u32,
    },
    /// Periodic usage sampling, autopilot, and over-commit checks.
    UsageTick,
    /// Periodic batch-queue admission check.
    BatchTick,
    /// Periodic retry of stalled (unplaceable) tasks.
    RetryTick,
    /// Maintenance sweep on one machine (evicts its non-production
    /// occupants).
    Maintenance {
        /// Machine index.
        machine: usize,
    },
    /// Injected machine failure (only scheduled when fault injection is
    /// enabled). Carries the failure-clock epoch so clocks invalidated by
    /// a correlated co-failure are ignored when they fire.
    MachineFail {
        /// Machine index.
        machine: usize,
        /// Failure-clock epoch this event was scheduled under.
        epoch: u32,
    },
    /// A failed machine comes back (fault injection only).
    MachineRepair {
        /// Machine index.
        machine: usize,
    },
}

impl Ev {
    /// Dense kind index for telemetry grids (parallel to [`KIND_NAMES`]).
    #[inline]
    pub fn kind_index(&self) -> usize {
        match self {
            Ev::JobSubmit { .. } => 0,
            Ev::AllocSubmit { .. } => 1,
            Ev::AllocExpire { .. } => 2,
            Ev::Dispatch => 3,
            Ev::JobEnd { .. } => 4,
            Ev::TaskInterrupt { .. } => 5,
            Ev::UsageTick => 6,
            Ev::BatchTick => 7,
            Ev::RetryTick => 8,
            Ev::Maintenance { .. } => 9,
            Ev::MachineFail { .. } => 10,
            Ev::MachineRepair { .. } => 11,
        }
    }
}

/// Metric-name segment per [`Ev::kind_index`] value.
pub const KIND_NAMES: &[&str] = &[
    "job_submit",
    "alloc_submit",
    "alloc_expire",
    "dispatch",
    "job_end",
    "task_interrupt",
    "usage_tick",
    "batch_tick",
    "retry_tick",
    "maintenance",
    "machine_fail",
    "machine_repair",
];

/// A timestamped event with a deterministic tiebreak sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    time: Micros,
    seq: u64,
    ev: Ev,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic earliest-first event queue.
///
/// Events known before the loop starts (job/alloc submissions, the
/// periodic-tick seeds, maintenance sweeps, failure clocks) are
/// [`EventQueue::prime`]d into a pre-sorted calendar consumed by a
/// cursor: each costs O(1) to pop instead of an O(log n) heap sift, and
/// — since they can be the majority of events alive at once — the live
/// heap the runtime pushes against stays much smaller. Ordering is
/// identical to pushing everything through the heap: primed events are
/// assigned the first sequence numbers in primed order, so they win
/// every equal-time tie against runtime pushes, and the calendar is
/// sorted by the same `(time, seq)` key the heap uses.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    /// Pre-sorted one-shot calendar, consumed from `cursor` on.
    primed: Vec<Scheduled>,
    cursor: usize,
    seq: u64,
    /// The `(time, seq)` key of the last pop.
    popped: Option<(Micros, u64)>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Loads the pre-loop calendar. Equal-time entries fire in the order
    /// given here, before any runtime [`EventQueue::push`] at the same
    /// time — exactly as if each had been pushed, in order, first.
    ///
    /// # Panics
    ///
    /// Panics if called more than once or after a push: primed events
    /// must own the smallest sequence numbers for ties to resolve the
    /// same way the all-heap queue resolved them.
    pub fn prime(&mut self, events: impl IntoIterator<Item = (Micros, Ev)>) {
        assert!(
            self.seq == 0 && self.primed.is_empty(),
            "prime() must be the queue's first operation"
        );
        self.primed = events
            .into_iter()
            .map(|(time, ev)| {
                let s = Scheduled {
                    time,
                    seq: self.seq,
                    ev,
                };
                self.seq += 1;
                s
            })
            .collect();
        self.primed.sort_unstable_by_key(|s| (s.time, s.seq));
    }

    /// Schedules `ev` at `time`. Events at equal times fire in insertion
    /// order, which keeps runs reproducible.
    pub fn push(&mut self, time: Micros, ev: Ev) {
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            ev,
        });
        self.seq += 1;
    }

    /// Pops the earliest event. Debug builds assert that popped
    /// `(time, seq)` keys strictly increase (DESIGN.md §13).
    pub fn pop(&mut self) -> Option<(Micros, Ev)> {
        let next = match self.primed.get(self.cursor) {
            // Primed seqs are smaller than every runtime seq, so the
            // calendar wins equal-time ties against the heap.
            Some(&p) if self.heap.peek().is_none_or(|h| p.time <= h.time) => {
                self.cursor += 1;
                p
            }
            _ => self.heap.pop()?,
        };
        let key = Some((next.time, next.seq));
        debug_assert!(self.popped < key, "event queue popped {key:?} out of order");
        self.popped = key;
        Some((next.time, next.ev))
    }

    /// The earliest scheduled time, without popping.
    pub fn peek_time(&self) -> Option<Micros> {
        let p = self.primed.get(self.cursor).map(|s| s.time);
        let h = self.heap.peek().map(|s| s.time);
        match (p, h) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + (self.primed.len() - self.cursor)
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        q.push(Micros::from_secs(5), Ev::UsageTick);
        q.push(Micros::from_secs(1), Ev::Dispatch);
        q.push(Micros::from_secs(3), Ev::BatchTick);
        assert_eq!(q.pop().unwrap().0, Micros::from_secs(1));
        assert_eq!(q.pop().unwrap().0, Micros::from_secs(3));
        assert_eq!(q.pop().unwrap().0, Micros::from_secs(5));
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(Micros::from_secs(1), Ev::JobSubmit { job: 1 });
        q.push(Micros::from_secs(1), Ev::JobSubmit { job: 2 });
        q.push(Micros::from_secs(1), Ev::JobSubmit { job: 3 });
        let order: Vec<Ev> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                Ev::JobSubmit { job: 1 },
                Ev::JobSubmit { job: 2 },
                Ev::JobSubmit { job: 3 }
            ]
        );
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Micros::ZERO, Ev::RetryTick);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn primed_calendar_merges_like_the_heap() {
        // Reference: everything pushed through the heap, primed first.
        let events = [
            (Micros::from_secs(4), Ev::JobSubmit { job: 0 }),
            (Micros::from_secs(1), Ev::JobSubmit { job: 1 }),
            (Micros::from_secs(4), Ev::JobSubmit { job: 2 }),
            (Micros::from_secs(9), Ev::UsageTick),
        ];
        let runtime = [
            (Micros::from_secs(4), Ev::Dispatch), // ties lose to primed
            (Micros::from_secs(2), Ev::RetryTick),
            (Micros::from_secs(9), Ev::BatchTick),
        ];
        let mut reference = EventQueue::new();
        for &(t, e) in &events {
            reference.push(t, e);
        }
        let mut primed = EventQueue::new();
        primed.prime(events);
        for q in [&mut reference, &mut primed] {
            for &(t, e) in &runtime {
                q.push(t, e);
            }
        }
        loop {
            assert_eq!(reference.peek_time(), primed.peek_time());
            assert_eq!(reference.len(), primed.len());
            let (a, b) = (reference.pop(), primed.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_time_sees_both_sources() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.prime([(Micros::from_secs(5), Ev::UsageTick)]);
        assert_eq!(q.peek_time(), Some(Micros::from_secs(5)));
        q.push(Micros::from_secs(3), Ev::Dispatch);
        assert_eq!(q.peek_time(), Some(Micros::from_secs(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Micros::from_secs(5)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event queue popped")]
    fn a_pop_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.prime([(Micros::from_secs(5), Ev::UsageTick)]);
        q.pop();
        q.push(Micros::from_secs(3), Ev::Dispatch);
        q.pop();
    }

    #[test]
    #[should_panic(expected = "first operation")]
    fn priming_twice_panics() {
        let mut q = EventQueue::new();
        q.prime([(Micros::ZERO, Ev::RetryTick)]);
        q.prime([(Micros::ZERO, Ev::RetryTick)]);
    }
}
