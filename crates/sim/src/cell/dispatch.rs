//! Placement and dispatch: the serial scheduler cursor, best fit and
//! preemption through the placement index, the gang dry run, and task
//! start/free.

use super::{CellSim, TaskState};
use crate::event::Ev;
use crate::fxhash::FxHashMap;
use crate::machine::{Machine, Occupant};
use crate::metrics::tier_key;
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;
use borg_trace::state::EventType;
use borg_trace::time::Micros;
use borg_workload::dist::{Exponential, Sample};

/// Mean scheduler decision time per task, in microseconds (the Borg
/// scheduler takes O(seconds) per job; Figure 10's delays are seconds).
const MEAN_DECISION_MICROS: f64 = 400_000.0;

impl CellSim<'_> {
    /// Adds an occupant to a machine, keeping the placement index
    /// current. Every machine mutation must flow through this or
    /// [`CellSim::release_occupant`].
    pub(super) fn commit_occupant(&mut self, machine: usize, occ: Occupant) {
        self.machines[machine].add(occ);
        self.index
            .on_machine_changed(machine, &self.machines[machine]);
    }

    /// Removes an occupant from a machine, keeping the placement index
    /// current.
    pub(super) fn release_occupant(&mut self, machine: usize, owner: usize, index: usize) {
        if self.machines[machine].remove(owner, index).is_some() {
            self.index
                .on_machine_changed(machine, &self.machines[machine]);
        }
    }

    pub(super) fn ensure_dispatch(&mut self) {
        if !self.dispatch_live && !self.pending.is_empty() {
            self.dispatch_live = true;
            self.queue.push(self.now + Micros(10_000), Ev::Dispatch);
        }
    }

    /// Scheduler decision latency for the next placement. Borg evaluates
    /// feasibility per *equivalence class* — a job's identical tasks share
    /// one evaluation — so consecutive placements for the same job are an
    /// order of magnitude cheaper than a fresh job's first task.
    fn decision_time(&mut self, job: usize) -> Micros {
        let mut mean = MEAN_DECISION_MICROS;
        if self.last_dispatched_job == Some(job) {
            mean /= self.cfg.equivalence_class_speedup;
        }
        self.last_dispatched_job = Some(job);
        let s = Exponential::with_mean(mean).sample(&mut self.rng);
        Micros(s.max(1_000.0) as u64)
    }

    /// Dispatches the popped placement to the single- or gang-placement
    /// path (the gang path re-derives the member set from the job).
    fn place_popped(&mut self, job: usize, task: usize) {
        if self.cfg.gang_scheduling {
            self.try_place_gang(job);
        } else {
            self.try_place(job, task);
        }
    }

    pub(super) fn on_dispatch(&mut self) {
        // Commit the placement whose decision just completed, then start
        // the next decision: a serial scheduler whose per-task latency is
        // charged *before* the task runs (Figure 10 measures exactly this
        // queueing-plus-decision time).
        //
        // `dispatch_live` stays true for this entire handler — including
        // placements, whose evictions can resubmit tasks and reach
        // `ensure_dispatch` — and is cleared only when the pending queue
        // drains, so the queue never holds two live `Dispatch` events.
        if let Some((job, task, gen)) = self.in_flight.take() {
            // The stamp is the aliveness check: dispatch is serial, so
            // the only event that can invalidate an in-flight task is its
            // job ending, which bumps the generation.
            if self.jobs[job].tasks[task].gen == gen {
                self.place_popped(job, task);
            }
        }
        loop {
            // Next live entry; stale stamps are discarded lazily here.
            let p = loop {
                match self.pending.pop() {
                    None => {
                        self.dispatch_live = false;
                        return;
                    }
                    Some(p) if self.jobs[p.job].tasks[p.task].gen == p.gen => break p,
                    Some(_) => {}
                }
            };
            let s = self.decision_time(p.job);
            let at = self.now + s;
            // Burst: while no other event fires before this decision
            // completes, commit it inline instead of a heap round-trip
            // through a fresh `Dispatch`. The strict `>` keeps ordering
            // bit-identical — an event at exactly `at` was pushed before
            // the `Dispatch` we would push now, so it must fire first.
            if at < self.cfg.horizon && self.queue.peek_time().is_none_or(|t| t > at) {
                self.now = at;
                self.place_popped(p.job, p.task);
            } else {
                self.in_flight = Some((p.job, p.task, p.gen));
                self.queue.push(at, Ev::Dispatch);
                return;
            }
        }
    }

    /// Gang placement (§10 research direction #3): dry-run a greedy
    /// best-fit of *all* the job's pending tasks against scratch
    /// commitments; commit only when every task fits. The popped task
    /// triggers the whole gang.
    fn try_place_gang(&mut self, job: usize) {
        let tier = self.jobs[job].spec.tier;
        // `pending_count` bounds the member collect: the common whole-job
        // gang skips the scan entirely, and a partial gang stops at the
        // count instead of visiting every task.
        let want = self.jobs[job].pending_count as usize;
        let mut pending = std::mem::take(&mut self.scratch.gang_pending);
        pending.clear();
        if want == self.jobs[job].tasks.len() {
            pending.extend(0..want);
        } else {
            for (i, t) in self.jobs[job].tasks.iter().enumerate() {
                if t.state == TaskState::Pending {
                    pending.push(i);
                    if pending.len() == want {
                        break;
                    }
                }
            }
        }
        if pending.is_empty() {
            self.scratch.gang_pending = pending;
            return;
        }
        let requests: Vec<Resources> = pending
            .iter()
            .map(|&t| self.jobs[job].tasks[t].limit)
            .collect();
        match gang_dry_run(&self.machines, &requests, tier) {
            Some(chosen) => {
                for ((&t, request), mi) in pending.iter().zip(requests).zip(chosen) {
                    self.commit_occupant(
                        mi,
                        Occupant {
                            owner: job,
                            index: t,
                            is_alloc_instance: false,
                            tier,
                            request,
                        },
                    );
                    self.start_task(job, t, mi, None);
                }
            }
            None => {
                // The gang does not fit; stall every pending task.
                for &t in &pending {
                    *self
                        .metrics
                        .stalls_by_tier
                        .entry(tier_key(tier))
                        .or_insert(0) += 1;
                    let trt = &mut self.jobs[job].tasks[t];
                    trt.stalled = true;
                    trt.gen = trt.gen.wrapping_add(1);
                    self.stalled.push_back((job, t));
                }
            }
        }
        self.scratch.gang_pending = pending;
    }

    fn try_place(&mut self, job: usize, task: usize) {
        let tier = self.jobs[job].spec.tier;
        let request = self.jobs[job].tasks[task].limit;

        // 1. Inside the job's alloc set when possible (§5.1).
        if let Some(aid) = self.jobs[job].spec.alloc_set {
            if let Some(alloc_idx) = self.alloc_by_id.get(&aid).copied() {
                if self.allocs[alloc_idx].active && !self.allocs[alloc_idx].draining {
                    let size = self.allocs[alloc_idx].spec.instance_size;
                    let found = self.allocs[alloc_idx].instances.iter().position(|inst| {
                        inst.machine.is_some() && (inst.used + request).fits_in(&size)
                    });
                    if let Some(inst) = found {
                        let machine = self.allocs[alloc_idx].instances[inst]
                            .machine
                            // lint: library-panic-ok (position() above required machine.is_some())
                            .expect("checked placed");
                        self.allocs[alloc_idx].instances[inst].used += request;
                        self.start_task(job, task, machine, Some((alloc_idx, inst)));
                        return;
                    }
                }
            }
        }

        // 2. Best fit across machines (tight packing preserves the large
        // holes that big tasks need).
        if let Some((machine, _)) = self.index.best_fit(&self.machines, request, tier) {
            self.commit_occupant(
                machine,
                Occupant {
                    owner: job,
                    index: task,
                    is_alloc_instance: false,
                    tier,
                    request,
                },
            );
            self.start_task(job, task, machine, None);
            return;
        }

        // 3. Production preempts lower tiers (§2, §5.2).
        if matches!(tier, Tier::Production | Tier::Monitoring) {
            if let Some((machine, victims)) =
                self.index.first_preemptible(&self.machines, request, tier)
            {
                self.metrics.preemptions += 1;
                for (vj, vt) in victims {
                    self.evict_task_cause(vj, vt, "preemption");
                }
                self.commit_occupant(
                    machine,
                    Occupant {
                        owner: job,
                        index: task,
                        is_alloc_instance: false,
                        tier,
                        request,
                    },
                );
                self.start_task(job, task, machine, None);
                return;
            }
        }

        // 4. Unplaceable for now; retried by the retry tick.
        *self
            .metrics
            .stalls_by_tier
            .entry(tier_key(tier))
            .or_insert(0) += 1;
        let trt = &mut self.jobs[job].tasks[task];
        trt.stalled = true;
        trt.gen = trt.gen.wrapping_add(1);
        self.stalled.push_back((job, task));
    }

    fn start_task(
        &mut self,
        job: usize,
        task: usize,
        machine: usize,
        in_alloc: Option<(usize, usize)>,
    ) {
        {
            let t = &mut self.jobs[job].tasks[task];
            t.state = TaskState::Running {
                machine,
                since: self.now,
            };
            t.in_alloc = in_alloc;
            t.stalled = false;
            t.accounted_until = self.now;
            // Orphan any queue entry the task still has (a gang placement
            // starts members whose own entries are still in the heap).
            t.gen = t.gen.wrapping_add(1);
        }
        self.jobs[job].pending_count -= 1;
        self.running.insert(job, task);
        self.emit_task(job, task, EventType::Schedule, Some(machine));

        // First running task starts the job's clock (Figure 10 measures
        // ready → first task running).
        if self.jobs[job].first_running.is_none() {
            self.jobs[job].first_running = Some(self.now);
            self.emit_collection(job, EventType::Schedule);
            let delay = (self.now - self.jobs[job].ready_at).as_secs_f64();
            self.metrics.delays.push(crate::metrics::DelaySample {
                tier: tier_key(self.jobs[job].spec.tier),
                delay_secs: delay,
            });
            if !self.jobs[job].end_scheduled {
                self.jobs[job].end_scheduled = true;
                let end = self.now + self.jobs[job].spec.realized_duration();
                self.queue.push(end, Ev::JobEnd { job });
            }
        }

        // Flaky tasks get interrupted and resubmitted (§6.2 churn).
        if self.jobs[job].flaky {
            let gap_hours =
                Exponential::with_mean(1.0 / self.profile.flaky_interrupts_per_hour.max(1e-6))
                    .sample(&mut self.rng);
            let at = self.now + Micros::from_secs((gap_hours * 3600.0).max(30.0) as u64);
            let attempt = self.jobs[job].tasks[task].attempt;
            self.queue
                .push(at, Ev::TaskInterrupt { job, task, attempt });
        }
    }

    /// Frees the task's machine/alloc space and closes its allocation
    /// interval; does not emit any event.
    pub(super) fn free_task(&mut self, job: usize, task: usize) {
        let TaskState::Running { machine, since } = self.jobs[job].tasks[task].state else {
            return;
        };
        let tier = self.jobs[job].spec.tier;
        // Charge any usage not yet covered by a tick.
        let acc = self.jobs[job].tasks[task].accounted_until;
        if self.now > acc {
            let usage_proc = self.jobs[job].spec.tasks[task].usage;
            let mut avg = usage_proc.average_over(acc, self.now);
            avg.mem = avg.mem.min(self.jobs[job].tasks[task].limit.mem);
            self.metrics.add_usage(tier, acc, self.now, avg);
            self.jobs[job].tasks[task].accounted_until = self.now;
        }
        let limit = self.jobs[job].tasks[task].limit;
        let in_alloc = self.jobs[job].tasks[task].in_alloc.take();
        if let Some((alloc_idx, inst)) = in_alloc {
            let used = &mut self.allocs[alloc_idx].instances[inst].used;
            *used = (*used - limit).clamp_non_negative();
        } else {
            self.release_occupant(machine, job, task);
            // In-alloc tasks live inside the alloc set's reservation, so
            // only free-standing tasks add to the tier's allocation
            // series (Figures 4/5 chart requested limits).
            self.metrics.add_allocation(tier, since, self.now, limit);
        }
        self.running.remove(job, task);
    }
}

/// The gang dry run: greedy best fit of `requests`, in order, each
/// against commitments that include the members placed before it.
/// Returns the machine chosen for each request, or `None` when some
/// member does not fit.
///
/// Instead of cloning every machine's state, the run keeps an *overlay*
/// of effective commitments for the few machines the gang touches and a
/// per-shape min-heap of `(score, index)` keys. Keys never go stale:
/// only the machine just committed to changes, and it is re-scored and
/// re-pushed immediately — so each member is O(log M) instead of O(M),
/// while choosing the exact machine the full scan
/// (`reference::naive_gang_dry_run`) would: the overlay applies the same
/// `+= d` accumulation to the same starting value, and the heap pops the
/// lexicographic `(score, index)` minimum — the machine the scan keeps.
fn gang_dry_run(machines: &[Machine], requests: &[Resources], tier: Tier) -> Option<Vec<usize>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Total-ordered heap key; scores of feasible machines are finite.
    #[derive(PartialEq)]
    struct Key {
        score: f64,
        mi: usize,
    }
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // IEEE equality (not total_cmp) is load-bearing: the full
            // scan ties ±0.0 together and keeps the lower machine index,
            // and this heap must pop the same machine. Scores of
            // feasible machines are finite, so the None (NaN) arm is
            // unreachable.
            self.score
                .partial_cmp(&other.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.mi.cmp(&other.mi))
        }
    }

    // Effective commitments for machines the gang has touched.
    let mut overlay: FxHashMap<usize, Resources> = Default::default();
    let mut chosen: Vec<usize> = Vec::with_capacity(requests.len());
    let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
    let mut heap_shape: Option<(u64, u64)> = None;
    for &request in requests {
        let d = crate::machine::discount(request, tier);
        let shape = (request.cpu.to_bits(), request.mem.to_bits());
        if heap_shape != Some(shape) {
            // New equivalence class: rebuild the heap (once per run
            // of identical shapes; a job's tasks share one shape).
            heap_shape = Some(shape);
            heap.clear();
            for (mi, m) in machines.iter().enumerate() {
                let committed = overlay.get(&mi).copied().unwrap_or(m.committed);
                if let Some(score) = m.fit_score_at(committed, request, tier) {
                    heap.push(Reverse(Key { score, mi }));
                }
            }
        }
        let Reverse(Key { mi, .. }) = heap.pop()?;
        let slot = overlay.entry(mi).or_insert(machines[mi].committed);
        *slot += d;
        chosen.push(mi);
        // Re-score the machine we just tightened; all other keys are
        // still exact because no other machine changed.
        if let Some(score) = machines[mi].fit_score_at(*slot, request, tier) {
            heap.push(Reverse(Key { score, mi }));
        }
    }
    Some(chosen)
}

#[cfg(test)]
mod tests {
    use super::gang_dry_run;
    use crate::machine::{discount, Machine, Occupant};
    use crate::reference::{naive_gang_dry_run, tier_of};
    use borg_trace::machine::MachineId;
    use borg_trace::priority::Tier;
    use borg_trace::resources::Resources;
    use borg_workload::usage_model::splitmix64;

    const TIE_SHAPE: Resources = Resources::new(0.125, 0.25);

    /// Exactly three accumulated production-discounted `TIE_SHAPE`s, so
    /// the third such occupant fills the machine to the bit.
    fn tie_capacity() -> Resources {
        let mut capacity = Resources::ZERO;
        for _ in 0..3 {
            capacity += discount(TIE_SHAPE, Tier::Production);
        }
        capacity
    }

    /// Four identical machines one member short of full: every member
    /// scores exactly 0.0 on every machine still open, and the lower
    /// index must win each tie.
    #[test]
    fn gang_dry_run_breaks_zero_score_ties_by_index() {
        let mut machines: Vec<Machine> = (0..4)
            .map(|i| Machine::new(MachineId(i), tie_capacity()))
            .collect();
        for (mi, m) in machines.iter_mut().enumerate() {
            for index in 0..2 {
                m.add(Occupant {
                    owner: mi,
                    index,
                    is_alloc_instance: false,
                    tier: Tier::Production,
                    request: TIE_SHAPE,
                });
            }
            assert_eq!(m.fit_score(TIE_SHAPE, Tier::Production), Some(0.0));
        }
        let four = [TIE_SHAPE; 4];
        let got = gang_dry_run(&machines, &four, Tier::Production);
        assert_eq!(got, Some(vec![0, 1, 2, 3]));
        assert_eq!(got, naive_gang_dry_run(&machines, &four, Tier::Production));
        // A fifth member has nowhere to go: the whole gang is refused.
        let five = [TIE_SHAPE; 5];
        assert_eq!(gang_dry_run(&machines, &five, Tier::Production), None);
        assert_eq!(naive_gang_dry_run(&machines, &five, Tier::Production), None);
    }

    /// The overlay + per-shape-heap dry run against the full-clone scan,
    /// over an evolving fleet: gangs of one shape and of mixed shapes,
    /// gangs that do not fit, and a block of identical machines on which
    /// members tie on equal scores.
    #[test]
    fn gang_dry_run_matches_naive_scan() {
        for seed in [1u64, 7, 99, 1234] {
            let tie_capacity = tie_capacity();
            let mut machines: Vec<Machine> = (0..20)
                .map(|i| {
                    let r = splitmix64(seed ^ (i as u64 * 7919));
                    let capacity = if i % 3 == 0 {
                        tie_capacity
                    } else {
                        Resources::new(
                            0.3 + (r % 100) as f64 / 120.0,
                            0.3 + (r / 100 % 100) as f64 / 120.0,
                        )
                    };
                    Machine::new(MachineId(i), capacity)
                })
                .collect();
            let mut shapes: Vec<Resources> = (0..5)
                .map(|k| {
                    let r = splitmix64(seed ^ (k as u64 * 104729));
                    Resources::new(
                        0.01 + (r % 37) as f64 / 150.0,
                        0.01 + (r / 37 % 37) as f64 / 150.0,
                    )
                })
                .collect();
            shapes.push(TIE_SHAPE);
            shapes.push(Resources::new(5.0, 5.0)); // fits nowhere
            let mut occupants: Vec<(usize, usize, usize)> = Vec::new();
            let (mut placed, mut refused, mut mixed) = (0, 0, 0);
            for round in 0..600usize {
                let r = splitmix64(seed.wrapping_mul(31).wrapping_add(round as u64));
                if r.is_multiple_of(4) {
                    // Free a batch so later gangs see loosened machines.
                    for _ in 0..(r / 4 % 9) {
                        if occupants.is_empty() {
                            break;
                        }
                        let k = splitmix64(r ^ occupants.len() as u64) as usize % occupants.len();
                        let (mi, owner, index) = occupants.swap_remove(k);
                        machines[mi].remove(owner, index).expect("occupant present");
                    }
                    continue;
                }
                let members = 1 + (r / 16 % 12) as usize;
                let tier = if (r / 256).is_multiple_of(3) {
                    Tier::Production
                } else {
                    tier_of(r / 1024)
                };
                // Two gangs in three share one shape, like a real job.
                let one_shape = !(r / 4096).is_multiple_of(3);
                let requests: Vec<Resources> = (0..members)
                    .map(|k| {
                        let pick = if one_shape {
                            r / 8192
                        } else {
                            splitmix64(r ^ k as u64)
                        };
                        // The oversized shape is rare, so most gangs fit.
                        let n = if pick % 23 == 0 {
                            shapes.len()
                        } else {
                            shapes.len() - 1
                        };
                        shapes[(pick / 23) as usize % n]
                    })
                    .collect();
                if requests.windows(2).any(|w| w[0] != w[1]) {
                    mixed += 1;
                }
                let expect = naive_gang_dry_run(&machines, &requests, tier);
                let got = gang_dry_run(&machines, &requests, tier);
                assert_eq!(got, expect, "seed {seed} round {round}");
                let Some(chosen) = got else {
                    refused += 1;
                    continue;
                };
                placed += 1;
                for (k, (&request, mi)) in requests.iter().zip(chosen).enumerate() {
                    machines[mi].add(Occupant {
                        owner: round,
                        index: k,
                        is_alloc_instance: false,
                        tier,
                        request,
                    });
                    occupants.push((mi, round, k));
                }
            }
            assert!(placed > 50, "seed {seed}: only {placed} gangs fit");
            assert!(refused > 10, "seed {seed}: only {refused} gangs refused");
            assert!(mixed > 50, "seed {seed}: only {mixed} mixed-shape gangs");
        }
    }
}
