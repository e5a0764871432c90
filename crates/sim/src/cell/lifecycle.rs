//! Job and alloc-set lifecycle: submit to end, the batch and retry
//! ticks, eviction and resubmission.

use super::{CellSim, JobState, TaskState};
use crate::event::Ev;
use crate::machine::Occupant;
use borg_trace::collection::SchedulerKind;
use borg_trace::priority::Tier;
use borg_trace::state::EventType;
use borg_trace::time::Micros;
use borg_workload::jobgen::TerminationIntent;

impl CellSim<'_> {
    pub(super) fn on_job_submit(&mut self, job: usize) {
        self.metrics
            .job_submissions
            .add_point(self.now.as_micros(), 1.0);
        self.emit_collection(job, EventType::Submit);
        let n_tasks = self.jobs[job].spec.tasks.len();
        for t in 0..n_tasks {
            self.emit_task(job, t, EventType::Submit, None);
            self.metrics
                .new_task_submissions
                .add_point(self.now.as_micros(), 1.0);
            self.metrics
                .all_task_submissions
                .add_point(self.now.as_micros(), 1.0);
        }

        // A child whose parent already terminated is killed immediately
        // (§3: job dependencies).
        let parent_dead = self.jobs[job]
            .spec
            .parent
            .and_then(|pid| self.job_by_id.get(&pid).copied())
            .is_some_and(|p| self.jobs[p].state == JobState::Ended);
        if parent_dead {
            self.jobs[job].forced_kill = true;
            self.kill_job_now(job);
            return;
        }

        if self.jobs[job].spec.scheduler == SchedulerKind::Batch && !self.cfg.disable_batch_queue {
            self.jobs[job].state = JobState::Queued;
            self.emit_collection(job, EventType::Queue);
            self.batch_queue.push_back((job, self.now));
        } else {
            self.make_ready(job);
        }
    }

    fn make_ready(&mut self, job: usize) {
        self.jobs[job].state = JobState::Ready;
        self.jobs[job].ready_at = self.now;
        let n_tasks = self.jobs[job].spec.tasks.len();
        let priority = self.jobs[job].spec.priority;
        for t in 0..n_tasks {
            self.jobs[job].tasks[t].state = TaskState::Pending;
            let gen = self.jobs[job].tasks[t].gen;
            self.pending.push(priority, self.now, job, t, gen);
        }
        self.jobs[job].pending_count = n_tasks as u32;
        self.ensure_dispatch();
    }

    pub(super) fn evict_task_cause(&mut self, job: usize, task: usize, cause: &'static str) {
        *self.metrics.evictions_by_cause.entry(cause).or_insert(0) += 1;
        self.evict_task(job, task);
    }

    fn evict_task(&mut self, job: usize, task: usize) {
        if !matches!(self.jobs[job].tasks[task].state, TaskState::Running { .. }) {
            return;
        }
        self.free_task(job, task);
        self.emit_task(job, task, EventType::Evict, None);
        *self
            .metrics
            .evictions_by_collection
            .entry(self.jobs[job].spec.id)
            .or_insert(0) += 1;
        // Almost all evicted instances are resubmitted and rescheduled in
        // the same cell (§5.2).
        self.resubmit_task(job, task);
    }

    fn resubmit_task(&mut self, job: usize, task: usize) {
        if self.jobs[job].state == JobState::Ended {
            self.jobs[job].tasks[task].state = TaskState::Dead;
            return;
        }
        self.jobs[job].tasks[task].attempt += 1;
        self.jobs[job].tasks[task].state = TaskState::Pending;
        self.jobs[job].pending_count += 1;
        self.emit_task(job, task, EventType::Submit, None);
        self.metrics
            .all_task_submissions
            .add_point(self.now.as_micros(), 1.0);
        let priority = self.jobs[job].spec.priority;
        let gen = self.jobs[job].tasks[task].gen;
        self.pending.push(priority, self.now, job, task, gen);
        self.ensure_dispatch();
    }

    pub(super) fn on_task_interrupt(&mut self, job: usize, task: usize, attempt: u32) {
        if self.jobs[job].state == JobState::Ended {
            return;
        }
        let t = &self.jobs[job].tasks[task];
        if t.attempt != attempt || !matches!(t.state, TaskState::Running { .. }) {
            return;
        }
        // The attempt dies of its own problem and is retried.
        self.free_task(job, task);
        self.emit_task(job, task, EventType::Fail, None);
        self.resubmit_task(job, task);
    }

    fn job_final_event(&self, job: usize) -> EventType {
        if self.jobs[job].forced_kill {
            return EventType::Kill;
        }
        match self.jobs[job].spec.termination {
            TerminationIntent::Finish => EventType::Finish,
            TerminationIntent::Kill { .. } => EventType::Kill,
            TerminationIntent::Fail { .. } => EventType::Fail,
        }
    }

    fn kill_job_now(&mut self, job: usize) {
        self.jobs[job].forced_kill = true;
        self.on_job_end(job, true);
    }

    pub(super) fn on_job_end(&mut self, job: usize, cascaded: bool) {
        if self.jobs[job].state == JobState::Ended {
            return;
        }
        let mut final_ev = if cascaded {
            EventType::Kill
        } else {
            self.job_final_event(job)
        };
        // A job that never started running cannot "finish"; it is
        // canceled instead.
        if self.jobs[job].first_running.is_none() && final_ev == EventType::Finish {
            final_ev = EventType::Kill;
        }
        let was_ready = self.jobs[job].state == JobState::Ready;
        self.jobs[job].state = JobState::Ended;
        if was_ready && self.jobs[job].spec.scheduler == SchedulerKind::Batch {
            self.beb_outstanding =
                (self.beb_outstanding - self.jobs[job].spec.total_request()).clamp_non_negative();
        }
        let n_tasks = self.jobs[job].spec.tasks.len();
        for t in 0..n_tasks {
            match self.jobs[job].tasks[t].state {
                TaskState::Running { .. } => {
                    self.free_task(job, t);
                    self.emit_task(job, t, final_ev, None);
                }
                TaskState::Pending => {
                    // Never-started replicas are killed with the job.
                    self.emit_task(job, t, EventType::Kill, None);
                }
                TaskState::NotSubmitted | TaskState::Dead => {}
            }
            let trt = &mut self.jobs[job].tasks[t];
            trt.state = TaskState::Dead;
            trt.gen = trt.gen.wrapping_add(1);
        }
        self.jobs[job].pending_count = 0;
        self.emit_collection(job, final_ev);

        // Parent-child cascade (§3, §5.2): children die with the parent.
        let children = std::mem::take(&mut self.jobs[job].children);
        for c in children {
            if self.jobs[c].state != JobState::Ended && self.jobs[c].state != JobState::NotArrived {
                self.on_job_end(c, true);
            } else if self.jobs[c].state == JobState::NotArrived {
                // Will be killed at submission.
                self.jobs[c].forced_kill = true;
            }
        }
    }

    pub(super) fn on_alloc_submit(&mut self, alloc: usize) {
        self.emit_alloc_collection(alloc, EventType::Submit);
        self.allocs[alloc].active = true;
        let n = self.allocs[alloc].instances.len();
        let size = self.allocs[alloc].spec.instance_size;
        for i in 0..n {
            self.emit_alloc_instance(alloc, i, EventType::Submit);
            // Alloc instances place like production tasks (they back
            // production workloads).
            if let Some((mi, _)) = self.index.best_fit(&self.machines, size, Tier::Production) {
                self.commit_occupant(
                    mi,
                    Occupant {
                        owner: usize::MAX - alloc, // distinct owner space
                        index: i,
                        is_alloc_instance: true,
                        tier: Tier::Production,
                        request: size,
                    },
                );
                self.allocs[alloc].instances[i].machine = Some(mi);
                self.allocs[alloc].instances[i].placed_at = self.now;
                self.emit_alloc_instance(alloc, i, EventType::Schedule);
            } else {
                self.emit_alloc_instance(alloc, i, EventType::Fail);
            }
        }
        if self.allocs[alloc]
            .instances
            .iter()
            .any(|i| i.machine.is_some())
        {
            self.emit_alloc_collection(alloc, EventType::Schedule);
        }
        let expire = self.allocs[alloc].spec.submit_time + self.allocs[alloc].spec.duration;
        self.queue.push(expire, Ev::AllocExpire { alloc });
    }

    pub(super) fn on_alloc_expire(&mut self, alloc: usize) {
        if !self.allocs[alloc].active {
            return;
        }
        // Reservations are torn down gracefully: while production members
        // are still running inside, the teardown is deferred (Borg's
        // eviction SLOs protect production work, §5.2).
        // `running` iterates sorted, so teardown order (and thus the
        // trace) is deterministic; collected because evictions mutate it.
        let members: Vec<(usize, usize)> = self
            .running
            .to_vec()
            .into_iter()
            .filter(|&(j, t)| {
                self.jobs[j].tasks[t]
                    .in_alloc
                    .is_some_and(|(a, _)| a == alloc)
            })
            .collect();
        let prod_members = members
            .iter()
            .any(|&(j, _)| matches!(self.jobs[j].spec.tier, Tier::Production | Tier::Monitoring));
        if prod_members {
            self.allocs[alloc].draining = true;
            self.queue
                .push(self.now + Micros::from_hours(6), Ev::AllocExpire { alloc });
            return;
        }
        self.allocs[alloc].active = false;
        // Any remaining (non-production) members are evicted and placed
        // as free-standing tasks.
        for (j, t) in members {
            self.evict_task_cause(j, t, "alloc_teardown");
        }
        let n = self.allocs[alloc].instances.len();
        for i in 0..n {
            if let Some(mi) = self.allocs[alloc].instances[i].machine.take() {
                self.release_occupant(mi, usize::MAX - alloc, i);
                let placed = self.allocs[alloc].instances[i].placed_at;
                let hours = (self.now - placed).as_hours_f64();
                let size = self.allocs[alloc].spec.instance_size;
                self.metrics.alloc_set_cpu_hours += size.cpu * hours;
                self.metrics.alloc_set_mem_hours += size.mem * hours;
                // Alloc reservations count as production-tier allocation.
                self.metrics
                    .add_allocation(Tier::Production, placed, self.now, size);
                self.emit_alloc_instance(alloc, i, EventType::Finish);
            }
        }
        // A reservation that never placed any instance is torn down as a
        // kill rather than a normal completion.
        if self.allocs[alloc].sm.state() == Some(borg_trace::state::InstanceState::Running) {
            self.emit_alloc_collection(alloc, EventType::Finish);
        } else {
            self.emit_alloc_collection(alloc, EventType::Kill);
        }
    }

    pub(super) fn on_batch_tick(&mut self) {
        self.queue
            .push(self.now + Micros::from_minutes(5), Ev::BatchTick);
        // The batch scheduler "manages the aggregate batch workload for
        // throughput by queueing jobs until the cell can handle them"
        // (§3): admission is bounded by the tier's outstanding requested
        // resources in both dimensions.
        let (cpu_cap, mem_cap) = self
            .profile
            .tier(Tier::BestEffortBatch)
            .map(|t| {
                (
                    t.target_cpu_util / t.cpu_fill * self.metrics.capacity.cpu * 1.15,
                    t.target_mem_util / t.mem_fill * self.metrics.capacity.mem * 1.15,
                )
            })
            .unwrap_or((f64::INFINITY, f64::INFINITY));
        while let Some(&(job, queued_at)) = self.batch_queue.front() {
            let waited_long = (self.now - queued_at) > Micros::from_hours(6);
            let under = self.beb_outstanding.cpu < cpu_cap && self.beb_outstanding.mem < mem_cap;
            if under || waited_long {
                self.batch_queue.pop_front();
                if self.jobs[job].state == JobState::Queued {
                    self.beb_outstanding += self.jobs[job].spec.total_request();
                    self.emit_collection(job, EventType::Enable);
                    self.make_ready(job);
                }
            } else {
                break;
            }
        }
    }

    pub(super) fn on_retry_tick(&mut self) {
        self.queue
            .push(self.now + Micros::from_secs(30), Ev::RetryTick);
        // Re-enqueue a bounded batch of stalled tasks; the list is the
        // authoritative set, so this is O(batch), not O(all tasks).
        let batch = self.stalled.len().min(4096);
        for _ in 0..batch {
            let Some((j, t)) = self.stalled.pop_front() else {
                break;
            };
            if self.jobs[j].state == JobState::Ended
                || self.jobs[j].tasks[t].state != TaskState::Pending
                || !self.jobs[j].tasks[t].stalled
            {
                continue;
            }
            self.jobs[j].tasks[t].stalled = false;
            // No gen bump: the stall already orphaned the old entries,
            // and this push carries the current stamp.
            let priority = self.jobs[j].spec.priority;
            let gen = self.jobs[j].tasks[t].gen;
            self.pending
                .push(priority, self.jobs[j].ready_at, j, t, gen);
        }
        self.ensure_dispatch();
    }
}
