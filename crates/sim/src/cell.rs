//! One cell's simulation: the Borgmaster loop.
//!
//! This file holds the runtime types, [`CellSim::run_cell`], the event
//! loop, the trace emitters and the end-of-run export; the event
//! handlers live in the submodules.

mod dispatch;
mod faults;
mod lifecycle;
mod usage;

use self::usage::TickScratch;
use crate::autopilot::Autopilot;
use crate::config::SimConfig;
use crate::event::{Ev, EventQueue, KIND_NAMES};
use crate::faults::FaultInjector;
use crate::machine::Machine;
use crate::metrics::{tier_key, SimMetrics};
use crate::pending::PendingQueue;
use crate::runset::RunningSet;
use crate::shard::ShardedPlacement;
use borg_telemetry::{clock, PhaseGrid, Plane, Snapshot, Telemetry};
use borg_trace::collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, UserId, VerticalScalingMode,
};
use borg_trace::instance::{InstanceEvent, InstanceId};
use borg_trace::machine::{MachineEvent, MachineId, Platform};
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;
use borg_trace::state::EventType;
use borg_trace::time::Micros;
use borg_trace::trace::{SchemaVersion, Trace};
use borg_workload::cells::{CellProfile, Era};
use borg_workload::jobgen::{GenParams, JobGenerator, JobSpec, Workload};
use borg_workload::usage_model::splitmix64;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

/// Everything a simulated cell-month produces.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The trace tables (v3 schema).
    pub trace: Trace,
    /// Pre-aggregated metrics.
    pub metrics: SimMetrics,
    /// Telemetry snapshot (empty unless `SimConfig::telemetry`): phase
    /// spans, per-event-kind counters/timings, and the metrics/index
    /// tallies re-exported as counters. See DESIGN.md §12.
    pub telemetry: Snapshot,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    NotSubmitted,
    Pending,
    Running { machine: usize, since: Micros },
    Dead,
}

#[derive(Debug)]
struct TaskRt {
    state: TaskState,
    attempt: u32,
    limit: Resources,
    autopilot: Autopilot,
    /// Set when placed inside an alloc instance `(alloc_idx, inst_idx)`.
    in_alloc: Option<(usize, usize)>,
    stalled: bool,
    /// Usage has been charged to the metrics up to this time; the
    /// remainder is charged when the task frees or at the next tick, so
    /// short tasks that live between ticks still contribute (Figure 2).
    accounted_until: Micros,
    /// Generation stamp for pending-queue entries: bumped whenever every
    /// outstanding entry for this task must die (the task starts,
    /// stalls, or its job ends), so a popped entry is live iff its stamp
    /// matches — one integer compare instead of re-deriving state.
    /// Unstalling does *not* bump: the stall already orphaned the old
    /// entries, and the retry tick pushes a fresh one under the new gen.
    gen: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum JobState {
    NotArrived,
    Queued,
    Ready,
    Ended,
}

#[derive(Debug)]
struct JobRt {
    spec: JobSpec,
    state: JobState,
    ready_at: Micros,
    first_running: Option<Micros>,
    end_scheduled: bool,
    /// Terminal override (parent cascade forces a kill).
    forced_kill: bool,
    children: Vec<usize>,
    flaky: bool,
    /// Number of tasks currently in `TaskState::Pending` (stalled or
    /// not), so gang dispatch collects them without scanning every task.
    pending_count: u32,
    tasks: Vec<TaskRt>,
}

#[derive(Debug)]
struct AllocInstRt {
    machine: Option<usize>,
    used: Resources,
    placed_at: Micros,
}

#[derive(Debug)]
struct AllocRt {
    spec: borg_workload::jobgen::AllocSetSpec,
    instances: Vec<AllocInstRt>,
    active: bool,
    /// Past expiry but still hosting production members: no new
    /// placements; torn down once the members finish.
    draining: bool,
    /// The set's `Schedule` was emitted: at least one instance was placed
    /// at submission, so teardown is a `Finish`, not a `Kill`.
    scheduled: bool,
    /// The running tasks placed inside this set, `(job, task)`: exactly
    /// the running set filtered by `in_alloc`, in its order, so teardown
    /// does not scan every running task.
    members: BTreeSet<(usize, usize)>,
}

/// The cell simulator.
pub struct CellSim<'a> {
    profile: &'a CellProfile,
    cfg: &'a SimConfig,
    machines: Vec<Machine>,
    /// Sharded placement index kept in lock-step with every machine
    /// mutation (one shard unless the config asks for more — see
    /// `SimConfig::effective_shards`).
    index: ShardedPlacement,
    jobs: Vec<JobRt>,
    allocs: Vec<AllocRt>,
    job_by_id: std::collections::BTreeMap<u64, usize>,
    alloc_by_id: std::collections::BTreeMap<u64, usize>,
    queue: EventQueue,
    pending: PendingQueue,
    batch_queue: VecDeque<(usize, Micros)>,
    /// Tasks whose last placement attempt failed, awaiting the retry tick.
    stalled: VecDeque<(usize, usize)>,
    /// Running `(job, task)` pairs as a dense task-id bitmap: inserts
    /// and removals are single bit operations at task start/stop, and
    /// iteration walks set bits in ascending id order — which *is*
    /// `(job, task)` order, so every consumer sees the exact sequence
    /// the ordered set it replaced produced (see [`RunningSet`]).
    running: RunningSet,
    /// The dispatch cursor is live: either a `Dispatch` event is in the
    /// queue or the handler for one is on the stack. The queue never
    /// holds two live dispatch events — `ensure_dispatch` is a no-op
    /// while the cursor runs, and the cursor re-arms itself exactly once
    /// when it breaks a burst.
    dispatch_live: bool,
    /// The placement whose decision latency is elapsing, with the gen
    /// stamp from its pending-queue pop.
    in_flight: Option<(usize, usize, u32)>,
    last_dispatched_job: Option<usize>,
    /// Reusable hot-path buffers (usage tick, gang collect); see
    /// [`TickScratch`].
    scratch: TickScratch,
    /// Requested resources of admitted-but-unfinished best-effort batch
    /// jobs: the batch scheduler's admission-control state.
    beb_outstanding: Resources,
    /// The fleet's nominal capacity, the batch admission bound's scale.
    capacity: Resources,
    trace: Trace,
    metrics: SimMetrics,
    rng: StdRng,
    /// Machine-failure injector; `None` keeps the simulation bit-identical
    /// to a build without fault injection.
    faults: Option<FaultInjector>,
    now: Micros,
    snapshot_done: bool,
    usage_seq: u64,
    /// Telemetry accumulator (a disabled instance when
    /// `cfg.telemetry` is off: every record call is one branch).
    tel: Telemetry,
    /// Per-(event-kind × simulated-day) counts and wall-clock credits,
    /// folded into `tel` after the event loop.
    grid: PhaseGrid,
}

impl<'a> CellSim<'a> {
    /// Generates the workload for `profile` under `cfg` and runs the full
    /// simulation, returning the trace and metrics.
    pub fn run_cell(profile: &'a CellProfile, cfg: &'a SimConfig) -> CellOutcome {
        cfg.validate();
        let mut tel = Telemetry::new(cfg.telemetry);
        let root_span = tel.span_enter("sim.run_cell");
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Sample the machine fleet.
        let fleet_span = tel.span_enter("sample_fleet");
        let n_machines = cfg.machine_count(profile);
        let mut machines = Vec::with_capacity(n_machines);
        let mut machine_events = Vec::with_capacity(n_machines);
        let mut capacity = Resources::ZERO;
        for i in 0..n_machines {
            let shape = profile.catalog.sample(&mut rng);
            capacity += shape.capacity;
            machines.push(Machine::new(MachineId(i as u32), shape.capacity));
            machine_events.push(MachineEvent::add(
                Micros::ZERO,
                MachineId(i as u32),
                shape.capacity,
                shape.platform,
            ));
        }

        tel.span_exit(fleet_span);

        // Generate the workload.
        let gen_span = tel.span_enter("gen_workload");
        let workload = JobGenerator::new(
            profile,
            GenParams {
                capacity,
                job_rate_per_hour: cfg.job_rate(profile),
                horizon: cfg.horizon,
                task_cap: cfg.task_cap,
                seed: splitmix64(cfg.seed ^ WORKLOAD_SEED_SALT),
            },
        )
        .generate();
        tel.span_exit(gen_span);

        let schema = match profile.era {
            Era::Y2011 => SchemaVersion::V2Trace2011,
            Era::Y2019 => SchemaVersion::V3Trace2019,
        };
        let mut trace = Trace::new(profile.name.clone(), schema, cfg.horizon);
        trace.machine_events = machine_events;

        let reporting_tiers: Vec<Tier> = profile.tiers.iter().map(|t| tier_key(t.tier)).collect();
        let metrics = SimMetrics::new(&profile.name, cfg.horizon, &reporting_tiers);

        let index = ShardedPlacement::new(&machines, cfg.effective_shards(machines.len()));
        // The injector owns an independent RNG stream: enabling faults
        // never perturbs the fleet, workload, or placement draws.
        let faults = cfg.faults.as_ref().map(|fc| {
            let platforms: Vec<Platform> =
                trace.machine_events.iter().map(|e| e.platform).collect();
            FaultInjector::new(
                fc.clone(),
                platforms,
                splitmix64(cfg.seed ^ FAULT_SEED_SALT),
            )
        });
        let mut sim = CellSim {
            profile,
            cfg,
            machines,
            index,
            jobs: Vec::new(),
            allocs: Vec::new(),
            job_by_id: Default::default(),
            alloc_by_id: Default::default(),
            queue: EventQueue::new(),
            pending: PendingQueue::new(),
            batch_queue: VecDeque::new(),
            stalled: VecDeque::new(),
            running: RunningSet::default(),
            dispatch_live: false,
            in_flight: None,
            last_dispatched_job: None,
            scratch: TickScratch::default(),
            beb_outstanding: Resources::ZERO,
            capacity,
            trace,
            metrics,
            rng,
            faults,
            now: Micros::ZERO,
            snapshot_done: false,
            usage_seq: 0,
            tel,
            grid: PhaseGrid::new(KIND_NAMES),
        };
        let load_span = sim.tel.span_enter("load_workload");
        sim.load_workload(workload);
        sim.tel.span_exit(load_span);
        let prime_span = sim.tel.span_enter("prime_events");
        sim.prime_events();
        sim.tel.span_exit(prime_span);
        sim.run_loop();
        let fin_span = sim.tel.span_enter("finalize");
        sim.finalize();
        sim.export_metrics_telemetry();
        sim.tel.span_exit(fin_span);
        sim.tel.span_exit(root_span);
        let telemetry = sim.tel.snapshot();
        let outcome = CellOutcome {
            trace: sim.trace,
            metrics: sim.metrics,
            telemetry,
        };
        if cfg!(debug_assertions) {
            let findings = crate::check::check(&outcome, &sim.machines).findings;
            assert!(
                findings.is_empty(),
                "cell {}: the end-of-run check found {findings:#?}",
                outcome.trace.cell_name
            );
        }
        outcome
    }

    fn load_workload(&mut self, workload: Workload) {
        let flaky_frac = self.profile.flaky_job_fraction;
        self.jobs = workload
            .jobs
            .into_iter()
            .map(|spec| {
                let flaky = spec.tier != Tier::Production
                    && (splitmix64(spec.id ^ self.cfg.seed) as f64 / u64::MAX as f64) < flaky_frac;
                let vs_mode = if self.cfg.disable_autopilot {
                    borg_trace::collection::VerticalScalingMode::Off
                } else {
                    spec.vertical_scaling
                };
                let tasks = spec
                    .tasks
                    .iter()
                    .map(|t| TaskRt {
                        state: TaskState::NotSubmitted,
                        attempt: 0,
                        limit: t.request,
                        autopilot: Autopilot::new(vs_mode, t.request),
                        in_alloc: None,
                        stalled: false,
                        accounted_until: Micros::ZERO,
                        gen: 0,
                    })
                    .collect();
                JobRt {
                    state: JobState::NotArrived,
                    ready_at: Micros::ZERO,
                    first_running: None,
                    end_scheduled: false,
                    forced_kill: false,
                    children: Vec::new(),
                    flaky,
                    pending_count: 0,
                    tasks,
                    spec,
                }
            })
            .collect();
        // Dense global task ids for the running bitmap: contiguous per
        // job, in job order, so ascending id equals (job, task) order.
        self.running = RunningSet::new(self.jobs.iter().map(|j| j.tasks.len()));
        self.job_by_id = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.spec.id, i))
            .collect();
        // Wire parent → children links.
        for i in 0..self.jobs.len() {
            if let Some(pid) = self.jobs[i].spec.parent {
                if let Some(&p) = self.job_by_id.get(&pid) {
                    self.jobs[p].children.push(i);
                }
            }
        }
        self.allocs = workload
            .alloc_sets
            .into_iter()
            .map(|spec| AllocRt {
                draining: false,
                instances: (0..spec.instance_count)
                    .map(|_| AllocInstRt {
                        machine: None,
                        used: Resources::ZERO,
                        placed_at: Micros::ZERO,
                    })
                    .collect(),
                active: false,
                scheduled: false,
                members: BTreeSet::new(),
                spec,
            })
            .collect();
        self.alloc_by_id = self
            .allocs
            .iter()
            .enumerate()
            .map(|(i, a)| (a.spec.id, i))
            .collect();
    }

    fn prime_events(&mut self) {
        // Build the pre-loop calendar in the exact order these events
        // used to be pushed, then hand it to the queue in one shot: the
        // calendar pops O(1) from a sorted cursor instead of sifting a
        // heap that starts with every submission of the month in it, and
        // ordering is identical to having pushed each entry here.
        let mut cal: Vec<(Micros, Ev)> =
            Vec::with_capacity(self.jobs.len() + self.allocs.len() + 3 + 2 * self.machines.len());
        for (i, j) in self.jobs.iter().enumerate() {
            cal.push((j.spec.submit_time, Ev::JobSubmit { job: i }));
        }
        for (i, a) in self.allocs.iter().enumerate() {
            cal.push((a.spec.submit_time, Ev::AllocSubmit { alloc: i }));
        }
        cal.push((self.cfg.usage_interval, Ev::UsageTick));
        cal.push((Micros::from_minutes(5), Ev::BatchTick));
        cal.push((Micros::from_secs(30), Ev::RetryTick));
        // Stagger the first maintenance sweep of each machine uniformly
        // over the maintenance interval.
        let interval = self.cfg.maintenance_interval().as_micros();
        for m in 0..self.machines.len() {
            let at = Micros((self.rng.random::<f64>() * interval as f64) as u64);
            cal.push((at, Ev::Maintenance { machine: m }));
        }
        // One failure clock per machine, drawn from the injector's own
        // stream (the main RNG is untouched when faults are disabled).
        if let Some(inj) = self.faults.as_mut() {
            for m in 0..inj.machine_count() {
                let at = inj.sample_failure_gap();
                let epoch = inj.epoch(m);
                cal.push((at, Ev::MachineFail { machine: m, epoch }));
            }
        }
        self.queue.prime(cal);
    }

    fn run_loop(&mut self) {
        let span = self.tel.span_enter("run_loop");
        if self.tel.is_enabled() {
            self.run_loop_instrumented();
        } else {
            self.run_loop_plain();
        }
        // Fold the per-kind grid under the still-open run_loop span so
        // `ev.*` aggregates nest where the time was actually spent.
        self.grid.export(&mut self.tel, "sim.ev", "ev");
        self.tel.span_exit(span);
    }

    fn run_loop_plain(&mut self) {
        while let Some((t, ev)) = self.queue.pop() {
            if t >= self.cfg.horizon {
                break;
            }
            self.now = t;
            self.handle_event(ev);
        }
    }

    /// The instrumented twin of [`CellSim::run_loop_plain`]: identical
    /// simulation behavior (telemetry reads nothing back), plus
    /// per-(kind, day) counts, queue-depth histogram, and wall-clock
    /// attribution. Timing reads the blessed clock once per event; the
    /// gap between consecutive reads — the previous handler plus one
    /// heap pop — is credited to the previous event's kind, which keeps
    /// enabled-mode overhead to one clock read and three array adds per
    /// event.
    fn run_loop_instrumented(&mut self) {
        let depth_hist = self.tel.hist("sim.ev.queue_depth", Plane::Deterministic);
        let mut prev: Option<(usize, usize)> = None;
        let mut prev_ns = clock::now_ns();
        while let Some((t, ev)) = self.queue.pop() {
            if t >= self.cfg.horizon {
                break;
            }
            self.now = t;
            let day = (t.as_micros() / DAY_MICROS) as usize;
            let kind = ev.kind_index();
            self.grid.count(day, kind);
            self.tel.record(depth_hist, self.queue.len() as u64);
            let now_ns = clock::now_ns();
            if let Some((pd, pk)) = prev {
                self.grid.credit_ns(pd, pk, now_ns.saturating_sub(prev_ns));
            }
            prev = Some((day, kind));
            prev_ns = now_ns;
            self.handle_event(ev);
        }
        if let Some((pd, pk)) = prev {
            let end_ns = clock::now_ns();
            self.grid.credit_ns(pd, pk, end_ns.saturating_sub(prev_ns));
        }
    }

    #[inline]
    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::JobSubmit { job } => self.on_job_submit(job),
            Ev::AllocSubmit { alloc } => self.on_alloc_submit(alloc),
            Ev::AllocExpire { alloc } => self.on_alloc_expire(alloc),
            Ev::Dispatch => self.on_dispatch(),
            Ev::JobEnd { job } => self.on_job_end(job, false),
            Ev::TaskInterrupt { job, task, attempt } => self.on_task_interrupt(job, task, attempt),
            Ev::UsageTick => self.on_usage_tick(),
            Ev::BatchTick => self.on_batch_tick(),
            Ev::RetryTick => self.on_retry_tick(),
            Ev::Maintenance { machine } => self.on_maintenance(machine),
            Ev::MachineFail { machine, epoch } => self.on_machine_fail(machine, epoch),
            Ev::MachineRepair { machine } => self.on_machine_repair(machine),
        }
    }

    fn emit_collection(&mut self, job: usize, ev: EventType) {
        let spec = &self.jobs[job].spec;
        self.trace.collection_events.push(CollectionEvent {
            time: self.now,
            collection_id: CollectionId(spec.id),
            event_type: ev,
            collection_type: CollectionType::Job,
            priority: spec.priority,
            scheduler: spec.scheduler,
            vertical_scaling: spec.vertical_scaling,
            parent_id: spec.parent.map(CollectionId),
            alloc_collection_id: spec.alloc_set.map(CollectionId),
            user_id: UserId(spec.user_id),
        });
    }

    fn emit_alloc_collection(&mut self, alloc: usize, ev: EventType) {
        let spec = &self.allocs[alloc].spec;
        self.trace.collection_events.push(CollectionEvent {
            time: self.now,
            collection_id: CollectionId(spec.id),
            event_type: ev,
            collection_type: CollectionType::AllocSet,
            priority: spec.priority,
            scheduler: SchedulerKind::Default,
            vertical_scaling: VerticalScalingMode::Off,
            parent_id: None,
            alloc_collection_id: None,
            user_id: UserId(spec.user_id),
        });
    }

    fn emit_task(&mut self, job: usize, task: usize, ev: EventType, machine: Option<usize>) {
        let (priority, request, alloc_ref, collection_id) = {
            let j = &self.jobs[job];
            let inst = j.tasks[task]
                .in_alloc
                .map(|(a, i)| InstanceId::new(CollectionId(self.allocs[a].spec.id), i as u32));
            (j.spec.priority, j.tasks[task].limit, inst, j.spec.id)
        };
        self.trace.instance_events.push(InstanceEvent {
            time: self.now,
            instance_id: InstanceId::new(CollectionId(collection_id), task as u32),
            event_type: ev,
            machine_id: machine.map(|m| self.machines[m].id),
            request,
            priority,
            alloc_instance: alloc_ref,
        });
    }

    fn emit_alloc_instance(&mut self, alloc: usize, inst: usize, ev: EventType) {
        let spec = &self.allocs[alloc].spec;
        let machine = self.allocs[alloc].instances[inst]
            .machine
            .map(|m| self.machines[m].id);
        self.trace.instance_events.push(InstanceEvent {
            time: self.now,
            instance_id: InstanceId::new(CollectionId(spec.id), inst as u32),
            event_type: ev,
            machine_id: machine,
            request: spec.instance_size,
            priority: spec.priority,
            alloc_instance: None,
        });
    }

    fn finalize(&mut self) {
        self.now = self.cfg.horizon;
        self.metrics.index = self.index.stats();
        // Close allocation intervals for still-running tasks (alive at
        // trace end, like real long-running services).
        let still_running: Vec<(usize, usize)> = self.running.to_vec();
        for (j, t) in still_running {
            if let TaskState::Running { since, .. } = self.jobs[j].tasks[t].state {
                let tier = self.jobs[j].spec.tier;
                let limit = self.jobs[j].tasks[t].limit;
                self.metrics.add_allocation(tier, since, self.now, limit);
                let acc = self.jobs[j].tasks[t].accounted_until;
                if self.now > acc {
                    let usage_proc = self.jobs[j].spec.tasks[t].usage;
                    let mut avg = usage_proc.average_over(acc, self.now);
                    avg.mem = avg.mem.min(limit.mem);
                    self.metrics.add_usage(tier, acc, self.now, avg);
                }
            }
        }
        for alloc in self.allocs.iter().filter(|a| a.active) {
            let size = alloc.spec.instance_size;
            for inst in alloc.instances.iter().filter(|i| i.machine.is_some()) {
                self.metrics
                    .add_allocation(Tier::Production, inst.placed_at, self.now, size);
            }
        }
        self.trace.sort();
    }

    /// Re-exports the end-of-run [`SimMetrics`] tallies, counts of the
    /// trace's rows and the placement-index counters as telemetry
    /// counters, so a single snapshot answers both "where did the time
    /// go" and "what did the scheduler do". Simulation-state tallies are
    /// deterministic-plane; index internals are engine-plane
    /// (legitimately different between shard counts, even though the
    /// traces are bit-identical).
    fn export_metrics_telemetry(&mut self) {
        if !self.tel.is_enabled() {
            return;
        }
        let det = Plane::Deterministic;
        let m = &self.metrics;
        let t = &self.trace;
        let collections = t.collections();
        let scalars: [(&str, u64); 10] = [
            ("sim.metrics.preemptions", m.preemptions),
            ("sim.metrics.machine_failures", t.machine_failures()),
            ("sim.metrics.machine_repairs", t.machine_repairs()),
            ("sim.metrics.tasks_lost", collections.tasks_lost),
            // Every row is one Figure 7 transition of a legal trace.
            (
                "sim.metrics.transitions.collection",
                t.collection_events.len() as u64,
            ),
            (
                "sim.metrics.transitions.instance",
                t.instance_events.len() as u64,
            ),
            (
                "sim.metrics.delay_samples",
                t.scheduling_delays().len() as u64,
            ),
            ("sim.metrics.slack_samples", m.slack.len() as u64),
            (
                "sim.metrics.machine_snapshots",
                m.machine_snapshots.len() as u64,
            ),
            (
                "sim.metrics.evicted_collections",
                collections
                    .by_id
                    .values()
                    .filter(|c| c.evictions > 0)
                    .count() as u64,
            ),
        ];
        let stalls: Vec<(String, u64)> = m
            .stalls_by_tier
            .iter()
            .map(|(tier, &n)| (format!("sim.metrics.stalls.{tier}"), n))
            .collect();
        let evictions: Vec<(String, u64)> = m
            .evictions_by_cause
            .iter()
            .map(|(cause, &n)| (format!("sim.metrics.evictions.{cause}"), n))
            .collect();
        for (name, value) in scalars {
            self.tel.count(name, det, value);
        }
        for (name, value) in stalls.into_iter().chain(evictions) {
            self.tel.count(&name, det, value);
        }
        let ix = self.index.stats();
        let eng = Plane::Engine;
        self.tel.count("sim.index.cache_hits", eng, ix.cache_hits);
        self.tel
            .count("sim.index.negative_hits", eng, ix.negative_hits);
        self.tel
            .count("sim.index.cache_misses", eng, ix.cache_misses);
        self.tel
            .count("sim.index.leaves_scanned", eng, ix.leaves_scanned);
        self.tel
            .count("sim.index.tail_records", eng, ix.tail_records);
        self.tel.count("sim.index.rescored", eng, ix.rescored);
        self.tel
            .count("sim.index.preempt_probes", eng, ix.preempt_probes);
        self.tel
            .count("sim.index.shards", eng, self.index.shard_count() as u64);
        if self.index.shard_count() > 1 {
            // Per-shard probe counters expose load skew across the
            // contiguous ranges (engine plane: observability only,
            // never part of the deterministic contract).
            for (s, st) in self.index.per_shard_stats().into_iter().enumerate() {
                self.tel.count(
                    &format!("sim.index.shard{s}.cache_hits"),
                    eng,
                    st.cache_hits,
                );
                self.tel.count(
                    &format!("sim.index.shard{s}.cache_misses"),
                    eng,
                    st.cache_misses,
                );
                self.tel.count(
                    &format!("sim.index.shard{s}.leaves_scanned"),
                    eng,
                    st.leaves_scanned,
                );
                self.tel.count(
                    &format!("sim.index.shard{s}.preempt_probes"),
                    eng,
                    st.preempt_probes,
                );
            }
        }
    }
}

/// One simulated day, for telemetry's per-day grid rows.
const DAY_MICROS: u64 = 24 * 60 * 60 * 1_000_000;

/// Salt mixed into the config seed to derive the workload seed, so the
/// fleet sampling and the workload use independent streams.
const WORKLOAD_SEED_SALT: u64 = 0xB0B6_2019;

/// Salt for the fault injector's stream, independent of all the above so
/// enabling faults never shifts the workload or placement draws.
const FAULT_SEED_SALT: u64 = 0xFA17_0B06;
