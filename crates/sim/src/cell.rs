//! One cell's simulation: the Borgmaster loop.

use crate::autopilot::Autopilot;

use crate::config::SimConfig;
use crate::event::{Ev, EventQueue, KIND_NAMES};
use crate::faults::FaultInjector;
use crate::fxhash::FxHashMap;
use crate::machine::{Machine, Occupant};
use crate::metrics::{tier_key, MachineSnapshot, SimMetrics};
use crate::pending::PendingQueue;
use crate::runset::RunningSet;
use crate::shard::ShardedPlacement;
use borg_telemetry::{clock, PhaseGrid, Plane, Snapshot, Telemetry};
use borg_trace::collection::{
    CollectionEvent, CollectionId, CollectionType, SchedulerKind, UserId, VerticalScalingMode,
};
use borg_trace::instance::{InstanceEvent, InstanceId};
use borg_trace::machine::{MachineEvent, MachineEventType, MachineId, Platform};
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;
use borg_trace::state::{EventType, StateMachine};
use borg_trace::time::Micros;
use borg_trace::trace::{SchemaVersion, Trace};
use borg_trace::usage::{CpuHistogram, UsageRecord};
use borg_workload::cells::{CellProfile, Era};
use borg_workload::dist::{Exponential, Sample};
use borg_workload::jobgen::{GenParams, JobGenerator, JobSpec, TerminationIntent, Workload};
use borg_workload::usage_model::splitmix64;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// Everything a simulated cell-month produces.
#[derive(Debug)]
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
    sm: StateMachine,
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
    sm: StateMachine,
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
    sm: StateMachine,
}

#[derive(Debug)]
struct AllocRt {
    spec: borg_workload::jobgen::AllocSetSpec,
    instances: Vec<AllocInstRt>,
    active: bool,
    /// Past expiry but still hosting production members: no new
    /// placements; torn down once the members finish.
    draining: bool,
    sm: StateMachine,
}

/// Reusable event-loop scratch buffers, owned by the cell so the hot
/// paths allocate nothing in steady state (DESIGN.md §13). The usage
/// tick's per-machine vectors are full-fleet-sized but reset in
/// O(touched machines): only indices recorded in `touched` are ever
/// non-zero between `begin` and `reset_machines`.
#[derive(Debug, Default)]
struct TickScratch {
    /// Sorted copy of the running set for the tick's two passes (pass 2
    /// mutates task state, so it cannot iterate the set directly).
    running: Vec<(usize, usize)>,
    /// Per-running-task window average from pass 1 (memory clamped, CPU
    /// raw), indexed in lock-step with `running`.
    demand: Vec<Resources>,
    /// Per-machine raw demand aggregate; valid only at `touched` indices.
    machine_demand: Vec<Resources>,
    /// Per-machine throttled usage; valid only at `touched` indices.
    machine_usage: Vec<Resources>,
    /// Whether a machine index is already in `touched`.
    machine_dirty: Vec<bool>,
    /// Machines hosting at least one running task this tick.
    touched: Vec<usize>,
    /// Diurnal-mean memo for this tick's window, keyed by the usage
    /// process's (amplitude, phase) bits. One entry in practice: every
    /// task in a cell shares the profile's diurnal shape, so the two
    /// cosines are evaluated once per tick instead of once per task.
    diurnal: Vec<((u64, u64), f64)>,
    /// Sample buffer for downsampled usage records.
    samples: Vec<f64>,
    /// Sort buffer for the per-record CPU histogram.
    hist: Vec<f64>,
    /// `try_place_gang`'s pending-task collect.
    gang_pending: Vec<usize>,
}

impl TickScratch {
    /// Prepares the buffers for one tick over a `machines`-sized fleet.
    fn begin(&mut self, machines: usize) {
        self.running.clear();
        self.demand.clear();
        self.diurnal.clear();
        debug_assert!(self.touched.is_empty(), "reset_machines not called");
        if self.machine_demand.len() != machines {
            self.machine_demand.resize(machines, Resources::ZERO);
            self.machine_usage.resize(machines, Resources::ZERO);
            self.machine_dirty.resize(machines, false);
        }
    }

    /// Re-zeroes exactly the machine slots this tick dirtied.
    fn reset_machines(&mut self) {
        for &m in &self.touched {
            self.machine_demand[m] = Resources::ZERO;
            self.machine_usage[m] = Resources::ZERO;
            self.machine_dirty[m] = false;
        }
        self.touched.clear();
    }
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
        let metrics = SimMetrics::new(&profile.name, cfg.horizon, capacity, &reporting_tiers);

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
        CellOutcome {
            trace: sim.trace,
            metrics: sim.metrics,
            telemetry,
        }
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
                        sm: StateMachine::new(),
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
                    sm: StateMachine::new(),
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
                        sm: StateMachine::new(),
                    })
                    .collect(),
                active: false,
                sm: StateMachine::new(),
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

    // ----- placement machinery ----------------------------------------

    /// Adds an occupant to a machine, keeping the placement index
    /// current. Every machine mutation must flow through this or
    /// [`CellSim::release_occupant`].
    fn commit_occupant(&mut self, machine: usize, occ: Occupant) {
        self.machines[machine].add(occ);
        self.index
            .on_machine_changed(machine, &self.machines[machine]);
    }

    /// Removes an occupant from a machine, keeping the placement index
    /// current.
    fn release_occupant(&mut self, machine: usize, owner: usize, index: usize) {
        if self.machines[machine].remove(owner, index).is_some() {
            self.index
                .on_machine_changed(machine, &self.machines[machine]);
        }
    }

    /// Best-fit winner across the fleet (lowest score, lowest index
    /// among equals).
    fn best_fit_machine(&mut self, request: Resources, tier: Tier) -> Option<(usize, f64)> {
        self.index.best_fit(&self.machines, request, tier)
    }

    /// First machine (lowest index) where preempting lower tiers frees
    /// room for `request`, with the victim list.
    fn find_preemption(
        &mut self,
        request: Resources,
        tier: Tier,
    ) -> Option<(usize, Vec<(usize, usize)>)> {
        self.index.first_preemptible(&self.machines, request, tier)
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

    // ----- event emission helpers -------------------------------------

    fn emit_collection(&mut self, job: usize, ev: EventType) {
        let spec = &self.jobs[job].spec;
        let event = CollectionEvent {
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
        };
        let from = self.jobs[job].sm.state();
        if self.jobs[job].sm.apply(ev).is_ok() {
            self.metrics.collection_transitions.record(from, ev);
            self.trace.collection_events.push(event);
        } else {
            debug_assert!(false, "illegal collection transition: {ev} from {from:?}");
        }
    }

    fn emit_alloc_collection(&mut self, alloc: usize, ev: EventType) {
        let spec = &self.allocs[alloc].spec;
        let event = CollectionEvent {
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
        };
        let from = self.allocs[alloc].sm.state();
        if self.allocs[alloc].sm.apply(ev).is_ok() {
            self.metrics.collection_transitions.record(from, ev);
            self.trace.collection_events.push(event);
        } else {
            debug_assert!(false, "illegal alloc transition: {ev} from {from:?}");
        }
    }

    fn emit_task(&mut self, job: usize, task: usize, ev: EventType, machine: Option<usize>) {
        let (priority, request, alloc_ref, collection_id) = {
            let j = &self.jobs[job];
            let inst = j.tasks[task]
                .in_alloc
                .map(|(a, i)| InstanceId::new(CollectionId(self.allocs[a].spec.id), i as u32));
            (j.spec.priority, j.tasks[task].limit, inst, j.spec.id)
        };
        let event = InstanceEvent {
            time: self.now,
            instance_id: InstanceId::new(CollectionId(collection_id), task as u32),
            event_type: ev,
            machine_id: machine.map(|m| self.machines[m].id),
            request,
            priority,
            alloc_instance: alloc_ref,
        };
        let from = self.jobs[job].tasks_sm_state(task);
        if self.jobs[job].apply_task_sm(task, ev) {
            self.metrics.instance_transitions.record(from, ev);
            self.trace.instance_events.push(event);
        } else {
            debug_assert!(false, "illegal instance transition: {ev} from {from:?}");
        }
    }

    fn emit_alloc_instance(&mut self, alloc: usize, inst: usize, ev: EventType) {
        let spec = &self.allocs[alloc].spec;
        let machine = self.allocs[alloc].instances[inst]
            .machine
            .map(|m| self.machines[m].id);
        let event = InstanceEvent {
            time: self.now,
            instance_id: InstanceId::new(CollectionId(spec.id), inst as u32),
            event_type: ev,
            machine_id: machine,
            request: spec.instance_size,
            priority: spec.priority,
            alloc_instance: None,
        };
        let from = self.allocs[alloc].instances[inst].sm.state();
        if self.allocs[alloc].instances[inst].sm.apply(ev).is_ok() {
            self.metrics.instance_transitions.record(from, ev);
            self.trace.instance_events.push(event);
        }
    }

    // ----- job lifecycle ------------------------------------------------

    fn on_job_submit(&mut self, job: usize) {
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

    fn ensure_dispatch(&mut self) {
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
        let mut mean = self.cfg.mean_decision_micros as f64;
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

    fn on_dispatch(&mut self) {
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
                            // lint: library-panic-ok (position() above required machine.is_some()) unwind-across-pool-ok (unreachable by the same invariant, so no worker unwind)
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
        if let Some((machine, _)) = self.best_fit_machine(request, tier) {
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
            if let Some((machine, victims)) = self.find_preemption(request, tier) {
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
    fn free_task(&mut self, job: usize, task: usize) {
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

    fn evict_task_cause(&mut self, job: usize, task: usize, cause: &'static str) {
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

    fn on_task_interrupt(&mut self, job: usize, task: usize, attempt: u32) {
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

    fn on_job_end(&mut self, job: usize, cascaded: bool) {
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

    // ----- alloc sets ----------------------------------------------------

    fn on_alloc_submit(&mut self, alloc: usize) {
        self.emit_alloc_collection(alloc, EventType::Submit);
        self.allocs[alloc].active = true;
        let n = self.allocs[alloc].instances.len();
        let size = self.allocs[alloc].spec.instance_size;
        for i in 0..n {
            self.emit_alloc_instance(alloc, i, EventType::Submit);
            // Alloc instances place like production tasks (they back
            // production workloads).
            if let Some((mi, _)) = self.best_fit_machine(size, Tier::Production) {
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

    fn on_alloc_expire(&mut self, alloc: usize) {
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

    // ----- periodic machinery ---------------------------------------------

    fn on_batch_tick(&mut self) {
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

    fn on_retry_tick(&mut self) {
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

    fn on_maintenance(&mut self, machine: usize) {
        // Reschedule the next sweep.
        let interval = self.cfg.maintenance_interval().as_micros() as f64;
        let gap = Exponential::with_mean(interval).sample(&mut self.rng);
        self.queue
            .push(self.now + Micros(gap as u64), Ev::Maintenance { machine });
        // A small share of sweeps are (rare) hardware failures that take
        // everything down, production included — the paper's residual
        // production evictions (<0.2% of prod collections, §5.2). Regular
        // OS upgrades only evict non-production work, and most of that
        // migrates or finishes before the upgrade lands.
        let hardware_failure = self.rng.random::<f64>() < 0.015;
        let victims: Vec<(usize, usize)> = self.machines[machine]
            .occupants
            .iter()
            .filter(|o| !o.is_alloc_instance && (hardware_failure || o.tier < Tier::Production))
            .map(|o| (o.owner, o.index))
            .collect();
        for (j, t) in victims {
            if hardware_failure || self.rng.random::<f64>() < 0.2 {
                self.evict_task_cause(j, t, "maintenance");
            }
        }
    }

    // ----- injected machine failures ----------------------------------

    /// A failure clock fires. Stale clocks (epoch mismatch after a
    /// correlated co-failure) and clocks for already-down machines are
    /// ignored; otherwise the machine — or, for a correlated failure,
    /// its whole domain — goes down.
    fn on_machine_fail(&mut self, machine: usize, epoch: u32) {
        // Take the injector so the fail path can borrow `self` freely;
        // nothing below touches `self.faults`.
        let Some(mut inj) = self.faults.take() else {
            return;
        };
        if inj.is_down(machine) || inj.epoch(machine) != epoch {
            self.faults = Some(inj);
            return;
        }
        let victims: Vec<usize> = if inj.draw_correlated() {
            inj.domain_of(machine)
                .filter(|&v| !inj.is_down(v))
                .collect()
        } else {
            vec![machine]
        };
        for v in victims {
            self.fail_machine(v, &mut inj);
        }
        self.faults = Some(inj);
    }

    /// Takes one machine down: resident tasks are lost or evicted, alloc
    /// reservations on it collapse, capacity drops to zero (so nothing
    /// can place onto it), a `Remove` is recorded, and the repair is
    /// scheduled.
    fn fail_machine(&mut self, m: usize, inj: &mut FaultInjector) {
        self.metrics.machine_failures += 1;
        inj.begin_failure(m, self.machines[m].capacity);

        // Resident tasks: a configured fraction vanish (`Lost` — the
        // paper-§9 artifact repair later reconstructs); the rest are
        // evicted and resubmitted like any other eviction (§5.2).
        let resident: Vec<(usize, usize)> = self
            .running
            .to_vec()
            .into_iter()
            .filter(|&(j, t)| {
                matches!(
                    self.jobs[j].tasks[t].state,
                    TaskState::Running { machine, .. } if machine == m
                )
            })
            .collect();
        for (j, t) in resident {
            if inj.draw_lost() {
                self.free_task(j, t);
                self.emit_task(j, t, EventType::Lost, None);
                self.jobs[j].tasks[t].state = TaskState::Dead;
                self.metrics.tasks_lost += 1;
            } else {
                self.evict_task_cause(j, t, "machine-failure");
            }
        }

        // Alloc-set reservations on the machine are lost with it (their
        // member tasks were already handled above — in-alloc tasks run
        // on the alloc's machine).
        for a in 0..self.allocs.len() {
            for i in 0..self.allocs[a].instances.len() {
                if self.allocs[a].instances[i].machine != Some(m) {
                    continue;
                }
                self.allocs[a].instances[i].machine = None;
                self.release_occupant(m, usize::MAX - a, i);
                let placed = self.allocs[a].instances[i].placed_at;
                let size = self.allocs[a].spec.instance_size;
                let hours = (self.now - placed).as_hours_f64();
                self.metrics.alloc_set_cpu_hours += size.cpu * hours;
                self.metrics.alloc_set_mem_hours += size.mem * hours;
                self.metrics
                    .add_allocation(Tier::Production, placed, self.now, size);
                self.emit_alloc_instance(a, i, EventType::Lost);
            }
        }

        // Zero capacity makes the machine infeasible for every request.
        self.machines[m].capacity = Resources::ZERO;
        self.index.on_machine_changed(m, &self.machines[m]);
        self.trace.machine_events.push(MachineEvent {
            time: self.now,
            machine_id: self.machines[m].id,
            event_type: MachineEventType::Remove,
            capacity: Resources::ZERO,
            platform: inj.platform(m),
        });
        let back = self.now + inj.sample_repair_gap();
        self.queue.push(back, Ev::MachineRepair { machine: m });
    }

    /// A failed machine comes back: capacity is restored, an `Add` is
    /// recorded, and the machine's next failure clock starts.
    fn on_machine_repair(&mut self, machine: usize) {
        let Some(mut inj) = self.faults.take() else {
            return;
        };
        if let Some(cap) = inj.end_repair(machine) {
            self.machines[machine].capacity = cap;
            self.index
                .on_machine_changed(machine, &self.machines[machine]);
            self.trace.machine_events.push(MachineEvent::add(
                self.now,
                self.machines[machine].id,
                cap,
                inj.platform(machine),
            ));
            self.metrics.machine_repairs += 1;
            let next = self.now + inj.sample_failure_gap();
            let epoch = inj.epoch(machine);
            self.queue.push(next, Ev::MachineFail { machine, epoch });
        }
        self.faults = Some(inj);
    }

    fn on_usage_tick(&mut self) {
        let window_end = self.now;
        let window_start = window_end.saturating_sub(self.cfg.usage_interval);
        self.queue
            .push(self.now + self.cfg.usage_interval, Ev::UsageTick);
        self.usage_seq += 1;

        // The tick works entirely out of reusable scratch buffers: the
        // running list copies out of the (already sorted) set, the
        // per-machine aggregates are full-fleet-sized but only `touched`
        // slots are written and re-zeroed, and the diurnal factor shared
        // by every task in the cell is computed once.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin(self.machines.len());

        // Pass 1: raw demand per task and per machine. Memory limits are
        // hard (§2); CPU is work-conserving, but a machine's total CPU
        // consumption is physically capped at its capacity, so over-
        // subscribed machines throttle every occupant proportionally.
        self.running.collect_into(&mut scratch.running);
        for &(j, t) in &scratch.running {
            let TaskState::Running { machine, .. } = self.jobs[j].tasks[t].state else {
                scratch.demand.push(Resources::ZERO);
                continue;
            };
            let usage_proc = self.jobs[j].spec.tasks[t].usage;
            let limit = self.jobs[j].tasks[t].limit;
            // Memoized diurnal mean: keyed by (amplitude, phase) bits;
            // one entry in practice, so the linear scan is a hit on the
            // first slot.
            let dkey = (
                usage_proc.diurnal_amplitude.to_bits(),
                usage_proc.phase_hours.to_bits(),
            );
            let d = match scratch.diurnal.iter().find(|(k, _)| *k == dkey) {
                Some(&(_, d)) => d,
                None => {
                    let d = usage_proc.diurnal_mean(window_start, window_end);
                    scratch.diurnal.push((dkey, d));
                    d
                }
            };
            let mut avg = usage_proc.average_with_diurnal(d, window_start);
            avg.mem = avg.mem.min(limit.mem);
            scratch.demand.push(avg);
            scratch.machine_demand[machine] += avg;
            if !scratch.machine_dirty[machine] {
                scratch.machine_dirty[machine] = true;
                scratch.touched.push(machine);
            }
        }

        // Pass 2: record throttled usage, slack, autopilot, and samples.
        // The throttle is evaluated per task straight off the machine's
        // demand aggregate, so no fleet-sized table is built.
        for (k, &(j, t)) in scratch.running.iter().enumerate() {
            let TaskState::Running { machine, .. } = self.jobs[j].tasks[t].state else {
                continue;
            };
            let throttle = self.machines[machine].cpu_throttle(scratch.machine_demand[machine].cpu);
            let tier = self.jobs[j].spec.tier;
            let usage_proc = self.jobs[j].spec.tasks[t].usage;
            let limit = self.jobs[j].tasks[t].limit;
            // Pass 1 kept the window average's CPU raw (only memory is
            // clamped), so the window peak derives from it without
            // re-evaluating the usage process: `peak_cpu_over(ws, we)`
            // is literally `average_over(ws, we).cpu * peak_factor`.
            let raw_cpu = scratch.demand[k].cpu;
            let mut avg = scratch.demand[k];
            avg.cpu *= throttle;
            let peak_cpu = raw_cpu * usage_proc.peak_factor * throttle;

            // Charge usage from where the last tick (or the task's start)
            // left off, so partial windows are counted exactly once. For
            // the common full-window case the charge equals the pass-1
            // average (same clamp, same limit — bit-identical); only
            // tasks that started mid-window re-evaluate the process.
            let acc = self.jobs[j].tasks[t].accounted_until.max(window_start);
            if window_end > acc {
                let charge = if acc == window_start {
                    Resources::new(raw_cpu * throttle, scratch.demand[k].mem)
                } else {
                    let mut charge = usage_proc.average_over(acc, window_end);
                    charge.cpu *= throttle;
                    charge.mem = charge.mem.min(limit.mem);
                    charge
                };
                self.metrics.add_usage(tier, acc, window_end, charge);
            }
            self.jobs[j].tasks[t].accounted_until = window_end;
            scratch.machine_usage[machine] += avg;

            // Peak NCU slack (§8) under the limit currently in force.
            if limit.cpu > 0.0 {
                let slack = ((limit.cpu - peak_cpu).max(0.0)) / limit.cpu;
                let mode = self.jobs[j].tasks[t].autopilot.mode();
                self.metrics
                    .add_slack(mode, slack, self.usage_seq * 131 + t as u64);
            }

            // §5.1: memory fill by alloc membership.
            if limit.mem > 0.0 {
                let ratio = (avg.mem / limit.mem).min(1.0);
                if self.jobs[j].tasks[t].in_alloc.is_some() {
                    self.metrics.fill_in_alloc.push(ratio);
                } else {
                    self.metrics.fill_outside_alloc.push(ratio);
                }
            }

            // Autopilot adjusts the limit from the observed window peak.
            let new_limit = self.jobs[j].tasks[t]
                .autopilot
                .observe(Resources::new(peak_cpu, avg.mem), limit);
            if (new_limit.cpu - limit.cpu).abs() > 0.10 * limit.cpu.max(1e-9) {
                self.jobs[j].tasks[t].limit = new_limit;
                self.emit_task(j, t, EventType::UpdateRunning, Some(machine));
            } else {
                self.jobs[j].tasks[t].limit = new_limit;
            }

            // Downsampled raw usage records. The sampler is fed pass 1's
            // raw window average (what it would recompute through the
            // diurnal cosines), and the histogram sorts in a reused
            // scratch buffer.
            let key = splitmix64((j as u64) << 32 | t as u64) ^ self.usage_seq;
            if key.is_multiple_of(self.cfg.keep_usage_every) {
                usage_proc.window_cpu_samples_with_avg(
                    raw_cpu,
                    window_start,
                    24,
                    &mut scratch.samples,
                );
                self.trace.usage.push(UsageRecord {
                    start: window_start,
                    end: window_end,
                    instance_id: InstanceId::new(CollectionId(self.jobs[j].spec.id), t as u32),
                    machine_id: self.machines[machine].id,
                    avg_usage: avg,
                    max_usage: Resources::new(peak_cpu, avg.mem),
                    limit: self.jobs[j].tasks[t].limit,
                    cpu_histogram: CpuHistogram::from_samples_with(
                        &scratch.samples,
                        &mut scratch.hist,
                    ),
                });
            }
        }

        // Figure 6 snapshot.
        if !self.snapshot_done && window_start >= self.cfg.snapshot_window() {
            self.snapshot_done = true;
            self.metrics.machine_snapshots = self
                .machines
                .iter()
                .enumerate()
                .map(|(i, m)| MachineSnapshot {
                    // A failed (zero-capacity) machine is idle, not full.
                    cpu_utilization: if m.capacity.cpu > 0.0 {
                        (scratch.machine_usage[i].cpu / m.capacity.cpu).min(1.0)
                    } else {
                        0.0
                    },
                    mem_utilization: if m.capacity.mem > 0.0 {
                        (scratch.machine_usage[i].mem / m.capacity.mem).min(1.0)
                    } else {
                        0.0
                    },
                })
                .collect();
        }

        // Over-commit reclamation: a machine whose memory demand exceeds
        // its capacity must kill instances to free resources (§5.2's
        // fourth eviction cause). Lowest tiers go first. Untouched
        // machines aggregated zero usage and can never trip the check
        // (0 ≤ cap × 1.04), so only touched machines are visited —
        // sorted, because eviction order reaches the pending queue.
        scratch.touched.sort_unstable();
        for &mi in &scratch.touched {
            let usage = scratch.machine_usage[mi];
            // Small excursions ride out (kernel reclaim); sustained
            // overload forces evictions.
            if usage.mem <= self.machines[mi].capacity.mem * 1.04 {
                continue;
            }
            let mut excess = usage.mem - self.machines[mi].capacity.mem;
            // Production memory is protected: the reclamation falls on
            // lower tiers (Borg's eviction SLOs; in practice production
            // memory is reserved, not over-committed away).
            let mut victims: Vec<(Tier, usize, usize, f64)> = self.machines[mi]
                .occupants
                .iter()
                .filter(|o| {
                    !o.is_alloc_instance && !matches!(o.tier, Tier::Production | Tier::Monitoring)
                })
                .map(|o| (o.tier, o.owner, o.index, o.request.mem))
                .collect();
            victims.sort_by_key(|a| a.0);
            for (_, j, t, mem) in victims {
                if excess <= 0.0 {
                    break;
                }
                if matches!(self.jobs[j].tasks[t].state, TaskState::Running { .. }) {
                    self.evict_task_cause(j, t, "overcommit");
                    excess -= mem;
                }
            }
        }

        scratch.reset_machines();
        self.scratch = scratch;
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
        for a in 0..self.allocs.len() {
            if self.allocs[a].active {
                let size = self.allocs[a].spec.instance_size;
                for i in 0..self.allocs[a].instances.len() {
                    if let Some(_mi) = self.allocs[a].instances[i].machine {
                        let placed = self.allocs[a].instances[i].placed_at;
                        let hours = (self.now - placed).as_hours_f64();
                        self.metrics.alloc_set_cpu_hours += size.cpu * hours;
                        self.metrics.alloc_set_mem_hours += size.mem * hours;
                        self.metrics
                            .add_allocation(Tier::Production, placed, self.now, size);
                    }
                }
            }
        }
        self.trace.sort();
    }

    /// Re-exports the end-of-run [`SimMetrics`] tallies and the
    /// placement-index counters as telemetry counters, so a single
    /// snapshot answers both "where did the time go" and "what did the
    /// scheduler do". Simulation-state tallies are deterministic-plane;
    /// index internals are engine-plane (legitimately different between
    /// shard counts, even though the traces are bit-identical).
    fn export_metrics_telemetry(&mut self) {
        if !self.tel.is_enabled() {
            return;
        }
        let det = Plane::Deterministic;
        let m = &self.metrics;
        let scalars: [(&str, u64); 10] = [
            ("sim.metrics.preemptions", m.preemptions),
            ("sim.metrics.machine_failures", m.machine_failures),
            ("sim.metrics.machine_repairs", m.machine_repairs),
            ("sim.metrics.tasks_lost", m.tasks_lost),
            (
                "sim.metrics.transitions.collection",
                m.collection_transitions.total(),
            ),
            (
                "sim.metrics.transitions.instance",
                m.instance_transitions.total(),
            ),
            ("sim.metrics.delay_samples", m.delays.len() as u64),
            ("sim.metrics.slack_samples", m.slack.len() as u64),
            (
                "sim.metrics.machine_snapshots",
                m.machine_snapshots.len() as u64,
            ),
            (
                "sim.metrics.evicted_collections",
                m.evictions_by_collection.len() as u64,
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

impl JobRt {
    fn tasks_sm_state(&self, task: usize) -> Option<borg_trace::state::InstanceState> {
        self.tasks[task].sm.state()
    }

    fn apply_task_sm(&mut self, task: usize, ev: EventType) -> bool {
        self.tasks[task].sm.apply(ev).is_ok()
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

/// One simulated day, for telemetry's per-day grid rows.
const DAY_MICROS: u64 = 24 * 60 * 60 * 1_000_000;

/// Salt mixed into the config seed to derive the workload seed, so the
/// fleet sampling and the workload use independent streams.
const WORKLOAD_SEED_SALT: u64 = 0xB0B6_2019;

/// Salt for the fault injector's stream, independent of all the above so
/// enabling faults never shifts the workload or placement draws.
const FAULT_SEED_SALT: u64 = 0xFA17_0B06;

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
