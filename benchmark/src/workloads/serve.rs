//! `serve_closed`: borg-serve under a closed loop. `2 × cores` virtual
//! clients are driven from the one harness thread over the public sans-io
//! `Service` and a `ServePool` of `cores` workers, chaos off, witness, SLO
//! engine and flight recorder on. Each client works through a seeded
//! script of queries, submitting the next when the previous one reaches a
//! terminal outcome; one iteration is every client finishing its script.
//!
//! Closed, not open: with callers that each wait for a reply a slow
//! service receives less load, and on a small host open-loop tail latency
//! at a fixed rate did not repeat within a tenth while the time to serve a
//! fixed script does. The open-loop overload case stays as a virtual-time
//! check in the traced run.

use super::SplitMix;
use crate::harness::{Bench, QUERY_GROUP};
use crate::host;
use crate::spans::Span;
use crate::stats;
use borg_serve::{
    generate_arrivals, open_loop_gap_us, overload_admission, plan::table_bytes, run_serve_job,
    Action, AdmissionConfig, AggSpec, AttemptResult, ChaosConfig, CmpOp, Epoch, FilterSpec,
    GroupSpec, JobResult, ModelCost, Outcome, PlanSpec, QueryRequest, RecorderConfig, RetryPolicy,
    ServeConfig, ServeJob, ServePool, ServeSim, Service, SloConfig, TableId, Tier, TierPolicy,
    WitnessConfig, WorkloadSpec,
};
use borg_sim::CellSim;
use borg_workload::cells::CellProfile;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Trace rows behind the two epochs together: the mean over seeds
/// 100–109, rounded (see [`Bench::input_rows`]).
const NOMINAL_ROWS: usize = 500_000;

/// Share of script slots that name a hot plan.
const HOT_SHARE: f64 = 0.6;
/// Queries in each client's script.
const SCRIPT_LEN: usize = 40;
/// Kinds of cold plan (see [`cold_plan`]).
const COLD_KINDS: u64 = 5;
/// One query in this many has its served bytes compared with a direct
/// `PlanSpec::execute`.
const SAMPLE_EVERY: u64 = 100;
/// How long the harness thread sleeps when a pass over the service and
/// the pool found nothing to do; it must not spin, the workers need the
/// cores.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

// ----- seeded inputs -------------------------------------------------------

/// What a cold plan needs to know about an epoch to pick a filter constant.
#[derive(Debug, Clone, Copy)]
pub struct EpochShape {
    pub machines: u64,
    pub horizon_us: u64,
}

/// One slot of a client's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Index into the hot set: the same plan on every replay.
    Hot(usize),
    /// A cold plan of this kind on this epoch; its filter constant is
    /// drawn afresh on every replay.
    Cold { epoch: usize, kind: u64 },
}

/// The seeded script family. Three slots in five name one of 8 hot plans,
/// two are cold, and a cold slot gets a new filter constant every time
/// the script is replayed, so the run sees hundreds of distinct plans —
/// more than `ResultCache`'s 64 entries per replay — and a result cache
/// in front of the pool cannot turn the run into all hits. Replays still
/// cost the same: a cold plan's constant moves which rows match, not how
/// many rows are scanned.
///
/// Every client works through the same deck — each hot plan and each
/// cold kind on each epoch equally often — in an order of its own that
/// the seed decides: a script drawn slot by slot holds anything from 5 to
/// 15 instance-table scans, the tier that got more of them finishes last,
/// and the time to replay follows.
pub struct Scripts {
    /// `(epoch index, plan)` of the hot set.
    pub hot: Vec<(usize, PlanSpec)>,
    /// One script per client.
    pub per_client: Vec<Vec<Slot>>,
}

impl Scripts {
    /// Builds the scripts for `clients` clients over `epochs` epochs.
    pub fn generate(seed: u64, clients: usize, epochs: usize) -> Scripts {
        // Hot set: borg-serve's own five-plan catalog on the first epoch,
        // three of them again on the last.
        let catalog = borg_serve::plan_catalog();
        let mut hot: Vec<(usize, PlanSpec)> = catalog.iter().map(|p| (0, p.clone())).collect();
        let again = 8 - hot.len();
        hot.extend(catalog.iter().take(again).map(|p| (epochs - 1, p.clone())));

        let hot_slots = (SCRIPT_LEN as f64 * HOT_SHARE).round() as usize;
        let mut deck: Vec<Slot> = (0..hot_slots).map(|i| Slot::Hot(i % hot.len())).collect();
        deck.extend((0..SCRIPT_LEN - hot_slots).map(|i| Slot::Cold {
            epoch: i % epochs,
            kind: (i / epochs) as u64 % COLD_KINDS,
        }));
        let mut rng = SplitMix::new(seed ^ 0x5e47_e5e7);
        let per_client = (0..clients)
            .map(|_| {
                let mut script = deck.clone();
                for i in (1..script.len()).rev() {
                    script.swap(i, rng.below(i as u64 + 1) as usize);
                }
                script
            })
            .collect();
        Scripts { hot, per_client }
    }

    /// Queries in one replay of every script.
    pub fn len(&self) -> usize {
        self.per_client.iter().map(Vec::len).sum()
    }
}

fn filter(column: &str, op: CmpOp, value: u64) -> Option<FilterSpec> {
    Some(FilterSpec {
        column: column.into(),
        op,
        value: value as i64,
    })
}

fn grouped(
    table: TableId,
    filter: Option<FilterSpec>,
    keys: &[&str],
    agg: AggSpec,
    sort: &str,
    limit: Option<usize>,
) -> PlanSpec {
    PlanSpec {
        table,
        filter,
        group: Some(GroupSpec {
            keys: keys.iter().map(|k| k.to_string()).collect(),
            agg,
        }),
        sort: Some((sort.to_string(), true)),
        limit,
    }
}

/// One cold plan of `kind`, its filter constant drawn from `rng`. Every
/// kind scans its whole table whatever the constant (time filters stay in
/// the first tenth of the horizon), so two draws cost about the same.
pub fn cold_plan(kind: u64, shape: EpochShape, rng: &mut SplitMix) -> PlanSpec {
    let machine = rng.below(shape.machines);
    let early = rng.below(shape.horizon_us / 10);
    match kind {
        // Heavy: instance-table scans.
        0 => grouped(
            TableId::InstanceEvents,
            filter("time", CmpOp::Ge, early),
            &["tier"],
            AggSpec::CountAll,
            "n",
            None,
        ),
        1 => grouped(
            TableId::InstanceEvents,
            filter("machine_id", CmpOp::Eq, machine),
            &["event"],
            AggSpec::CountAll,
            "n",
            None,
        ),
        // Light: the three small tables.
        2 => grouped(
            TableId::CollectionEvents,
            filter("time", CmpOp::Ge, early),
            &["event"],
            AggSpec::CountAll,
            "n",
            Some(16),
        ),
        3 => grouped(
            TableId::Usage,
            filter("start", CmpOp::Ge, early),
            &["machine_id"],
            AggSpec::Max("avg_cpu".into()),
            "peak",
            Some(32),
        ),
        _ => PlanSpec {
            table: TableId::MachineEvents,
            filter: filter("machine_id", CmpOp::Le, machine),
            group: None,
            sort: None,
            limit: Some(8),
        },
    }
}

// ----- closed-loop bookkeeping ---------------------------------------------

/// Which client waits for which query. A client is free again as soon as
/// its query reaches *any* terminal outcome — done, expired, failed or
/// shed — so a refused query does not park its client for the rest of
/// the run.
#[derive(Debug)]
pub struct Clients {
    waiting_on: Vec<Option<u64>>,
    owner: BTreeMap<u64, usize>,
    next_id: u64,
    terminal: u64,
}

impl Clients {
    pub fn new(n: usize) -> Clients {
        Clients {
            waiting_on: vec![None; n],
            owner: BTreeMap::new(),
            next_id: 0,
            terminal: 0,
        }
    }

    /// Clients with nothing in flight, lowest index first.
    pub fn idle(&self) -> Vec<usize> {
        (0..self.waiting_on.len())
            .filter(|&c| self.waiting_on[c].is_none())
            .collect()
    }

    /// Hands `client` a fresh query id; it now waits on that query.
    pub fn submit(&mut self, client: usize) -> u64 {
        debug_assert!(self.waiting_on[client].is_none(), "one query per client");
        let id = self.next_id;
        self.next_id += 1;
        self.waiting_on[client] = Some(id);
        self.owner.insert(id, client);
        id
    }

    /// Records a terminal outcome for `id`. Returns the freed client, or
    /// `None` if `id` was unknown or already terminal (a second terminal
    /// outcome for one query is a bug the caller counts).
    pub fn on_terminal(&mut self, id: u64) -> Option<usize> {
        let client = self.owner.remove(&id)?;
        self.waiting_on[client] = None;
        self.terminal += 1;
        Some(client)
    }

    pub fn submitted(&self) -> u64 {
        self.next_id
    }

    pub fn in_flight(&self) -> usize {
        self.owner.len()
    }

    pub fn terminal(&self) -> u64 {
        self.terminal
    }
}

/// Worker quotas `[prod, batch, best_effort]` that sum to `cores`: the
/// service dispatches a tier only into its own slots, and the pool has
/// one worker per core.
pub fn tier_quotas(cores: usize) -> [usize; 3] {
    let best_effort = cores / 3;
    let batch = (cores - best_effort) / 2;
    [cores - best_effort - batch, batch, best_effort]
}

/// The shipped service settings (witness, SLO engine and flight recorder
/// on) around an admission profile and a chaos plane.
fn serve_config(admission: AdmissionConfig, chaos: ChaosConfig, seed: u64) -> ServeConfig {
    ServeConfig {
        admission,
        retry: RetryPolicy::default_with_seed(seed),
        breaker_threshold: 5,
        breaker_cooloff_us: 50_000,
        chaos,
        slo: SloConfig::for_admission(&admission),
        witness: WitnessConfig::on(),
        recorder: RecorderConfig::standard(),
    }
}

// ----- worker-side timing (traced runs only) -------------------------------

struct Exec {
    fingerprint: u64,
    epoch_seq: u64,
    heavy: bool,
    start: Instant,
    end: Instant,
}

static EXEC_LOG: Mutex<Vec<Exec>> = Mutex::new(Vec::new());

/// `run_serve_job`, with the time spent inside it logged. Used as the
/// pool's job function in traced runs only.
fn timed_serve_job(job: ServeJob) -> JobResult {
    let fingerprint = job.plan.fingerprint();
    let epoch_seq = job.epoch.seq;
    let heavy = job.plan.table == TableId::InstanceEvents;
    let start = Instant::now();
    let result = run_serve_job(job);
    let end = Instant::now();
    if let Ok(mut log) = EXEC_LOG.lock() {
        log.push(Exec {
            fingerprint,
            epoch_seq,
            heavy,
            start,
            end,
        });
    }
    result
}

// ----- the run -------------------------------------------------------------

/// Harness-side record of one query.
struct QueryRecord {
    client: usize,
    epoch: usize,
    plan: PlanSpec,
    submit: Instant,
    started: Option<Instant>,
    done_seen: Option<Instant>,
    terminal: Option<(Instant, Outcome)>,
    /// Submitted in a timed iteration (not the warm-up).
    timed: bool,
    /// Submitted while spans were being recorded; the value is the span group.
    span_group: Option<u64>,
}

impl QueryRecord {
    fn is_done(&self) -> bool {
        matches!(self.terminal, Some((_, Outcome::Done { .. })))
    }
}

/// The service, its pool and the clients: what one replay drives.
struct Loop {
    service: Service,
    pool: ServePool,
    clients: Clients,
    epochs: Vec<Arc<Epoch>>,
    shapes: Vec<EpochShape>,
    tiers_in_use: Vec<Tier>,
    scripts: Scripts,
    /// Rows of the traces the epochs were built from.
    trace_rows: usize,
    records: Vec<QueryRecord>,
    /// Served bytes of the sampled queries.
    samples: BTreeMap<u64, Option<Vec<u8>>>,
    outcomes_seen: usize,
    duplicate_terminals: u64,
    t0: Instant,
}

impl Loop {
    fn now_us(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_micros() as u64
    }

    /// Replays every client's script once, closed loop, and returns when
    /// the last query has reached a terminal outcome. Cold constants come
    /// from `rng`.
    fn replay(&mut self, rng: &mut SplitMix, timed: bool, span_group: Option<u64>) {
        let mut cursor = vec![0usize; self.scripts.per_client.len()];
        loop {
            let mut progressed = false;
            let now = Instant::now();
            self.service.on_tick(self.now_us(now));
            for client in self.clients.idle() {
                let Some(&slot) = self.scripts.per_client[client].get(cursor[client]) else {
                    continue;
                };
                cursor[client] += 1;
                let (epoch, plan) = match slot {
                    Slot::Hot(i) => self.scripts.hot[i].clone(),
                    Slot::Cold { epoch, kind } => (epoch, cold_plan(kind, self.shapes[epoch], rng)),
                };
                let id = self.clients.submit(client);
                if id.is_multiple_of(SAMPLE_EVERY) {
                    self.samples.insert(id, None);
                }
                self.records.push(QueryRecord {
                    client,
                    epoch,
                    plan: plan.clone(),
                    submit: now,
                    started: None,
                    done_seen: None,
                    terminal: None,
                    timed,
                    span_group: span_group.map(|g| g + id),
                });
                let request = QueryRequest {
                    id,
                    tier: self.tiers_in_use[client % self.tiers_in_use.len()],
                    epoch: self.epochs[epoch].name.clone(),
                    plan,
                };
                self.service.submit(self.now_us(now), request);
                progressed = true;
            }
            while let Some(Action::Start(att)) = self.service.next_action() {
                self.records[att.id as usize].started = Some(Instant::now());
                let accepted = self.pool.submit(
                    att.id,
                    ServeJob {
                        plan: att.plan,
                        epoch: att.epoch,
                        cancel: att.cancel,
                        fault: att.fault,
                    },
                );
                debug_assert!(accepted, "tier quotas sum to the pool size");
                progressed = true;
            }
            while let Some((id, result)) = self.pool.poll() {
                let seen = Instant::now();
                self.records[id as usize].done_seen = Some(seen);
                let r = match result {
                    JobResult::Done(bytes) => {
                        if let Some(sample) = self.samples.get_mut(&id) {
                            *sample = Some(bytes);
                        }
                        AttemptResult::Ok
                    }
                    JobResult::Cancelled => AttemptResult::Cancelled,
                    JobResult::Panicked => AttemptResult::Panicked,
                };
                self.service.on_attempt_done(self.now_us(seen), id, r);
                progressed = true;
            }
            let seen = Instant::now();
            for &(id, outcome) in &self.service.outcomes()[self.outcomes_seen..] {
                if self.clients.on_terminal(id).is_none() {
                    self.duplicate_terminals += 1;
                    continue;
                }
                self.records[id as usize].terminal = Some((seen, outcome));
                progressed = true;
            }
            self.outcomes_seen = self.service.outcomes().len();

            let scripts_done = cursor
                .iter()
                .zip(&self.scripts.per_client)
                .all(|(c, script)| *c == script.len());
            if scripts_done && self.clients.in_flight() == 0 {
                return;
            }
            if !progressed {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

impl Loop {
    /// Builds the epochs (the fleet's cell-day and one small paper cell),
    /// the service and the pool.
    fn build(b: &mut Bench) -> Loop {
        let sizes = b.sizes();
        let seed = b.opts.seed;
        let cores = host::cores();
        let profile = super::fleet_profile();
        let cfg = super::fleet_cfg(&profile, sizes.fleet_machines, sizes.cell_hours, seed);
        let fleet = CellSim::run_cell(&profile, &cfg);
        let small_profile = CellProfile::cell_2019('a');
        let small_cfg = super::paper_cfg(&sizes, seed);
        let small = CellSim::run_cell(&small_profile, &small_cfg);
        let epochs: Vec<Arc<Epoch>> = b.span("serve.epoch_build", |_| {
            vec![
                Arc::new(Epoch::from_trace("fleet", 0, &fleet.trace).expect("fleet epoch")),
                Arc::new(Epoch::from_trace("small", 1, &small.trace).expect("small epoch")),
            ]
        });
        let shapes = vec![
            EpochShape {
                machines: cfg.machine_count(&profile) as u64,
                horizon_us: cfg.horizon.as_micros(),
            },
            EpochShape {
                machines: small_cfg.machine_count(&small_profile) as u64,
                horizon_us: small_cfg.horizon.as_micros(),
            },
        ];

        let quotas = tier_quotas(cores);
        let tier = |workers: usize, deadline_us: u64| TierPolicy {
            workers,
            queue_cap: 64,
            // Generous: the workload is sized so that nothing expires.
            deadline_us,
            max_attempts: 1,
        };
        let admission = AdmissionConfig {
            tiers: [
                tier(quotas[0], 2_000_000),
                tier(quotas[1], 4_000_000),
                tier(quotas[2], 8_000_000),
            ],
            global_queue_cap: 128,
        };
        let mut service = Service::new(serve_config(admission, ChaosConfig::off(), seed));
        for e in &epochs {
            service.register_epoch(0, Arc::clone(e));
        }
        // Worker-side records of an earlier set-up belong to its queries.
        EXEC_LOG.lock().expect("exec log lock").clear();
        let job_fn: fn(ServeJob) -> JobResult = if b.opts.traced {
            timed_serve_job
        } else {
            run_serve_job
        };
        let n_clients = 2 * cores;
        Loop {
            service,
            pool: ServePool::new(cores, job_fn),
            clients: Clients::new(n_clients),
            scripts: Scripts::generate(seed, n_clients, epochs.len()),
            trace_rows: super::trace_rows(&fleet.trace) + super::trace_rows(&small.trace),
            epochs,
            shapes,
            tiers_in_use: Tier::ALL
                .into_iter()
                .filter(|t| quotas[t.index()] > 0)
                .collect(),
            records: Vec::new(),
            samples: BTreeMap::new(),
            outcomes_seen: 0,
            duplicate_terminals: 0,
            t0: Instant::now(),
        }
    }

    /// Output checks on the queries submitted since record `first`: each
    /// is one operation that fails unless it ended `Done`; each reached
    /// exactly one terminal outcome; the sampled ones served the bytes a
    /// direct `PlanSpec::execute` yields.
    fn account(&mut self, b: &mut Bench, first: usize) {
        let replayed = &self.records[first..];
        let not_done = replayed.iter().filter(|r| !r.is_done()).count();
        b.count_operations(replayed.len() as u64, not_done as u64);
        b.check(
            &format!(
                "every query reaches exactly one terminal outcome ({} submitted, {} terminal, {} in flight, {} duplicate)",
                self.clients.submitted(),
                self.clients.terminal(),
                self.clients.in_flight(),
                self.duplicate_terminals,
            ),
            self.clients.terminal() == self.clients.submitted()
                && self.clients.in_flight() == 0
                && self.duplicate_terminals == 0,
        );
        for (id, served) in std::mem::take(&mut self.samples) {
            let r = &self.records[id as usize];
            let direct = r
                .plan
                .execute(self.epochs[r.epoch].table(r.plan.table).clone(), None)
                .map(|t| table_bytes(&t));
            b.check(
                &format!("query {id}: served bytes equal PlanSpec::execute"),
                matches!((&direct, &served), (Ok(d), Some(s)) if d == s),
            );
        }
    }
}

pub fn run(b: &mut Bench) {
    let seed = b.opts.seed;
    let overload_queries = b.sizes().overload_queries;
    let mut replay_no = 0u64;
    // Submit to terminal outcome, done queries of the timed replays.
    let mut latencies_ms: Vec<f64> = Vec::new();
    let lp = b.run(Loop::build, |b, lp| {
        replay_no += 1;
        let mut rng = SplitMix::new(super::sub_seed(seed, replay_no));
        let timed = b.iteration().is_some();
        let span_group = b.tracer.recording.then_some(QUERY_GROUP);
        let first = lp.records.len();
        b.input_rows(lp.trace_rows, NOMINAL_ROWS);
        b.measure(|b| b.span("serve.replay", |_| lp.replay(&mut rng, timed, span_group)));
        lp.account(b, first);
        if timed {
            latencies_ms.extend(
                lp.records[first..]
                    .iter()
                    .filter(|r| r.is_done())
                    .filter_map(|r| r.terminal.map(|(t, _)| t.duration_since(r.submit)))
                    .map(|d| d.as_secs_f64() * 1e3),
            );
        }
    });
    let script_queries = lp.scripts.len();
    let Loop {
        epochs,
        records,
        pool,
        ..
    } = lp;
    drop(pool);

    let wall_s = b.wall_s();
    let tail = stats::highest_supported_tail(latencies_ms.len());
    println!(
        "serve_closed: {} clients, {} workers, {script_queries} queries per replay = {:.1} queries/s; latency p50 {:.3} ms, p95 {:.3} ms over {} queries (highest percentile with ten samples beyond: {})",
        2 * host::cores(),
        host::cores(),
        script_queries as f64 / wall_s.max(1e-9),
        stats::median(&latencies_ms),
        stats::percentile(&latencies_ms, 0.95),
        latencies_ms.len(),
        tail.map_or("none".to_string(), |p| format!("p{}", p * 100.0)),
    );

    if b.opts.traced {
        b.set(
            "serve.queries_per_s",
            script_queries as f64 / wall_s.max(1e-9),
        );
        b.set("serve.query_p50_ms", stats::median(&latencies_ms));
        b.set("serve.query_p95_ms", stats::percentile(&latencies_ms, 0.95));
        record_query_spans(b, &records, &epochs);
        overload_replay(b, &epochs[0], seed, overload_queries);
    }
}

/// Traced run: pairs worker-side execution records with queries (first
/// in, first out per plan and epoch — two queries with the same plan are
/// interchangeable), records one span tree per query of a traced replay,
/// and reports the per-layer medians over all timed queries.
fn record_query_spans(b: &mut Bench, records: &[QueryRecord], epochs: &[Arc<Epoch>]) {
    let mut execs: BTreeMap<(usize, u64), VecDeque<Exec>> = BTreeMap::new();
    let mut log = std::mem::take(&mut *EXEC_LOG.lock().expect("exec log lock"));
    log.sort_by_key(|e| e.start);
    for e in log {
        let epoch = epochs
            .iter()
            .position(|ep| ep.seq == e.epoch_seq)
            .unwrap_or(0);
        execs
            .entry((epoch, e.fingerprint))
            .or_default()
            .push_back(e);
    }
    let origin = Instant::now();
    let base = b.tracer.now_ns();
    // Instants before `origin` map onto the tracer's clock by their distance to it.
    let ns = |t: Instant| base.saturating_sub(origin.duration_since(t).as_nanos() as u64);

    let (mut queue_ms, mut handoff_us) = (Vec::new(), Vec::new());
    let (mut heavy_ms, mut light_ms) = (Vec::new(), Vec::new());
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].started);
    for i in order {
        let r = &records[i];
        let (Some(started), Some(done_seen), Some((terminal, _))) =
            (r.started, r.done_seen, r.terminal)
        else {
            continue;
        };
        let key = (r.epoch, r.plan.fingerprint());
        let Some(exec) = execs.get_mut(&key).and_then(VecDeque::pop_front) else {
            continue;
        };
        if !r.timed {
            continue;
        }
        let exec_ms = exec.end.duration_since(exec.start).as_secs_f64() * 1e3;
        if exec.heavy {
            &mut heavy_ms
        } else {
            &mut light_ms
        }
        .push(exec_ms);
        queue_ms.push(started.duration_since(r.submit).as_secs_f64() * 1e3);
        let handoff = exec.start.saturating_duration_since(started)
            + done_seen.saturating_duration_since(exec.end);
        handoff_us.push(handoff.as_secs_f64() * 1e6);

        let Some(group) = r.span_group else {
            continue;
        };
        let lane = r.client as u32 + 1;
        let span = |name, from: Instant, to: Instant, parent| Span {
            name,
            start_ns: ns(from),
            end_ns: ns(to).max(ns(from)),
            parent,
            group,
            lane,
        };
        let root = b
            .tracer
            .record(span("serve.query", r.submit, terminal, None));
        b.tracer
            .record(span("serve.queue_wait", r.submit, started, root));
        b.tracer
            .record(span("serve.handoff", started, exec.start, root));
        b.tracer
            .record(span("serve.exec", exec.start, exec.end, root));
        b.tracer
            .record(span("serve.handoff", exec.end, done_seen, root));
    }
    b.set("serve.exec_heavy_ms_p50", stats::median(&heavy_ms));
    b.set("serve.exec_light_ms_p50", stats::median(&light_ms));
    b.set("serve.queue_wait_ms_p50", stats::median(&queue_ms));
    b.set("serve.handoff_us_p50", stats::median(&handoff_us));
    println!(
        "serve_closed: {} heavy and {} light executions paired with their queries",
        heavy_ms.len(),
        light_ms.len()
    );
}

/// Traced run: the open-loop overload case on virtual time — `ServeSim`
/// in model mode at twice the saturating load with moderate chaos and the
/// overload admission profile. Virtual time makes the counts repeat
/// exactly; only `serve.service_us_per_query` is wall-clock. Checks that
/// prod is never shed and that a second run replays to the same digest.
fn overload_replay(b: &mut Bench, epoch: &Arc<Epoch>, seed: u64, queries: usize) {
    let admission = overload_admission();
    let chaos = ChaosConfig::moderate(seed);
    let cost = ModelCost::default();
    let cfg = serve_config(admission, chaos, seed);
    let arrivals = generate_arrivals(&WorkloadSpec {
        seed,
        queries,
        mean_gap_us: open_loop_gap_us(&admission, &cost, &chaos, 1.0, 2.0),
        tier_mix: [0.10, 0.40, 0.50],
        epochs: vec![epoch.name.clone()],
    });
    let sim = ServeSim::default();
    let t = Instant::now();
    let first = b.span("serve.overload_model", |_| {
        sim.run(cfg.clone(), std::slice::from_ref(epoch), &arrivals)
    });
    let secs = t.elapsed().as_secs_f64();
    let digest = first.digest();
    let prod_sheds = first.stats.sheds(Tier::Prod);
    let lower_sheds = first.stats.sheds(Tier::Batch) + first.stats.sheds(Tier::BestEffort);
    let outcomes = first.outcomes.len();
    drop(first);
    let replay = sim
        .run(cfg, std::slice::from_ref(epoch), &arrivals)
        .digest();
    b.check(
        &format!("overload run: {prod_sheds} prod shed(s)"),
        prod_sheds == 0,
    );
    b.check("overload run replays to the same digest", replay == digest);
    b.check(
        "overload run: one terminal outcome per query",
        outcomes == queries,
    );
    println!("digest serve.overload_log {digest:016x}");
    b.set("serve.service_us_per_query", secs * 1e6 / queries as f64);
    b.set("serve.prod_sheds", prod_sheds as f64);
    b.set("serve.lower_tier_sheds", lower_sheds as f64);
    // The low 32 bits: exact in the result line's floating-point value.
    b.set("serve.log_digest", (digest & 0xffff_ffff) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLEET: EpochShape = EpochShape {
        machines: 512,
        horizon_us: 86_400_000_000,
    };

    #[test]
    fn a_shed_query_frees_its_client() {
        let mut c = Clients::new(2);
        assert_eq!(c.idle(), vec![0, 1]);
        let q0 = c.submit(0);
        let q1 = c.submit(1);
        assert!(c.idle().is_empty());
        // q1 is shed on arrival: terminal without ever running.
        assert_eq!(c.on_terminal(q1), Some(1));
        assert_eq!(c.idle(), vec![1]);
        let q2 = c.submit(1);
        assert_ne!(q2, q1);
        assert_eq!(c.on_terminal(q0), Some(0));
        assert_eq!(
            c.on_terminal(q0),
            None,
            "a second terminal outcome is refused"
        );
        assert_eq!(c.on_terminal(99), None);
        assert_eq!((c.submitted(), c.terminal(), c.in_flight()), (3, 2, 1));
    }

    #[test]
    fn same_seed_same_scripts() {
        let a = Scripts::generate(2019, 4, 2);
        let b = Scripts::generate(2019, 4, 2);
        assert_eq!(a.per_client, b.per_client);
        assert_eq!(a.hot, b.hot);
        assert_eq!(a.hot.len(), 8);
        assert_eq!(a.len(), 4 * SCRIPT_LEN);
        let c = Scripts::generate(2020, 4, 2);
        assert_eq!(a.hot, c.hot, "the hot set does not depend on the seed");
        assert_ne!(a.per_client, c.per_client);
        // Another seed deals the same deck in another order.
        let sorted = |s: &Scripts| {
            let mut deck: Vec<String> = s
                .per_client
                .concat()
                .iter()
                .map(|s| format!("{s:?}"))
                .collect();
            deck.sort();
            deck
        };
        assert_eq!(sorted(&a), sorted(&c));
    }

    #[test]
    fn same_seed_same_cold_plans_and_fresh_ones_per_replay() {
        let draw = |seed| {
            let mut rng = SplitMix::new(seed);
            (0..200)
                .map(|i| cold_plan(i % COLD_KINDS, FLEET, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        // Two replays share almost no cold plan, and one replay's cold
        // plans alone outnumber the 64-entry result cache.
        let prints = |seed| {
            draw(seed)
                .iter()
                .map(PlanSpec::fingerprint)
                .collect::<std::collections::BTreeSet<u64>>()
        };
        let (first, second) = (prints(1), prints(2));
        assert!(first.len() > 64);
        assert!(first.intersection(&second).count() < first.len() / 10);
    }

    #[test]
    fn scripts_mix_hot_and_cold_heavy_and_light() {
        let s = Scripts::generate(7, 4, 2);
        let slots: Vec<Slot> = s.per_client.concat();
        let hot = slots.iter().filter(|s| matches!(s, Slot::Hot(_))).count();
        assert_eq!(hot, slots.len() * 3 / 5);
        assert!(slots
            .iter()
            .any(|s| matches!(s, Slot::Cold { kind: 0 | 1, .. })));
        assert!(slots
            .iter()
            .any(|s| matches!(s, Slot::Cold { kind: 2.., .. })));
    }

    #[test]
    fn quotas_sum_to_the_pool() {
        assert_eq!(tier_quotas(1), [1, 0, 0]);
        assert_eq!(tier_quotas(2), [1, 1, 0]);
        assert_eq!(tier_quotas(3), [1, 1, 1]);
        assert_eq!(tier_quotas(4), [2, 1, 1]);
        for n in 1..64 {
            assert_eq!(tier_quotas(n).iter().sum::<usize>(), n);
            assert!(tier_quotas(n)[0] >= 1);
        }
    }
}
