//! The sans-io service state machine: admission, deadlines, retries,
//! breakers — with no threads, no clock, and no execution inside.
//!
//! [`Service`] makes every *decision* (admit / queue / displace / shed /
//! dispatch / retry / expire) but performs no *work*: callers pass in
//! the current time, feed results back, and drain [`Action`]s telling
//! them which attempt to start. Two drivers exist:
//!
//! * [`crate::sim::ServeSim`] — virtual time plus a block-granular cost
//!   model; runs thousands of simulated seconds in milliseconds and is
//!   the surface for the determinism and overload contracts.
//! * [`crate::smoke::run_smoke`] — the blessed wall clock plus a real
//!   [`crate::pool::ServePool`]; proves the same state machine behaves
//!   under real threads, real stalls, and real panics.
//!
//! Because every decision is a pure function of (config, submitted
//! requests, fed-back results, time values), the event log —
//! [`Service::log_bytes`] — is byte-identical across runs given the
//! same virtual-time driver and seed. That is the determinism surface
//! the robustness tests pin.
//!
//! Ordering rules that keep the log deterministic: all keyed state
//! lives in `BTreeMap`s (no hash-order iteration, borg-lint D1), timers
//! tie-break on a monotone sequence number, and queues are scanned in
//! tier-priority order.

use crate::breaker::CircuitBreaker;
use crate::chaos::{ChaosConfig, Fault};
use crate::epoch::Epoch;
use crate::plan::PlanSpec;
use crate::recorder::{FlightRecorder, RecorderConfig, TriggerKind};
use crate::retry::RetryPolicy;
use crate::slo::{SloConfig, SloEngine};
use crate::tier::{AdmissionConfig, Tier};
use crate::witness::{mint_trace_id, Witness, WitnessConfig};
use borg_query::CancelToken;
use borg_telemetry::Histogram;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

/// A query submitted to the service.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Caller-assigned unique id (the workload generator numbers
    /// arrivals sequentially).
    pub id: u64,
    /// Priority class.
    pub tier: Tier,
    /// Target epoch name (must be registered).
    pub epoch: String,
    /// The query to run.
    pub plan: PlanSpec,
}

/// Why a request was shed without completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Its tier queue (or the global queue) was full.
    QueueFull,
    /// A higher-tier arrival displaced it from the queue.
    Displaced,
    /// Its epoch's circuit breaker was open.
    BreakerOpen,
    /// Its epoch name was never registered.
    NoEpoch,
}

impl ShedReason {
    /// Stable log token.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Displaced => "displaced",
            ShedReason::BreakerOpen => "breaker_open",
            ShedReason::NoEpoch => "no_epoch",
        }
    }
}

/// Terminal state of a submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed within deadline.
    Done {
        /// Submission-to-completion latency, µs.
        latency_us: u64,
        /// Execution attempts used.
        attempts: u32,
    },
    /// Deadline passed (queued or mid-execution via cancellation).
    Expired {
        /// Submission-to-expiry latency, µs.
        latency_us: u64,
        /// Execution attempts started before expiry.
        attempts: u32,
    },
    /// Rejected without execution.
    Shed {
        /// Why.
        reason: ShedReason,
    },
    /// Every allowed attempt panicked.
    Failed {
        /// Execution attempts used.
        attempts: u32,
    },
}

/// One execution attempt the driver must start.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Query id.
    pub id: u64,
    /// 0-based attempt number.
    pub attempt: u32,
    /// Priority class (drivers route to per-tier capacity).
    pub tier: Tier,
    /// The epoch to query.
    pub epoch: Arc<Epoch>,
    /// The plan to run.
    pub plan: PlanSpec,
    /// Absolute deadline, µs.
    pub deadline_us: u64,
    /// Chaos fault injected into this attempt (pure in (seed, id,
    /// attempt); see [`ChaosConfig::fault_for`]).
    pub fault: Fault,
    /// Cooperative cancellation token; the service cancels it when the
    /// deadline passes, the executor threads it into the query engine.
    pub cancel: CancelToken,
}

/// Instructions drained by the driver via [`Service::next_action`].
#[derive(Debug, Clone)]
pub enum Action {
    /// Start executing this attempt.
    Start(Attempt),
}

/// How an execution attempt ended, fed back via
/// [`Service::on_attempt_done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptResult {
    /// The query completed and produced a result.
    Ok,
    /// The engine observed the cancelled token (deadline exceeded).
    Cancelled,
    /// The worker panicked mid-query.
    Panicked,
}

/// Full service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Tier quotas, queue bounds, deadlines, retry budgets.
    pub admission: AdmissionConfig,
    /// Backoff policy for retrying panicked attempts.
    pub retry: RetryPolicy,
    /// Consecutive failures before an epoch's breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before half-opening, µs.
    pub breaker_cooloff_us: u64,
    /// Fault injection (off for production-equivalence runs).
    pub chaos: ChaosConfig,
    /// Per-tier SLO objectives and burn-rate alerting.
    pub slo: SloConfig,
    /// Request-scoped tracing (borg-witness).
    pub witness: WitnessConfig,
    /// Anomaly flight recorder.
    pub recorder: RecorderConfig,
}

impl ServeConfig {
    /// Small test profile with chaos off; observability on, with SLO
    /// objectives derived from the admission deadlines.
    pub fn small(seed: u64) -> ServeConfig {
        let admission = AdmissionConfig::small();
        ServeConfig {
            admission,
            retry: RetryPolicy::default_with_seed(seed),
            breaker_threshold: 5,
            breaker_cooloff_us: 50_000,
            chaos: ChaosConfig::off(),
            slo: SloConfig::for_admission(&admission),
            witness: WitnessConfig::on(),
            recorder: RecorderConfig::standard(),
        }
    }
}

/// Tallies the service keeps per tier, read by the run reports.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Requests submitted.
    pub submitted: [u64; 3],
    /// Requests completed in deadline.
    pub done: [u64; 3],
    /// Requests expired (queued or mid-run).
    pub expired: [u64; 3],
    /// Requests shed, by reason.
    pub shed_queue_full: [u64; 3],
    /// Displaced from the queue by higher-tier arrivals.
    pub shed_displaced: [u64; 3],
    /// Rejected by an open breaker.
    pub shed_breaker: [u64; 3],
    /// Requests that exhausted their retry budget.
    pub failed: [u64; 3],
    /// Retry attempts scheduled.
    pub retries: [u64; 3],
    /// Completion-latency histograms (µs) of done requests.
    pub latency_us: [Histogram; 3],
}

impl ServiceStats {
    /// Total sheds for a tier.
    pub fn sheds(&self, t: Tier) -> u64 {
        let i = t.index();
        self.shed_queue_full[i] + self.shed_displaced[i] + self.shed_breaker[i]
    }

    /// The `q`-quantile completion latency for a tier (exact
    /// nearest-rank over the histogram's integer counts; 0 when none;
    /// resolution is the power-of-two bucket width).
    pub fn latency_quantile_us(&self, t: Tier, q: f64) -> u64 {
        self.latency_us[t.index()].quantile(q)
    }
}

/// Per-query bookkeeping while the query is live.
#[derive(Debug)]
struct QueryState {
    tier: Tier,
    epoch: String,
    plan: PlanSpec,
    submitted_at: u64,
    deadline_us: u64,
    attempts_done: u32,
}

/// See the module docs.
pub struct Service {
    cfg: ServeConfig,
    /// Registered epochs: name → (epoch, ready_at µs).
    epochs: BTreeMap<String, (Arc<Epoch>, u64)>,
    breakers: BTreeMap<String, CircuitBreaker>,
    /// Live queries (queued, running, or awaiting retry).
    queries: BTreeMap<u64, QueryState>,
    /// Per-tier FIFO admission queues of query ids.
    queues: [VecDeque<u64>; 3],
    /// Running attempt count per tier.
    running: [usize; 3],
    /// Running attempts: id → (deadline, token) for deadline cancels.
    running_tokens: BTreeMap<u64, (u64, CancelToken)>,
    /// Retry timers: (fire_at, seq, query id).
    timers: BinaryHeap<Reverse<(u64, u64, u64)>>,
    timer_seq: u64,
    actions: VecDeque<Action>,
    outcomes: Vec<(u64, Outcome)>,
    log: Vec<String>,
    stats: ServiceStats,
    breaker_trips: u64,
    /// Request-scoped tracing (span trees, exemplars).
    witness: Witness,
    /// Per-tier burn-rate evaluation over terminal outcomes.
    slo: SloEngine,
    /// Bounded ring of recent log lines, frozen on anomalies.
    recorder: FlightRecorder,
}

impl Service {
    /// A service with no epochs registered yet.
    pub fn new(cfg: ServeConfig) -> Service {
        let witness = Witness::new(cfg.witness);
        let slo = SloEngine::new(cfg.slo);
        let recorder = FlightRecorder::new(cfg.recorder);
        Service {
            cfg,
            epochs: BTreeMap::new(),
            breakers: BTreeMap::new(),
            queries: BTreeMap::new(),
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            running: [0; 3],
            running_tokens: BTreeMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            actions: VecDeque::new(),
            outcomes: Vec::new(),
            log: Vec::new(),
            stats: ServiceStats::default(),
            breaker_trips: 0,
            witness,
            slo,
            recorder,
        }
    }

    /// Appends one event-log line, mirroring it into the flight
    /// recorder's ring.
    fn push_log(&mut self, line: String) {
        self.recorder.push(&line);
        self.log.push(line);
    }

    /// Feeds one terminal outcome to the SLO engine; a fired burn-rate
    /// alert also trips the flight recorder.
    fn slo_event(&mut self, now_us: u64, t: Tier, good: bool) {
        if self.slo.on_event(now_us, t, good) {
            self.recorder.trigger(now_us, TriggerKind::BurnRate);
        }
    }

    /// Registers (or replaces) an epoch. Under chaos, the epoch only
    /// becomes dispatchable `slow_epoch_us` later (the slow-load
    /// fault); queries targeting it queue until then.
    pub fn register_epoch(&mut self, now_us: u64, epoch: Arc<Epoch>) {
        let ready_at = if self.cfg.chaos.enabled {
            now_us + self.cfg.chaos.slow_epoch_us
        } else {
            now_us
        };
        self.push_log(format!(
            "{now_us} e {} {} {ready_at}",
            epoch.name, epoch.seq
        ));
        self.breakers.entry(epoch.name.clone()).or_insert_with(|| {
            CircuitBreaker::new(self.cfg.breaker_threshold, self.cfg.breaker_cooloff_us)
        });
        self.epochs.insert(epoch.name.clone(), (epoch, ready_at));
    }

    /// Submits one request; the admission decision happens immediately.
    pub fn submit(&mut self, now_us: u64, req: QueryRequest) {
        let t = req.tier;
        self.stats.submitted[t.index()] += 1;
        self.push_log(format!(
            "{now_us} a {} {} {} {:x}",
            req.id,
            t.name(),
            req.epoch,
            req.plan.fingerprint()
        ));
        let trace_id = mint_trace_id(req.id, t, &req.epoch, req.plan.fingerprint());
        self.witness.on_submit(now_us, req.id, t, trace_id);
        if !self.epochs.contains_key(&req.epoch) {
            self.shed(now_us, req.id, t, ShedReason::NoEpoch);
            return;
        }
        let deadline_us = now_us + self.cfg.admission.tier(t).deadline_us;
        self.queries.insert(
            req.id,
            QueryState {
                tier: t,
                epoch: req.epoch,
                plan: req.plan,
                submitted_at: now_us,
                deadline_us,
                attempts_done: 0,
            },
        );
        self.admit(now_us, req.id);
    }

    /// Admission for a new or retrying query id (state must exist).
    fn admit(&mut self, now_us: u64, id: u64) {
        let Some(qs) = self.queries.get(&id) else {
            return;
        };
        let t = qs.tier;
        let epoch = qs.epoch.clone();
        let is_retry = qs.attempts_done > 0;
        // A retry can fire after its deadline already passed (backoff
        // pushed it over); expire it instead of burning a worker.
        if now_us >= qs.deadline_us {
            let latency = now_us.saturating_sub(qs.submitted_at);
            let attempts = qs.attempts_done;
            self.queries.remove(&id);
            self.expire(now_us, id, t, latency, attempts);
            return;
        }
        // Breaker gate, non-prod only: prod's protection is its retry
        // budget; the sheddable tiers are the ones the breaker sheds.
        if t != Tier::Prod {
            if let Some(b) = self.breakers.get(&epoch) {
                if !b.allows(now_us) {
                    self.queries.remove(&id);
                    self.shed(now_us, id, t, ShedReason::BreakerOpen);
                    return;
                }
            }
        }
        if self.running[t.index()] < self.cfg.admission.tier(t).workers
            && self.epoch_ready(now_us, &epoch)
        {
            self.start(now_us, id);
            return;
        }
        // Retries re-enter at the front of their tier queue, exempt
        // from the caps: the request already held a slot once.
        if is_retry {
            self.queues[t.index()].push_front(id);
            return;
        }
        let policy = *self.cfg.admission.tier(t);
        if self.queues[t.index()].len() >= policy.queue_cap {
            self.queries.remove(&id);
            self.shed(now_us, id, t, ShedReason::QueueFull);
            return;
        }
        if self.total_queued() >= self.cfg.admission.global_queue_cap {
            // Displace the youngest queued request from the lowest
            // strictly-lower tier; if none exists, shed the arrival.
            let victim = Tier::ALL
                .iter()
                .rev()
                .filter(|v| **v > t)
                .find_map(|v| self.queues[v.index()].pop_back().map(|vid| (*v, vid)));
            match victim {
                Some((vt, vid)) => {
                    self.queries.remove(&vid);
                    self.shed(now_us, vid, vt, ShedReason::Displaced);
                }
                None => {
                    self.queries.remove(&id);
                    self.shed(now_us, id, t, ShedReason::QueueFull);
                    return;
                }
            }
        }
        self.queues[t.index()].push_back(id);
    }

    fn epoch_ready(&self, now_us: u64, name: &str) -> bool {
        self.epochs
            .get(name)
            .is_some_and(|(_, ready)| now_us >= *ready)
    }

    fn total_queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Starts an execution attempt (capacity already reserved).
    fn start(&mut self, now_us: u64, id: u64) {
        let Some(qs) = self.queries.get(&id) else {
            return;
        };
        let t = qs.tier;
        let attempt = qs.attempts_done;
        let Some((epoch, _)) = self.epochs.get(&qs.epoch) else {
            return;
        };
        let fault = self.cfg.chaos.fault_for(id, attempt);
        let cancel = CancelToken::new();
        self.running[t.index()] += 1;
        let deadline_us = qs.deadline_us;
        let plan = qs.plan.clone();
        let epoch = Arc::clone(epoch);
        self.running_tokens
            .insert(id, (deadline_us, cancel.clone()));
        self.push_log(format!("{now_us} d {id} {attempt}"));
        self.witness.on_start(now_us, id, attempt, fault.stall_us);
        self.actions.push_back(Action::Start(Attempt {
            id,
            attempt,
            tier: t,
            epoch,
            plan,
            deadline_us,
            fault,
            cancel,
        }));
    }

    /// Feeds back the result of a started attempt.
    pub fn on_attempt_done(&mut self, now_us: u64, id: u64, result: AttemptResult) {
        let Some((_, token)) = self.running_tokens.remove(&id) else {
            return;
        };
        let Some(qs) = self.queries.get_mut(&id) else {
            return;
        };
        let t = qs.tier;
        self.running[t.index()] -= 1;
        qs.attempts_done += 1;
        let attempts = qs.attempts_done;
        let latency_us = now_us.saturating_sub(qs.submitted_at);
        let epoch = qs.epoch.clone();
        // Blocks the engine (or the cost model) attributed to this
        // attempt via the cancellation token.
        let blocks = token.blocks_scanned();
        self.witness
            .on_attempt_end(now_us, id, result == AttemptResult::Cancelled, blocks);
        match result {
            AttemptResult::Ok => {
                let closed = self
                    .breakers
                    .get_mut(&epoch)
                    .is_some_and(CircuitBreaker::record_success);
                if closed {
                    self.push_log(format!("{now_us} b {epoch} close"));
                }
                self.queries.remove(&id);
                self.stats.done[t.index()] += 1;
                self.stats.latency_us[t.index()].record(latency_us);
                self.push_log(format!("{now_us} c {id} {attempts} {latency_us}"));
                if let Some(trace_id) = self.witness.trace(id).map(|tr| tr.trace_id) {
                    self.witness.note_done(t, latency_us, trace_id);
                }
                self.witness.on_terminal(now_us, id, "done");
                let good = self.slo.is_good_latency(t, latency_us);
                self.slo_event(now_us, t, good);
                self.outcomes.push((
                    id,
                    Outcome::Done {
                        latency_us,
                        attempts,
                    },
                ));
            }
            AttemptResult::Cancelled => {
                // Deadline exceeded mid-run; retrying cannot help.
                self.queries.remove(&id);
                self.expire(now_us, id, t, latency_us, attempts);
            }
            AttemptResult::Panicked => {
                self.push_log(format!("{now_us} f {id} {}", attempts - 1));
                let tripped = self
                    .breakers
                    .get_mut(&epoch)
                    .is_some_and(|b| b.record_failure(now_us));
                if tripped {
                    self.breaker_trips += 1;
                    self.push_log(format!("{now_us} b {epoch} open"));
                    self.recorder.trigger(now_us, TriggerKind::BreakerOpen);
                }
                let max_attempts = self.cfg.admission.tier(t).max_attempts;
                if attempts < max_attempts {
                    let backoff = self.cfg.retry.backoff_us(id, attempts - 1);
                    let at = now_us + backoff;
                    self.stats.retries[t.index()] += 1;
                    self.timer_seq += 1;
                    self.timers.push(Reverse((at, self.timer_seq, id)));
                    self.push_log(format!("{now_us} r {id} {attempts} {at}"));
                    self.witness.on_retry(now_us, id, attempts);
                } else {
                    self.queries.remove(&id);
                    self.stats.failed[t.index()] += 1;
                    self.push_log(format!("{now_us} g {id} {attempts}"));
                    self.witness.on_terminal(now_us, id, "failed");
                    self.slo_event(now_us, t, false);
                    self.outcomes.push((id, Outcome::Failed { attempts }));
                }
            }
        }
        self.promote(now_us);
    }

    /// Advances time-driven state: fires due retry timers, expires
    /// overdue queued requests, cancels overdue running attempts, and
    /// fills freed capacity from the queues.
    pub fn on_tick(&mut self, now_us: u64) {
        while let Some(Reverse((at, _, _))) = self.timers.peek() {
            if *at > now_us {
                break;
            }
            // lint: library-panic-ok (peek above proved non-empty) unwind-across-pool-ok (serve pool worker contains unwinds via catch_unwind)
            let Reverse((_, _, id)) = self.timers.pop().expect("peeked timer");
            if self.queries.contains_key(&id) {
                self.admit(now_us, id);
            }
        }
        // Expire queued requests whose deadline passed, tier order.
        for t in Tier::ALL {
            let mut i = 0;
            while i < self.queues[t.index()].len() {
                let id = self.queues[t.index()][i];
                let overdue = self
                    .queries
                    .get(&id)
                    .is_some_and(|qs| now_us >= qs.deadline_us);
                if overdue {
                    self.queues[t.index()].remove(i);
                    let qs = self.queries.remove(&id);
                    let (latency, attempts) = qs
                        .map(|q| (now_us.saturating_sub(q.submitted_at), q.attempts_done))
                        .unwrap_or((0, 0));
                    self.expire(now_us, id, t, latency, attempts);
                } else {
                    i += 1;
                }
            }
        }
        // Cancel overdue running attempts: the executor observes the
        // token at its next block boundary and reports Cancelled.
        for (deadline, token) in self.running_tokens.values() {
            if now_us >= *deadline {
                token.cancel();
            }
        }
        self.promote(now_us);
    }

    /// Fills free per-tier capacity from the queues (priority order).
    fn promote(&mut self, now_us: u64) {
        for t in Tier::ALL {
            while self.running[t.index()] < self.cfg.admission.tier(t).workers {
                let Some(&id) = self.queues[t.index()].front() else {
                    break;
                };
                let ready = self
                    .queries
                    .get(&id)
                    .map(|qs| qs.epoch.clone())
                    .is_some_and(|e| self.epoch_ready(now_us, &e));
                if !ready {
                    // Head-of-line wait for the slow epoch load.
                    break;
                }
                self.queues[t.index()].pop_front();
                self.start(now_us, id);
            }
        }
    }

    fn shed(&mut self, now_us: u64, id: u64, t: Tier, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull | ShedReason::NoEpoch => {
                self.stats.shed_queue_full[t.index()] += 1
            }
            ShedReason::Displaced => self.stats.shed_displaced[t.index()] += 1,
            ShedReason::BreakerOpen => self.stats.shed_breaker[t.index()] += 1,
        }
        self.push_log(format!("{now_us} s {id} {}", reason.name()));
        self.witness.on_terminal(now_us, id, reason.name());
        self.recorder.note_shed(now_us);
        self.slo_event(now_us, t, false);
        self.outcomes.push((id, Outcome::Shed { reason }));
    }

    fn expire(&mut self, now_us: u64, id: u64, t: Tier, latency_us: u64, attempts: u32) {
        self.stats.expired[t.index()] += 1;
        self.push_log(format!("{now_us} x {id} {attempts}"));
        self.witness.on_terminal(now_us, id, "expired");
        if t == Tier::Prod {
            self.recorder.trigger(now_us, TriggerKind::ProdDeadlineMiss);
        }
        self.slo_event(now_us, t, false);
        self.outcomes.push((
            id,
            Outcome::Expired {
                latency_us,
                attempts,
            },
        ));
    }

    /// Next instruction for the driver, if any.
    pub fn next_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    /// Earliest time strictly after `now_us` at which
    /// [`Service::on_tick`] has work: a retry timer, a queued or
    /// running deadline, or a slow epoch becoming ready. Anything due
    /// at or before `now_us` is assumed already handled by the tick the
    /// caller just ran.
    pub fn next_wake(&self, now_us: u64) -> Option<u64> {
        let mut wake: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now_us {
                wake = Some(wake.map_or(t, |w| w.min(t)));
            }
        };
        if let Some(Reverse((at, _, _))) = self.timers.peek() {
            consider(*at);
        }
        for q in &self.queues {
            for id in q {
                if let Some(qs) = self.queries.get(id) {
                    consider(qs.deadline_us);
                }
            }
        }
        for (deadline, _) in self.running_tokens.values() {
            consider(*deadline);
        }
        for (_, ready) in self.epochs.values() {
            consider(*ready);
        }
        wake
    }

    /// True when nothing is queued, running, or awaiting retry.
    pub fn is_idle(&self) -> bool {
        self.running_tokens.is_empty()
            && self.timers.is_empty()
            && self.total_queued() == 0
            && self.actions.is_empty()
    }

    /// Terminal outcomes in decision order.
    pub fn outcomes(&self) -> &[(u64, Outcome)] {
        &self.outcomes
    }

    /// The event log as canonical bytes — the determinism surface:
    /// byte-identical across runs for the same config, seed, and
    /// virtual-time driver.
    pub fn log_bytes(&self) -> Vec<u8> {
        let mut out = self.log.join("\n").into_bytes();
        out.push(b'\n');
        out
    }

    /// Accumulated per-tier tallies.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Times any epoch breaker tripped open.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips
    }

    /// The request-scoped trace collection (span trees, exemplars).
    pub fn witness(&self) -> &Witness {
        &self.witness
    }

    /// Moves the witness out for a report, leaving a disabled one
    /// behind (avoids cloning every span tree at end of run).
    pub fn take_witness(&mut self) -> Witness {
        std::mem::replace(&mut self.witness, Witness::new(WitnessConfig::off()))
    }

    /// The SLO engine (burn rates, budgets, alert log).
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// The anomaly flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The SLO alert log as canonical bytes (see
    /// [`SloEngine::alert_bytes`]).
    pub fn alert_bytes(&self) -> Vec<u8> {
        self.slo.alert_bytes()
    }
}
