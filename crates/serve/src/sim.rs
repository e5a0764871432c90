//! Virtual-time driver: open-loop arrivals, a block-granular cost
//! model, and replayable overload experiments.
//!
//! [`ServeSim`] drives a [`Service`] entirely in virtual microseconds:
//! arrivals are pre-generated from a seed (open-loop — the arrival
//! process never slows down because the service is struggling, which is
//! what makes overload *overload*), and each dispatched attempt's
//! completion is computed from a cost model instead of a wall clock.
//! The result is an overload experiment that runs thousands of
//! simulated seconds in milliseconds and is byte-replayable: same seed,
//! same config → identical event log, identical shed/retry/breaker
//! sequences.
//!
//! With [`ExecMode::Inline`] the sim *also* executes each completed
//! query for real (through the single-flight result cache) at its
//! virtual completion instant — the bridge that lets the equivalence
//! test assert served bytes are identical to direct library calls.

use crate::epoch::Epoch;
use crate::epoch::TableId;
use crate::plan::{table_bytes, AggSpec, CmpOp, FilterSpec, GroupSpec, PlanSpec};
use crate::service::{
    Action, AttemptResult, Outcome, QueryRequest, ServeConfig, Service, ServiceStats,
};
use crate::slo::SloBudget;
use crate::tier::{AdmissionConfig, Tier, TierPolicy};
use crate::witness::Witness;
use borg_query::cache::ResultCache;
use borg_query::fxhash::FxHasher;
use borg_query::CacheStats;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hash::Hasher;
use std::sync::Arc;

/// How the sim realizes a completed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Timing only: outcomes are decided by the cost model, no query
    /// actually runs. The mode for overload sweeps.
    Model,
    /// Timing from the cost model, plus real execution (through the
    /// result cache) for every completion. The mode for equivalence
    /// proofs.
    Inline,
}

/// Virtual execution-cost model, in µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCost {
    /// Fixed per-attempt setup cost.
    pub overhead_us: u64,
    /// Cost per 64 Ki-row engine block; also the granularity at which
    /// cooperative cancellation is observed.
    pub block_us: u64,
}

impl Default for ModelCost {
    fn default() -> ModelCost {
        ModelCost {
            overhead_us: 200,
            block_us: 1_000,
        }
    }
}

/// Open-loop workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Seed for gaps, tiers, and plan choices.
    pub seed: u64,
    /// Total queries to generate.
    pub queries: usize,
    /// Mean exponential inter-arrival gap, µs.
    pub mean_gap_us: f64,
    /// Tier weights `[prod, batch, best_effort]` (normalized).
    pub tier_mix: [f64; 3],
    /// Epoch names to target (cycled by seeded draw).
    pub epochs: Vec<String>,
}

/// A small family of representative plans the workload draws from:
/// scans, filters, and group-bys over all four trace tables.
pub fn plan_catalog() -> Vec<PlanSpec> {
    let mut plans = vec![
        PlanSpec::scan(TableId::MachineEvents),
        PlanSpec {
            table: TableId::InstanceEvents,
            filter: Some(FilterSpec {
                column: "priority".into(),
                op: CmpOp::Ge,
                value: 103,
            }),
            group: Some(GroupSpec {
                keys: vec!["tier".into()],
                agg: AggSpec::CountAll,
            }),
            sort: Some(("n".into(), true)),
            limit: None,
        },
        PlanSpec {
            table: TableId::CollectionEvents,
            filter: None,
            group: Some(GroupSpec {
                keys: vec!["event".into()],
                agg: AggSpec::CountAll,
            }),
            sort: Some(("n".into(), true)),
            limit: Some(16),
        },
        PlanSpec {
            table: TableId::Usage,
            filter: Some(FilterSpec {
                column: "start".into(),
                op: CmpOp::Ge,
                value: 0,
            }),
            group: Some(GroupSpec {
                keys: vec!["machine_id".into()],
                agg: AggSpec::Max("avg_cpu".into()),
            }),
            sort: Some(("peak".into(), true)),
            limit: Some(32),
        },
    ];
    // A cheap point-lookup-ish plan to give the cache hits.
    plans.push(PlanSpec {
        table: TableId::MachineEvents,
        filter: Some(FilterSpec {
            column: "machine_id".into(),
            op: CmpOp::Le,
            value: 4,
        }),
        group: None,
        sort: None,
        limit: Some(8),
    });
    plans
}

/// Generates the open-loop arrival schedule: `(arrival µs, request)`
/// pairs in nondecreasing time order, ids sequential from 0. Pure in
/// `spec.seed`.
pub fn generate_arrivals(spec: &WorkloadSpec) -> Vec<(u64, QueryRequest)> {
    let catalog = plan_catalog();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let total: f64 = spec.tier_mix.iter().sum();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(spec.queries);
    for id in 0..spec.queries as u64 {
        let u: f64 = rng.random();
        t += -spec.mean_gap_us * (1.0 - u).ln();
        let r: f64 = rng.random::<f64>() * total;
        let tier = if r < spec.tier_mix[0] {
            Tier::Prod
        } else if r < spec.tier_mix[0] + spec.tier_mix[1] {
            Tier::Batch
        } else {
            Tier::BestEffort
        };
        let plan = catalog[(rng.random::<u64>() % catalog.len() as u64) as usize].clone();
        let epoch = spec.epochs[(rng.random::<u64>() % spec.epochs.len() as u64) as usize].clone();
        out.push((
            t as u64,
            QueryRequest {
                id,
                tier,
                epoch,
                plan,
            },
        ));
    }
    out
}

/// Everything a sim run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Per-tier tallies.
    pub stats: ServiceStats,
    /// Terminal outcome per query id, decision order.
    pub outcomes: Vec<(u64, Outcome)>,
    /// Canonical event-log bytes (the determinism surface).
    pub log: Vec<u8>,
    /// Rendered result bytes per completed id ([`ExecMode::Inline`]
    /// only; empty in model mode).
    pub results: BTreeMap<u64, Vec<u8>>,
    /// Result-cache tallies (inline mode).
    pub cache: CacheStats,
    /// Times any epoch breaker tripped open.
    pub breaker_trips: u64,
    /// Final virtual time, µs.
    pub horizon_us: u64,
    /// The full trace collection (span trees, exemplars).
    pub witness: Witness,
    /// SLO alert/resolve lines, time order (deterministic).
    pub alerts: Vec<String>,
    /// Flight-recorder dump bytes (deterministic).
    pub recorder_dump: Vec<u8>,
    /// Cumulative per-tier error-budget ledgers.
    pub budgets: [SloBudget; 3],
}

impl SimReport {
    /// Canonical witness export bytes (byte-identity surface).
    /// Rendered on demand so the timed run doesn't pay for it.
    pub fn trace_export(&self) -> Vec<u8> {
        self.witness.export_bytes()
    }

    /// Sorted ids whose outcome matches `f`.
    pub fn ids_where(&self, f: impl Fn(&Outcome) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .outcomes
            .iter()
            .filter(|(_, o)| f(o))
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    /// FxHash digest of the event log, for compact comparison.
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write(&self.log);
        h.finish()
    }
}

/// The virtual-time driver. See the module docs.
pub struct ServeSim {
    /// Execution mode.
    pub exec: ExecMode,
    /// Cost model.
    pub cost: ModelCost,
    /// Result-cache capacity (inline mode).
    pub cache_capacity: usize,
}

impl Default for ServeSim {
    fn default() -> ServeSim {
        ServeSim {
            exec: ExecMode::Model,
            cost: ModelCost::default(),
            cache_capacity: 64,
        }
    }
}

/// Kinds of completion the cost model can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ModelEnd {
    Ok,
    Cancelled,
    Panicked,
}

impl ServeSim {
    /// Runs `arrivals` against a fresh [`Service`] built from `cfg`,
    /// with `epochs` registered at t=0. Returns when every query has a
    /// terminal outcome.
    pub fn run(
        &self,
        cfg: ServeConfig,
        epochs: &[Arc<Epoch>],
        arrivals: &[(u64, QueryRequest)],
    ) -> SimReport {
        let mut service = Service::new(cfg);
        for e in epochs {
            service.register_epoch(0, Arc::clone(e));
        }
        let cache = ResultCache::new(self.cache_capacity.max(1));
        let mut results: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        // (finish_at, seq, id, kind, attempt's epoch+plan for inline).
        let mut completions: BinaryHeap<Reverse<(u64, u64, u64, ModelEnd)>> = BinaryHeap::new();
        let mut pending_exec: BTreeMap<u64, (Arc<Epoch>, PlanSpec)> = BTreeMap::new();
        let mut comp_seq = 0u64;
        let mut ai = 0usize;
        let mut now = 0u64;
        loop {
            // Fixed point at `now`: tick, admit due arrivals, schedule
            // completions for newly started attempts, deliver due
            // completions (which can free capacity and start more
            // attempts), until nothing due at `now` remains.
            service.on_tick(now);
            while arrivals.get(ai).is_some_and(|(at, _)| *at <= now) {
                let (_, req) = &arrivals[ai];
                service.submit(now, req.clone());
                ai += 1;
            }
            loop {
                let mut progressed = false;
                while let Some(Action::Start(att)) = service.next_action() {
                    progressed = true;
                    let blocks = att.plan.cost_blocks(att.epoch.rows(att.plan.table));
                    let mut t = now + self.cost.overhead_us + att.fault.stall_us;
                    let end = if att.fault.panics {
                        // The panic fires one block into execution,
                        // before that block completes (mirrors the real
                        // worker panicking before its scan).
                        t += self.cost.block_us;
                        ModelEnd::Panicked
                    } else {
                        let mut end = ModelEnd::Ok;
                        let mut scanned = 0u64;
                        for _ in 0..blocks {
                            // Cooperative cancellation: the worker
                            // checks the token before each block and
                            // the service cancels it at the deadline.
                            if t >= att.deadline_us {
                                end = ModelEnd::Cancelled;
                                break;
                            }
                            t += self.cost.block_us;
                            scanned += 1;
                        }
                        // Mirror the engine's per-block token notes so
                        // the witness attributes block-scan progress in
                        // model mode too.
                        att.cancel.add_blocks(scanned);
                        end
                    };
                    if end == ModelEnd::Ok && self.exec == ExecMode::Inline {
                        pending_exec.insert(att.id, (Arc::clone(&att.epoch), att.plan.clone()));
                    }
                    comp_seq += 1;
                    completions.push(Reverse((t, comp_seq, att.id, end)));
                }
                while completions
                    .peek()
                    .is_some_and(|Reverse((at, _, _, _))| *at <= now)
                {
                    progressed = true;
                    // lint: library-panic-ok (peek above proved non-empty)
                    let Reverse((_, _, id, end)) = completions.pop().expect("peeked completion");
                    if end == ModelEnd::Ok {
                        if let Some((epoch, plan)) = pending_exec.remove(&id) {
                            let key = (epoch.seq, plan.fingerprint());
                            let table = epoch.table(plan.table).clone();
                            if let Ok((t, _)) =
                                cache.get_or_compute(key, || plan.execute(table, None))
                            {
                                results.insert(id, table_bytes(&t));
                            }
                        }
                    }
                    let result = match end {
                        ModelEnd::Ok => AttemptResult::Ok,
                        ModelEnd::Cancelled => AttemptResult::Cancelled,
                        ModelEnd::Panicked => AttemptResult::Panicked,
                    };
                    service.on_attempt_done(now, id, result);
                }
                if !progressed {
                    break;
                }
            }
            // Advance to the next strictly-future event.
            let mut next: Option<u64> = None;
            let mut consider = |t: u64| {
                next = Some(next.map_or(t, |n| n.min(t)));
            };
            if let Some((at, _)) = arrivals.get(ai) {
                consider(*at);
            }
            if let Some(Reverse((at, _, _, _))) = completions.peek() {
                consider(*at);
            }
            if let Some(w) = service.next_wake(now) {
                consider(w);
            }
            let Some(next) = next else {
                break; // No arrivals, completions, or wakes left.
            };
            debug_assert!(next > now, "virtual time must advance");
            now = now.max(next);
        }
        let budgets = [
            service.slo().budget(Tier::Prod),
            service.slo().budget(Tier::Batch),
            service.slo().budget(Tier::BestEffort),
        ];
        SimReport {
            stats: service.stats().clone(),
            outcomes: service.outcomes().to_vec(),
            log: service.log_bytes(),
            results,
            cache: cache.stats(),
            breaker_trips: service.breaker_trips(),
            horizon_us: now,
            alerts: service.slo().alert_lines().to_vec(),
            recorder_dump: service.recorder().dump_bytes(),
            witness: service.take_witness(),
            budgets,
        }
    }
}

/// Admission profile used by the overload bench: dedicated quotas
/// 3/3/2, deadlines 150 ms / 400 ms / 800 ms, retry budgets 3/2/1,
/// and queue bounds that force bottom-up shedding under saturation.
pub fn overload_admission() -> AdmissionConfig {
    AdmissionConfig {
        tiers: [
            TierPolicy {
                workers: 3,
                queue_cap: 64,
                deadline_us: 150_000,
                max_attempts: 3,
            },
            TierPolicy {
                workers: 3,
                queue_cap: 48,
                deadline_us: 400_000,
                max_attempts: 2,
            },
            TierPolicy {
                workers: 2,
                queue_cap: 16,
                deadline_us: 800_000,
                max_attempts: 1,
            },
        ],
        global_queue_cap: 72,
    }
}

/// Mean inter-arrival gap (µs) that loads `admission`'s total worker
/// capacity by `load_factor` (2.0 = twice saturation), given the cost
/// model, the chaos stall profile, and the average per-query block
/// count.
pub fn open_loop_gap_us(
    admission: &AdmissionConfig,
    cost: &ModelCost,
    chaos: &crate::chaos::ChaosConfig,
    avg_blocks: f64,
    load_factor: f64,
) -> f64 {
    let workers: usize = admission.tiers.iter().map(|t| t.workers).sum();
    let mean_stall = if chaos.enabled {
        chaos.stall_prob * (chaos.stall_us.0 + chaos.stall_us.1) as f64 / 2.0
    } else {
        0.0
    };
    let service_us = cost.overhead_us as f64 + avg_blocks * cost.block_us as f64 + mean_stall;
    // capacity (queries/µs) = workers / service_us; gap = 1 / (load · capacity)
    service_us / (workers as f64 * load_factor.max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use borg_core::pipeline::{simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;

    fn tiny_epoch() -> Arc<Epoch> {
        let outcome = simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 1);
        Arc::new(Epoch::from_trace("a", 0, &outcome.trace).unwrap())
    }

    fn light_spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            queries: 60,
            mean_gap_us: 2_000.0,
            tier_mix: [0.3, 0.4, 0.3],
            epochs: vec!["a".into()],
        }
    }

    #[test]
    fn arrivals_are_seed_pure_and_ordered() {
        let a = generate_arrivals(&light_spec(3));
        let b = generate_arrivals(&light_spec(3));
        assert_eq!(a.len(), 60);
        for ((ta, ra), (tb, rb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(ra.id, rb.id);
            assert_eq!(ra.tier, rb.tier);
            assert_eq!(ra.plan.fingerprint(), rb.plan.fingerprint());
        }
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "time-ordered");
        let c = generate_arrivals(&light_spec(4));
        assert!(a.iter().zip(&c).any(|((ta, _), (tc, _))| ta != tc));
    }

    #[test]
    fn light_load_without_chaos_completes_everything() {
        let epoch = tiny_epoch();
        let arrivals = generate_arrivals(&light_spec(7));
        let report = ServeSim::default().run(ServeConfig::small(7), &[epoch], &arrivals);
        let done = report.ids_where(|o| matches!(o, Outcome::Done { .. }));
        assert_eq!(done.len(), 60, "everything completes: {:?}", report.stats);
        assert_eq!(report.stats.sheds(Tier::Prod), 0);
        assert_eq!(report.stats.sheds(Tier::Batch), 0);
        assert_eq!(report.stats.sheds(Tier::BestEffort), 0);
    }

    #[test]
    fn chaotic_runs_are_byte_replayable() {
        let epoch = tiny_epoch();
        let mut cfg = ServeConfig::small(11);
        cfg.chaos = ChaosConfig {
            // A panic rate high enough that ~150 executed attempts
            // produce retries with near-certainty for any seed.
            panic_prob: 0.10,
            ..ChaosConfig::moderate(11)
        };
        let spec = WorkloadSpec {
            queries: 200,
            mean_gap_us: 400.0,
            ..light_spec(11)
        };
        let arrivals = generate_arrivals(&spec);
        let sim = ServeSim::default();
        let r1 = sim.run(cfg.clone(), std::slice::from_ref(&epoch), &arrivals);
        let r2 = sim.run(cfg, std::slice::from_ref(&epoch), &arrivals);
        assert_eq!(r1.log, r2.log, "event log is byte-identical");
        assert_eq!(r1.digest(), r2.digest());
        assert!(
            r1.stats.retries.iter().sum::<u64>() > 0,
            "chaos induced at least one retry"
        );
    }

    #[test]
    fn inline_mode_returns_real_results_through_the_cache() {
        let epoch = tiny_epoch();
        let arrivals = generate_arrivals(&light_spec(5));
        let sim = ServeSim {
            exec: ExecMode::Inline,
            ..ServeSim::default()
        };
        let report = sim.run(
            ServeConfig::small(5),
            std::slice::from_ref(&epoch),
            &arrivals,
        );
        assert_eq!(report.results.len(), 60);
        for (id, bytes) in &report.results {
            let (_, req) = arrivals
                .iter()
                .find(|(_, r)| r.id == *id)
                .expect("arrival for id");
            let table = epoch.table(req.plan.table).clone();
            let direct = req.plan.execute(table, None).unwrap();
            assert_eq!(bytes, &table_bytes(&direct), "query {id} bytes differ");
        }
        // 60 queries over a 5-plan catalog: the cache deduplicated.
        assert!(report.cache.misses <= 5, "cache stats: {:?}", report.cache);
        assert_eq!(
            report.cache.hits + report.cache.coalesced + report.cache.misses,
            60
        );
    }
}
