//! Real-time smoke harness: the same [`Service`] state machine, driven
//! by the blessed wall clock and a real [`ServePool`].
//!
//! The virtual-time sim proves the *decisions* are right and
//! replayable; this harness proves the state machine also survives
//! contact with real threads — real stalls occupying real workers, real
//! panics crossing `catch_unwind`, real cancellation tokens observed by
//! the real engine. It is deliberately non-deterministic (wall-clock
//! timing), so its contract is coarse: every query reaches a terminal
//! outcome (clean drain), prod never misses its (generous) deadline,
//! and the run finishes fast. The unit test below pins exactly that.
//!
//! Times read here come from [`borg_telemetry::clock::now_ns`] — the
//! workspace's single blessed wall-clock routing point — and feed only
//! scheduling and the timing-flavored report fields, never a
//! deterministic artifact.

use crate::chaos::ChaosConfig;
use crate::epoch::Epoch;
use crate::pool::{run_serve_job, JobResult, ServeJob, ServePool};
use crate::service::{Action, AttemptResult, Outcome, ServeConfig, Service, ServiceStats};
use crate::sim::{generate_arrivals, WorkloadSpec};
use crate::tier::{AdmissionConfig, Tier, TierPolicy};
use borg_telemetry::clock::now_ns;
use std::sync::Arc;

/// What one smoke run produced.
#[derive(Debug)]
pub struct SmokeReport {
    /// Per-tier tallies.
    pub stats: ServiceStats,
    /// Terminal outcome per query id, decision order.
    pub outcomes: Vec<(u64, Outcome)>,
    /// Queries that returned real result bytes.
    pub results_returned: usize,
    /// Every submitted query reached a terminal outcome and both the
    /// service and the pool drained before the time limit.
    pub drained: bool,
    /// Wall-clock duration of the run, µs (timing plane — do not pin).
    pub elapsed_us: u64,
    /// Times any epoch breaker tripped open.
    pub breaker_trips: u64,
    /// SLO alerts fired during the run (timing-flavored — do not pin).
    pub slo_alerts: u64,
    /// Flight-recorder snapshots captured (timing-flavored — do not pin).
    pub recorder_snapshots: usize,
    /// Witness span trees built — one per submitted query.
    pub traces: usize,
}

impl SmokeReport {
    /// Prod-tier queries that missed their deadline (expired). The
    /// smoke contract requires this to be zero: prod deadlines are set
    /// generous relative to the injected stalls.
    pub fn prod_deadline_misses(&self) -> u64 {
        self.stats.expired[Tier::Prod.index()]
    }
}

/// Admission profile for the smoke run: wall-clock stalls are in the
/// 1–10 ms range, so a 1.5 s prod deadline makes "zero prod misses"
/// robust on a loaded CI machine while batch/best-effort still see
/// real queueing.
fn smoke_admission() -> AdmissionConfig {
    AdmissionConfig {
        tiers: [
            TierPolicy {
                workers: 2,
                queue_cap: 64,
                deadline_us: 1_500_000,
                max_attempts: 3,
            },
            TierPolicy {
                workers: 2,
                queue_cap: 48,
                deadline_us: 3_000_000,
                max_attempts: 2,
            },
            TierPolicy {
                workers: 2,
                queue_cap: 32,
                deadline_us: 5_000_000,
                max_attempts: 1,
            },
        ],
        global_queue_cap: 96,
    }
}

/// Chaos profile for the smoke run: frequent short stalls, occasional
/// real panics, a small slow-epoch delay.
fn smoke_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        enabled: true,
        seed,
        stall_prob: 0.30,
        stall_us: (1_000, 10_000),
        panic_prob: 0.05,
        slow_epoch_us: 2_000,
    }
}

/// Wall-clock budget for one smoke run. The smoke test requires
/// completion within it; a run that exceeds this is reported as
/// not drained rather than hanging the harness.
const SMOKE_BUDGET_US: u64 = 10_000_000;

/// Runs 200 mixed-tier queries with injected stalls and panics against
/// a real thread pool, on the wall clock. See the module docs for the
/// contract.
pub fn run_smoke(epoch: Arc<Epoch>, seed: u64) -> SmokeReport {
    // The same SLO engine runs on the blessed clock here: alert content
    // is timing-flavored (do not pin), but the machinery is exercised
    // against real threads.
    let cfg = ServeConfig::new(smoke_admission(), smoke_chaos(seed), seed);
    let spec = WorkloadSpec {
        seed,
        queries: 200,
        mean_gap_us: 2_000.0,
        tier_mix: [0.2, 0.4, 0.4],
        epochs: vec![epoch.name.clone()],
    };
    let arrivals = generate_arrivals(&spec);
    let total_workers: usize = cfg.admission.tiers.iter().map(|t| t.workers).sum();
    let mut pool = ServePool::new(total_workers, run_serve_job);
    let mut service = Service::new(cfg);
    let mut results_returned = 0usize;
    let mut drained = false;

    let t0 = now_ns();
    let now_us = |t0: u64| now_ns().saturating_sub(t0) / 1_000;
    service.register_epoch(now_us(t0), Arc::clone(&epoch));
    let mut ai = 0usize;
    loop {
        let now = now_us(t0);
        service.on_tick(now);
        while arrivals.get(ai).is_some_and(|(at, _)| *at <= now) {
            let (_, req) = &arrivals[ai];
            service.submit(now, req.clone());
            ai += 1;
        }
        while let Some(Action::Start(att)) = service.next_action() {
            // Per-tier quotas sum to the pool size, so an idle worker
            // always exists for a dispatched attempt.
            let ok = pool.submit(
                att.id,
                ServeJob {
                    plan: att.plan,
                    epoch: att.epoch,
                    cancel: att.cancel,
                    fault: att.fault,
                },
            );
            debug_assert!(ok, "admission quotas exceeded the pool");
        }
        while let Some((id, result)) = pool.poll() {
            let r = match result {
                JobResult::Done(_) => {
                    results_returned += 1;
                    AttemptResult::Ok
                }
                JobResult::Cancelled => AttemptResult::Cancelled,
                JobResult::Panicked => AttemptResult::Panicked,
            };
            service.on_attempt_done(now_us(t0), id, r);
        }
        if ai == arrivals.len() && service.is_idle() && pool.in_flight() == 0 {
            drained = true;
            break;
        }
        if now > SMOKE_BUDGET_US {
            break; // Report as not drained instead of hanging.
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    SmokeReport {
        stats: service.stats().clone(),
        outcomes: service.outcomes().to_vec(),
        results_returned,
        drained,
        elapsed_us: now_us(t0),
        breaker_trips: service.breaker_trips(),
        slo_alerts: service.slo().alerts_fired(),
        recorder_snapshots: service.recorder().snapshots().len(),
        traces: service.witness().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_core::pipeline::{simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;

    #[test]
    fn smoke_drains_cleanly_with_zero_prod_misses() {
        let outcome = simulate_cell(&CellProfile::cell_2019('a'), SimScale::Tiny, 1);
        let epoch = Arc::new(Epoch::from_trace("a", 0, &outcome.trace).unwrap());
        let report = run_smoke(epoch, 42);
        assert!(report.drained, "run did not drain: {:?}", report.stats);
        assert_eq!(
            report.prod_deadline_misses(),
            0,
            "prod missed deadlines: {:?}",
            report.stats
        );
        assert_eq!(report.stats.sheds(Tier::Prod), 0, "prod was shed");
        // Every query reached a terminal outcome exactly once.
        assert_eq!(report.outcomes.len(), 200);
        let done: u64 = report.stats.done.iter().sum();
        assert_eq!(done as usize, report.results_returned);
        assert!(report.elapsed_us < SMOKE_BUDGET_US);
        // Every submission minted a span tree, even sheds.
        assert_eq!(report.traces, 200);
    }
}
