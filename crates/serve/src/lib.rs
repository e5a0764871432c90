//! borg-serve: an overload-hardened query service over immutable trace
//! epochs.
//!
//! The analysis pipeline so far runs queries as a batch program: load a
//! trace, run the plan, exit. A *service* answering those queries
//! continuously faces a different adversary — overload. This crate
//! reproduces the production playbook the Borg papers assume around
//! their monitoring stacks, in miniature and fully replayable:
//!
//! * **Tiered admission** ([`tier`], [`service`]): prod / batch /
//!   best-effort classes with dedicated worker quotas, bounded
//!   per-tier and global queues, and displacement — under pressure the
//!   lowest tier is shed first, by construction.
//! * **Deadline propagation** ([`service`]): each tier has a latency
//!   budget; queued requests expire, running requests are cancelled
//!   cooperatively via a token the engine observes at 64 Ki-row block
//!   boundaries (`borg_query`'s cancellation points).
//! * **Seeded retries and circuit breaking** ([`retry`], [`breaker`]):
//!   panicked attempts retry with exponential backoff and *seeded*
//!   jitter (replayable storms), and an epoch whose queries fail
//!   consecutively trips a breaker that sheds non-prod traffic until a
//!   half-open probe succeeds.
//! * **Chaos, proven** ([`chaos`], [`sim`], [`smoke`]): a seeded fault
//!   injector (worker stalls, panicking queries, slow epoch loads)
//!   plugged into two drivers — a virtual-time sim whose event log is
//!   byte-identical across runs, and a wall-clock smoke harness with a
//!   real thread pool ([`pool`]) proving the same state machine
//!   survives real threads.
//!
//! The seam between decision and mechanism is [`service::Service`]: a
//! sans-io state machine that owns every admission/retry/expiry
//! decision and none of the execution. That split is what makes the
//! robustness claims testable — determinism contracts pin the decision
//! log, chaos tests pound the mechanisms.
//!
//! * **Observability, deterministic** ([`witness`], [`slo`],
//!   [`recorder`]): every submission mints a causal trace id and
//!   builds a per-query span tree (queue / attempt / execute /
//!   block-scan / cancel), an SLO engine evaluates per-tier
//!   multi-window burn rates over the same time values, and a flight
//!   recorder snapshots recent events on anomalies — all byte-
//!   replayable under the same seed (DESIGN.md §17).
//!
//! Results are rendered through a plan-and-epoch-keyed single-flight
//! cache ([`borg_query::cache`]), so identical plans against the same
//! epoch dedupe instead of dog-piling the workers.

#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod epoch;
pub mod plan;
pub mod pool;
pub mod recorder;
pub mod retry;
pub mod service;
pub mod sim;
pub mod slo;
pub mod smoke;
pub mod tier;
pub mod witness;

pub use breaker::{BreakerState, CircuitBreaker};
pub use chaos::{ChaosConfig, Fault};
pub use epoch::{Epoch, TableId};
pub use plan::{AggSpec, CmpOp, FilterSpec, GroupSpec, PlanSpec};
pub use pool::{run_serve_job, JobResult, ServeJob, ServePool};
pub use recorder::{FlightRecorder, RecorderConfig, RecorderSnapshot, TriggerKind};
pub use retry::RetryPolicy;
pub use service::{
    Action, Attempt, AttemptResult, Outcome, QueryRequest, ServeConfig, Service, ServiceStats,
    ShedReason,
};
pub use sim::{
    generate_arrivals, open_loop_gap_us, overload_admission, plan_catalog, ExecMode, ModelCost,
    ServeSim, SimReport, WorkloadSpec,
};
pub use slo::{SloBudget, SloConfig, SloEngine, TierSlo};
pub use smoke::{run_smoke, SmokeReport};
pub use tier::{AdmissionConfig, Tier, TierPolicy};
pub use witness::{mint_trace_id, QueryTrace, SegKind, Segment, Witness, WitnessConfig};
