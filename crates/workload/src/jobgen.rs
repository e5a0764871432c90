//! Full-workload generation for one cell.
//!
//! [`JobGenerator`] turns a [`crate::cells::CellProfile`]
//! plus a scaled capacity into the complete month of work: resident
//! service jobs present at trace start, a diurnal arrival stream of new
//! jobs, alloc sets (§5.1), parent-child dependencies (§5.2), per-tier
//! sizes calibrated so the realized utilization matches the profile's
//! Figure 3 targets, and per-job termination intents matching the §5.2
//! kill/fail demographics.

use crate::arrival::DiurnalRate;
use crate::cells::{CellProfile, Era, TierProfile};
use crate::dist::{Discrete, LogNormal, Sample, Uniform};
use crate::jobmix::{sample_priority, TaskCountModel};
use crate::usage_model::{splitmix64, UsageProcess};
use borg_trace::collection::{SchedulerKind, VerticalScalingMode};
use borg_trace::priority::{Priority, Tier};
use borg_trace::resources::Resources;
use borg_trace::time::{Micros, MICROS_PER_HOUR};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// How a job is destined to end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TerminationIntent {
    /// Runs to completion after its full duration.
    Finish,
    /// Canceled at the given fraction of its duration (§5.2: the dominant
    /// outcome, especially for jobs with parents).
    Kill {
        /// Fraction of the intended duration at which the kill lands.
        at_fraction: f64,
    },
    /// Fails of its own problem at the given fraction of its duration.
    Fail {
        /// Fraction of the intended duration at which the failure lands.
        at_fraction: f64,
    },
}

/// One task of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Replica index.
    pub index: u32,
    /// Requested resources (the limit).
    pub request: Resources,
    /// The task's usage process.
    pub usage: UsageProcess,
}

/// One generated job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable id within the workload (also the trace collection id).
    pub id: u64,
    /// Tier.
    pub tier: Tier,
    /// Raw priority.
    pub priority: Priority,
    /// Which scheduler admits the job.
    pub scheduler: SchedulerKind,
    /// Autopilot mode.
    pub vertical_scaling: VerticalScalingMode,
    /// Submission time.
    pub submit_time: Micros,
    /// Intended per-task run duration.
    pub duration: Micros,
    /// How the job is destined to end.
    pub termination: TerminationIntent,
    /// Parent job id, if any.
    pub parent: Option<u64>,
    /// Alloc set the job's tasks should run inside, if any.
    pub alloc_set: Option<u64>,
    /// The job's tasks.
    pub tasks: Vec<TaskSpec>,
    /// Anonymized submitting user.
    pub user_id: u32,
}

impl JobSpec {
    /// The job's total requested resources.
    pub fn total_request(&self) -> Resources {
        self.tasks.iter().map(|t| t.request).sum()
    }

    /// The realized run duration after the termination intent.
    pub fn realized_duration(&self) -> Micros {
        match self.termination {
            TerminationIntent::Finish => self.duration,
            TerminationIntent::Kill { at_fraction } | TerminationIntent::Fail { at_fraction } => {
                Micros((self.duration.as_micros() as f64 * at_fraction) as u64)
            }
        }
    }
}

/// One generated alloc set (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocSetSpec {
    /// Stable id within the workload (shares the id space with jobs).
    pub id: u64,
    /// Submission time.
    pub submit_time: Micros,
    /// Lifetime of the reservation.
    pub duration: Micros,
    /// Number of alloc instances.
    pub instance_count: u32,
    /// Per-instance reserved resources.
    pub instance_size: Resources,
    /// Priority (alloc sets back production workloads).
    pub priority: Priority,
    /// Submitting user.
    pub user_id: u32,
}

/// A complete generated workload for one cell.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Alloc sets in id order, their ids consecutive and above every
    /// job's. Their submit times are drawn independently, so they are not
    /// sorted by time; the simulator's event calendar orders them.
    pub alloc_sets: Vec<AllocSetSpec>,
    /// Jobs, sorted by submit time.
    pub jobs: Vec<JobSpec>,
}

/// Scaled generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct GenParams {
    /// Scaled cell capacity (the sum of the sampled machines).
    pub capacity: Resources,
    /// Scaled mean job arrivals per hour.
    pub job_rate_per_hour: f64,
    /// Observation window.
    pub horizon: Micros,
    /// Cap on tasks per job (simulation mode uses a cap so a mini-cell is
    /// not asked to host thousand-task jobs; statistical analyses of
    /// tasks-per-job use `None`).
    pub task_cap: Option<u32>,
    /// RNG seed.
    pub seed: u64,
}

/// Fraction of each tier's usage provided by "resident" jobs already
/// running at trace start (production is dominated by long-lived
/// services).
fn resident_fraction(tier: Tier) -> f64 {
    match tier {
        Tier::Production | Tier::Monitoring => 0.85,
        Tier::Mid => 0.50,
        Tier::BestEffortBatch => 0.10,
        Tier::Free => 0.05,
    }
}

/// Within-window CPU peak-to-average ratio used for generated tasks.
const PEAK_FACTOR: f64 = 1.35;
/// Log-space spread of per-task CPU rates.
const RATE_SIGMA: f64 = 0.8;
/// Log-space spread of job durations.
const DURATION_SIGMA: f64 = 1.0;
/// Largest per-task CPU request, as a machine fraction.
const MAX_TASK_CPU: f64 = 0.35;
/// Smallest per-task CPU rate.
const MIN_TASK_CPU: f64 = 1e-4;

/// The workload generator.
pub struct JobGenerator<'a> {
    profile: &'a CellProfile,
    params: GenParams,
}

impl<'a> JobGenerator<'a> {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive capacity, rate, or horizon.
    pub fn new(profile: &'a CellProfile, params: GenParams) -> JobGenerator<'a> {
        assert!(
            params.capacity.cpu > 0.0 && params.capacity.mem > 0.0,
            "capacity must be positive"
        );
        assert!(params.job_rate_per_hour > 0.0, "job rate must be positive");
        assert!(params.horizon > Micros::ZERO, "horizon must be positive");
        JobGenerator { profile, params }
    }

    /// Generates the complete workload.
    pub fn generate(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut next_id: u64 = 1;
        let mut jobs: Vec<JobSpec> = Vec::new();

        // Resident jobs per tier, then the arrival stream.
        for tier_profile in &self.profile.tiers {
            self.generate_residents(tier_profile, &mut next_id, &mut jobs, &mut rng);
        }
        self.generate_stream(&mut next_id, &mut jobs, &mut rng);
        jobs.sort_by_key(|j| j.submit_time);

        // Alloc sets: §5.1 says 2% of collections are alloc sets, so
        // n_alloc = f/(1-f) × n_jobs.
        let f = self.profile.alloc_set_fraction;
        let n_alloc = if f > 0.0 {
            ((f / (1.0 - f)) * jobs.len() as f64).round().max(1.0) as usize
        } else {
            0
        };
        let alloc_sets = self.generate_alloc_sets(n_alloc, &mut next_id, &mut rng);

        // Wire jobs into alloc sets and parents.
        self.assign_allocs_and_parents(&mut jobs, &alloc_sets, &mut rng);

        Workload { alloc_sets, jobs }
    }

    /// `(E[min(d, H)], E[sqrt(min(d, H))])` of the `LogNormal(mean)`
    /// duration truncated at the horizon, by deterministic quadrature.
    fn truncated_duration_moments(&self, mean_hours: f64) -> (f64, f64) {
        let horizon_hours = self.params.horizon.as_hours_f64();
        let ln = duration_dist(mean_hours);
        let n = 400;
        let mut total = 0.0;
        let mut total_sqrt = 0.0;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            let z = inverse_normal_cdf(u);
            let d = (ln.mu + ln.sigma * z).exp().min(horizon_hours);
            total += d;
            total_sqrt += d.sqrt();
        }
        (total / n as f64, total_sqrt / n as f64)
    }

    /// `(E[factor], E[sqrt(factor)])` of the early-termination duration
    /// factor: killed/failed jobs run only a fraction of their duration.
    fn early_termination_factors(&self) -> (f64, f64) {
        let pf = self.profile.parent_fraction;
        let p_kill = pf * self.profile.kill_prob_with_parent
            + (1.0 - pf) * self.profile.kill_prob_without_parent;
        let p_early = (p_kill + self.profile.fail_prob).min(1.0);
        // Early terminations land uniformly in [0.05, 1.0] of the
        // duration: E[frac] ≈ 0.525, E[sqrt(frac)] ≈ 0.694.
        (1.0 - p_early * (1.0 - 0.525), 1.0 - p_early * (1.0 - 0.694))
    }

    fn generate_residents(
        &self,
        tp: &TierProfile,
        next_id: &mut u64,
        jobs: &mut Vec<JobSpec>,
        rng: &mut StdRng,
    ) {
        let res_util = tp.target_cpu_util * resident_fraction(tp.tier);
        if res_util <= 0.0 {
            return;
        }
        let task_model = TaskCountModel::for_tier(tp.tier);
        let mean_tasks = task_model.mean(self.params.task_cap);
        let target_cpu = res_util * self.params.capacity.cpu;
        // Aim for a per-task rate around 1.5% of a machine, then round to
        // an integral job count.
        let r_target = 0.015;
        let n_jobs = ((target_cpu / (mean_tasks * r_target)).round() as usize).max(1);
        let mem_ratio = tp.target_mem_util / tp.target_cpu_util.max(1e-9);

        // Sample every slot's task count first, then set the per-task
        // rate from the *realized* total so the tier hits its target
        // exactly even when one slot draws a heavy-tailed task count.
        let slot_tasks: Vec<u32> = (0..n_jobs)
            .map(|_| task_model.sample_capped(rng, self.params.task_cap))
            .collect();
        let total_tasks: u32 = slot_tasks.iter().sum();
        let r_cpu = (target_cpu / f64::from(total_tasks.max(1))).clamp(MIN_TASK_CPU, MAX_TASK_CPU);

        // Each resident "slot" is a chain of service jobs covering the
        // whole window: when one incarnation is killed or fails (the §5.2
        // demographics apply to services too), a successor is submitted
        // immediately — modeling service restarts, which also contributes
        // to the §6.2 rescheduling churn.
        const MAX_CHAIN: usize = 8;
        for n_tasks in slot_tasks {
            let mut start = Micros((rng.random::<f64>() * 60.0 * 1e6) as u64); // first minute
            for link in 0..MAX_CHAIN {
                let remaining = self.params.horizon.saturating_sub(start);
                if remaining == Micros::ZERO {
                    break;
                }
                let termination = if link == MAX_CHAIN - 1 {
                    TerminationIntent::Finish
                } else {
                    self.sample_termination(rng, false)
                };
                let id = *next_id;
                *next_id += 1;
                let job = self.make_job(
                    id,
                    tp,
                    start,
                    remaining,
                    n_tasks,
                    r_cpu,
                    mem_ratio,
                    termination,
                    rng,
                );
                let realized = job.realized_duration();
                let finished = matches!(job.termination, TerminationIntent::Finish);
                jobs.push(job);
                if finished {
                    break;
                }
                start = start + realized + Micros::from_secs(30);
            }
        }
    }

    fn generate_stream(&self, next_id: &mut u64, jobs: &mut Vec<JobSpec>, rng: &mut StdRng) {
        let arrivals = DiurnalRate::new(
            self.params.job_rate_per_hour,
            self.profile.diurnal_amplitude,
            self.profile.timezone_phase_hours,
        )
        .sample_times(self.params.horizon, rng);

        let tier_sampler = Discrete::new(
            self.profile
                .tiers
                .iter()
                .map(|t| (t.tier, t.job_share))
                .collect(),
        );

        // Pre-compute per-tier calibration, and the task-count model every
        // arrival of the tier draws from. The per-task rate damps as
        // footprint^(-1/2), so the realized per-job integral is
        // `base_median × e^(σ²/2) × sqrt(n·d) × sqrt(E[n]·E[d])`; solving
        // its expectation for the tier target needs E[sqrt(n)] and
        // E[sqrt(d)] explicitly (Jensen's gap is a factor ~2 for the
        // heavy-tailed tiers).
        struct TierCal {
            task_model: TaskCountModel,
            base_median: f64,
            mean_tasks: f64,
            mean_realized_hours: f64,
            mem_ratio: f64,
        }
        let (early_mean, early_sqrt) = self.early_termination_factors();
        let cals: Vec<(Tier, TierCal)> = self
            .profile
            .tiers
            .iter()
            .map(|tp| {
                let stream_util = tp.target_cpu_util * (1.0 - resident_fraction(tp.tier));
                let rate_tier = self.params.job_rate_per_hour * tp.job_share;
                let mean_ncu_hours = stream_util * self.params.capacity.cpu / rate_tier.max(1e-9);
                let task_model = TaskCountModel::for_tier(tp.tier);
                let (mean_tasks, sqrt_tasks) = task_model.capped_moments(self.params.task_cap);
                let (dur_mean, dur_sqrt) = self.truncated_duration_moments(tp.mean_duration_hours);
                let mean_realized_hours = dur_mean * early_mean;
                let sqrt_realized_hours = dur_sqrt * early_sqrt;
                let base_median = mean_ncu_hours
                    / ((RATE_SIGMA * RATE_SIGMA / 2.0).exp()
                        * sqrt_tasks
                        * sqrt_realized_hours
                        * (mean_tasks * mean_realized_hours).sqrt());
                (
                    tp.tier,
                    TierCal {
                        task_model,
                        base_median,
                        mean_tasks,
                        mean_realized_hours,
                        mem_ratio: tp.target_mem_util / tp.target_cpu_util.max(1e-9),
                    },
                )
            })
            .collect();

        for submit in arrivals {
            let tier = tier_sampler.sample(rng);
            // lint: library-panic-ok (tier_sampler only emits tiers present in the profile)
            let tp = self.profile.tier(tier).expect("tier from profile");
            // lint: library-panic-ok (cals was built from the same tier list above)
            let cal = &cals.iter().find(|(t, _)| *t == tier).expect("calibrated").1;

            let n_tasks = cal.task_model.sample_capped(rng, self.params.task_cap);
            let dur_dist = duration_dist(tp.mean_duration_hours);
            let dur_hours = dur_dist
                .sample(rng)
                .min(self.params.horizon.as_hours_f64() * 1.5);
            let duration = Micros((dur_hours * MICROS_PER_HOUR as f64).max(60.0 * 1e6) as u64);
            let termination = self.sample_termination(rng, /* has_parent: */ false);

            // The per-task rate is anchored so that a job with the mean
            // footprint (tasks × realized hours) hits the tier's mean
            // NCU-hours, and the rate is damped as footprint^(-1/2):
            // bigger jobs still consume more in total (the integral grows
            // like the square root of the footprint times a log-normal
            // factor, keeping a qualitative hog tail in simulated traces)
            // while tier utilization stays stable at mini-cell scale. The
            // *quantitative* Table 2 tail is reproduced by the unscaled
            // statistical sampler in `integral`.
            let realized_hours = match termination {
                TerminationIntent::Finish => dur_hours,
                TerminationIntent::Kill { at_fraction }
                | TerminationIntent::Fail { at_fraction } => dur_hours * at_fraction,
            };
            let footprint = (n_tasks as f64 * realized_hours.max(1.0 / 60.0))
                / (cal.mean_tasks * cal.mean_realized_hours);
            let rate_median =
                (cal.base_median * footprint.powf(-0.5)).clamp(MIN_TASK_CPU, MAX_TASK_CPU);
            let r_cpu = LogNormal::with_median(rate_median, RATE_SIGMA)
                .sample(rng)
                .clamp(MIN_TASK_CPU, MAX_TASK_CPU);

            let id = *next_id;
            *next_id += 1;
            jobs.push(self.make_job(
                id,
                tp,
                submit,
                duration,
                n_tasks,
                r_cpu,
                cal.mem_ratio,
                termination,
                rng,
            ));
        }
    }

    fn sample_termination(&self, rng: &mut StdRng, has_parent: bool) -> TerminationIntent {
        let p_kill = if has_parent {
            self.profile.kill_prob_with_parent
        } else {
            self.profile.kill_prob_without_parent
        };
        let u = rng.random::<f64>();
        let frac = Uniform::new(0.05, 1.0).sample(rng);
        if u < p_kill {
            TerminationIntent::Kill { at_fraction: frac }
        } else if u < p_kill + self.profile.fail_prob {
            TerminationIntent::Fail { at_fraction: frac }
        } else {
            TerminationIntent::Finish
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn make_job(
        &self,
        id: u64,
        tp: &TierProfile,
        submit: Micros,
        duration: Micros,
        n_tasks: u32,
        r_cpu: f64,
        mem_ratio: f64,
        termination: TerminationIntent,
        rng: &mut StdRng,
    ) -> JobSpec {
        let tier = tp.tier;
        // A small slice of production work runs at monitoring priorities
        // (≥ 360); the paper folds it back into production when reporting.
        let priority = if tier == Tier::Production && rng.random::<f64>() < 0.02 {
            sample_priority(Tier::Monitoring, rng)
        } else {
            sample_priority(tier, rng)
        };
        let scheduler = if tier == Tier::BestEffortBatch && self.profile.batch_queue_for_beb {
            SchedulerKind::Batch
        } else {
            SchedulerKind::Default
        };
        let vs_mode = if self.profile.era == Era::Y2019 {
            Discrete::new(self.profile.autopilot_mix.to_vec()).sample(rng)
        } else {
            VerticalScalingMode::Off
        };
        let r_mem = (r_cpu * mem_ratio).clamp(MIN_TASK_CPU, MAX_TASK_CPU);
        // Manually provisioned jobs over-request: asking for too little is
        // catastrophic, so users pad their limits (§8). Autoscaled jobs
        // start at the tier-typical limit and are tightened by Autopilot.
        // Manually provisioned non-production jobs over-request (CPU more
        // than memory: short CPU means throttling, short memory means an
        // OOM kill, and §4 shows memory over-allocation staying below
        // CPU's). Production limits already carry enormous slack via
        // their ~30% fill, so no extra padding is applied there.
        let inflate = vs_mode == VerticalScalingMode::Off
            && !matches!(tier, Tier::Production | Tier::Monitoring);
        let (inflate_cpu, inflate_mem) = if inflate {
            (1.0 / 0.75, 1.0 / 0.87)
        } else {
            (1.0, 1.0)
        };
        let mut r_cpu = r_cpu;
        let mut r_mem = r_mem;
        let mut n_tasks = n_tasks;
        let mut request = Resources::new(
            r_cpu / tp.cpu_fill * inflate_cpu,
            r_mem / tp.mem_fill * inflate_mem,
        );
        // A request above ~30% of the largest machine is unplaceable in
        // practice (most machines are 0.5 NCU): heavy jobs shard into more
        // replicas instead, preserving the job's total footprint.
        let dominant = request.cpu.max(request.mem);
        if dominant > 0.30 {
            let k = (dominant / 0.30).ceil().max(1.0);
            n_tasks = ((n_tasks as f64 * k) as u32).max(n_tasks + 1);
            r_cpu /= k;
            r_mem /= k;
            request = request * (1.0 / k);
        }
        let tasks = (0..n_tasks)
            .map(|index| TaskSpec {
                index,
                request,
                usage: UsageProcess::new(
                    Resources::new(r_cpu, r_mem),
                    self.profile.diurnal_amplitude * 0.5,
                    self.profile.timezone_phase_hours,
                    0.15,
                    PEAK_FACTOR,
                    splitmix64(self.params.seed ^ (id << 20) ^ index as u64),
                ),
            })
            .collect();
        // Heavier users submit more jobs: a skewed user id.
        let user_id = (rng.random::<f64>().powi(3) * 200.0) as u32;
        JobSpec {
            id,
            tier,
            priority,
            scheduler,
            vertical_scaling: vs_mode,
            submit_time: submit,
            duration,
            termination,
            parent: None,
            alloc_set: None,
            tasks,
            user_id,
        }
    }

    fn generate_alloc_sets(
        &self,
        count: usize,
        next_id: &mut u64,
        rng: &mut StdRng,
    ) -> Vec<AllocSetSpec> {
        // Instance size: a couple of typical production tasks. Production
        // stream tasks run ~1.5% of a machine, requested at 1/cpu_fill.
        let prod = self
            .profile
            .tier(Tier::Production)
            // lint: library-panic-ok (every CellProfile constructor includes production)
            .expect("profiles always include production");
        let inst_cpu = (0.015 / prod.cpu_fill) * 2.5;
        let inst_mem =
            (0.015 * (prod.target_mem_util / prod.target_cpu_util.max(1e-9)) / prod.mem_fill) * 2.5;
        let count_dist = Discrete::new(vec![(2u32, 4.0), (5, 4.0), (10, 1.0)]);
        let life_dist = duration_dist(40.0);
        (0..count)
            .map(|_| {
                let id = *next_id;
                *next_id += 1;
                let submit = Micros(
                    (rng.random::<f64>() * 0.5 * self.params.horizon.as_micros() as f64) as u64,
                );
                let life_hours = life_dist
                    .sample(rng)
                    .min(self.params.horizon.as_hours_f64());
                AllocSetSpec {
                    id,
                    submit_time: submit,
                    duration: Micros((life_hours * MICROS_PER_HOUR as f64) as u64),
                    instance_count: count_dist.sample(rng),
                    instance_size: Resources::new(inst_cpu.min(0.5), inst_mem.min(0.5)),
                    priority: Priority::new(200),
                    user_id: (rng.random::<f64>() * 50.0) as u32,
                }
            })
            .collect()
    }

    fn assign_allocs_and_parents(
        &self,
        jobs: &mut [JobSpec],
        alloc_sets: &[AllocSetSpec],
        rng: &mut StdRng,
    ) {
        let n = jobs.len();
        // Alloc membership targets (§5.1): 15% of jobs run inside an
        // alloc set and 95% of those are production. Solve the per-class
        // assignment probabilities from the realized tier counts.
        let n_prod = jobs
            .iter()
            .filter(|j| matches!(j.tier, Tier::Production | Tier::Monitoring))
            .count();
        let n_other = n - n_prod;
        let assigned_total = self.profile.jobs_in_alloc_fraction * n as f64;
        let p_for_prod = if n_prod > 0 {
            (assigned_total * self.profile.alloc_jobs_prod_fraction / n_prod as f64).min(1.0)
        } else {
            0.0
        };
        let p_for_other = if n_other > 0 {
            (assigned_total * (1.0 - self.profile.alloc_jobs_prod_fraction) / n_other as f64)
                .min(1.0)
        } else {
            0.0
        };
        for i in 0..n {
            let is_prod = matches!(jobs[i].tier, Tier::Production | Tier::Monitoring);
            let p_assign = if is_prod { p_for_prod } else { p_for_other };
            if !alloc_sets.is_empty() && rng.random::<f64>() < p_assign {
                // Pick an alloc set alive at the job's submit time when
                // possible.
                let submit = jobs[i].submit_time;
                let alive: Vec<&AllocSetSpec> = alloc_sets
                    .iter()
                    .filter(|a| a.submit_time <= submit && submit < a.submit_time + a.duration)
                    .collect();
                if let Some(a) = pick(&alive, rng) {
                    jobs[i].alloc_set = Some(a.id);
                    // §5.1: jobs inside allocs use their memory harder
                    // (73% average utilization vs 41%): their requests
                    // are tighter than the tier norm.
                    let boost = 1.12;
                    for t in &mut jobs[i].tasks {
                        t.request.mem = (t.request.mem / boost).max(MIN_TASK_CPU);
                    }
                }
            }
            // Parent dependencies: a parent submitted before the child.
            if i > 0 && rng.random::<f64>() < self.profile.parent_fraction {
                let lo = i.saturating_sub(200);
                let j = lo + (rng.random::<f64>() * (i - lo) as f64) as usize;
                if j < i {
                    jobs[i].parent = Some(jobs[j].id);
                    // Re-sample the termination with the with-parent kill
                    // probability (§5.2: 87% of jobs with parents are
                    // killed).
                    jobs[i].termination = self.sample_termination(rng, true);
                }
            }
        }
    }
}

/// Log-normal duration distribution with the given mean (hours).
fn duration_dist(mean_hours: f64) -> LogNormal {
    // mean = exp(mu + sigma²/2) → mu = ln(mean) − sigma²/2.
    LogNormal::new(
        mean_hours.ln() - DURATION_SIGMA * DURATION_SIGMA / 2.0,
        DURATION_SIGMA,
    )
}

/// Picks a random element of a slice.
fn pick<'x, T, R: Rng + ?Sized>(xs: &'x [T], rng: &mut R) -> Option<&'x T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[(rng.random::<f64>() * xs.len() as f64) as usize % xs.len()])
    }
}

/// Acklam's rational approximation of the standard-normal inverse CDF,
/// accurate to ~1e-9 — used for deterministic quadrature.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.38357751867269e2,
        -3.066479806614716e1,
        2.506628277459239,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838,
        -2.549732539343734,
        4.374664141464968,
        2.938163982698783,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-3,
        3.224671290700398e-1,
        2.445134137142996,
        3.754408661907416,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellProfile;

    fn params(seed: u64) -> GenParams {
        GenParams {
            capacity: Resources::new(60.0, 40.0),
            job_rate_per_hour: 30.0,
            horizon: Micros::from_days(4),
            task_cap: Some(500),
            seed,
        }
    }

    fn workload(seed: u64) -> (CellProfile, Workload) {
        let profile = CellProfile::cell_2019('a');
        let w = JobGenerator::new(&profile, params(seed)).generate();
        (profile, w)
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, w1) = workload(9);
        let (_, w2) = workload(9);
        assert_eq!(w1.jobs.len(), w2.jobs.len());
        assert_eq!(w1.jobs[10], w2.jobs[10]);
        let (_, w3) = workload(10);
        assert_ne!(w1.jobs.len(), w3.jobs.len());
    }

    #[test]
    fn jobs_sorted_and_in_horizon() {
        let (_, w) = workload(1);
        assert!(w
            .jobs
            .windows(2)
            .all(|p| p[0].submit_time <= p[1].submit_time));
        assert!(w.jobs.iter().all(|j| j.submit_time < Micros::from_days(4)));
        assert!(!w.jobs.is_empty());
    }

    #[test]
    fn alloc_sets_come_in_id_order_not_submit_order() {
        let (_, w) = workload(2);
        let first = w.jobs.iter().map(|j| j.id).max().unwrap() + 1;
        let ids: Vec<u64> = w.alloc_sets.iter().map(|a| a.id).collect();
        let want: Vec<u64> = (first..first + ids.len() as u64).collect();
        assert_eq!(ids, want);
        assert!(w
            .alloc_sets
            .windows(2)
            .any(|p| p[0].submit_time > p[1].submit_time));
    }

    #[test]
    fn alloc_sets_are_two_percent_of_collections() {
        let (_, w) = workload(2);
        let frac = w.alloc_sets.len() as f64 / (w.jobs.len() + w.alloc_sets.len()) as f64;
        assert!((0.01..0.03).contains(&frac), "alloc fraction = {frac}");
    }

    #[test]
    fn in_alloc_jobs_are_mostly_production() {
        let (_, w) = workload(3);
        let in_alloc: Vec<&JobSpec> = w.jobs.iter().filter(|j| j.alloc_set.is_some()).collect();
        assert!(!in_alloc.is_empty());
        let prod = in_alloc
            .iter()
            .filter(|j| j.tier == Tier::Production)
            .count();
        let frac = prod as f64 / in_alloc.len() as f64;
        assert!(frac > 0.85, "prod fraction of in-alloc jobs = {frac}");
    }

    #[test]
    fn parent_kill_rates_match_section_5_2() {
        let (_, w) = workload(4);
        let (mut kp, mut np, mut ko, mut no) = (0u32, 0u32, 0u32, 0u32);
        for j in &w.jobs {
            let killed = matches!(j.termination, TerminationIntent::Kill { .. });
            if j.parent.is_some() {
                np += 1;
                kp += killed as u32;
            } else {
                no += 1;
                ko += killed as u32;
            }
        }
        let with_parent = kp as f64 / np as f64;
        let without = ko as f64 / no as f64;
        assert!(
            (0.80..0.94).contains(&with_parent),
            "with parent: {with_parent}"
        );
        assert!((0.33..0.50).contains(&without), "without parent: {without}");
    }

    #[test]
    fn parents_submitted_before_children() {
        let (_, w) = workload(5);
        let submit: std::collections::BTreeMap<u64, Micros> =
            w.jobs.iter().map(|j| (j.id, j.submit_time)).collect();
        for j in &w.jobs {
            if let Some(p) = j.parent {
                assert!(submit[&p] <= j.submit_time, "job {} parent {}", j.id, p);
            }
        }
    }

    #[test]
    fn requests_dominate_usage() {
        let (_, w) = workload(6);
        for j in w.jobs.iter().take(500) {
            for t in &j.tasks {
                assert!(
                    t.request.cpu >= t.usage.base.cpu * 0.99,
                    "limit below usage"
                );
                assert!(t.request.cpu <= 0.9 && t.request.mem <= 0.9);
            }
        }
    }

    #[test]
    fn utilization_calibration_close_to_target() {
        let (profile, w) = workload(7);
        // Realized NCU-hours per tier (respecting early termination and
        // horizon truncation) vs the Figure 3 targets.
        let horizon = Micros::from_days(4);
        let mut by_tier: std::collections::BTreeMap<Tier, f64> = Default::default();
        for j in &w.jobs {
            let end = (j.submit_time + j.realized_duration()).min(horizon);
            let total: f64 = j
                .tasks
                .iter()
                .map(|t| t.usage.integral_over(j.submit_time, end).cpu)
                .sum();
            *by_tier.entry(j.tier).or_default() += total;
        }
        let cell_cpu_hours = 60.0 * horizon.as_hours_f64();
        let mut realized_total = 0.0;
        let mut target_total = 0.0;
        for tp in &profile.tiers {
            let util = by_tier.get(&tp.tier).copied().unwrap_or(0.0) / cell_cpu_hours;
            let target = tp.target_cpu_util;
            realized_total += util;
            target_total += target;
            // Per-tier means of a heavy-tailed product (tasks × duration ×
            // rate) swing widely at this tiny scale; the bound is loose.
            assert!(
                util > target * 0.3 && util < target * 3.0,
                "tier {}: realized {util:.4} vs target {target:.4}",
                tp.tier
            );
        }
        assert!(
            realized_total > target_total * 0.55 && realized_total < target_total * 1.9,
            "total realized {realized_total:.4} vs target {target_total:.4}"
        );
    }

    #[test]
    fn beb_goes_through_batch_queue() {
        let (_, w) = workload(8);
        for j in &w.jobs {
            if j.tier == Tier::BestEffortBatch {
                assert_eq!(j.scheduler, SchedulerKind::Batch);
            } else {
                assert_eq!(j.scheduler, SchedulerKind::Default);
            }
        }
    }

    #[test]
    fn no_2019_features_in_2011() {
        let profile = CellProfile::cell_2011();
        let w = JobGenerator::new(&profile, params(11)).generate();
        assert!(w.alloc_sets.is_empty());
        assert!(w.jobs.iter().all(|j| j.alloc_set.is_none()));
        assert!(w
            .jobs
            .iter()
            .all(|j| j.vertical_scaling == VerticalScalingMode::Off));
        assert!(w.jobs.iter().all(|j| j.scheduler == SchedulerKind::Default));
    }

    #[test]
    fn inverse_normal_cdf_sane() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.975) - 1.9599).abs() < 1e-3);
        assert!((inverse_normal_cdf(0.025) + 1.9599).abs() < 1e-3);
    }

    #[test]
    fn realized_duration_respects_intent() {
        let (_, w) = workload(12);
        for j in &w.jobs {
            match j.termination {
                TerminationIntent::Finish => assert_eq!(j.realized_duration(), j.duration),
                _ => assert!(j.realized_duration() <= j.duration),
            }
        }
    }
}
