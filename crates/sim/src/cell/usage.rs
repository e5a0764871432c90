//! Usage accounting: the periodic usage tick and its scratch buffers.

use super::{CellSim, TaskState};
use crate::event::Ev;
use crate::metrics::MachineSnapshot;
use borg_analysis::select::Rank;
use borg_trace::collection::CollectionId;
use borg_trace::instance::InstanceId;
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;
use borg_trace::state::EventType;
use borg_trace::usage::{CpuHistogram, UsageRecord, CPU_HISTOGRAM_PERCENTILES};
use borg_workload::usage_model::splitmix64;

/// Reusable event-loop scratch buffers, owned by the cell so the hot
/// paths allocate nothing in steady state (DESIGN.md §13). The usage
/// tick's per-machine vectors are full-fleet-sized but reset in
/// O(touched machines): only indices recorded in `touched` are ever
/// non-zero between `begin` and `reset_machines`.
#[derive(Debug, Default)]
pub(super) struct TickScratch {
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
    pub(super) gang_pending: Vec<usize>,
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

impl CellSim<'_> {
    pub(super) fn on_usage_tick(&mut self) {
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
                    cpu_histogram: cpu_histogram(&scratch.samples, &mut scratch.hist),
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
}

/// A window's CPU histogram: the type-7 percentile of its finite
/// `samples` at each of [`CPU_HISTOGRAM_PERCENTILES`], all zero when none
/// is finite. The samples are sorted into `sorted` (cleared first), so a
/// tick builds one histogram per usage record without allocating.
fn cpu_histogram(samples: &[f64], sorted: &mut Vec<f64>) -> CpuHistogram {
    sorted.clear();
    sorted.extend(samples.iter().copied().filter(|x| x.is_finite()));
    sorted.sort_by(f64::total_cmp);
    let percentile = |p| {
        let rank = Rank::of(p, sorted.len())?;
        rank.value(sorted[rank.lo], || sorted.get(rank.lo + 1).copied())
    };
    CpuHistogram(CPU_HISTOGRAM_PERCENTILES.map(|p| percentile(p).unwrap_or(0.0) as f32))
}

#[cfg(test)]
// Exact equality below asserts deterministically-computed values reproduce
// bit-for-bit; approximate comparison would mask a determinism regression.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn histogram(samples: &[f64]) -> CpuHistogram {
        cpu_histogram(samples, &mut Vec::new())
    }

    #[test]
    fn histogram_from_samples_monotone() {
        let samples: Vec<f64> = (0..1000)
            .map(|i| ((i * 7919) % 997) as f64 / 997.0)
            .collect();
        let h = histogram(&samples);
        assert!(h.is_monotone());
        assert!(h.min() < 0.02);
        assert!(h.max() > 0.98);
        assert!((h.median() - 0.5).abs() < 0.05);
    }

    #[test]
    fn histogram_empty() {
        let h = histogram(&[]);
        assert_eq!(h.max(), 0.0);
        assert!(h.is_monotone());
        assert_eq!(
            histogram(&[f64::NAN, f64::INFINITY]),
            CpuHistogram([0.0; 21])
        );
    }

    #[test]
    fn histogram_constant() {
        let h = histogram(&[0.3; 50]);
        assert_eq!(h.min(), 0.3);
        assert_eq!(h.max(), 0.3);
    }
}
