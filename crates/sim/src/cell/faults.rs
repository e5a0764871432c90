//! Machines going away: maintenance sweeps and injected failures and
//! repairs.

use super::{CellSim, TaskState};
use crate::event::Ev;
use crate::faults::FaultInjector;
use borg_trace::machine::{MachineEvent, MachineEventType};
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;
use borg_trace::state::EventType;
use borg_trace::time::Micros;
use borg_workload::dist::{Exponential, Sample};
use rand::RngExt;

impl CellSim<'_> {
    pub(super) fn on_maintenance(&mut self, machine: usize) {
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

    /// A failure clock fires. Stale clocks (epoch mismatch after a
    /// correlated co-failure) and clocks for already-down machines are
    /// ignored; otherwise the machine — or, for a correlated failure,
    /// its whole domain — goes down.
    pub(super) fn on_machine_fail(&mut self, machine: usize, epoch: u32) {
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
    pub(super) fn on_machine_repair(&mut self, machine: usize) {
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
            let next = self.now + inj.sample_failure_gap();
            let epoch = inj.epoch(machine);
            self.queue.push(next, Ev::MachineFail { machine, epoch });
        }
        self.faults = Some(inj);
    }
}
