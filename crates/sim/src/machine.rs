//! Machine runtime state and fit/preemption logic.
//!
//! §4 of the paper shows Borg deliberately over-commits: the sum of limits
//! on a machine may exceed its capacity because every tier reliably
//! under-uses its requests. The fit check therefore discounts requests per
//! tier and per dimension, which is how cell-level allocation climbs well
//! above 100% of capacity (Figures 4/5) while usage stays below it
//! (Figure 2).

use borg_trace::machine::MachineId;
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;

/// The fraction of a request that counts against machine capacity during
/// fit checks, per tier and per dimension `(cpu, memory)`.
///
/// The discounts mirror the tiers' expected usage-to-limit ratios plus a
/// safety margin: production CPU runs at ~30% of its limit (§4), so
/// counting prod CPU requests at 45% lets the fleet promise ~2× its CPU
/// in production limits while staying physically safe — exactly the
/// statistical multiplexing the paper describes. Memory is discounted
/// less because running out of RAM means OOM evictions, not throttling.
pub fn tier_discount(tier: Tier) -> Resources {
    match tier {
        Tier::Production | Tier::Monitoring => Resources::new(0.45, 0.72),
        Tier::Mid => Resources::new(0.75, 0.90),
        Tier::BestEffortBatch => Resources::new(0.45, 0.55),
        Tier::Free => Resources::new(0.35, 0.55),
    }
}

/// Applies a per-dimension discount to a request.
pub fn discount(request: Resources, tier: Tier) -> Resources {
    let d = tier_discount(tier);
    Resources::new(request.cpu * d.cpu, request.mem * d.mem)
}

/// Something occupying space on a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupant {
    /// Owning job (or alloc set) index in the cell tables.
    pub owner: usize,
    /// Task / alloc-instance index within the owner.
    pub index: usize,
    /// True when this occupant is an alloc instance (reservation), which
    /// is never preempted.
    pub is_alloc_instance: bool,
    /// Tier, for discounting and victim selection.
    pub tier: Tier,
    /// The full (undiscounted) request.
    pub request: Resources,
}

impl Occupant {
    /// The discounted request counted against capacity.
    pub fn discounted(&self) -> Resources {
        discount(self.request, self.tier)
    }
}

/// One machine's runtime state.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Trace-level id.
    pub id: MachineId,
    /// Capacity.
    pub capacity: Resources,
    /// Current occupants.
    pub occupants: Vec<Occupant>,
    /// Sum of discounted requests (kept incrementally).
    pub committed: Resources,
}

impl Machine {
    /// A fresh machine.
    pub fn new(id: MachineId, capacity: Resources) -> Machine {
        Machine {
            id,
            capacity,
            occupants: Vec::new(),
            committed: Resources::ZERO,
        }
    }

    /// Remaining discounted capacity.
    pub fn headroom(&self) -> Resources {
        self.capacity - self.committed
    }

    /// True when an occupant with the given tier and request fits.
    pub fn fits(&self, request: Resources, tier: Tier) -> bool {
        let d = discount(request, tier);
        (self.committed + d).fits_in(&self.capacity) && request.fits_in(&self.capacity)
    }

    /// Adds an occupant (caller must have checked the fit policy; adding
    /// beyond capacity is allowed — that is what over-commitment means
    /// when the policy discounts requests).
    pub fn add(&mut self, occ: Occupant) {
        debug_assert!(
            self.position(occ.owner, occ.index).is_none(),
            "duplicate occupant ({}, {})",
            occ.owner,
            occ.index
        );
        self.committed += occ.discounted();
        self.occupants.push(occ);
    }

    /// Where the occupant with the given owner and index sits in
    /// `occupants`.
    fn position(&self, owner: usize, index: usize) -> Option<usize> {
        self.occupants
            .iter()
            .position(|o| o.owner == owner && o.index == index)
    }

    /// Removes the occupant with the given owner and index, returning it:
    /// a scan of the occupants, then a `swap_remove` that moves the last
    /// occupant into the freed place.
    pub fn remove(&mut self, owner: usize, index: usize) -> Option<Occupant> {
        let occ = self.occupants.swap_remove(self.position(owner, index)?);
        self.committed -= occ.discounted();
        // Guard against float drift on empty machines.
        if self.occupants.is_empty() {
            self.committed = Resources::ZERO;
        }
        Some(occ)
    }

    /// The best-fit score for placing `request` at `tier`: the remaining
    /// dominant-share headroom after placement (smaller is tighter).
    /// `None` when it does not fit.
    pub fn fit_score(&self, request: Resources, tier: Tier) -> Option<f64> {
        self.fit_score_at(self.committed, request, tier)
    }

    /// [`Machine::fit_score`] evaluated against an overridden commitment
    /// level — the gang dry-run scores machines under scratch
    /// commitments without cloning the fleet. Uses the identical float
    /// operations as the committed-state path, so scores are
    /// bit-identical when `committed == self.committed`.
    pub fn fit_score_at(
        &self,
        committed: Resources,
        request: Resources,
        tier: Tier,
    ) -> Option<f64> {
        let after = committed + discount(request, tier);
        if !(after.fits_in(&self.capacity) && request.fits_in(&self.capacity)) {
            return None;
        }
        Some(1.0 - after.dominant_fraction_of(&self.capacity))
    }

    /// CPU throttle factor under a given raw occupant demand: CPU is
    /// work-conserving but physically capped at capacity, so an
    /// over-subscribed machine squeezes every occupant proportionally;
    /// demand within capacity runs unthrottled (factor 1.0). The usage
    /// tick derives this per task straight from the machine's demand
    /// aggregate — same IEEE division for every occupant of a machine,
    /// so per-task evaluation is bit-identical to a per-machine table.
    pub fn cpu_throttle(&self, demand_cpu: f64) -> f64 {
        if demand_cpu > self.capacity.cpu {
            self.capacity.cpu / demand_cpu
        } else {
            1.0
        }
    }

    /// Selects preemption victims strictly below `tier` that would free
    /// enough discounted capacity to host `request`. Victims are chosen
    /// lowest-tier-first (Borg's eviction SLO protects important work,
    /// §5.2). Returns the victims (owner, index) or `None` when even
    /// preempting everything below the tier is not enough. Alloc
    /// instances are never victims.
    pub fn preemption_victims(
        &self,
        request: Resources,
        tier: Tier,
    ) -> Option<Vec<(usize, usize)>> {
        let needed = discount(request, tier);
        let mut candidates: Vec<&Occupant> = self
            .occupants
            .iter()
            .filter(|o| o.tier < tier && !o.is_alloc_instance)
            .collect();
        // Lowest tier first; bigger victims first within a tier so we
        // evict few tasks.
        candidates.sort_by(|a, b| {
            // Requests are finite and non-negative; IEEE equality keeps
            // the stable sort's occupant order on ties, which the
            // eviction trace depends on.
            a.tier.cmp(&b.tier).then_with(|| {
                b.request
                    .cpu
                    .partial_cmp(&a.request.cpu)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        let mut freed = Resources::ZERO;
        let mut victims = Vec::new();
        let mut headroom = self.headroom();
        for v in candidates {
            if (headroom + freed).cpu >= needed.cpu && (headroom + freed).mem >= needed.mem {
                break;
            }
            freed += v.discounted();
            victims.push((v.owner, v.index));
        }
        headroom += freed;
        if headroom.cpu >= needed.cpu && headroom.mem >= needed.mem {
            Some(victims)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(owner: usize, tier: Tier, cpu: f64) -> Occupant {
        Occupant {
            owner,
            index: 0,
            is_alloc_instance: false,
            tier,
            request: Resources::new(cpu, cpu / 2.0),
        }
    }

    #[test]
    fn discounts_enable_overcommit() {
        let mut m = Machine::new(MachineId(0), Resources::new(1.0, 1.0));
        // Four beb tasks of 0.5 NCU each count 0.25 each against the
        // machine, so all four fit: raw requests total 2.0 NCU (200%).
        for i in 0..4 {
            assert!(
                m.fits(Resources::new(0.5, 0.2), Tier::BestEffortBatch),
                "i = {i}"
            );
            m.add(task(i, Tier::BestEffortBatch, 0.5));
        }
        let raw: Resources = m.occupants.iter().map(|o| o.request).sum();
        assert!(raw.cpu > m.capacity.cpu, "raw allocation exceeds capacity");
        assert!(m.committed.fits_in(&m.capacity));
    }

    #[test]
    fn production_discounted_less_than_batch() {
        let mut m = Machine::new(MachineId(0), Resources::new(1.0, 1.0));
        // 2.0 NCU of production requests commit 0.9 NCU; a third 1.0 NCU
        // production request (0.45 committed) no longer fits...
        m.add(task(0, Tier::Production, 1.0));
        m.add(task(1, Tier::Production, 1.0));
        assert!(!m.fits(Resources::new(1.0, 0.1), Tier::Production));
        // ...but a smaller batch task still squeezes in.
        assert!(m.fits(Resources::new(0.15, 0.1), Tier::BestEffortBatch));
    }

    #[test]
    fn request_must_fit_machine_at_all() {
        let m = Machine::new(MachineId(0), Resources::new(0.5, 0.5));
        assert!(!m.fits(Resources::new(0.6, 0.1), Tier::Free));
    }

    #[test]
    fn remove_restores_headroom() {
        let mut m = Machine::new(MachineId(0), Resources::new(1.0, 1.0));
        m.add(task(7, Tier::Production, 0.9));
        assert!(m.remove(7, 0).is_some());
        assert!(m.remove(7, 0).is_none());
        assert_eq!(m.committed, Resources::ZERO);
        assert!(m.fits(Resources::new(0.9, 0.4), Tier::Production));
    }

    #[test]
    fn remove_moves_the_last_occupant_into_the_gap() {
        let mut m = Machine::new(MachineId(0), Resources::new(1.0, 1.0));
        for owner in 0..4 {
            m.add(task(owner, Tier::Mid, 0.1));
        }
        assert_eq!(m.remove(1, 0).map(|o| o.owner), Some(1));
        let owners: Vec<usize> = m.occupants.iter().map(|o| o.owner).collect();
        assert_eq!(owners, [0, 3, 2]);
        assert_eq!(m.remove(1, 0), None);
        assert_eq!(m.remove(3, 1), None);
        assert_eq!(m.occupants.len(), 3);
    }

    #[test]
    fn fit_score_prefers_tighter_machines() {
        let mut tight = Machine::new(MachineId(0), Resources::new(1.0, 1.0));
        tight.add(task(0, Tier::Production, 0.6));
        let empty = Machine::new(MachineId(1), Resources::new(1.0, 1.0));
        let req = Resources::new(0.2, 0.1);
        let s_tight = tight.fit_score(req, Tier::Production).unwrap();
        let s_empty = empty.fit_score(req, Tier::Production).unwrap();
        assert!(s_tight < s_empty, "best-fit picks the tighter machine");
    }

    #[test]
    fn preemption_picks_lowest_tier_first() {
        let mut m = Machine::new(MachineId(0), Resources::new(1.0, 1.0));
        m.add(task(1, Tier::Free, 0.8));
        m.add(task(2, Tier::BestEffortBatch, 0.8));
        m.add(task(3, Tier::Mid, 0.8));
        // Machine committed: 0.32 + 0.40 + 0.64 = 1.36 CPU-equivalent...
        // capacity 1.0, so a production arrival must preempt.
        let victims = m
            .preemption_victims(Resources::new(0.9, 0.25), Tier::Production)
            .unwrap();
        assert!(!victims.is_empty());
        assert_eq!(victims[0], (1, 0), "free tier evicted first");
    }

    #[test]
    fn preemption_never_touches_same_or_higher_tier_or_allocs() {
        let mut m = Machine::new(MachineId(0), Resources::new(1.0, 1.0));
        m.add(task(1, Tier::Production, 1.0));
        m.add(Occupant {
            owner: 2,
            index: 0,
            is_alloc_instance: true,
            tier: Tier::Free,
            request: Resources::new(1.0, 1.0),
        });
        // Machine is full (committed 0.45 + 0.4 CPU / 0.375 + 0.4 mem,
        // plus the big request): a 1.0-NCU production request cannot be
        // satisfied because neither occupant is preemptible.
        assert!(m
            .preemption_victims(Resources::new(1.0, 0.8), Tier::Production)
            .is_none());
    }

    #[test]
    fn preemption_returns_empty_when_already_fits() {
        let m = Machine::new(MachineId(0), Resources::new(1.0, 1.0));
        let victims = m
            .preemption_victims(Resources::new(0.3, 0.1), Tier::Production)
            .unwrap();
        assert!(victims.is_empty());
    }
}
