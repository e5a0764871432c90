//! Sharded within-cell placement: K per-shard [`PlacementIndex`]
//! instances over contiguous machine ranges, probed one after another
//! on the calling thread, with a deterministic combining layer
//! (DESIGN.md §14).
//!
//! This layer splits the fleet into K near-equal contiguous ranges —
//! shard `s` owns global machines `[offsets[s], offsets[s+1])` — each
//! backed by a full index (score cache, scan mirror, preemption tree)
//! over its local range. Probes visit every shard in order; mutations
//! route to the owning shard.
//!
//! # Determinism contract
//!
//! Placement stays **bit-identical** to the single sequential index
//! (and therefore to the naive full scan) for every shard count:
//!
//! * Per-machine scores are computed by [`PlacementIndex`]'s mirror
//!   rows with the identical float ops regardless of which shard holds
//!   the machine — sharding moves a row to a different `Vec`, never
//!   changes its bits or its evaluation.
//! * Each shard reports the lexicographic `(score, machine_index)`
//!   minimum of its range; [`combine_winners`] reduces the per-shard
//!   winners **in fixed shard order** under the same lexicographic
//!   tie-break. Shards partition the fleet, so this two-level minimum
//!   equals the flat scan's minimum, bit for bit.
//! * Preemption probes enumerate each shard's bound-passing tree
//!   leaves and run the *exact* victim checks in ascending global
//!   machine order, shard by shard, with early exit — the first machine
//!   that passes is the one the naive walk returns, and later shards
//!   are never probed.
//!
//! K = 1 (the default — see `SimConfig::effective_shards`) delegates
//! every call straight to the untouched single-index code path.

use crate::index::{IndexStats, PlacementIndex};
use crate::machine::{discount, Machine};
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;

/// Reduces per-shard best-fit winners (already translated to *global*
/// machine indices) to the fleet winner.
///
/// **The blessed combining helper**: an explicit loop in fixed shard
/// order under the lexicographic `(score, machine_index)` order. C3
/// flags `.reduce(` / `.min_by(` anywhere in borg-sim's library code
/// (see `crates/lint`); this fixed-order loop is the shape that needs
/// no annotation. Every shard reports its own lexicographic minimum
/// and shards partition the fleet, so the minimum over per-shard
/// winners equals the flat sequential scan's winner, bit for bit.
// IEEE equality (not total_cmp) is load-bearing: the sequential scan
// ties ±0.0 together and keeps the lower machine index, and this
// reduction must preserve that ordering. Feasible scores are finite,
// never NaN.
#[allow(clippy::float_cmp)]
pub(crate) fn combine_winners(per_shard: &[Option<(usize, f64)>]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for cand in per_shard {
        let Some((mi, score)) = *cand else { continue };
        let better = match best {
            None => true,
            Some((best_mi, best_score)) => {
                score < best_score || (score == best_score && mi < best_mi)
            }
        };
        if better {
            best = Some((mi, score));
        }
    }
    best
}

/// K placement-index shards over contiguous machine ranges with a
/// deterministic combining layer. Owned by the cell simulator exactly
/// as the single [`PlacementIndex`] used to be; see the module docs.
pub struct ShardedPlacement {
    shards: Vec<PlacementIndex>,
    /// `offsets[s]` is shard `s`'s first global machine index;
    /// `offsets[K]` is the fleet size.
    offsets: Vec<usize>,
    /// Shard-size arithmetic: the first `rem` shards hold `base + 1`
    /// machines, the rest `base`.
    base: usize,
    rem: usize,
}

impl ShardedPlacement {
    /// Builds `shards` indices over near-equal contiguous ranges of the
    /// fleet (clamped to `[1, machines.len()]`).
    pub fn new(machines: &[Machine], shards: usize) -> ShardedPlacement {
        let n = machines.len();
        let k = shards.clamp(1, n.max(1));
        let base = n / k;
        let rem = n % k;
        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0usize);
        let mut built = Vec::with_capacity(k);
        let mut start = 0usize;
        for s in 0..k {
            let end = start + base + usize::from(s < rem);
            built.push(PlacementIndex::new(&machines[start..end]));
            offsets.push(end);
            start = end;
        }
        ShardedPlacement {
            shards: built,
            offsets,
            base,
            rem,
        }
    }

    /// Number of shards (K).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning global machine `mi`.
    fn shard_of(&self, mi: usize) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let cut = self.rem * (self.base + 1);
        if mi < cut {
            mi / (self.base + 1)
        } else {
            self.rem + (mi - cut) / self.base
        }
    }

    /// Routes a machine mutation to the owning shard's index (mirror
    /// sync, tree-dirty mark, cache mutation log) — the sharded
    /// counterpart of [`PlacementIndex::on_machine_changed`].
    pub fn on_machine_changed(&mut self, mi: usize, m: &Machine) {
        let s = self.shard_of(mi);
        let local = mi - self.offsets[s];
        self.shards[s].on_machine_changed(local, m);
    }

    /// Exact best-fit across all shards: the machine (and score) the
    /// flat sequential scan would choose. Each shard answers from its
    /// cache or scans its range; the winners combine in shard order.
    pub fn best_fit(
        &mut self,
        machines: &[Machine],
        request: Resources,
        tier: Tier,
    ) -> Option<(usize, f64)> {
        if self.shards.len() == 1 {
            // K=1 is the pre-shard code path, untouched.
            return self.shards[0].best_fit(machines, request, tier);
        }
        let winners: Vec<Option<(usize, f64)>> = self
            .shards
            .iter_mut()
            .zip(&self.offsets)
            .map(|(shard, &offset)| {
                let answer = match shard.cached_best_fit(request, tier) {
                    Some(answer) => answer,
                    None => shard.scan_best_fit(request, tier),
                };
                answer.map(|(mi, score)| (mi + offset, score))
            })
            .collect();
        combine_winners(&winners)
    }

    /// The lowest-indexed machine fleet-wide where preempting lower
    /// tiers frees room for `request`, with its victim list — exactly
    /// the machine the naive `find_map` returns. Every shard tree is
    /// flushed first; then candidates are enumerated shard by shard and
    /// checked exactly in ascending global order, stopping at the first
    /// hit.
    #[allow(clippy::type_complexity)]
    pub fn first_preemptible(
        &mut self,
        machines: &[Machine],
        request: Resources,
        tier: Tier,
    ) -> Option<(usize, Vec<(usize, usize)>)> {
        if self.shards.len() == 1 {
            return self.shards[0].first_preemptible(machines, request, tier);
        }
        let k = self.shards.len();
        let needed = discount(request, tier);
        for s in 0..k {
            self.shards[s].flush_for_preempt(&machines[self.offsets[s]..self.offsets[s + 1]]);
        }
        for s in 0..k {
            let candidates = self.shards[s].preempt_candidates(needed, tier);
            for &local in &candidates {
                let g = self.offsets[s] + local as usize;
                if let Some(victims) = machines[g].preemption_victims(request, tier) {
                    return Some((g, victims));
                }
            }
        }
        None
    }

    /// Aggregate query counters, summed in fixed shard order.
    pub fn stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for shard in &self.shards {
            let s = shard.stats;
            total.cache_hits += s.cache_hits;
            total.negative_hits += s.negative_hits;
            total.cache_misses += s.cache_misses;
            total.leaves_scanned += s.leaves_scanned;
            total.tail_records += s.tail_records;
            total.rescored += s.rescored;
            total.preempt_probes += s.preempt_probes;
        }
        total
    }

    /// Per-shard query counters, in shard order (telemetry export).
    pub fn per_shard_stats(&self) -> Vec<IndexStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Occupant;
    use crate::reference::{naive_best_fit, naive_first_preemptible, tier_of};
    use borg_trace::machine::MachineId;
    use borg_workload::usage_model::splitmix64;

    #[test]
    fn combine_prefers_lower_score_then_lower_index() {
        assert_eq!(combine_winners(&[]), None);
        assert_eq!(combine_winners(&[None, None]), None);
        assert_eq!(
            combine_winners(&[None, Some((7, 0.5)), None, Some((3, 0.25))]),
            Some((3, 0.25))
        );
        // Equal scores: the lower machine index wins, wherever it sits.
        assert_eq!(
            combine_winners(&[Some((9, 0.5)), Some((2, 0.5))]),
            Some((2, 0.5))
        );
        // ±0.0 tie together under IEEE equality; lower index wins.
        assert_eq!(
            combine_winners(&[Some((4, 0.0)), Some((1, -0.0))]),
            Some((1, -0.0))
        );
    }

    #[test]
    fn shard_ranges_partition_the_fleet() {
        let machines: Vec<Machine> = (0..37)
            .map(|i| Machine::new(MachineId(i), Resources::new(1.0, 1.0)))
            .collect();
        for k in [1usize, 2, 3, 7, 16, 37, 64] {
            let sharded = ShardedPlacement::new(&machines, k);
            let want_k = k.min(37);
            assert_eq!(sharded.shard_count(), want_k, "k = {k}");
            assert_eq!(sharded.offsets[0], 0);
            assert_eq!(*sharded.offsets.last().unwrap(), 37);
            for s in 0..want_k {
                let size = sharded.offsets[s + 1] - sharded.offsets[s];
                assert!(size >= 37 / want_k, "near-equal split");
                assert!(size <= 37 / want_k + 1, "near-equal split");
                for mi in sharded.offsets[s]..sharded.offsets[s + 1] {
                    assert_eq!(sharded.shard_of(mi), s, "k = {k}, machine {mi}");
                }
            }
        }
    }

    /// The sharded core exactness property: random commits, frees, and
    /// queries match the naive scan for every shard count — including
    /// K values that do not divide the fleet.
    #[test]
    fn randomized_ops_match_naive_scan_across_shard_counts() {
        for k in [1usize, 2, 3, 7, 16] {
            let seed = 99u64;
            let mut machines: Vec<Machine> = (0..37)
                .map(|i| {
                    let r = splitmix64(seed ^ (i as u64 * 7919));
                    let cpu = 0.3 + (r % 100) as f64 / 120.0;
                    let mem = 0.3 + (r / 100 % 100) as f64 / 120.0;
                    Machine::new(MachineId(i), Resources::new(cpu, mem))
                })
                .collect();
            let mut sharded = ShardedPlacement::new(&machines, k);
            let mut occupants: Vec<(usize, usize)> = Vec::new();
            let mut next_owner = 0usize;
            let shapes: Vec<Resources> = (0..8)
                .map(|s| {
                    let r = splitmix64(seed ^ (s as u64 * 104729));
                    Resources::new(
                        0.01 + (r % 37) as f64 / 90.0,
                        0.01 + (r / 37 % 37) as f64 / 90.0,
                    )
                })
                .collect();
            for step in 0..3000u64 {
                let r = splitmix64(seed.wrapping_mul(31).wrapping_add(step));
                let request = shapes[(r % 8) as usize];
                let tier = tier_of(r / 1369);
                match r % 11 {
                    0..=2 => {
                        if !occupants.is_empty() {
                            let i = (r / 13) as usize % occupants.len();
                            let (mi, owner) = occupants.swap_remove(i);
                            machines[mi].remove(owner, 0).expect("occupant present");
                            sharded.on_machine_changed(mi, &machines[mi]);
                        }
                    }
                    3..=7 => {
                        let expect = naive_best_fit(&machines, request, tier);
                        let got = sharded.best_fit(&machines, request, tier);
                        assert_eq!(got, expect, "k {k} step {step}");
                        if let Some((mi, _)) = got {
                            machines[mi].add(Occupant {
                                owner: next_owner,
                                index: 0,
                                is_alloc_instance: false,
                                tier,
                                request,
                            });
                            sharded.on_machine_changed(mi, &machines[mi]);
                            occupants.push((mi, next_owner));
                            next_owner += 1;
                        }
                    }
                    _ => {
                        let tier = if r.is_multiple_of(2) {
                            Tier::Production
                        } else {
                            Tier::Monitoring
                        };
                        let expect = naive_first_preemptible(&machines, request, tier);
                        let got = sharded.first_preemptible(&machines, request, tier);
                        assert_eq!(got, expect, "k {k} step {step}");
                    }
                }
            }
            if k > 1 {
                let per_shard = sharded.per_shard_stats();
                assert_eq!(per_shard.len(), k);
                let agg = sharded.stats();
                assert_eq!(
                    agg.cache_misses,
                    per_shard.iter().map(|s| s.cache_misses).sum::<u64>()
                );
                assert!(agg.cache_misses > 0);
            }
        }
    }

    /// Capacity churn (the fault injector zeroes and restores machine
    /// capacity) routes through shard membership deterministically.
    #[test]
    fn capacity_churn_stays_exact() {
        let seed = 17u64;
        for k in [2usize, 5] {
            let mut machines: Vec<Machine> = (0..24)
                .map(|i| Machine::new(MachineId(i), Resources::new(1.0, 1.0)))
                .collect();
            let mut sharded = ShardedPlacement::new(&machines, k);
            let request = Resources::new(0.3, 0.3);
            for step in 0..400u64 {
                let r = splitmix64(seed.wrapping_add(step * 2654435761));
                let mi = (r % 24) as usize;
                if r.is_multiple_of(3) {
                    // Fail: capacity to zero (as `fail_machine` does).
                    machines[mi].capacity = Resources::ZERO;
                } else {
                    machines[mi].capacity = Resources::new(1.0, 1.0);
                }
                sharded.on_machine_changed(mi, &machines[mi]);
                let expect = naive_best_fit(&machines, request, Tier::Mid);
                assert_eq!(
                    sharded.best_fit(&machines, request, Tier::Mid),
                    expect,
                    "k {k} step {step}"
                );
            }
        }
    }

    /// A hit in shard 0 ends the preemption walk: shard 1 is never
    /// probed, as the naive walk would never visit its machines.
    #[test]
    fn a_preemption_hit_in_shard_zero_leaves_shard_one_unprobed() {
        let mut machines: Vec<Machine> = (0..4)
            .map(|i| Machine::new(MachineId(i), Resources::new(1.0, 1.0)))
            .collect();
        // Shard 0 holds machines 0 and 1, full of preemptible work;
        // shard 1's machines are full of work nothing here outranks.
        for (mi, m) in machines.iter_mut().enumerate() {
            m.add(Occupant {
                owner: mi,
                index: 0,
                is_alloc_instance: false,
                tier: if mi < 2 { Tier::Free } else { Tier::Production },
                request: Resources::new(1.0, 1.0),
            });
        }
        let mut sharded = ShardedPlacement::new(&machines, 2);
        for (mi, m) in machines.iter().enumerate() {
            sharded.on_machine_changed(mi, m);
        }
        let request = Resources::new(0.9, 0.9);
        let got = sharded.first_preemptible(&machines, request, Tier::Production);
        assert_eq!(
            got,
            naive_first_preemptible(&machines, request, Tier::Production)
        );
        assert_eq!(got.map(|(mi, _)| mi), Some(0));
        let per_shard = sharded.per_shard_stats();
        assert_eq!(per_shard[0].preempt_probes, 1);
        assert_eq!(per_shard[1].preempt_probes, 0);
    }

    #[test]
    fn empty_fleet_is_a_single_empty_shard() {
        let machines: Vec<Machine> = Vec::new();
        let mut sharded = ShardedPlacement::new(&machines, 8);
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(
            sharded.best_fit(&machines, Resources::new(0.1, 0.1), Tier::Free),
            None
        );
        assert_eq!(
            sharded.first_preemptible(&machines, Resources::new(0.1, 0.1), Tier::Production),
            None
        );
    }
}
