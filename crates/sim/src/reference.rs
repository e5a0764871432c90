//! The test-only reference model of placement: the O(machines) scans
//! the scheduler ran before the placement index existed, kept once as
//! the live oracle the `index` and `cell::dispatch` unit tests
//! compare the production structures against (the frozen oracle is
//! `tests/golden.rs`). Each function is the plainest possible statement
//! of the policy: best fit keeps the first machine among equal scores,
//! preemption takes the lowest-indexed machine whose victims free enough
//! room, and a gang is placed greedily, member by member, against
//! commitments that include the members placed so far.

use crate::machine::{discount, Machine};
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;

/// Best fit by full scan: the lowest score, first machine among equals.
pub(crate) fn naive_best_fit(
    machines: &[Machine],
    request: Resources,
    tier: Tier,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, m) in machines.iter().enumerate() {
        if let Some(score) = m.fit_score(request, tier) {
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((i, score));
            }
        }
    }
    best
}

/// The lowest-indexed machine where preempting lower tiers frees room
/// for `request`, with the victim list.
pub(crate) fn naive_first_preemptible(
    machines: &[Machine],
    request: Resources,
    tier: Tier,
) -> Option<(usize, Vec<(usize, usize)>)> {
    machines
        .iter()
        .enumerate()
        .find_map(|(i, m)| m.preemption_victims(request, tier).map(|v| (i, v)))
}

/// Gang dry run by full scratch clone: best fit for each request in
/// turn, O(machines) per member. `None` when some member does not fit;
/// otherwise the machine chosen for each request, in request order.
pub(crate) fn naive_gang_dry_run(
    machines: &[Machine],
    requests: &[Resources],
    tier: Tier,
) -> Option<Vec<usize>> {
    let mut scratch: Vec<Resources> = machines.iter().map(|m| m.committed).collect();
    let mut chosen = Vec::with_capacity(requests.len());
    for &request in requests {
        let mut best: Option<(usize, f64)> = None;
        for (mi, m) in machines.iter().enumerate() {
            if let Some(score) = m.fit_score_at(scratch[mi], request, tier) {
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some((mi, score));
                }
            }
        }
        let (mi, _) = best?;
        scratch[mi] += discount(request, tier);
        chosen.push(mi);
    }
    Some(chosen)
}

/// A tier drawn from a random word, for the randomized differentials.
pub(crate) fn tier_of(r: u64) -> Tier {
    match r % 5 {
        0 => Tier::Free,
        1 => Tier::BestEffortBatch,
        2 => Tier::Mid,
        3 => Tier::Production,
        _ => Tier::Monitoring,
    }
}
