//! Figure 7: the state-transition diagram with occurrence counts.

use borg_sim::CellOutcome;
use borg_trace::state::{count_transitions, EventType, InstanceState, TransitionCounts};
use borg_trace::trace::Trace;

/// The transition counts of a trace's collection table, then of its
/// instance table, replayed from the rows.
pub fn table_transitions(trace: &Trace) -> [TransitionCounts; 2] {
    [
        count_transitions(&trace.collection_events, |e| {
            (e.collection_id, e.time, e.event_type)
        }),
        count_transitions(&trace.instance_events, |e| {
            (e.instance_id, e.time, e.event_type)
        }),
    ]
}

/// Combined collection + instance transition counts for a cell (the
/// paper's Figure 7 shows cell g).
pub fn combined_transitions(outcome: &CellOutcome) -> TransitionCounts {
    let [mut t, instances] = table_transitions(&outcome.trace);
    t.merge(&instances);
    t
}

/// Renders the transition table, most frequent first.
pub fn render_transitions(counts: &TransitionCounts) -> String {
    let rows: Vec<Vec<String>> = counts
        .sorted()
        .into_iter()
        .map(|(from, ev, n)| {
            let from = from.map_or("(new)".to_string(), |s| s.to_string());
            let to = describe_target(ev);
            vec![from, ev.to_string(), to, n.to_string()]
        })
        .collect();
    crate::report::render_table(&["from", "event", "to", "count"], &rows)
}

fn describe_target(ev: EventType) -> String {
    match ev {
        EventType::Submit => InstanceState::Pending.to_string(),
        EventType::Queue => InstanceState::Queued.to_string(),
        EventType::Enable => InstanceState::Pending.to_string(),
        EventType::Schedule => InstanceState::Running.to_string(),
        EventType::Evict => "evicted".to_string(),
        EventType::Fail => "failed".to_string(),
        EventType::Finish => "finished".to_string(),
        EventType::Kill => "killed".to_string(),
        EventType::Lost => "lost".to_string(),
        EventType::UpdatePending | EventType::UpdateRunning => "(unchanged)".to_string(),
    }
}

/// The paper's observation: common transitions outnumber rare ones by
/// orders of magnitude. Returns `(most common count, least common
/// non-zero count)`.
pub fn spread(counts: &TransitionCounts) -> (u64, u64) {
    let sorted = counts.sorted();
    let max = sorted.first().map_or(0, |x| x.2);
    let min = sorted.iter().rfind(|x| x.2 > 0).map_or(0, |x| x.2);
    (max, min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate_cell, SimScale};
    use borg_workload::cells::CellProfile;

    #[test]
    fn transitions_table_renders() {
        let o = simulate_cell(&CellProfile::cell_2019('g'), SimScale::Tiny, 10);
        let t = combined_transitions(&o);
        assert!(t.total() > 0);
        let s = render_transitions(&t);
        assert!(s.contains("submit"));
        assert!(s.contains("schedule"));
        let (max, min) = spread(&t);
        assert!(max >= min);
        assert!(max > 100);
    }
}
