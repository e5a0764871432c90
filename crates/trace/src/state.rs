//! The collection/instance lifecycle state machine (Figure 7).
//!
//! Collections and instances move through a small set of states driven by
//! scheduler events. §5.2 and Figure 7 of the paper analyze these
//! transitions; the four terminal events are finish (success), evict
//! (infrastructure-initiated), kill (user- or parent-initiated), and fail
//! (the program's own problem).

use std::collections::BTreeMap;
use std::fmt;

/// Event vocabulary of the v3 trace, shared by collections and instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventType {
    /// Submitted to the Borgmaster; becomes pending.
    Submit,
    /// Parked in the batch-scheduler queue.
    Queue,
    /// Released from the queue; pending and ready to be placed.
    Enable,
    /// Placed on a machine; running.
    Schedule,
    /// De-scheduled by the infrastructure (maintenance, preemption, or
    /// over-commit reclamation); almost always followed by resubmission.
    Evict,
    /// Terminated by its own problem (segfault, over-limit memory use).
    Fail,
    /// Completed normally.
    Finish,
    /// Canceled by the user or cascaded from a parent's termination.
    Kill,
    /// Disappeared from monitoring (rare data-collection artifact).
    Lost,
    /// Attributes changed while awaiting placement.
    UpdatePending,
    /// Attributes changed while running (e.g. an Autopilot limit change).
    UpdateRunning,
}

impl EventType {
    /// All event types in a stable order.
    pub const ALL: [EventType; 11] = [
        EventType::Submit,
        EventType::Queue,
        EventType::Enable,
        EventType::Schedule,
        EventType::Evict,
        EventType::Fail,
        EventType::Finish,
        EventType::Kill,
        EventType::Lost,
        EventType::UpdatePending,
        EventType::UpdateRunning,
    ];

    /// True for the four termination events plus `Lost`.
    pub const fn is_terminal(self) -> bool {
        matches!(
            self,
            EventType::Evict
                | EventType::Fail
                | EventType::Finish
                | EventType::Kill
                | EventType::Lost
        )
    }

    /// Short lowercase name as used in the trace tables.
    pub const fn name(self) -> &'static str {
        match self {
            EventType::Submit => "submit",
            EventType::Queue => "queue",
            EventType::Enable => "enable",
            EventType::Schedule => "schedule",
            EventType::Evict => "evict",
            EventType::Fail => "fail",
            EventType::Finish => "finish",
            EventType::Kill => "kill",
            EventType::Lost => "lost",
            EventType::UpdatePending => "update_pending",
            EventType::UpdateRunning => "update_running",
        }
    }

    /// Parses the lowercase name produced by [`EventType::name`].
    pub fn parse(s: &str) -> Option<EventType> {
        Some(match s {
            "submit" => EventType::Submit,
            "queue" => EventType::Queue,
            "enable" => EventType::Enable,
            "schedule" => EventType::Schedule,
            "evict" => EventType::Evict,
            "fail" => EventType::Fail,
            "finish" => EventType::Finish,
            "kill" => EventType::Kill,
            "lost" => EventType::Lost,
            "update_pending" => EventType::UpdatePending,
            "update_running" => EventType::UpdateRunning,
            _ => return None,
        })
    }
}

impl fmt::Display for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Lifecycle states of a collection or instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstanceState {
    /// Submitted, awaiting a placement decision.
    Pending,
    /// Held in the batch-scheduler queue (§3 "batch queueing").
    Queued,
    /// Placed on a machine and running.
    Running,
    /// Terminated; the payload records how.
    Dead(TerminationKind),
}

/// How a collection or instance terminated (§5.2's four events, plus the
/// rare `Lost`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TerminationKind {
    /// Completed normally ("success").
    Finish,
    /// De-scheduled by the infrastructure.
    Evict,
    /// Canceled by the user or a parent-job cascade.
    Kill,
    /// Died of its own problem.
    Fail,
    /// Vanished from monitoring.
    Lost,
}

impl InstanceState {
    /// Short name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            InstanceState::Pending => "pending",
            InstanceState::Queued => "queued",
            InstanceState::Running => "running",
            InstanceState::Dead(TerminationKind::Finish) => "finished",
            InstanceState::Dead(TerminationKind::Evict) => "evicted",
            InstanceState::Dead(TerminationKind::Kill) => "killed",
            InstanceState::Dead(TerminationKind::Fail) => "failed",
            InstanceState::Dead(TerminationKind::Lost) => "lost",
        }
    }

    /// True when terminated.
    pub const fn is_dead(self) -> bool {
        matches!(self, InstanceState::Dead(_))
    }
}

impl fmt::Display for InstanceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic state machine that applies trace events and rejects
/// illegal transitions — the §9 "logical invariants" check in executable
/// form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateMachine {
    state: Option<InstanceState>,
}

/// An illegal transition: the event was not applicable in the current
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// State before the offending event (`None` = not yet submitted).
    pub from: Option<InstanceState>,
    /// The offending event.
    pub event: EventType,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.from {
            Some(s) => write!(f, "illegal event {} in state {}", self.event, s),
            None => write!(f, "illegal first event {}", self.event),
        }
    }
}

impl std::error::Error for IllegalTransition {}

impl Default for StateMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl StateMachine {
    /// A fresh, not-yet-submitted entity.
    pub const fn new() -> Self {
        StateMachine { state: None }
    }

    /// Current state (`None` before the first submit).
    pub const fn state(&self) -> Option<InstanceState> {
        self.state
    }

    /// Applies an event, returning the new state or an error for an
    /// illegal transition. Evicted entities may be resubmitted (the §5.2
    /// observation that almost all evicted instances are rescheduled).
    pub fn apply(&mut self, event: EventType) -> Result<InstanceState, IllegalTransition> {
        use EventType as E;
        use InstanceState as S;
        let next = match (self.state, event) {
            (None, E::Submit) => S::Pending,
            (Some(S::Pending), E::Queue) => S::Queued,
            (Some(S::Queued), E::Enable) => S::Pending,
            (Some(S::Pending), E::Schedule) => S::Running,
            (Some(S::Pending), E::UpdatePending) => S::Pending,
            (Some(S::Queued), E::UpdatePending) => S::Queued,
            (Some(S::Running), E::UpdateRunning) => S::Running,
            (Some(S::Running), E::Evict) => S::Dead(TerminationKind::Evict),
            (Some(S::Running), E::Finish) => S::Dead(TerminationKind::Finish),
            (Some(S::Running), E::Fail) => S::Dead(TerminationKind::Fail),
            (Some(S::Running), E::Lost) => S::Dead(TerminationKind::Lost),
            (Some(S::Running), E::Kill)
            | (Some(S::Pending), E::Kill)
            | (Some(S::Queued), E::Kill) => S::Dead(TerminationKind::Kill),
            // Pending work can also fail (e.g. an unsatisfiable constraint)
            // or be evicted from the queue in rare cases.
            (Some(S::Pending), E::Fail) => S::Dead(TerminationKind::Fail),
            // Resubmission after eviction (or after a failure, for
            // collections with retries).
            (Some(S::Dead(TerminationKind::Evict)), E::Submit)
            | (Some(S::Dead(TerminationKind::Fail)), E::Submit) => S::Pending,
            (from, event) => return Err(IllegalTransition { from, event }),
        };
        self.state = Some(next);
        Ok(next)
    }
}

/// Counts of `(from-state, event)` transitions across many entities — the
/// data behind Figure 7.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionCounts {
    counts: BTreeMap<(Option<InstanceState>, EventType), u64>,
}

impl TransitionCounts {
    /// Empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transition.
    pub fn record(&mut self, from: Option<InstanceState>, event: EventType) {
        *self.counts.entry((from, event)).or_insert(0) += 1;
    }

    /// Count for a specific transition.
    pub fn get(&self, from: Option<InstanceState>, event: EventType) -> u64 {
        self.counts.get(&(from, event)).copied().unwrap_or(0)
    }

    /// All transitions with counts, most frequent first.
    pub fn sorted(&self) -> Vec<(Option<InstanceState>, EventType, u64)> {
        let mut v: Vec<_> = self
            .counts
            .iter()
            .map(|(&(from, ev), &c)| (from, ev, c))
            .collect();
        v.sort_by_key(|t| std::cmp::Reverse(t.2));
        v
    }

    /// Total number of recorded transitions.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &TransitionCounts) {
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_finish() {
        let mut sm = StateMachine::new();
        assert_eq!(sm.apply(EventType::Submit).unwrap(), InstanceState::Pending);
        assert_eq!(
            sm.apply(EventType::Schedule).unwrap(),
            InstanceState::Running
        );
        assert_eq!(
            sm.apply(EventType::Finish).unwrap(),
            InstanceState::Dead(TerminationKind::Finish)
        );
    }

    #[test]
    fn batch_queue_path() {
        let mut sm = StateMachine::new();
        sm.apply(EventType::Submit).unwrap();
        assert_eq!(sm.apply(EventType::Queue).unwrap(), InstanceState::Queued);
        assert_eq!(sm.apply(EventType::Enable).unwrap(), InstanceState::Pending);
        sm.apply(EventType::Schedule).unwrap();
    }

    #[test]
    fn evict_then_resubmit() {
        let mut sm = StateMachine::new();
        sm.apply(EventType::Submit).unwrap();
        sm.apply(EventType::Schedule).unwrap();
        sm.apply(EventType::Evict).unwrap();
        assert_eq!(sm.apply(EventType::Submit).unwrap(), InstanceState::Pending);
        sm.apply(EventType::Schedule).unwrap();
        sm.apply(EventType::Finish).unwrap();
    }

    #[test]
    fn kill_from_any_live_state() {
        for setup in [
            vec![EventType::Submit],
            vec![EventType::Submit, EventType::Queue],
            vec![EventType::Submit, EventType::Schedule],
        ] {
            let mut sm = StateMachine::new();
            for e in setup {
                sm.apply(e).unwrap();
            }
            assert_eq!(
                sm.apply(EventType::Kill).unwrap(),
                InstanceState::Dead(TerminationKind::Kill)
            );
        }
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut sm = StateMachine::new();
        assert!(sm.apply(EventType::Schedule).is_err()); // schedule before submit
        sm.apply(EventType::Submit).unwrap();
        assert!(sm.apply(EventType::Enable).is_err()); // enable while pending
        sm.apply(EventType::Schedule).unwrap();
        sm.apply(EventType::Finish).unwrap();
        assert!(sm.apply(EventType::Schedule).is_err()); // schedule after finish
        assert!(sm.apply(EventType::Submit).is_err()); // no resubmit after success
    }

    #[test]
    fn updates_do_not_change_state() {
        let mut sm = StateMachine::new();
        sm.apply(EventType::Submit).unwrap();
        assert_eq!(
            sm.apply(EventType::UpdatePending).unwrap(),
            InstanceState::Pending
        );
        sm.apply(EventType::Schedule).unwrap();
        assert_eq!(
            sm.apply(EventType::UpdateRunning).unwrap(),
            InstanceState::Running
        );
        assert!(sm.apply(EventType::UpdatePending).is_err());
    }

    #[test]
    fn terminal_classification() {
        assert!(EventType::Finish.is_terminal());
        assert!(EventType::Evict.is_terminal());
        assert!(EventType::Kill.is_terminal());
        assert!(EventType::Fail.is_terminal());
        assert!(EventType::Lost.is_terminal());
        assert!(!EventType::Submit.is_terminal());
        assert!(!EventType::UpdateRunning.is_terminal());
    }

    #[test]
    fn event_name_round_trip() {
        for e in EventType::ALL {
            assert_eq!(EventType::parse(e.name()), Some(e));
        }
        assert_eq!(EventType::parse("bogus"), None);
    }

    #[test]
    fn transition_counts() {
        let mut tc = TransitionCounts::new();
        tc.record(None, EventType::Submit);
        tc.record(None, EventType::Submit);
        tc.record(Some(InstanceState::Pending), EventType::Schedule);
        assert_eq!(tc.get(None, EventType::Submit), 2);
        assert_eq!(tc.total(), 3);
        let sorted = tc.sorted();
        assert_eq!(sorted[0].2, 2);

        let mut other = TransitionCounts::new();
        other.record(None, EventType::Submit);
        tc.merge(&other);
        assert_eq!(tc.get(None, EventType::Submit), 3);
    }
}
