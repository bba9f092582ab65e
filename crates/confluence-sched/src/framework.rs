//! The Abstract Scheduler interface of STAFiLOS.
//!
//! The Scheduled CWF director is schedule-independent: a scheduling policy
//! implementing [`Scheduler`] is plugged into it. The framework maintains,
//! per actor, a queue of ready windows (held by the director), a state
//! (ACTIVE / WAITING / INACTIVE, Table 2), and two priority queues — one
//! for active actors and one for waiting actors — ordered by a comparator
//! the policy provides. The director signals the scheduler through the
//! hooks below at each stage of its iteration cycle (Figure 3).

use confluence_core::time::{Micros, Timestamp};

use crate::stats::StatsModule;

/// Actor scheduling states (paper §3, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorState {
    /// Can be considered for firing in the current iteration.
    Active,
    /// Waiting for something within the scheduler (quantum refresh, next
    /// period) before it can run again.
    Waiting,
    /// Has no events to process.
    Inactive,
}

/// Static description of one actor, given to the policy at initialization.
#[derive(Debug, Clone)]
pub struct ActorInfo {
    /// Index within the workflow.
    pub index: usize,
    /// Actor name (for diagnostics).
    pub name: String,
    /// Designer-assigned priority (lower = more urgent; QBS uses this).
    pub priority: i32,
    /// Whether the actor is a source. Source actors are treated
    /// independently of the rest to regulate the inflow of data.
    pub is_source: bool,
}

/// Source regulation, which the framework owns once for every policy
/// (paper §3: source actors are "treated independently of the rest to
/// regulate the inflow of data"). The frame knows which actors are
/// sources and which of them have a due arrival, and gives sources their
/// turns: one source firing per `source_interval` internal firings,
/// round-robin among the ready ones, and a ready source whenever nothing
/// else is runnable. A policy holds one frame and supplies only its own
/// pick among the internal actors.
#[derive(Debug)]
pub struct SourceFrame {
    interval: u64,
    is_source: Vec<bool>,
    ready: Vec<bool>,
    sources: Vec<usize>,
    /// Where the round-robin over `sources` resumes.
    source_rr: usize,
    internal_since_source: u64,
}

impl SourceFrame {
    /// A frame granting one source firing per `source_interval` internal
    /// firings (at least 1).
    pub fn new(source_interval: u64) -> Self {
        SourceFrame {
            interval: source_interval.max(1),
            is_source: Vec::new(),
            ready: Vec::new(),
            sources: Vec::new(),
            source_rr: 0,
            internal_since_source: 0,
        }
    }

    /// Reset and learn which of `actors` are sources.
    pub fn init(&mut self, actors: &[ActorInfo]) {
        self.is_source = vec![false; actors.len()];
        self.ready = vec![false; actors.len()];
        self.sources.clear();
        self.source_rr = 0;
        self.internal_since_source = 0;
        for a in actors.iter().filter(|a| a.is_source) {
            self.is_source[a.index] = true;
            self.sources.push(a.index);
        }
    }

    /// Whether `actor` is a source.
    pub fn is_source(&self, actor: usize) -> bool {
        self.is_source[actor]
    }

    /// Whether source `actor` has a due arrival.
    pub fn is_ready(&self, actor: usize) -> bool {
        self.ready[actor]
    }

    /// Record [`Scheduler::on_source_ready`].
    pub fn set_ready(&mut self, actor: usize, ready: bool) {
        self.ready[actor] = ready;
    }

    /// The next ready source in round-robin order, skipping unready ones.
    fn pick_source(&mut self) -> Option<usize> {
        let n = self.sources.len();
        let at = (0..n).map(|k| (self.source_rr + k) % n).find(|&i| self.ready[self.sources[i]])?;
        self.source_rr = (at + 1) % n;
        Some(self.sources[at])
    }

    /// The one [`Scheduler::next_actor`] skeleton of the source-regulating
    /// policies: a source whose turn is due, else the policy's own pick
    /// among internal actors, else any ready source.
    pub fn next_actor(&mut self, pick_internal: impl FnOnce() -> Option<usize>) -> Option<usize> {
        if self.internal_since_source >= self.interval {
            if let Some(s) = self.pick_source() {
                self.internal_since_source = 0;
                return Some(s);
            }
        }
        if let Some(a) = pick_internal() {
            self.internal_since_source += 1;
            return Some(a);
        }
        self.pick_source()
    }

    /// Table 2 state of a regulated source — ACTIVE with a due arrival,
    /// WAITING without, never INACTIVE; `None` for an internal actor,
    /// whose state is its policy's to tell.
    pub fn state(&self, actor: usize) -> Option<ActorState> {
        let state = if self.ready[actor] { ActorState::Active } else { ActorState::Waiting };
        self.is_source[actor].then_some(state)
    }
}

/// A pluggable scheduling policy for the Scheduled CWF director.
///
/// ### Contract with the director
///
/// * [`Scheduler::on_enqueue`] — one window became ready for `actor`
///   (called once per window, with the window's earliest wave-origin
///   timestamp so deadline-aware policies can order by staleness).
/// * [`Scheduler::on_source_ready`] — `actor` (a source) has/hasn't a due
///   arrival; called whenever readiness changes.
/// * [`Scheduler::next_actor`] — pick the next actor to fire; `None` ends
///   the director iteration (the director then calls
///   [`Scheduler::end_iteration`] for maintenance such as
///   re-quantification, and restarts or advances time).
/// * [`Scheduler::after_fire`] — the chosen actor fired with the given
///   cost; `remaining` is the number of windows still queued for it.
///   Internal actors consume exactly one window per firing.
pub trait Scheduler: Send {
    /// Policy name (for reports).
    fn name(&self) -> &'static str;

    /// Reset and learn the actor population.
    fn init(&mut self, actors: &[ActorInfo]);

    /// A window became ready for `actor`; `origin` is the earliest
    /// external-event timestamp among the window's events.
    fn on_enqueue(&mut self, actor: usize, origin: Timestamp);

    /// Source readiness changed (a timetable arrival became due, or the
    /// source exhausted).
    fn on_source_ready(&mut self, actor: usize, ready: bool);

    /// Choose the next actor to fire.
    fn next_actor(&mut self) -> Option<usize>;

    /// Record the outcome of the firing of `actor`.
    fn after_fire(&mut self, actor: usize, cost: Micros, remaining: usize, stats: &StatsModule);

    /// End-of-iteration maintenance (re-quantification, period flip,
    /// priority recomputation). Returns `true` if the maintenance made any
    /// actor runnable again — the director then starts a new iteration
    /// immediately instead of advancing time.
    fn end_iteration(&mut self, stats: &StatsModule) -> bool;

    /// Current state of an actor (Table 2), for inspection and tests.
    fn state(&self, actor: usize) -> ActorState;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_state_is_comparable() {
        assert_eq!(ActorState::Active, ActorState::Active);
        assert_ne!(ActorState::Active, ActorState::Waiting);
    }

    fn info(index: usize, is_source: bool) -> ActorInfo {
        ActorInfo {
            index,
            name: format!("a{index}"),
            priority: 20,
            is_source,
        }
    }

    #[test]
    fn the_frame_regulates_two_sources() {
        // Actors 0 and 2 are sources, 1 is internal; a source turn is due
        // after every 2 internal firings.
        let mut f = SourceFrame::new(2);
        f.init(&[info(0, true), info(1, false), info(2, true)]);
        assert_eq!(f.state(1), None, "an internal actor's state is its policy's");
        assert_eq!(f.state(0), Some(ActorState::Waiting));
        f.set_ready(2, true);
        assert_eq!(f.state(2), Some(ActorState::Active));

        // Internal work first: no source turn is due yet.
        assert_eq!(f.next_actor(|| Some(1)), Some(1));
        assert_eq!(f.next_actor(|| Some(1)), Some(1));
        // Due: the cursor stands at source 0, which is unready, and
        // advances past it to source 2; the policy is not even asked.
        assert_eq!(f.next_actor(|| unreachable!("a source turn is due")), Some(2));
        // The source firing reset the interval counter: two internal
        // firings pass before the next source turn.
        f.set_ready(0, true);
        assert_eq!(f.next_actor(|| Some(1)), Some(1));
        assert_eq!(f.next_actor(|| Some(1)), Some(1));
        // The cursor moved past 2, so the round-robin resumes at 0.
        assert_eq!(f.next_actor(|| Some(1)), Some(0));
        // With both ready the turns alternate; nothing internal is
        // runnable, so each call falls back to a ready source.
        assert_eq!(f.next_actor(|| None), Some(2));
        assert_eq!(f.next_actor(|| None), Some(0));
        f.set_ready(0, false);
        f.set_ready(2, false);
        assert_eq!(f.next_actor(|| None), None, "nothing runnable at all");
        // A due turn with no ready source leaves the turn due.
        assert_eq!(f.next_actor(|| Some(1)), Some(1));
        assert_eq!(f.next_actor(|| Some(1)), Some(1));
        assert_eq!(f.next_actor(|| Some(1)), Some(1));
        f.set_ready(2, true);
        assert_eq!(f.next_actor(|| Some(1)), Some(2));
    }

    #[test]
    fn actor_info_is_cloneable() {
        let i = ActorInfo {
            index: 1,
            name: "x".into(),
            priority: 5,
            is_source: true,
        };
        let j = i.clone();
        assert_eq!(j.index, 1);
        assert_eq!(j.name, "x");
        assert_eq!(j.priority, 5);
        assert!(j.is_source);
    }
}
