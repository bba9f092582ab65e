//! The Round-Robin scheduler (RR), paper §3.1.2.
//!
//! At each scheduling period every active actor receives a time slice
//! (quantum) and actors process their available events in round-robin
//! order. An actor that drains its events turns inactive and gives up its
//! remaining slice; one that exhausts its slice waits for the next period.
//! New events arriving within the period are processed if the actor still
//! has slice left; an inactive actor receiving events gets a fresh slice
//! and joins the end of the round-robin queue.
//!
//! Sources are scheduled at regular intervals like in QBS.

use std::collections::VecDeque;

use confluence_core::time::{Micros, Timestamp};

use crate::framework::{ActorInfo, ActorState, Scheduler, SourceFrame};
use confluence_core::telemetry::StatsModule;

/// Fair round-robin with per-period time slices.
pub struct RrScheduler {
    /// The time slice granted per period, in microseconds.
    pub slice: u64,
    sources: SourceFrame,
    remaining: Vec<i64>,
    ready: Vec<usize>,
    state: Vec<ActorState>,
    queue: VecDeque<usize>,
    in_queue: Vec<bool>,
}

impl RrScheduler {
    /// RR with the given slice (µs) and source interval.
    pub fn new(slice: u64, source_interval: u64) -> Self {
        RrScheduler {
            slice: slice.max(1),
            sources: SourceFrame::new(source_interval),
            remaining: Vec::new(),
            ready: Vec::new(),
            state: Vec::new(),
            queue: VecDeque::new(),
            in_queue: Vec::new(),
        }
    }

    fn enqueue_rr(&mut self, a: usize) {
        if !self.in_queue[a] {
            self.queue.push_back(a);
            self.in_queue[a] = true;
        }
        self.state[a] = ActorState::Active;
    }
}

impl Scheduler for RrScheduler {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn init(&mut self, actors: &[ActorInfo]) {
        let n = actors.len();
        self.sources.init(actors);
        self.remaining = vec![self.slice as i64; n];
        self.ready = vec![0; n];
        self.state = vec![ActorState::Inactive; n];
        self.queue.clear();
        self.in_queue = vec![false; n];
    }

    fn on_enqueue(&mut self, actor: usize, _origin: Timestamp) {
        self.ready[actor] += 1;
        if self.sources.is_source(actor) {
            return;
        }
        if self.state[actor] == ActorState::Inactive {
            // Fresh slice; joins the end of the round-robin queue.
            self.remaining[actor] = self.slice as i64;
            self.enqueue_rr(actor);
        }
    }

    fn on_source_ready(&mut self, actor: usize, ready: bool) {
        self.sources.set_ready(actor, ready);
    }

    fn next_actor(&mut self) -> Option<usize> {
        self.sources.next_actor(|| {
            while let Some(a) = self.queue.pop_front() {
                self.in_queue[a] = false;
                if self.state[a] == ActorState::Active && self.ready[a] > 0 {
                    return Some(a);
                }
            }
            None
        })
    }

    fn after_fire(&mut self, actor: usize, cost: Micros, remaining: usize, _stats: &StatsModule) {
        if self.sources.is_source(actor) {
            return;
        }
        self.ready[actor] = remaining;
        self.remaining[actor] -= cost.as_micros() as i64;
        if remaining == 0 {
            // Drained: inactive, gives up the rest of the slice.
            self.state[actor] = ActorState::Inactive;
        } else if self.remaining[actor] > 0 {
            self.enqueue_rr(actor);
        } else {
            self.state[actor] = ActorState::Waiting;
        }
    }

    fn end_iteration(&mut self, _stats: &StatsModule) -> bool {
        // New period: every waiting actor gets a fresh slice.
        let mut any = false;
        for a in 0..self.state.len() {
            if self.state[a] == ActorState::Waiting {
                self.remaining[a] = self.slice as i64;
                if self.ready[a] > 0 {
                    self.enqueue_rr(a);
                    any = true;
                } else {
                    self.state[a] = ActorState::Inactive;
                }
            }
        }
        any
    }

    fn state(&self, actor: usize) -> ActorState {
        self.sources.state(actor).unwrap_or(self.state[actor])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infos() -> Vec<ActorInfo> {
        vec![
            ActorInfo {
                index: 0,
                name: "src".into(),
                priority: 20,
                is_source: true,
            },
            ActorInfo {
                index: 1,
                name: "a".into(),
                priority: 20,
                is_source: false,
            },
            ActorInfo {
                index: 2,
                name: "b".into(),
                priority: 20,
                is_source: false,
            },
        ]
    }

    fn stats() -> StatsModule {
        use confluence_core::graph::WorkflowBuilder;
        StatsModule::new(&WorkflowBuilder::new("empty").build().unwrap())
    }

    #[test]
    fn round_robin_alternation() {
        let mut r = RrScheduler::new(1_000, 100);
        r.init(&infos());
        let s = stats();
        r.on_enqueue(1, Timestamp::ZERO);
        r.on_enqueue(1, Timestamp::ZERO);
        r.on_enqueue(2, Timestamp::ZERO);
        r.on_enqueue(2, Timestamp::ZERO);
        let mut picks = Vec::new();
        for _ in 0..4 {
            let a = r.next_actor().unwrap();
            picks.push(a);
            let left = r.ready[a] - 1;
            r.after_fire(a, Micros(10), left, &s);
        }
        assert_eq!(picks, vec![1, 2, 1, 2], "alternates between the two");
    }

    #[test]
    fn slice_exhaustion_waits_for_next_period() {
        let mut r = RrScheduler::new(100, 100);
        r.init(&infos());
        let s = stats();
        r.on_enqueue(1, Timestamp::ZERO);
        r.on_enqueue(1, Timestamp::ZERO);
        let a = r.next_actor().unwrap();
        r.after_fire(a, Micros(150), 1, &s); // overshoots the slice
        assert_eq!(r.state(1), ActorState::Waiting);
        assert_eq!(r.next_actor(), None);
        assert!(r.end_iteration(&s), "new period reactivates");
        assert_eq!(r.state(1), ActorState::Active);
        assert_eq!(r.remaining[1], 100, "fresh slice");
    }

    #[test]
    fn drained_actor_gives_up_slice() {
        let mut r = RrScheduler::new(1_000, 100);
        r.init(&infos());
        let s = stats();
        r.on_enqueue(1, Timestamp::ZERO);
        let a = r.next_actor().unwrap();
        r.after_fire(a, Micros(10), 0, &s);
        assert_eq!(r.state(1), ActorState::Inactive);
        // New events: fresh slice, back of the queue.
        r.on_enqueue(1, Timestamp::ZERO);
        assert_eq!(r.state(1), ActorState::Active);
        assert_eq!(r.remaining[1], 1_000);
    }

    #[test]
    fn sources_by_interval_and_fallback() {
        let mut r = RrScheduler::new(1_000, 1);
        r.init(&infos());
        r.on_source_ready(0, true);
        let s = stats();
        r.on_enqueue(1, Timestamp::ZERO);
        let first = r.next_actor().unwrap();
        assert_eq!(first, 1);
        r.after_fire(first, Micros(1), 1, &s);
        // Interval of 1: the source gets the next slot.
        assert_eq!(r.next_actor(), Some(0));
        r.after_fire(0, Micros(1), 0, &s);
        assert_eq!(r.next_actor(), Some(1));
        r.after_fire(1, Micros(1), 0, &s);
        assert_eq!(r.next_actor(), Some(0), "idle → ready source");
    }

    #[test]
    fn end_iteration_without_waiters_reports_false() {
        let mut r = RrScheduler::new(1_000, 5);
        r.init(&infos());
        assert!(!r.end_iteration(&stats()));
    }
}
