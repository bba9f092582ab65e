//! An earliest-deadline-first policy (extension).
//!
//! The paper's introduction lists QoS requirements "from specifying a
//! delay target, to keeping a fraction of results below a response time
//! target, to minimizing tardiness" — but none of its three case-study
//! policies orders work by how close each event is to violating its
//! target. `EdfScheduler` does, for one delay target shared by every
//! window: a window's deadline is then its earliest wave-origin plus a
//! constant, so earliest deadline is oldest origin, and the actor whose
//! head window has the oldest origin fires next — the greedy minimizer of
//! maximum tardiness. The target itself never enters the comparison, so
//! the policy does not take one.
//!
//! Sources are scheduled at regular intervals like QBS/RR — a fresh
//! external event's deadline is far away by construction, so without the
//! interval the policy would starve the inflow exactly like RB does.

use std::collections::VecDeque;

use confluence_core::time::{Micros, Timestamp};

use crate::framework::{ActorInfo, ActorState, Scheduler, SourceFrame};
use crate::stats::StatsModule;

/// Earliest-deadline-first over window origins.
pub struct EdfScheduler {
    sources: SourceFrame,
    /// Per-actor queues of origin timestamps, in delivery (FIFO) order —
    /// the director always hands the actor its oldest window first, so the
    /// head of this queue is the actor's most urgent deadline.
    origins: Vec<VecDeque<Timestamp>>,
}

impl EdfScheduler {
    /// EDF with the given source interval.
    pub fn new(source_interval: u64) -> Self {
        EdfScheduler {
            sources: SourceFrame::new(source_interval),
            origins: Vec::new(),
        }
    }
}

impl Scheduler for EdfScheduler {
    fn name(&self) -> &'static str {
        "EDF"
    }

    fn init(&mut self, actors: &[ActorInfo]) {
        self.sources.init(actors);
        self.origins = (0..actors.len()).map(|_| VecDeque::new()).collect();
    }

    fn on_enqueue(&mut self, actor: usize, origin: Timestamp) {
        if !self.sources.is_source(actor) {
            self.origins[actor].push_back(origin);
        }
    }

    fn on_source_ready(&mut self, actor: usize, ready: bool) {
        self.sources.set_ready(actor, ready);
    }

    fn next_actor(&mut self) -> Option<usize> {
        // Earliest head deadline = earliest head origin.
        self.sources.next_actor(|| {
            let heads = self.origins.iter().enumerate();
            let best = heads.filter_map(|(a, q)| q.front().map(|o| (*o, a))).min();
            best.map(|(_, a)| a)
        })
    }

    fn after_fire(&mut self, actor: usize, _cost: Micros, remaining: usize, _stats: &StatsModule) {
        if self.sources.is_source(actor) {
            return;
        }
        self.origins[actor].pop_front();
        // A bounded port may shed a window the policy was already told
        // of (`DropOldest`): the inbox length is authoritative, and the
        // oldest origins are the ones that went.
        while self.origins[actor].len() > remaining {
            self.origins[actor].pop_front();
        }
    }

    fn end_iteration(&mut self, _stats: &StatsModule) -> bool {
        false
    }

    fn state(&self, actor: usize) -> ActorState {
        self.sources.state(actor).unwrap_or(if self.origins[actor].is_empty() {
            ActorState::Inactive
        } else {
            ActorState::Active
        })
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
    fn picks_the_stalest_head_first() {
        let mut e = EdfScheduler::new(100);
        e.init(&infos());
        e.on_enqueue(1, Timestamp(500));
        e.on_enqueue(2, Timestamp(100)); // staler
        e.on_enqueue(1, Timestamp(50)); // stale but behind 500 in actor 1's FIFO
        let s = stats();
        assert_eq!(e.next_actor(), Some(2), "actor 2's head is oldest");
        e.after_fire(2, Micros(1), 0, &s);
        assert_eq!(e.next_actor(), Some(1));
        e.after_fire(1, Micros(1), 1, &s);
        assert_eq!(e.next_actor(), Some(1));
        e.after_fire(1, Micros(1), 0, &s);
        assert_eq!(e.next_actor(), None);
    }

    #[test]
    fn sources_by_interval() {
        let mut e = EdfScheduler::new(1);
        e.init(&infos());
        e.on_source_ready(0, true);
        e.on_enqueue(1, Timestamp(1));
        let s = stats();
        assert_eq!(e.next_actor(), Some(1));
        e.after_fire(1, Micros(1), 0, &s);
        assert_eq!(e.next_actor(), Some(0), "interval slot");
        e.after_fire(0, Micros(1), 0, &s);
        assert_eq!(e.next_actor(), Some(0), "idle fallback to ready source");
    }

    #[test]
    fn states() {
        let mut e = EdfScheduler::new(5);
        e.init(&infos());
        assert_eq!(e.state(1), ActorState::Inactive);
        e.on_enqueue(1, Timestamp(9));
        assert_eq!(e.state(1), ActorState::Active);
        assert_eq!(e.state(0), ActorState::Waiting);
        e.on_source_ready(0, true);
        assert_eq!(e.state(0), ActorState::Active);
        assert!(!e.end_iteration(&stats()));
    }
}
