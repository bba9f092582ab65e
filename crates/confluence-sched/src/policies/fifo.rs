//! FIFO policy: fire actors in window-arrival order.
//!
//! Not one of the paper's case studies, but the natural baseline inside
//! the framework: windows are served globally in the order they formed.
//! Source actors are scheduled every `source_interval` internal firings
//! (and whenever nothing else is runnable).

use std::collections::VecDeque;

use confluence_core::time::{Micros, Timestamp};

use crate::framework::{ActorInfo, ActorState, Scheduler, SourceFrame};
use crate::stats::StatsModule;

/// Global window-arrival-order scheduling.
pub struct FifoScheduler {
    sources: SourceFrame,
    order: VecDeque<usize>,
    ready: Vec<usize>,
}

impl FifoScheduler {
    /// FIFO with a source firing every `source_interval` internal firings.
    pub fn new(source_interval: u64) -> Self {
        FifoScheduler {
            sources: SourceFrame::new(source_interval),
            order: VecDeque::new(),
            ready: Vec::new(),
        }
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn init(&mut self, actors: &[ActorInfo]) {
        self.sources.init(actors);
        self.order.clear();
        self.ready = vec![0; actors.len()];
    }

    fn on_enqueue(&mut self, actor: usize, _origin: Timestamp) {
        self.ready[actor] += 1;
        self.order.push_back(actor);
    }

    fn on_source_ready(&mut self, actor: usize, ready: bool) {
        self.sources.set_ready(actor, ready);
    }

    fn next_actor(&mut self) -> Option<usize> {
        self.sources.next_actor(|| self.order.pop_front())
    }

    fn after_fire(&mut self, actor: usize, _cost: Micros, remaining: usize, _stats: &StatsModule) {
        if !self.sources.is_source(actor) {
            self.ready[actor] = remaining;
        }
    }

    fn end_iteration(&mut self, _stats: &StatsModule) -> bool {
        false
    }

    fn state(&self, actor: usize) -> ActorState {
        self.sources.state(actor).unwrap_or(if self.ready[actor] > 0 {
            ActorState::Active
        } else {
            ActorState::Inactive
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
        // A stats module over an empty workflow is fine for policy tests.
        use confluence_core::graph::WorkflowBuilder;
        StatsModule::new(&WorkflowBuilder::new("empty").build().unwrap())
    }

    #[test]
    fn serves_windows_in_arrival_order() {
        let mut f = FifoScheduler::new(100);
        f.init(&infos());
        f.on_enqueue(2, Timestamp::ZERO);
        f.on_enqueue(1, Timestamp::ZERO);
        f.on_enqueue(2, Timestamp::ZERO);
        assert_eq!(f.next_actor(), Some(2));
        assert_eq!(f.next_actor(), Some(1));
        assert_eq!(f.next_actor(), Some(2));
        assert_eq!(f.next_actor(), None);
    }

    #[test]
    fn interleaves_sources_by_interval() {
        let mut f = FifoScheduler::new(2);
        f.init(&infos());
        f.on_source_ready(0, true);
        for _ in 0..4 {
            f.on_enqueue(1, Timestamp::ZERO);
        }
        assert_eq!(f.next_actor(), Some(1));
        assert_eq!(f.next_actor(), Some(1));
        // Two internal firings done: the source gets its slot.
        assert_eq!(f.next_actor(), Some(0));
        assert_eq!(f.next_actor(), Some(1));
    }

    #[test]
    fn falls_back_to_source_when_idle() {
        let mut f = FifoScheduler::new(100);
        f.init(&infos());
        assert_eq!(f.next_actor(), None);
        f.on_source_ready(0, true);
        assert_eq!(f.next_actor(), Some(0));
    }

    #[test]
    fn states_reflect_readiness() {
        let mut f = FifoScheduler::new(5);
        f.init(&infos());
        let s = stats();
        assert_eq!(f.state(1), ActorState::Inactive);
        f.on_enqueue(1, Timestamp::ZERO);
        assert_eq!(f.state(1), ActorState::Active);
        let a = f.next_actor().unwrap();
        f.after_fire(a, Micros(10), 0, &s);
        assert_eq!(f.state(1), ActorState::Inactive);
        assert_eq!(f.state(0), ActorState::Waiting);
        f.on_source_ready(0, true);
        assert_eq!(f.state(0), ActorState::Active);
        assert!(!f.end_iteration(&s));
    }
}
