//! FIFO policy: fire actors in window-arrival order.
//!
//! Not one of the paper's case studies, but the natural baseline inside
//! the framework: windows are served globally in the order they formed.
//! Source actors are scheduled every `source_interval` internal firings
//! (and whenever nothing else is runnable).
//!
//! [`FifoScheduler::pncwf`] is the simulated thread-based (PNCWF)
//! baseline. The real PNCWF director (one OS thread per actor, scheduling
//! delegated to the operating system) lives in `confluence-core` and runs
//! on the wall clock. For virtual-time experiments we model it inside the
//! SCWF executor: the OS wakes whichever thread's data arrived first, so
//! window service order is global arrival order (FIFO), sources run freely
//! (interval 1 — their threads are woken as soon as data is available),
//! and every firing pays thread overheads via
//! [`crate::cost::ThreadOverheadCost`]. The overhead parameters are the
//! calibration knob documented in EXPERIMENTS.md, "Measurement substrate".

use std::collections::VecDeque;

use confluence_core::time::{Micros, Timestamp};

use crate::framework::{ActorInfo, ActorState, Scheduler, SourceFrame};
use confluence_core::telemetry::StatsModule;

/// Global window-arrival-order scheduling.
pub struct FifoScheduler {
    name: &'static str,
    sources: SourceFrame,
    order: VecDeque<usize>,
    ready: Vec<usize>,
}

impl FifoScheduler {
    /// FIFO with a source firing every `source_interval` internal firings.
    pub fn new(source_interval: u64) -> Self {
        FifoScheduler {
            name: "FIFO",
            sources: SourceFrame::new(source_interval),
            order: VecDeque::new(),
            ready: Vec::new(),
        }
    }

    /// The thread-based baseline model: arrival order is OS thread wakeup
    /// order, and sources' threads are never held back by the engine —
    /// they are serviced between every internal firing.
    pub fn pncwf() -> Self {
        FifoScheduler {
            name: "PNCWF",
            ..Self::new(1)
        }
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        self.name
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
    fn pncwf_behaves_like_eager_fifo() {
        assert_eq!(FifoScheduler::new(1).name(), "FIFO");
        let mut s = FifoScheduler::pncwf();
        assert_eq!(s.name(), "PNCWF");
        s.init(&infos());
        s.on_source_ready(0, true);
        s.on_enqueue(1, Timestamp::ZERO);
        s.on_enqueue(1, Timestamp::ZERO);
        // Interval 1: internal, source, internal, ...
        assert_eq!(s.next_actor(), Some(1));
        assert_eq!(s.next_actor(), Some(0));
        assert_eq!(s.next_actor(), Some(1));
        assert_eq!(s.state(1), ActorState::Active);
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
