//! The Rate-Based scheduler (RB), paper §3.1.3.
//!
//! Based on the Highest Rate scheduler of Sharaf et al. \[28\] — the best
//! performing CQ scheduler with respect to average response time. Actor
//! priorities are dynamic: `Pr(A) = S_A / C_A`, the actor's *global*
//! selectivity over its *global* average cost (aggregated over downstream
//! paths when the actor feeds several branches).
//!
//! Event processing is divided into periods: events enqueued during the
//! current period are buffered and only join their actors' queues when the
//! period ends. A period ends when the active queue empties — every actor
//! has no more (current-period) events and every source has executed once.
//! Dynamic priorities are re-evaluated at each period boundary.
//!
//! Notably, RB does **not** privilege source actors (they compete on
//! priority like everything else) — which is why the paper's evaluation
//! finds its response times the worst among the STAFiLOS schedulers:
//! tokens wait longer to enter the workflow.

use confluence_core::time::{Micros, Timestamp};

use crate::framework::{ActorInfo, ActorState, Scheduler, SourceFrame};
use confluence_core::telemetry::StatsModule;

/// Highest-Rate scheduling with period-buffered admission.
pub struct RbScheduler {
    /// Events deliverable in the current period, per actor.
    current: Vec<usize>,
    /// Events buffered for the next period, per actor.
    next: Vec<usize>,
    priorities: Vec<f64>,
    fired_this_period: Vec<bool>,
    /// Read for its source flags only: RB never grants a source a turn
    /// of its own, so the interval is never consulted.
    sources: SourceFrame,
}

impl RbScheduler {
    /// A fresh RB scheduler.
    pub fn new() -> Self {
        RbScheduler {
            current: Vec::new(),
            next: Vec::new(),
            priorities: Vec::new(),
            fired_this_period: Vec::new(),
            sources: SourceFrame::new(1),
        }
    }

    fn recompute_priorities(&mut self, stats: &StatsModule) {
        for a in 0..self.priorities.len() {
            self.priorities[a] = stats.fresh_rate_priority(a);
        }
    }
}

impl Default for RbScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for RbScheduler {
    fn name(&self) -> &'static str {
        "RB"
    }

    fn init(&mut self, actors: &[ActorInfo]) {
        let n = actors.len();
        self.current = vec![0; n];
        self.next = vec![0; n];
        self.priorities = vec![f64::INFINITY; n];
        self.fired_this_period = vec![false; n];
        self.sources.init(actors);
    }

    fn on_enqueue(&mut self, actor: usize, _origin: Timestamp) {
        // Newly enqueued events are kept in a buffer and join the actor's
        // queue once the current period is over.
        self.next[actor] += 1;
    }

    fn on_source_ready(&mut self, actor: usize, ready: bool) {
        self.sources.set_ready(actor, ready);
    }

    fn next_actor(&mut self) -> Option<usize> {
        // Candidates: internal actors with current-period events, plus
        // sources that have not fired this period (and have a due arrival).
        let mut best: Option<(f64, usize)> = None;
        for a in 0..self.current.len() {
            let runnable = if self.sources.is_source(a) {
                !self.fired_this_period[a] && self.sources.is_ready(a)
            } else {
                self.current[a] > 0
            };
            if !runnable {
                continue;
            }
            let p = self.priorities[a];
            match best {
                Some((bp, _)) if bp >= p => {}
                _ => best = Some((p, a)),
            }
        }
        best.map(|(_, a)| a)
    }

    fn after_fire(&mut self, actor: usize, _cost: Micros, _remaining: usize, _stats: &StatsModule) {
        if self.sources.is_source(actor) {
            self.fired_this_period[actor] = true;
        } else if self.current[actor] > 0 {
            self.current[actor] -= 1;
        }
    }

    fn end_iteration(&mut self, stats: &StatsModule) -> bool {
        // Period boundary: admit the buffered events, reset source marks,
        // re-evaluate dynamic priorities.
        let mut admitted = false;
        for a in 0..self.current.len() {
            if self.next[a] > 0 {
                self.current[a] += self.next[a];
                self.next[a] = 0;
                admitted = true;
            }
        }
        for f in &mut self.fired_this_period {
            *f = false;
        }
        self.recompute_priorities(stats);
        admitted
    }

    fn state(&self, actor: usize) -> ActorState {
        if self.sources.is_source(actor) {
            // Table 2: ACTIVE while not yet fired this period, WAITING
            // after; sources never go inactive.
            if self.fired_this_period[actor] {
                ActorState::Waiting
            } else {
                ActorState::Active
            }
        } else if self.current[actor] > 0 {
            ActorState::Active
        } else if self.next[actor] > 0 {
            ActorState::Waiting
        } else {
            ActorState::Inactive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_core::time::Timestamp;

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
                name: "cheap".into(),
                priority: 20,
                is_source: false,
            },
            ActorInfo {
                index: 2,
                name: "pricey".into(),
                priority: 20,
                is_source: false,
            },
        ]
    }

    /// Stats over a src→{cheap,pricey} line so global metrics exist.
    fn seeded_stats() -> StatsModule {
        use confluence_core::actor::{Actor, FireContext, IoSignature};
        use confluence_core::actors::VecSource;
        use confluence_core::error::Result;
        use confluence_core::graph::WorkflowBuilder;
        struct Sink;
        impl Actor for Sink {
            fn signature(&self) -> IoSignature {
                IoSignature::sink("in")
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
                Ok(())
            }
        }
        let mut b = WorkflowBuilder::new("s");
        let s = b.add_actor("src", VecSource::new(vec![]));
        let c = b.add_actor("cheap", Sink);
        let p = b.add_actor("pricey", Sink);
        b.link((s, "out"), (c, "in")).unwrap();
        b.link((s, "out"), (p, "in")).unwrap();
        let wf = b.build().unwrap();
        let stats = StatsModule::new(&wf);
        stats.record_fire(1, Micros(10), 10, 10, Timestamp(1));
        stats.record_fire(2, Micros(1_000), 10, 10, Timestamp(1));
        stats
    }

    #[test]
    fn events_buffer_until_period_end() {
        let mut rb = RbScheduler::new();
        rb.init(&infos());
        rb.on_enqueue(1, Timestamp::ZERO);
        assert_eq!(rb.state(1), ActorState::Waiting, "buffered for next period");
        assert_eq!(rb.next_actor(), None);
        assert!(rb.end_iteration(&seeded_stats()));
        assert_eq!(rb.state(1), ActorState::Active);
        assert_eq!(rb.next_actor(), Some(1));
    }

    #[test]
    fn highest_rate_wins() {
        let stats = seeded_stats();
        let mut rb = RbScheduler::new();
        rb.init(&infos());
        rb.on_enqueue(1, Timestamp::ZERO);
        rb.on_enqueue(2, Timestamp::ZERO);
        rb.end_iteration(&stats);
        // cheap has far higher Pr = S/C.
        assert!(rb.priorities[1] > rb.priorities[2]);
        assert_eq!(rb.next_actor(), Some(1));
        rb.after_fire(1, Micros(10), 0, &stats);
        assert_eq!(rb.next_actor(), Some(2));
        rb.after_fire(2, Micros(10), 0, &stats);
        assert_eq!(rb.next_actor(), None);
    }

    #[test]
    fn sources_fire_once_per_period() {
        let stats = seeded_stats();
        let mut rb = RbScheduler::new();
        rb.init(&infos());
        rb.on_source_ready(0, true);
        assert_eq!(rb.state(0), ActorState::Active);
        assert_eq!(rb.next_actor(), Some(0));
        rb.after_fire(0, Micros(1), 0, &stats);
        assert_eq!(rb.state(0), ActorState::Waiting);
        assert_eq!(rb.next_actor(), None, "source already fired this period");
        rb.end_iteration(&stats);
        assert_eq!(rb.state(0), ActorState::Active);
        assert_eq!(rb.next_actor(), Some(0));
    }

    #[test]
    fn unready_source_not_selected() {
        let mut rb = RbScheduler::new();
        rb.init(&infos());
        rb.on_source_ready(0, false);
        assert_eq!(rb.next_actor(), None);
    }

    #[test]
    fn mid_period_arrivals_wait() {
        let stats = seeded_stats();
        let mut rb = RbScheduler::new();
        rb.init(&infos());
        rb.on_enqueue(1, Timestamp::ZERO);
        rb.end_iteration(&stats);
        // During this period another event arrives for actor 1.
        rb.on_enqueue(1, Timestamp::ZERO);
        assert_eq!(rb.next_actor(), Some(1));
        rb.after_fire(1, Micros(1), 1, &stats);
        // Current-period count is spent; the new arrival is buffered.
        assert_eq!(rb.next_actor(), None);
        assert_eq!(rb.state(1), ActorState::Waiting);
        assert!(rb.end_iteration(&stats));
        assert_eq!(rb.next_actor(), Some(1));
    }
}
