//! The Quantum Priority Based Scheduler (QBS), paper §3.1.1.
//!
//! Largely based on the Linux O(1) process scheduler. The workflow
//! designer assigns actor priorities; the scheduler converts them into
//! quanta of execution allowance (Equation 1):
//!
//! ```text
//! q = (40 − p) ·  b   for p ≥ 20
//! q = (40 − p) · 4b   for p < 20
//! ```
//!
//! where `p` is the priority (lower = more urgent), `b` the basic quantum,
//! and `q` the allowance in microseconds granted at each re-quantification.
//!
//! Actors with ready events split into *active* (positive quantum) and
//! *waiting* (non-positive quantum). Active actors are served in ascending
//! priority order, FIFO within a class. When every actor with events has
//! exhausted its quantum, the scheduler re-quantifies and swaps the
//! queues; a deeply negative quantum can survive one re-quantification
//! (the actor stays waiting). An actor that drains its queue turns
//! inactive, its quantum preserved until new events arrive.
//!
//! Source actors are scheduled independently, at regular intervals (one
//! source firing every `source_interval` internal invocations), to
//! regulate the inflow of data.

use std::collections::{BTreeMap, VecDeque};

use confluence_core::time::{Micros, Timestamp};

use crate::framework::{ActorInfo, ActorState, Scheduler, SourceFrame};
use crate::stats::StatsModule;

/// Quantum Priority Based scheduling.
pub struct QbsScheduler {
    /// Basic quantum `b` in microseconds.
    pub basic_quantum: u64,
    sources: SourceFrame,
    priority: Vec<i32>,
    quantum: Vec<i64>,
    ready: Vec<usize>,
    state: Vec<ActorState>,
    /// Active internal actors: priority class → FIFO queue.
    active: BTreeMap<i32, VecDeque<usize>>,
    in_active: Vec<bool>,
}

impl QbsScheduler {
    /// QBS with basic quantum `b` (µs) and the given source interval.
    pub fn new(basic_quantum: u64, source_interval: u64) -> Self {
        QbsScheduler {
            // A zero basic quantum would make re-quantification diverge.
            basic_quantum: basic_quantum.max(1),
            sources: SourceFrame::new(source_interval),
            priority: Vec::new(),
            quantum: Vec::new(),
            ready: Vec::new(),
            state: Vec::new(),
            active: BTreeMap::new(),
            in_active: Vec::new(),
        }
    }

    /// Equation 1: the quantum allotted to priority `p` per
    /// re-quantification (delegates to the shared estimator core so the
    /// wall-clock Quantum pool policy uses the identical allotments).
    pub fn allotment(&self, p: i32) -> i64 {
        confluence_core::telemetry::estimator::qbs_allotment(p, self.basic_quantum)
    }

    fn activate(&mut self, a: usize) {
        if !self.in_active[a] {
            self.active.entry(self.priority[a]).or_default().push_back(a);
            self.in_active[a] = true;
        }
        self.state[a] = ActorState::Active;
    }
}

impl Scheduler for QbsScheduler {
    fn name(&self) -> &'static str {
        "QBS"
    }

    fn init(&mut self, actors: &[ActorInfo]) {
        let n = actors.len();
        self.sources.init(actors);
        self.priority = vec![20; n];
        self.quantum = vec![0; n];
        self.ready = vec![0; n];
        self.state = vec![ActorState::Inactive; n];
        self.active.clear();
        self.in_active = vec![false; n];
        for a in actors {
            self.priority[a.index] = a.priority;
            self.quantum[a.index] = self.allotment(a.priority);
        }
    }

    fn on_enqueue(&mut self, actor: usize, _origin: Timestamp) {
        self.ready[actor] += 1;
        if self.sources.is_source(actor) {
            return;
        }
        if self.state[actor] == ActorState::Inactive {
            // Quantum was preserved while inactive; re-evaluate the state.
            if self.quantum[actor] > 0 {
                self.activate(actor);
            } else {
                self.state[actor] = ActorState::Waiting;
            }
        }
    }

    fn on_source_ready(&mut self, actor: usize, ready: bool) {
        self.sources.set_ready(actor, ready);
    }

    fn next_actor(&mut self) -> Option<usize> {
        // The head of the most urgent non-empty priority class.
        self.sources.next_actor(|| {
            let (&p, _) = self.active.iter().find(|(_, q)| !q.is_empty())?;
            let q = self.active.get_mut(&p).expect("found above");
            let a = q.pop_front().expect("non-empty");
            if q.is_empty() {
                self.active.remove(&p);
            }
            self.in_active[a] = false;
            Some(a)
        })
    }

    fn after_fire(&mut self, actor: usize, cost: Micros, remaining: usize, _stats: &StatsModule) {
        if self.sources.is_source(actor) {
            return;
        }
        self.ready[actor] = remaining;
        self.quantum[actor] -= cost.as_micros() as i64;
        if remaining == 0 {
            self.state[actor] = ActorState::Inactive;
        } else if self.quantum[actor] > 0 {
            self.activate(actor);
        } else {
            self.state[actor] = ActorState::Waiting;
        }
    }

    fn end_iteration(&mut self, _stats: &StatsModule) -> bool {
        // Re-quantification (per the Linux-style accounting the paper
        // bases QBS on): every actor holding events receives a fresh
        // allotment *on top of* its remaining quantum. An actor that the
        // priority order kept from running therefore accumulates
        // allowance across re-quantification periods — which is exactly
        // the paper's explanation for small basic quanta hurting: low-
        // priority actors accumulate quantum (and events) and, when their
        // turn comes, starve the high-priority output actors.
        let waiting_with_events: Vec<usize> = (0..self.state.len())
            .filter(|&a| self.state[a] == ActorState::Waiting && self.ready[a] > 0)
            .collect();
        // Event-less waiters fall back to inactive (quantum preserved).
        for a in 0..self.state.len() {
            if self.state[a] == ActorState::Waiting && self.ready[a] == 0 {
                self.quantum[a] += self.allotment(self.priority[a]);
                self.state[a] = ActorState::Inactive;
            }
        }
        if waiting_with_events.is_empty() {
            return false;
        }
        let mut any_active = false;
        // Deeply negative quanta may need several rounds; each round
        // strictly increases the quantum, so this terminates.
        while !any_active {
            for &a in &waiting_with_events {
                if self.state[a] != ActorState::Waiting {
                    continue;
                }
                self.quantum[a] += self.allotment(self.priority[a]);
                if self.quantum[a] > 0 {
                    self.activate(a);
                    any_active = true;
                }
            }
        }
        // Accumulation for actors already runnable (they keep their spot
        // in the active queue).
        for a in 0..self.state.len() {
            if self.state[a] == ActorState::Active
                && !self.sources.is_source(a)
                && self.ready[a] > 0
                && !waiting_with_events.contains(&a)
            {
                self.quantum[a] += self.allotment(self.priority[a]);
            }
        }
        true
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
                name: "urgent".into(),
                priority: 5,
                is_source: false,
            },
            ActorInfo {
                index: 2,
                name: "normal".into(),
                priority: 10,
                is_source: false,
            },
            ActorInfo {
                index: 3,
                name: "lazy".into(),
                priority: 25,
                is_source: false,
            },
        ]
    }

    fn stats() -> StatsModule {
        use confluence_core::graph::WorkflowBuilder;
        StatsModule::new(&WorkflowBuilder::new("empty").build().unwrap())
    }

    #[test]
    fn equation_1_allotments() {
        let q = QbsScheduler::new(500, 5);
        // p ≥ 20 → (40−p)·b; p < 20 → (40−p)·4b.
        assert_eq!(q.allotment(20), 20 * 500);
        assert_eq!(q.allotment(25), 15 * 500);
        assert_eq!(q.allotment(19), 21 * 4 * 500);
        assert_eq!(q.allotment(5), 35 * 4 * 500);
    }

    #[test]
    fn serves_by_ascending_priority_fifo_within_class() {
        let mut q = QbsScheduler::new(500, 100);
        q.init(&infos());
        q.on_enqueue(3, Timestamp::ZERO);
        q.on_enqueue(2, Timestamp::ZERO);
        q.on_enqueue(1, Timestamp::ZERO);
        q.on_enqueue(2, Timestamp::ZERO);
        let s = stats();
        // urgent (5) first, then normal (10), then lazy (25).
        assert_eq!(q.next_actor(), Some(1));
        q.after_fire(1, Micros(1), 0, &s);
        assert_eq!(q.next_actor(), Some(2));
        q.after_fire(2, Micros(1), 1, &s);
        assert_eq!(q.next_actor(), Some(2), "still has events + quantum");
        q.after_fire(2, Micros(1), 0, &s);
        assert_eq!(q.next_actor(), Some(3));
        q.after_fire(3, Micros(1), 0, &s);
        assert_eq!(q.next_actor(), None);
    }

    #[test]
    fn quantum_exhaustion_moves_to_waiting_and_requantifies() {
        let mut q = QbsScheduler::new(10, 100); // tiny quanta
        q.init(&infos());
        let s = stats();
        q.on_enqueue(3, Timestamp::ZERO); // lazy: allotment (40-25)·10 = 150µs
        assert_eq!(q.state(3), ActorState::Active);
        let a = q.next_actor().unwrap();
        // Burn far more than the quantum.
        q.after_fire(a, Micros(1_000), 3, &s);
        assert_eq!(q.state(3), ActorState::Waiting);
        assert_eq!(q.next_actor(), None, "nothing active");
        // Re-quantification may need several allotments (deep negative),
        // but must eventually reactivate.
        assert!(q.end_iteration(&s));
        assert_eq!(q.state(3), ActorState::Active);
        assert!(q.quantum[3] > 0);
    }

    #[test]
    fn drained_actor_goes_inactive_preserving_quantum() {
        let mut q = QbsScheduler::new(500, 100);
        q.init(&infos());
        let s = stats();
        q.on_enqueue(2, Timestamp::ZERO);
        let a = q.next_actor().unwrap();
        q.after_fire(a, Micros(100), 0, &s);
        assert_eq!(q.state(2), ActorState::Inactive);
        let quantum = q.quantum[2];
        q.on_enqueue(2, Timestamp::ZERO);
        assert_eq!(q.state(2), ActorState::Active);
        assert_eq!(q.quantum[2], quantum, "quantum preserved while inactive");
    }

    #[test]
    fn inactive_with_spent_quantum_becomes_waiting_on_new_events() {
        let mut q = QbsScheduler::new(10, 100);
        q.init(&infos());
        let s = stats();
        q.on_enqueue(3, Timestamp::ZERO);
        let a = q.next_actor().unwrap();
        q.after_fire(a, Micros(10_000), 0, &s); // drained AND overspent
        assert_eq!(q.state(3), ActorState::Inactive);
        q.on_enqueue(3, Timestamp::ZERO);
        assert_eq!(
            q.state(3),
            ActorState::Waiting,
            "Table 2: events + negative quantum → WAITING"
        );
    }

    #[test]
    fn sources_fire_at_regular_intervals() {
        let mut q = QbsScheduler::new(500, 2);
        q.init(&infos());
        q.on_source_ready(0, true);
        for _ in 0..6 {
            q.on_enqueue(2, Timestamp::ZERO);
        }
        let s = stats();
        let mut picks = Vec::new();
        for _ in 0..6 {
            let a = q.next_actor().unwrap();
            picks.push(a);
            q.after_fire(a, Micros(1), 3, &s);
        }
        // Pattern: two internals, then the source, repeating.
        assert_eq!(picks[2], 0);
        assert_eq!(picks[5], 0);
        assert!(picks[0] != 0 && picks[1] != 0);
    }

    #[test]
    fn low_priority_actors_are_starvation_free() {
        // A continuously-busy high-priority actor cannot starve a
        // low-priority one forever: the high class exhausts its quantum,
        // re-quantification runs, and the low class gets CPU.
        let mut q = QbsScheduler::new(100, 1_000_000);
        q.init(&infos());
        let s = stats();
        q.on_enqueue(1, Timestamp::ZERO); // urgent (p=5), always has work
        q.on_enqueue(3, Timestamp::ZERO); // lazy (p=25), one window queued
        let mut low_ran = false;
        for _ in 0..10_000 {
            match q.next_actor() {
                Some(1) => {
                    // The urgent actor burns CPU and always refills.
                    q.after_fire(1, Micros(1_000), 1, &s);
                }
                Some(3) => {
                    low_ran = true;
                    break;
                }
                Some(_) => unreachable!("no other actor has work"),
                None => {
                    // Iteration boundary: re-quantify and continue.
                    q.end_iteration(&s);
                }
            }
        }
        assert!(low_ran, "the low-priority actor must eventually run");
    }

    /// Fig. 7 regression: at a large basic quantum (b = 5000µs) the
    /// Equation-1 allotments dwarf per-window firing costs, so a busy
    /// high-priority actor never exhausts its quantum mid-burst and QBS
    /// degenerates to *strict priority* — the urgent class monopolizes
    /// the scheduler until its burst drains. A small quantum forces the
    /// exhaustion/re-quantification interleaving that is the whole point
    /// of QBS. This pins the divergence between the b=5000 and small-b
    /// curves of Figure 7.
    #[test]
    fn fig7_large_quantum_degenerates_to_strict_priority() {
        // Serve a 100-window urgent burst (~1ms per window) next to one
        // queued low-priority window; count urgent fires before the
        // low-priority actor first gets the CPU.
        let urgent_fires_before_lazy = |basic_quantum: u64| -> usize {
            let mut q = QbsScheduler::new(basic_quantum, 1_000_000);
            q.init(&infos());
            let s = stats();
            q.on_enqueue(1, Timestamp::ZERO); // urgent, p=5
            q.on_enqueue(3, Timestamp::ZERO); // lazy, p=25
            let mut remaining = 100usize;
            let mut fires = 0usize;
            loop {
                match q.next_actor() {
                    Some(1) => {
                        remaining -= 1;
                        fires += 1;
                        q.after_fire(1, Micros(1_000), remaining, &s);
                    }
                    Some(3) => return fires,
                    Some(_) => unreachable!("no other actor has work"),
                    None => assert!(q.end_iteration(&s), "work remains"),
                }
            }
        };
        // b=5000µs: allotment (40−5)·4·5000 = 700ms ≫ the 100ms burst,
        // so the quantum never runs out and the lazy actor waits for the
        // entire burst — strict priority.
        assert_eq!(urgent_fires_before_lazy(5_000), 100);
        // b=100µs: allotment 14ms = 14 fires, then exhaustion hands the
        // CPU to the lazy actor mid-burst.
        assert_eq!(urgent_fires_before_lazy(100), 14);
    }

    #[test]
    fn idle_scheduler_still_offers_ready_source() {
        let mut q = QbsScheduler::new(500, 5);
        q.init(&infos());
        assert_eq!(q.next_actor(), None);
        q.on_source_ready(0, true);
        assert_eq!(q.next_actor(), Some(0));
        assert_eq!(q.state(0), ActorState::Active);
        q.on_source_ready(0, false);
        assert_eq!(q.state(0), ActorState::Waiting);
    }
}
