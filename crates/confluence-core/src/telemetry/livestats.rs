//! Lock-cheap live statistics for wall-clock scheduling.
//!
//! The STAFiLOS simulator feeds its policies from a `StatsModule` it owns
//! and mutates between firings. The pool executor has no such single
//! thread: firings complete concurrently on every worker, and priority
//! keys are computed on the push/pop hot path. [`LiveStats`] is the
//! atomics-only equivalent — per-actor cumulative fire, cost, and
//! event counters, fed by the pool after every firing — with the
//! Rate-Based global priorities cached and refreshed lazily so the hot
//! path is a plain atomic load.
//!
//! The global selectivity/cost propagation is the shared
//! [`estimator`](super::estimator) core, so the simulator and the real
//! executor rank actors identically from identical local statistics.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::Workflow;
use crate::telemetry::estimator;
use crate::time::Micros;

/// Cached rate priorities are recomputed at most once per this many
/// recorded firings (the refresh walks the whole topology).
const REFRESH_EVERY: u64 = 64;

/// One actor's live counters: cumulative plain integers, plus the cached
/// priority as `f64` bits.
#[derive(Debug)]
struct ActorLive {
    /// Completed firings.
    fires: AtomicU64,
    /// Cumulative wall-clock cost, µs.
    total_cost: AtomicU64,
    /// Cumulative events consumed.
    events_in: AtomicU64,
    /// Cumulative tokens produced.
    events_out: AtomicU64,
    /// Cached Rate-Based priority `gSel/gCost` (f64 bits).
    cached_rate: AtomicU64,
}

impl ActorLive {
    fn new() -> Self {
        ActorLive {
            fires: AtomicU64::new(0),
            total_cost: AtomicU64::new(0),
            events_in: AtomicU64::new(0),
            events_out: AtomicU64::new(0),
            cached_rate: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }
}

/// Live per-actor statistics for priority computation under wall-clock
/// executors. Shareable across workers; every operation is a handful of
/// relaxed atomic ops.
#[derive(Debug)]
pub struct LiveStats {
    actors: Vec<ActorLive>,
    /// Downstream actor indices per actor (workflow topology).
    downstream: Vec<Vec<usize>>,
    /// Firings recorded since the cached rate priorities were refreshed.
    since_refresh: AtomicU64,
}

impl LiveStats {
    /// Fresh statistics for the given workflow's topology.
    pub fn new(workflow: &Workflow) -> Self {
        let downstream = workflow
            .actor_ids()
            .map(|id| {
                workflow
                    .downstream_actors(id)
                    .into_iter()
                    .map(|d| d.index())
                    .collect()
            })
            .collect();
        Self::with_downstream(downstream)
    }

    /// Fresh statistics over an explicit downstream topology (tests).
    pub fn with_downstream(downstream: Vec<Vec<usize>>) -> Self {
        LiveStats {
            actors: (0..downstream.len()).map(|_| ActorLive::new()).collect(),
            downstream,
            since_refresh: AtomicU64::new(0),
        }
    }

    /// Number of actors tracked.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// Whether no actors are tracked.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Record one completed firing: wall cost, events consumed and tokens
    /// produced. Refreshes the cached rate priorities every
    /// `REFRESH_EVERY` firings.
    pub fn record_fire(&self, actor: usize, cost: Micros, events_in: u64, tokens_out: u64) {
        let Some(a) = self.actors.get(actor) else {
            return;
        };
        a.fires.fetch_add(1, Ordering::Relaxed);
        a.total_cost.fetch_add(cost.as_micros(), Ordering::Relaxed);
        a.events_in.fetch_add(events_in, Ordering::Relaxed);
        a.events_out.fetch_add(tokens_out, Ordering::Relaxed);
        if self.since_refresh.fetch_add(1, Ordering::Relaxed) + 1 >= REFRESH_EVERY {
            self.since_refresh.store(0, Ordering::Relaxed);
            self.refresh_rate_priorities();
        }
    }

    /// Count one completed firing and nothing else — no cached
    /// priority refresh: all the virtual-time simulator's statistics module
    /// records (it reads every estimate fresh). The simulator owns its
    /// statistics, so through `&mut self` these are plain adds.
    pub fn count_fire(&mut self, actor: usize, cost: Micros, events_in: u64, tokens_out: u64) {
        let a = &mut self.actors[actor];
        *a.fires.get_mut() += 1;
        *a.total_cost.get_mut() += cost.as_micros();
        *a.events_in.get_mut() += events_in;
        *a.events_out.get_mut() += tokens_out;
    }

    /// Completed firings recorded for `actor`.
    pub fn fires(&self, actor: usize) -> u64 {
        self.actors[actor].fires.load(Ordering::Relaxed)
    }

    /// Cumulative cost of `actor`'s firings.
    pub fn total_cost(&self, actor: usize) -> Micros {
        Micros(self.actors[actor].total_cost.load(Ordering::Relaxed))
    }

    /// Cumulative events consumed by `actor`.
    pub fn events_in(&self, actor: usize) -> u64 {
        self.actors[actor].events_in.load(Ordering::Relaxed)
    }

    /// Cumulative tokens produced by `actor`.
    pub fn events_out(&self, actor: usize) -> u64 {
        self.actors[actor].events_out.load(Ordering::Relaxed)
    }

    /// Cumulative local selectivity ([`estimator::selectivity_of`]).
    pub fn selectivity(&self, actor: usize) -> f64 {
        estimator::selectivity_of(self.events_in(actor), self.events_out(actor))
    }

    /// Mean cost per consumed event, µs ([`estimator::cost_per_event_of`]).
    pub fn cost_per_event(&self, actor: usize) -> f64 {
        let total = self.total_cost(actor).as_micros();
        estimator::cost_per_event_of(total, self.events_in(actor), self.fires(actor))
    }

    /// Global selectivity of `actor` per Sharaf et al. \[28\]: the expected
    /// number of workflow *outputs* eventually produced per event it
    /// consumes ([`estimator::global_selectivity`]), read fresh.
    pub fn global_selectivity(&self, actor: usize) -> f64 {
        estimator::global_selectivity(actor, &|i| self.selectivity(i), &self.downstream)
    }

    /// Global average cost per event at `actor` per \[28\]: own cost plus
    /// the downstream work its outputs will require
    /// ([`estimator::global_cost`]), read fresh.
    pub fn global_cost(&self, actor: usize) -> f64 {
        let sel = |i: usize| self.selectivity(i);
        estimator::global_cost(actor, &|i| self.cost_per_event(i), &sel, &self.downstream)
    }

    /// The Rate-Based priority `Pr(A) = gSel/gCost` computed now from the
    /// current counters — what the simulator reads at its period
    /// boundaries, and what [`LiveStats::refresh_rate_priorities`] caches.
    pub fn fresh_rate_priority(&self, actor: usize) -> f64 {
        let sel = |i: usize| self.selectivity(i);
        estimator::rate_priority(actor, &|i| self.cost_per_event(i), &sel, &self.downstream)
    }

    /// The cached Rate-Based priority `Pr(A) = gSel/gCost` (infinite until
    /// costs are observed, so fresh actors rank first). Refreshed lazily
    /// by [`LiveStats::record_fire`].
    pub fn rate_priority(&self, actor: usize) -> f64 {
        f64::from_bits(self.actors[actor].cached_rate.load(Ordering::Relaxed))
    }

    /// Recompute every actor's Rate-Based priority from the current local
    /// statistics through the shared estimator core.
    pub fn refresh_rate_priorities(&self) {
        for (i, a) in self.actors.iter().enumerate() {
            a.cached_rate.store(self.fresh_rate_priority(i).to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> LiveStats {
        // 0 → 1 → 2.
        LiveStats::with_downstream(vec![vec![1], vec![2], vec![]])
    }

    #[test]
    fn selectivity_and_cost_per_event_are_cumulative() {
        let s = chain3();
        assert_eq!(s.selectivity(0), 1.0, "neutral before input");
        s.record_fire(1, Micros(100), 4, 2);
        s.record_fire(1, Micros(300), 4, 2);
        assert_eq!(s.selectivity(1), 0.5);
        assert_eq!(s.cost_per_event(1), 50.0, "400µs over 8 events");
    }

    #[test]
    fn rate_priorities_match_the_simulator_math() {
        let s = chain3();
        // 1: 10µs/ev sel 0.5; 2 (terminal): 5µs/ev.
        s.record_fire(1, Micros(100), 10, 5);
        s.record_fire(2, Micros(50), 10, 0);
        s.refresh_rate_priorities();
        // gCost(2) = 5, gSel(2) = 1 → Pr = 0.2.
        assert_eq!(s.rate_priority(2), 1.0 / 5.0);
        // gCost(1) = 10 + 0.5·5 = 12.5, gSel(1) = 0.5 → Pr = 0.04.
        assert_eq!(s.rate_priority(1), 0.5 / 12.5);
        // 0 never fired: cost 0 at itself but downstream costs propagate;
        // gCost(0) = 0 + 1·12.5 = 12.5, gSel(0) = 1·0.5.
        assert_eq!(s.rate_priority(0), 0.5 / 12.5);
    }

}
