//! The STAFiLOS runtime statistics module.
//!
//! STAFiLOS exposes runtime statistics to the scheduler so policy
//! implementors can make smart resource-allocation decisions (paper §3):
//! per-invocation cost, input and output rates, and selectivity, all
//! updated dynamically with each actor invocation. On top of the local
//! statistics it derives the *global* cost and selectivity of Sharaf et
//! al. \[28\] — aggregated over every downstream path to a workflow output —
//! which the Rate-Based priority `Pr(A) = S_A / C_A` uses.
//!
//! A run keeps one [`StatsModule`] when its director asks for it (SCWF and
//! the pool set [`Run::stats`](crate::director::firing::Run::stats)), and
//! [`Run::fire`](crate::director::firing::Run::fire) records every
//! successful firing into it; nothing else writes. Firings complete
//! concurrently on the pool's workers, so every counter is a relaxed
//! atomic. The estimators are the shared [`estimator`] core.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::Workflow;
use crate::telemetry::estimator;
use crate::time::{Micros, Timestamp};

/// The cached rate priorities are recomputed by their reader at most once
/// per this many recorded firings (the refresh walks the whole topology).
const REFRESH_EVERY: u64 = 64;

/// `first_seen` before any firing: above every timestamp, so an actor that
/// never fired has no activity span (`last_seen > first_seen` fails).
const UNSEEN: u64 = u64::MAX;

/// One actor's counters: cumulative plain integers, the last firing's
/// cost, the activity span, and the cached priority as `f64` bits.
#[derive(Debug)]
struct ActorCells {
    /// Completed firings.
    fires: AtomicU64,
    /// Cumulative cost, µs.
    total_cost: AtomicU64,
    /// Cost of the most recent firing, µs.
    last_cost: AtomicU64,
    /// Cumulative events consumed.
    events_in: AtomicU64,
    /// Cumulative tokens produced.
    events_out: AtomicU64,
    /// Start of the first recorded firing, µs ([`UNSEEN`] before one).
    first_seen: AtomicU64,
    /// Start of the most recent recorded firing, µs.
    last_seen: AtomicU64,
    /// Cached Rate-Based priority `gSel/gCost` (f64 bits).
    cached_rate: AtomicU64,
}

impl ActorCells {
    fn new() -> Self {
        ActorCells {
            fires: AtomicU64::new(0),
            total_cost: AtomicU64::new(0),
            last_cost: AtomicU64::new(0),
            events_in: AtomicU64::new(0),
            events_out: AtomicU64::new(0),
            first_seen: AtomicU64::new(UNSEEN),
            last_seen: AtomicU64::new(0),
            cached_rate: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }
}

/// Statistics for all actors of one workflow, plus the topology-aware
/// derived metrics. Shareable across workers; recording a firing is a
/// handful of relaxed atomic ops.
#[derive(Debug)]
pub struct StatsModule {
    actors: Vec<ActorCells>,
    /// Downstream actor indices per actor (workflow topology).
    downstream: Vec<Vec<usize>>,
    /// Firings recorded over all actors when the cached rate priorities
    /// were last refreshed.
    refreshed_at: AtomicU64,
}

impl StatsModule {
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
        StatsModule {
            actors: (0..downstream.len()).map(|_| ActorCells::new()).collect(),
            downstream,
            refreshed_at: AtomicU64::new(0),
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

    /// Record one completed firing that started at `at`: its charged cost,
    /// the events it consumed and the tokens it produced.
    pub fn record_fire(&self, actor: usize, cost: Micros, events_in: u64, tokens_out: u64, at: Timestamp) {
        let a = &self.actors[actor];
        a.fires.fetch_add(1, Ordering::Relaxed);
        a.total_cost.fetch_add(cost.as_micros(), Ordering::Relaxed);
        a.last_cost.store(cost.as_micros(), Ordering::Relaxed);
        a.events_in.fetch_add(events_in, Ordering::Relaxed);
        a.events_out.fetch_add(tokens_out, Ordering::Relaxed);
        if a.first_seen.load(Ordering::Relaxed) == UNSEEN {
            a.first_seen.store(at.as_micros(), Ordering::Relaxed);
        }
        a.last_seen.store(at.as_micros(), Ordering::Relaxed);
    }

    /// Completed firings recorded for `actor`.
    pub fn fires(&self, actor: usize) -> u64 {
        self.actors[actor].fires.load(Ordering::Relaxed)
    }

    /// Cumulative cost of `actor`'s firings.
    pub fn total_cost(&self, actor: usize) -> Micros {
        Micros(self.actors[actor].total_cost.load(Ordering::Relaxed))
    }

    /// Cost of `actor`'s most recent firing.
    pub fn last_cost(&self, actor: usize) -> Micros {
        Micros(self.actors[actor].last_cost.load(Ordering::Relaxed))
    }

    /// Cumulative events consumed by `actor`.
    pub fn events_in(&self, actor: usize) -> u64 {
        self.actors[actor].events_in.load(Ordering::Relaxed)
    }

    /// Cumulative tokens produced by `actor`.
    pub fn events_out(&self, actor: usize) -> u64 {
        self.actors[actor].events_out.load(Ordering::Relaxed)
    }

    /// Mean cost per firing, µs (0 before any firing): the cost per event
    /// of an actor that consumed nothing.
    pub fn mean_cost(&self, actor: usize) -> f64 {
        let total = self.total_cost(actor).as_micros();
        estimator::cost_per_event_of(total, 0, self.fires(actor))
    }

    /// Input rate in events/second over `actor`'s activity span (from the
    /// start of its first recorded firing to the start of its last).
    pub fn input_rate(&self, actor: usize) -> f64 {
        self.rate(actor, self.events_in(actor))
    }

    /// Output rate in events/second over `actor`'s activity span.
    pub fn output_rate(&self, actor: usize) -> f64 {
        self.rate(actor, self.events_out(actor))
    }

    fn rate(&self, actor: usize, events: u64) -> f64 {
        let a = &self.actors[actor];
        let first = Timestamp(a.first_seen.load(Ordering::Relaxed));
        let last = Timestamp(a.last_seen.load(Ordering::Relaxed));
        if last > first {
            events as f64 / last.since(first).as_secs_f64()
        } else {
            0.0
        }
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
    /// current counters — what the simulator's RB reads at its period
    /// boundaries, so its priorities never lag a firing. Infinite before
    /// any cost is observed, so fresh actors get probed early.
    pub fn fresh_rate_priority(&self, actor: usize) -> f64 {
        let sel = |i: usize| self.selectivity(i);
        estimator::rate_priority(actor, &|i| self.cost_per_event(i), &sel, &self.downstream)
    }

    /// The cached Rate-Based priority `Pr(A) = gSel/gCost` (infinite until
    /// the first refresh, so fresh actors rank first): what the pool keys
    /// its ready queues on. The read that finds 64 (`REFRESH_EVERY`) firings
    /// recorded since the last refresh recomputes every actor's priority
    /// first, so a run that never reads it never pays for the walk.
    pub fn rate_priority(&self, actor: usize) -> f64 {
        // Summed here rather than counted per firing: the pool's firings
        // would all write one shared counter.
        let at = self.refreshed_at.load(Ordering::Relaxed);
        let recorded: u64 = (0..self.len()).map(|i| self.fires(i)).sum();
        if recorded.saturating_sub(at) >= REFRESH_EVERY
            && (self.refreshed_at)
                .compare_exchange(at, recorded, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            for (i, a) in self.actors.iter().enumerate() {
                a.cached_rate.store(self.fresh_rate_priority(i).to_bits(), Ordering::Relaxed);
            }
        }
        f64::from_bits(self.actors[actor].cached_rate.load(Ordering::Relaxed))
    }

    /// Render the per-actor runtime statistics as an aligned text table —
    /// the observability surface the paper's statistics module gives
    /// scheduler developers. `names[i]` labels actor `i`.
    pub fn render(&self, names: &[String]) -> String {
        let mut out = format!(
            "{:<24} {:>9} {:>11} {:>10} {:>10} {:>7} {:>9} {:>9}\n",
            "actor", "firings", "mean(µs)", "in ev/s", "out ev/s", "sel", "gSel", "gCost(µs)"
        );
        for i in 0..self.len() {
            let name = names.get(i).map(String::as_str).unwrap_or("?");
            out.push_str(&format!(
                "{:<24} {:>9} {:>11.1} {:>10.1} {:>10.1} {:>7.3} {:>9.3} {:>9.1}\n",
                name,
                self.fires(i),
                self.mean_cost(i),
                self.input_rate(i),
                self.output_rate(i),
                self.selectivity(i),
                self.global_selectivity(i),
                self.global_cost(i),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> StatsModule {
        // 0 → 1 → 2.
        StatsModule::with_downstream(vec![vec![1], vec![2], vec![]])
    }

    /// src(0) → a(1) → k1(3), plus src → b(2) → k2(4): two paths from src.
    fn two_paths() -> StatsModule {
        StatsModule::with_downstream(vec![vec![1, 2], vec![3], vec![4], vec![], vec![]])
    }

    #[test]
    fn local_statistics_accumulate() {
        let m = two_paths();
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        m.record_fire(1, Micros(100), 2, 1, Timestamp(0));
        m.record_fire(1, Micros(300), 2, 3, Timestamp(2_000_000));
        assert_eq!(m.fires(1), 2);
        assert_eq!(m.mean_cost(1), 200.0);
        assert_eq!(m.last_cost(1), Micros(300));
        assert_eq!(m.selectivity(1), 1.0);
        assert_eq!(m.input_rate(1), 2.0, "4 events over 2 seconds");
        assert_eq!(m.output_rate(1), 2.0);
        assert_eq!(m.cost_per_event(1), 100.0);
    }

    #[test]
    fn defaults_before_any_firing() {
        let m = chain3();
        assert_eq!(m.mean_cost(0), 0.0);
        assert_eq!(m.selectivity(0), 1.0, "neutral before input");
        assert_eq!(m.input_rate(0), 0.0);
        assert_eq!(m.cost_per_event(0), 0.0);
        // One firing is an instant, not a span: no rate yet.
        m.record_fire(0, Micros(5), 0, 3, Timestamp(7));
        assert_eq!(m.output_rate(0), 0.0);
    }

    #[test]
    fn selectivity_and_cost_per_event_are_cumulative() {
        let s = chain3();
        s.record_fire(1, Micros(100), 4, 2, Timestamp(1));
        s.record_fire(1, Micros(300), 4, 2, Timestamp(2));
        assert_eq!(s.selectivity(1), 0.5);
        assert_eq!(s.cost_per_event(1), 50.0, "400µs over 8 events");
    }

    #[test]
    fn global_selectivity_multiplies_down_paths_and_sums_over_branches() {
        let m = two_paths();
        m.record_fire(1, Micros(10), 4, 2, Timestamp(1)); // a: sel 0.5
        m.record_fire(2, Micros(10), 4, 4, Timestamp(1)); // b: sel 1.0
        m.record_fire(3, Micros(10), 2, 0, Timestamp(1)); // k1 (output)
        m.record_fire(4, Micros(10), 4, 0, Timestamp(1)); // k2 (output)
        // Terminal actors deliver results: global selectivity 1.
        assert_eq!(m.global_selectivity(3), 1.0);
        // a: own 0.5 × k1(1) = 0.5.
        assert_eq!(m.global_selectivity(1), 0.5);
        // src: own sel 1.0 (no input yet) × (a + b) = 0.5 + 1.0.
        assert_eq!(m.global_selectivity(0), 1.5);
    }

    #[test]
    fn global_cost_adds_weighted_downstream_work() {
        let m = two_paths();
        m.record_fire(1, Micros(100), 10, 5, Timestamp(1)); // a: 10/ev, sel .5
        m.record_fire(2, Micros(200), 10, 10, Timestamp(1)); // b: 20/ev, sel 1
        m.record_fire(3, Micros(50), 10, 0, Timestamp(1)); // k1: 5/ev
        m.record_fire(4, Micros(100), 10, 0, Timestamp(1)); // k2: 10/ev
        // a: 10 + 0.5·5 = 12.5; b: 20 + 1·10 = 30.
        assert_eq!(m.global_cost(1), 12.5);
        assert_eq!(m.global_cost(2), 30.0);
        // src consumed nothing: cost_per_event falls back to mean cost 0,
        // sel 1 → 0 + 1·(12.5 + 30) = 42.5.
        assert_eq!(m.global_cost(0), 42.5);
    }

    #[test]
    fn rate_priorities_follow_the_estimator_math() {
        let s = chain3();
        // 1: 10µs/ev sel 0.5; 2 (terminal): 5µs/ev.
        s.record_fire(1, Micros(100), 10, 5, Timestamp(1));
        s.record_fire(2, Micros(50), 10, 0, Timestamp(1));
        // gCost(2) = 5, gSel(2) = 1 → Pr = 0.2.
        assert_eq!(s.fresh_rate_priority(2), 1.0 / 5.0);
        // gCost(1) = 10 + 0.5·5 = 12.5, gSel(1) = 0.5 → Pr = 0.04.
        assert_eq!(s.fresh_rate_priority(1), 0.5 / 12.5);
        // 0 never fired: cost 0 at itself but downstream costs propagate;
        // gCost(0) = 0 + 1·12.5 = 12.5, gSel(0) = 1·0.5.
        assert_eq!(s.fresh_rate_priority(0), 0.5 / 12.5);
        // Unfired actors are infinitely attractive (probe-first).
        assert_eq!(chain3().fresh_rate_priority(0), f64::INFINITY);
    }

    #[test]
    fn rate_priority_prefers_cheap_productive_actors() {
        let m = two_paths();
        m.record_fire(1, Micros(100), 10, 10, Timestamp(1)); // cheap, productive
        m.record_fire(2, Micros(1_000), 10, 10, Timestamp(1)); // expensive
        m.record_fire(3, Micros(10), 10, 10, Timestamp(1));
        m.record_fire(4, Micros(10), 10, 10, Timestamp(1));
        assert!(m.fresh_rate_priority(1) > m.fresh_rate_priority(2));
    }

    #[test]
    fn the_cached_priority_refreshes_on_the_read_after_64_firings() {
        let m = two_paths();
        let firings = [(1, 100, 10, 5), (2, 230, 7, 7), (0, 40, 0, 3), (3, 50, 5, 0), (4, 90, 7, 0)];
        for n in 0..REFRESH_EVERY - 1 {
            let (a, cost, ins, outs) = firings[n as usize % firings.len()];
            m.record_fire(a, Micros(cost), ins, outs, Timestamp(n));
            for a in 0..m.len() {
                assert_eq!(m.rate_priority(a), f64::INFINITY, "not refreshed at {} firings", n + 1);
            }
        }
        assert!((0..m.len()).all(|a| m.fresh_rate_priority(a).is_finite()), "the cache is stale");
        m.record_fire(1, Micros(170), 3, 1, Timestamp(REFRESH_EVERY));
        for a in 0..m.len() {
            assert_eq!(m.rate_priority(a).to_bits(), m.fresh_rate_priority(a).to_bits());
        }
        // The next refresh is 64 firings away: the cache holds still.
        let held = m.rate_priority(1);
        m.record_fire(1, Micros(10_000), 1, 0, Timestamp(REFRESH_EVERY + 1));
        assert_eq!(m.rate_priority(1).to_bits(), held.to_bits());
        assert_ne!(m.fresh_rate_priority(1).to_bits(), held.to_bits());
    }

    #[test]
    fn render_produces_a_row_per_actor() {
        let m = two_paths();
        m.record_fire(1, Micros(100), 2, 1, Timestamp(0));
        let names: Vec<String> = ["src", "a", "b", "k1", "k2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let text = m.render(&names);
        assert_eq!(text.lines().count(), 6, "header + 5 actors");
        assert!(text.contains("src"));
        assert!(text.contains("gCost"));
    }
}
