//! The actor statistics module.
//!
//! STAFiLOS exposes runtime statistics to the abstract scheduler so policy
//! implementors can make smart resource-allocation decisions (paper §3):
//! per-invocation cost, input and output rates, and selectivity, all
//! updated dynamically with each actor invocation. On top of the local
//! statistics it derives the *global* cost and selectivity of Sharaf et
//! al. \[28\] — aggregated over every downstream path to a workflow output —
//! which the Rate-Based scheduler's priority `Pr(A) = S_A / C_A` uses.
//!
//! The counters, the topology and every estimate live once, in
//! [`LiveStats`] — the module the pool executor's policies read too. This
//! one is a view over it that adds what only the simulator reports: the
//! last cost and the activity span behind the input/output rates.

use confluence_core::graph::Workflow;
use confluence_core::telemetry::{estimator, LiveStats};
use confluence_core::time::{Micros, Timestamp};

/// One actor's statistics at the time of the call.
#[derive(Debug, Clone, Default)]
pub struct ActorStats {
    /// Completed invocations.
    pub invocations: u64,
    /// Total execution cost across invocations.
    pub total_cost: Micros,
    /// Cost of the most recent invocation.
    pub last_cost: Micros,
    /// Events consumed (inputs).
    pub events_in: u64,
    /// Events produced (outputs).
    pub events_out: u64,
    /// Time of first recorded activity.
    pub first_seen: Option<Timestamp>,
    /// Time of last recorded activity.
    pub last_seen: Option<Timestamp>,
}

impl ActorStats {
    /// Mean cost per invocation, in microseconds (0 before any firing):
    /// the cost per event of an actor that consumed nothing.
    pub fn mean_cost(&self) -> f64 {
        estimator::cost_per_event_of(self.total_cost.as_micros(), 0, self.invocations)
    }

    /// Selectivity: events produced per event consumed (1.0 before any
    /// input, the neutral assumption).
    pub fn selectivity(&self) -> f64 {
        estimator::selectivity_of(self.events_in, self.events_out)
    }

    /// Input rate in events/second over the observed activity span.
    pub fn input_rate(&self) -> f64 {
        self.rate(self.events_in)
    }

    /// Output rate in events/second over the observed activity span.
    pub fn output_rate(&self) -> f64 {
        self.rate(self.events_out)
    }

    fn rate(&self, events: u64) -> f64 {
        match (self.first_seen, self.last_seen) {
            (Some(a), Some(b)) if b > a => {
                events as f64 / b.since(a).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Mean cost per consumed event, in microseconds (falls back to mean
    /// invocation cost when nothing was consumed yet).
    pub fn cost_per_event(&self) -> f64 {
        estimator::cost_per_event_of(self.total_cost.as_micros(), self.events_in, self.invocations)
    }
}

/// What the simulator reports beyond the shared counters.
#[derive(Debug, Clone, Default)]
struct Seen {
    last_cost: Micros,
    first: Option<Timestamp>,
    last: Option<Timestamp>,
}

/// Statistics for all actors of one workflow, plus topology-aware derived
/// metrics: a single-threaded view over [`LiveStats`].
#[derive(Debug)]
pub struct StatsModule {
    live: LiveStats,
    seen: Vec<Seen>,
}

impl StatsModule {
    /// A module for the given workflow.
    pub fn new(workflow: &Workflow) -> Self {
        StatsModule {
            live: LiveStats::new(workflow),
            seen: vec![Seen::default(); workflow.actor_count()],
        }
    }

    /// Number of actors tracked.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether the module tracks no actors.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Statistics of one actor.
    pub fn actor(&self, idx: usize) -> ActorStats {
        let seen = &self.seen[idx];
        ActorStats {
            invocations: self.live.fires(idx),
            total_cost: self.live.total_cost(idx),
            last_cost: seen.last_cost,
            events_in: self.live.events_in(idx),
            events_out: self.live.events_out(idx),
            first_seen: seen.first,
            last_seen: seen.last,
        }
    }

    /// Record one completed invocation.
    pub fn record_firing(
        &mut self,
        idx: usize,
        cost: Micros,
        consumed: u64,
        produced: u64,
        at: Timestamp,
    ) {
        self.live.count_fire(idx, cost, consumed, produced);
        let seen = &mut self.seen[idx];
        seen.last_cost = cost;
        seen.first.get_or_insert(at);
        seen.last = Some(at);
    }

    /// Global selectivity of an actor per Sharaf et al. \[28\]: the expected
    /// number of workflow *outputs* eventually produced per event consumed
    /// by this actor — the product of selectivities along each downstream
    /// path, summed over paths when the actor feeds multiple branches.
    /// Terminal actors are output operators: every event they consume is a
    /// result delivered to the user (selectivity 1 in the Sharaf et al.
    /// accounting).
    pub fn global_selectivity(&self, idx: usize) -> f64 {
        self.live.global_selectivity(idx)
    }

    /// Global average cost per event at an actor per \[28\]: the work this
    /// event and its descendants will require through the rest of the
    /// workflow — own cost per event plus downstream cost weighted by the
    /// actor's selectivity, summed over downstream paths for shared actors.
    pub fn global_cost(&self, idx: usize) -> f64 {
        self.live.global_cost(idx)
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
            let s = self.actor(i);
            let name = names.get(i).map(String::as_str).unwrap_or("?");
            out.push_str(&format!(
                "{:<24} {:>9} {:>11.1} {:>10.1} {:>10.1} {:>7.3} {:>9.3} {:>9.1}\n",
                name,
                s.invocations,
                s.mean_cost(),
                s.input_rate(),
                s.output_rate(),
                s.selectivity(),
                self.global_selectivity(i),
                self.global_cost(i),
            ));
        }
        out
    }

    /// The Rate-Based (Highest Rate) dynamic priority
    /// `Pr(A) = S_A / C_A` — global output per unit of processing time —
    /// computed from the counters as they are now, so RB's period-boundary
    /// priorities never lag a firing. Infinite before any cost is observed,
    /// so fresh actors get probed early.
    pub fn rate_priority(&self, idx: usize) -> f64 {
        self.live.fresh_rate_priority(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_core::actor::{Actor, FireContext, IoSignature};
    use confluence_core::actors::VecSource;
    use confluence_core::error::Result;
    use confluence_core::graph::WorkflowBuilder;

    struct Pass;
    impl Actor for Pass {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
            Ok(())
        }
    }
    struct Sink;
    impl Actor for Sink {
        fn signature(&self) -> IoSignature {
            IoSignature::sink("in")
        }
        fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
            Ok(())
        }
    }

    /// src → a → sink, plus src → b → sink2 (two paths from src).
    fn two_path_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("stats");
        let s = b.add_actor("src", VecSource::new(vec![]));
        let a = b.add_actor("a", Pass);
        let b2 = b.add_actor("b", Pass);
        let k1 = b.add_actor("k1", Sink);
        let k2 = b.add_actor("k2", Sink);
        b.link((s, "out"), (a, "in")).unwrap();
        b.link((s, "out"), (b2, "in")).unwrap();
        b.link((a, "out"), (k1, "in")).unwrap();
        b.link((b2, "out"), (k2, "in")).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn local_statistics_accumulate() {
        let wf = two_path_workflow();
        let mut m = StatsModule::new(&wf);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        m.record_firing(1, Micros(100), 2, 1, Timestamp(0));
        m.record_firing(1, Micros(300), 2, 3, Timestamp(2_000_000));
        let s = m.actor(1);
        assert_eq!(s.invocations, 2);
        assert_eq!(s.mean_cost(), 200.0);
        assert_eq!(s.last_cost, Micros(300));
        assert_eq!(s.selectivity(), 1.0);
        assert_eq!(s.input_rate(), 2.0, "4 events over 2 seconds");
        assert_eq!(s.output_rate(), 2.0);
        assert_eq!(s.cost_per_event(), 100.0);
    }

    #[test]
    fn defaults_before_any_firing() {
        let s = ActorStats::default();
        assert_eq!(s.mean_cost(), 0.0);
        assert_eq!(s.selectivity(), 1.0);
        assert_eq!(s.input_rate(), 0.0);
        assert_eq!(s.cost_per_event(), 0.0);
    }

    #[test]
    fn global_selectivity_multiplies_down_paths_and_sums_over_branches() {
        let wf = two_path_workflow();
        let mut m = StatsModule::new(&wf);
        m.record_firing(1, Micros(10), 4, 2, Timestamp(1)); // a: sel 0.5
        m.record_firing(2, Micros(10), 4, 4, Timestamp(1)); // b: sel 1.0
        m.record_firing(3, Micros(10), 2, 0, Timestamp(1)); // k1 (output)
        m.record_firing(4, Micros(10), 4, 0, Timestamp(1)); // k2 (output)
        // Terminal actors deliver results: global selectivity 1.
        assert_eq!(m.global_selectivity(3), 1.0);
        // a: own 0.5 × k1(1) = 0.5.
        assert_eq!(m.global_selectivity(1), 0.5);
        // src: own sel 1.0 (no input yet) × (a + b) = 0.5 + 1.0.
        assert_eq!(m.global_selectivity(0), 1.5);
    }

    #[test]
    fn global_cost_adds_weighted_downstream_work() {
        let wf = two_path_workflow();
        let mut m = StatsModule::new(&wf);
        m.record_firing(1, Micros(100), 10, 5, Timestamp(1)); // a: 10/ev, sel .5
        m.record_firing(2, Micros(200), 10, 10, Timestamp(1)); // b: 20/ev, sel 1
        m.record_firing(3, Micros(50), 10, 0, Timestamp(1)); // k1: 5/ev
        m.record_firing(4, Micros(100), 10, 0, Timestamp(1)); // k2: 10/ev
        // a: 10 + 0.5·5 = 12.5; b: 20 + 1·10 = 30.
        assert_eq!(m.global_cost(1), 12.5);
        assert_eq!(m.global_cost(2), 30.0);
        // src consumed nothing: cost_per_event falls back to mean cost 0,
        // sel 1 → 0 + 1·(12.5 + 30) = 42.5.
        assert_eq!(m.global_cost(0), 42.5);
    }

    #[test]
    fn the_view_and_a_bare_livestats_agree_to_the_bit() {
        let wf = two_path_workflow();
        let mut m = StatsModule::new(&wf);
        let live = LiveStats::new(&wf);
        let firings = [
            (1, 100, 10, 5),
            (2, 230, 7, 7),
            (0, 40, 0, 3),
            (3, 50, 5, 0),
            (1, 170, 3, 1),
            (4, 90, 7, 0),
            (0, 35, 0, 2),
        ];
        for (t, &(a, cost, ins, outs)) in firings.iter().enumerate() {
            m.record_firing(a, Micros(cost), ins, outs, Timestamp(t as u64));
            live.record_fire(a, Micros(cost), ins, outs);
        }
        live.refresh_rate_priorities();
        for a in 0..m.len() {
            let s = m.actor(a);
            assert_eq!(s.selectivity().to_bits(), live.selectivity(a).to_bits());
            assert_eq!(s.cost_per_event().to_bits(), live.cost_per_event(a).to_bits());
            assert_eq!(m.global_cost(a).to_bits(), live.global_cost(a).to_bits());
            assert_eq!(m.rate_priority(a).to_bits(), live.rate_priority(a).to_bits());
        }
    }

    #[test]
    fn render_produces_a_row_per_actor() {
        let wf = two_path_workflow();
        let mut m = StatsModule::new(&wf);
        m.record_firing(1, Micros(100), 2, 1, Timestamp(0));
        let names: Vec<String> = ["src", "a", "b", "k1", "k2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let text = m.render(&names);
        assert_eq!(text.lines().count(), 6, "header + 5 actors");
        assert!(text.contains("src"));
        assert!(text.contains("gCost"));
    }

    #[test]
    fn rate_priority_prefers_cheap_productive_actors() {
        let wf = two_path_workflow();
        let mut m = StatsModule::new(&wf);
        m.record_firing(1, Micros(100), 10, 10, Timestamp(1)); // cheap, productive
        m.record_firing(2, Micros(1_000), 10, 10, Timestamp(1)); // expensive
        m.record_firing(3, Micros(10), 10, 10, Timestamp(1));
        m.record_firing(4, Micros(10), 10, 10, Timestamp(1));
        assert!(m.rate_priority(1) > m.rate_priority(2));
        // Unfired actors are infinitely attractive (probe-first).
        let fresh = StatsModule::new(&wf);
        assert_eq!(fresh.rate_priority(0), f64::INFINITY);
    }
}
