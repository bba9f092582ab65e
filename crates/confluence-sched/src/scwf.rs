//! The Scheduled CWF (SCWF) director.
//!
//! The main STAFiLOS component: it interacts with the workflow model
//! (actors, ports, receivers) and enacts a pluggable scheduling policy
//! (paper §3, Figure 3). Its iteration cycle:
//!
//! 1. signal the policy (begin of iteration),
//! 2. repeatedly call `next_actor()`; for an internal actor, dequeue one
//!    ready window, place it on the actor's input port, prefire/fire the
//!    actor while timing it, route the productions (whose windows are
//!    enqueued back at the scheduler); the run's statistics module records
//!    the firing,
//! 3. when `next_actor()` returns `None`, post-fire: let the policy do its
//!    maintenance (re-quantification, period flip) and restart — or, if
//!    the workflow is quiescent, advance time to the next source arrival /
//!    window timeout.
//!
//! The director runs in **virtual time** (costs charged to a
//! [`VirtualClock`] via a [`CostModel`] — experiments finish in
//! milliseconds) or **real time** (costs measured on the wall clock).
//!
//! The execution state lives in [`ScwfCore`], a *steppable* engine:
//! [`ScwfDirector`] drives it to completion for single workflows, while
//! the multi-workflow manager ([`crate::multi`]) interleaves several cores
//! on one shared clock with per-slice budgets (the paper's two-level
//! scheduling design, §5).
//!
//! What is written here is the firing rule — the policy's `next_actor()`
//! over the actors' inboxes, each window announced to the policy once —
//! and SCWF's time rule, the [`CostModel`] charge. The firing step itself
//! and the run loop are `confluence_core::director::firing`'s.

use std::sync::Arc;

use confluence_core::director::firing::{Charge, Cx, FiringOrder, Run, Span, Step};
use confluence_core::director::{Director, Fabric, QueueContext, RunReport};
use confluence_core::error::Result;
use confluence_core::graph::{ActorId, Workflow};
use confluence_core::telemetry::{StatsModule, Telemetry};
use confluence_core::time::{Clock, Micros, SharedClock, Timestamp, VirtualClock, WallClock};

pub use confluence_core::director::firing::Progress;

use crate::cost::CostModel;
use crate::framework::{ActorInfo, Scheduler};

/// How the director keeps time.
pub enum TimeMode {
    /// Discrete-event execution: firing costs come from a model and are
    /// charged to a virtual clock.
    Virtual {
        /// The simulation clock (shareable across workflows).
        clock: Arc<VirtualClock>,
        /// The firing-cost model.
        cost: Box<dyn CostModel>,
    },
    /// Wall-clock execution with measured costs.
    Real {
        /// The wall clock.
        clock: Arc<WallClock>,
    },
}

impl TimeMode {
    fn clock(&self) -> SharedClock {
        match self {
            TimeMode::Virtual { clock, .. } => clock.clone(),
            TimeMode::Real { clock } => clock.clone(),
        }
    }

    fn now(&self) -> Timestamp {
        match self {
            TimeMode::Virtual { clock, .. } => clock.now(),
            TimeMode::Real { clock } => clock.now(),
        }
    }

    /// Jump the virtual clock to `t`, or sleep the wall clock up to it.
    fn advance_to(&self, t: Timestamp) {
        match self {
            TimeMode::Virtual { clock, .. } => clock.advance_to(t),
            TimeMode::Real { clock } => {
                let now = clock.now();
                if t > now {
                    std::thread::sleep(t.since(now).to_std());
                }
            }
        }
    }
}

/// The steppable SCWF execution engine for one workflow.
pub struct ScwfCore {
    policy: Box<dyn Scheduler>,
    mode: TimeMode,
    /// Fixed overhead charged per scheduling decision in virtual mode.
    pub scheduler_overhead: Micros,
    /// Hard stop: abandon the run once time passes this.
    pub deadline: Option<Timestamp>,
    // Execution state (built on first use).
    state: Option<ExecState>,
    telemetry: Option<Telemetry>,
    hook: Option<Arc<confluence_core::checkpoint::QuiesceHook>>,
}

struct ExecState {
    /// The shared run; its fabric lives across checkpoint segments.
    run: Run,
    contexts: Vec<QueueContext>,
    book: Book,
    /// The last slice ended in a checkpoint capture: the next one begins
    /// a new segment on the same fabric.
    paused: bool,
    /// The final report, once the actors are wrapped up.
    finished: Option<RunReport>,
}

/// What the firing order keeps from slice to slice.
struct Book {
    /// Actor names, for the cost model.
    names: Vec<String>,
    /// Per actor: how many of its inbox's windows the policy has heard
    /// `on_enqueue` for.
    announced: Vec<usize>,
    source_ids: Vec<usize>,
    source_exhausted: Vec<bool>,
}

impl ScwfCore {
    fn new(policy: Box<dyn Scheduler>, mode: TimeMode) -> Self {
        ScwfCore {
            policy,
            mode,
            scheduler_overhead: Micros::ZERO,
            deadline: None,
            state: None,
            telemetry: None,
            hook: None,
        }
    }

    /// Virtual-time core with the given policy, cost model, and clock.
    pub fn new_virtual(
        policy: Box<dyn Scheduler>,
        cost: Box<dyn CostModel>,
        clock: Arc<VirtualClock>,
    ) -> Self {
        Self::new(policy, TimeMode::Virtual { clock, cost })
    }

    /// Attach telemetry. It takes effect when the next segment begins
    /// (the first slice, or the one after a checkpoint pause).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Current time on the core's clock.
    pub fn now(&self) -> Timestamp {
        self.mode.now()
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Statistics collected so far (None before the first slice): the
    /// run keeps them, across checkpoint segments.
    pub fn stats(&self) -> Option<&StatsModule> {
        self.state.as_ref().and_then(|s| s.run.stats.as_deref())
    }

    /// The communication fabric (None before the first slice): what the
    /// receivers and inboxes hold right now.
    pub fn fabric(&self) -> Option<&Fabric> {
        self.state.as_ref().map(|s| &s.run.fabric)
    }

    /// The run report: cumulative over slices, per checkpoint segment.
    pub fn report(&self) -> RunReport {
        match &self.state {
            Some(st) => st.finished.clone().unwrap_or_else(|| st.run.report()),
            None => RunReport::default(),
        }
    }

    /// Open the run (first slice) or begin the next checkpoint segment on
    /// its fabric (first slice after a pause).
    fn ensure_open(&mut self, workflow: &mut Workflow) -> Result<()> {
        match &mut self.state {
            Some(st) if st.paused => {
                st.paused = false;
                st.contexts = st.run.begin(workflow, self.telemetry.clone())?;
            }
            Some(_) => {}
            None => {
                let (mut run, contexts) = Run::open(
                    workflow,
                    self.telemetry.clone(),
                    self.hook.clone(),
                    self.mode.clock(),
                )?;
                run.stats = Some(Arc::new(StatsModule::new(workflow)));
                let infos: Vec<ActorInfo> = workflow
                    .actor_ids()
                    .map(|id| {
                        let node = workflow.node(id);
                        ActorInfo {
                            index: id.index(),
                            name: node.name.clone(),
                            priority: node.priority,
                            is_source: node.is_source,
                        }
                    })
                    .collect();
                self.policy.init(&infos);
                let n = workflow.actor_count();
                self.state = Some(ExecState {
                    run,
                    contexts,
                    book: Book {
                        names: infos.into_iter().map(|i| i.name).collect(),
                        announced: vec![0; n],
                        source_ids: workflow.sources().iter().map(|i| i.index()).collect(),
                        source_exhausted: vec![false; n],
                    },
                    paused: false,
                    finished: None,
                });
            }
        }
        Ok(())
    }

    /// The firing order over the open run, with the run and its contexts.
    fn order(&mut self) -> Option<(Dispatch<'_>, &Run, &mut [QueueContext])> {
        let st = self.state.as_mut()?;
        let dispatch = Dispatch {
            policy: self.policy.as_mut(),
            mode: &self.mode,
            overhead: self.scheduler_overhead,
            deadline: self.deadline,
            book: &mut st.book,
            stats: st.run.stats.as_deref().expect("SCWF keeps statistics"),
            fired_in_iteration: false,
        };
        Some((dispatch, &st.run, &mut st.contexts))
    }

    /// Run until quiescence, completion, or (if given) until `budget`
    /// microseconds of cost have been charged in this slice.
    pub fn run_for(&mut self, workflow: &mut Workflow, budget: Option<Micros>) -> Result<Progress> {
        self.drive(workflow, Span::Slice(budget))
    }

    /// Open or resume the run and drive it over `span`.
    fn drive(&mut self, workflow: &mut Workflow, span: Span) -> Result<Progress> {
        self.ensure_open(workflow)?;
        if self.state.as_ref().is_some_and(|st| st.finished.is_some()) {
            return Ok(Progress::Finished);
        }
        let (mut order, run, contexts) = self.order().expect("opened");
        order.sync_external(run, workflow);
        let progress = run.drive(workflow, contexts, &mut order, span)?;
        let st = self.state.as_mut().expect("opened");
        match progress {
            Progress::Paused => st.paused = true,
            Progress::Finished => st.finished = Some(st.run.report()),
            Progress::BudgetExhausted | Progress::IdleUntil(_) => {}
        }
        Ok(progress)
    }

    /// Notify the core that its clock was advanced externally (or sleep to
    /// `t` in real mode): window timeouts are evaluated and sources
    /// refreshed. (What the timeouts expire is routed by the next firing.)
    pub fn advance_to(&mut self, workflow: &Workflow, t: Timestamp) {
        match self.order() {
            Some((mut order, run, _)) => order.advance_to(run, workflow, t),
            None => self.mode.advance_to(t),
        }
    }
}

/// The SCWF firing order over one slice: one step is one `next_actor()`
/// firing, or the end of a policy iteration.
struct Dispatch<'a> {
    policy: &'a mut dyn Scheduler,
    mode: &'a TimeMode,
    overhead: Micros,
    deadline: Option<Timestamp>,
    book: &'a mut Book,
    /// The run's statistics, which the policy reads.
    stats: &'a StatsModule,
    fired_in_iteration: bool,
}

impl Dispatch<'_> {
    /// Announce to the policy the windows that reached the inboxes since
    /// the last call (actors by index, windows by arrival) and refresh
    /// source readiness. Call after anything that may have produced
    /// windows or advanced time.
    fn sync_external(&mut self, run: &Run, workflow: &Workflow) {
        for (i, announced) in self.book.announced.iter_mut().enumerate() {
            // A window shed after it was announced leaves the count ahead
            // of the inbox: its announcement then stands for the next
            // arrival, and `after_fire`'s `remaining` settles the policy.
            let inbox = run.fabric.inbox(ActorId(i));
            *announced = inbox.origins_past(*announced, |origin| self.policy.on_enqueue(i, origin));
        }
        let now = self.mode.now();
        for &s in &self.book.source_ids {
            if self.book.source_exhausted[s] {
                continue;
            }
            let arrival = workflow
                .node(ActorId(s))
                .peek_actor()
                .and_then(|a| a.next_arrival());
            match arrival {
                None => {
                    self.book.source_exhausted[s] = true;
                    self.policy.on_source_ready(s, false);
                }
                Some(t) => self.policy.on_source_ready(s, t <= now),
            }
        }
    }

    /// Fire one actor; returns its cost, or `None` if the firing was
    /// skipped (prefire false / nothing queued).
    fn fire_one(&mut self, cx: &mut Cx<'_>, a: usize) -> Result<Option<Micros>> {
        let id = ActorId(a);
        let input = if cx.workflow.node(id).is_source {
            None
        } else {
            let Some(input) = cx.run.fabric.inbox(id).try_pop() else {
                return Ok(None);
            };
            self.book.announced[a] = self.book.announced[a].saturating_sub(1);
            Some(input)
        };
        // The time rule: in virtual mode the cost model's charge (plus the
        // scheduling overhead) advances the clock; in real mode the firing
        // is timed on the wall clock like any other director's.
        let (name, overhead) = (&self.book.names[a], self.overhead);
        let mut charged;
        let charge: Option<Charge<'_>> = match self.mode {
            TimeMode::Virtual { clock, cost } => {
                charged = move |consumed, produced| {
                    let c = cost.firing_cost(a, name, consumed, produced) + overhead;
                    clock.advance(c);
                    c
                };
                Some(&mut charged)
            }
            TimeMode::Real { .. } => None,
        };
        let fired = cx.fire(id, input, charge)?;
        Ok(fired.fired.then_some(fired.busy))
    }

    /// The policy has nothing to fire: let it do its maintenance, and if
    /// nothing became runnable find the next interesting instant.
    fn end_iteration(&mut self, run: &Run, workflow: &Workflow) -> Step {
        let reactivated = self.policy.end_iteration(self.stats);
        if std::mem::take(&mut self.fired_in_iteration) || reactivated {
            return Step::Busy(Micros::ZERO);
        }
        let book = &self.book;
        let next_arrival = (book.source_ids.iter())
            .filter(|&&s| !book.source_exhausted[s])
            .filter_map(|&s| workflow.node(ActorId(s)).peek_actor().and_then(|a| a.next_arrival()))
            .min();
        match next_arrival.into_iter().chain(run.fabric.next_deadline()).min() {
            // Nothing more can happen before the deadline.
            Some(t) if self.deadline.is_some_and(|limit| t > limit) => Step::Abandoned,
            Some(t) => Step::IdleUntil(t),
            None => Step::Ended,
        }
    }
}

impl FiringOrder for Dispatch<'_> {
    fn step(&mut self, cx: &mut Cx<'_>) -> Result<Step> {
        let Some(a) = self.policy.next_actor() else {
            return Ok(self.end_iteration(cx.run, cx.workflow));
        };
        let cost = self.fire_one(cx, a)?;
        self.fired_in_iteration |= cost.is_some();
        // Post-firing housekeeping: announce, readiness, timeouts.
        self.sync_external(cx.run, cx.workflow);
        let now = self.mode.now();
        if cx.run.fabric.next_deadline().is_some_and(|d| d <= now) {
            cx.run.poll(None, now)?;
            self.sync_external(cx.run, cx.workflow);
        }
        let remaining = cx.run.fabric.inbox(ActorId(a)).len();
        let cost = cost.unwrap_or(Micros::ZERO);
        self.policy.after_fire(a, cost, remaining, self.stats);
        if self.deadline.is_some_and(|limit| now > limit) {
            return Ok(Step::Abandoned);
        }
        Ok(Step::Busy(cost))
    }

    /// Before an actor closes, fire every window in its inbox (what the
    /// closes upstream flushed), announcing as it goes.
    fn settle(&mut self, cx: &mut Cx<'_>, id: ActorId, closed: bool) -> Result<()> {
        loop {
            self.sync_external(cx.run, cx.workflow);
            if closed || cx.run.fabric.inbox(id).is_empty() {
                return Ok(());
            }
            self.fire_one(cx, id.0)?;
        }
    }

    /// Move the clock to `t`, evaluate window timeouts and refresh the
    /// sources.
    fn advance_to(&mut self, run: &Run, workflow: &Workflow, t: Timestamp) {
        self.mode.advance_to(t);
        run.fabric.poll_all(self.mode.now());
        self.sync_external(run, workflow);
    }
}

/// The scheduled continuous-workflow director: drives an [`ScwfCore`] to
/// completion over a single workflow.
pub struct ScwfDirector {
    core: ScwfCore,
}

impl ScwfDirector {
    /// Virtual-time director with the given policy and cost model.
    pub fn virtual_time(policy: Box<dyn Scheduler>, cost: Box<dyn CostModel>) -> Self {
        ScwfDirector {
            core: ScwfCore::new_virtual(policy, cost, Arc::new(VirtualClock::new())),
        }
    }

    /// Real-time director: costs are measured on the wall clock.
    pub fn real_time(policy: Box<dyn Scheduler>) -> Self {
        let clock = Arc::new(WallClock::new());
        ScwfDirector { core: ScwfCore::new(policy, TimeMode::Real { clock }) }
    }

    /// Set the per-decision scheduler overhead (virtual mode).
    pub fn with_scheduler_overhead(mut self, o: Micros) -> Self {
        self.core.scheduler_overhead = o;
        self
    }

    /// Set a hard run deadline.
    pub fn with_deadline(mut self, t: Timestamp) -> Self {
        self.core.deadline = Some(t);
        self
    }

    /// The statistics module of the last run.
    pub fn last_stats(&self) -> Option<&StatsModule> {
        self.core.stats()
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.core.policy_name()
    }

    /// The core's current time.
    pub fn now(&self) -> Timestamp {
        self.core.now()
    }
}

impl Director for ScwfDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        self.core.drive(workflow, Span::Whole)?;
        Ok(self.core.report())
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.core.set_telemetry(telemetry);
    }

    fn attach_checkpoint(&mut self, hook: Arc<confluence_core::checkpoint::QuiesceHook>) {
        self.core.hook = Some(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::policies::fifo::FifoScheduler;
    use confluence_core::actors::{Collector, TimedSource, VecSource};
    use confluence_core::graph::WorkflowBuilder;
    use confluence_core::token::Token;
    use confluence_core::window::WindowSpec;

    fn fifo() -> Box<dyn Scheduler> {
        Box::new(FifoScheduler::new(5))
    }

    #[test]
    fn virtual_time_charges_costs() {
        let probe = Collector::new();
        let mut b = WorkflowBuilder::new("vt");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![
                (Timestamp(0), Token::Int(1)),
                (Timestamp(1_000), Token::Int(2)),
            ]),
        );
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let cost = TableCostModel::uniform(Micros(100), Micros::ZERO);
        let mut d = ScwfDirector::virtual_time(fifo(), Box::new(cost));
        let report = d.run(&mut wf).unwrap();
        assert_eq!(probe.len(), 2);
        // Origin = source firing start; the probe samples at the start of
        // its own firing, after the source's 100µs cost was charged.
        assert_eq!(probe.latencies()[0], Micros(100));
        assert!(report.firings >= 4);
        assert!(d.last_stats().is_some());
        let stats = d.last_stats().unwrap();
        assert!(stats.fires(1) >= 2);
    }

    #[test]
    fn quiescent_clock_jumps_to_next_arrival() {
        let probe = Collector::new();
        let mut b = WorkflowBuilder::new("jump");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![(Timestamp(1_000_000), Token::Int(1))]),
        );
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let cost = TableCostModel::uniform(Micros(10), Micros::ZERO);
        let mut d = ScwfDirector::virtual_time(fifo(), Box::new(cost));
        d.run(&mut wf).unwrap();
        assert_eq!(probe.len(), 1);
        // The event was processed shortly after its arrival at t=1s, not
        // at t=0 — and the run did not take 1s of wall time.
        assert!(probe.items()[0].received_at >= Timestamp(1_000_000));
        assert!(probe.latencies()[0] < Micros(1_000));
    }

    #[test]
    fn overload_shows_growing_latency() {
        // Arrivals every 100µs; service takes 300µs per event: the queue
        // grows and response time climbs — the thrash mechanic.
        let probe = Collector::new();
        let schedule: Vec<(Timestamp, Token)> = (0..50)
            .map(|i| (Timestamp(i * 100), Token::Int(i as i64)))
            .collect();
        let mut b = WorkflowBuilder::new("overload");
        let s = b.add_actor("src", TimedSource::new(schedule));
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let cost = TableCostModel::uniform(Micros::ZERO, Micros::ZERO)
            .with_actor("probe", Micros(300), Micros::ZERO);
        let mut d = ScwfDirector::virtual_time(fifo(), Box::new(cost));
        d.run(&mut wf).unwrap();
        let latencies = probe.latencies();
        assert_eq!(latencies.len(), 50);
        let first = latencies[0];
        let last = latencies[49];
        assert!(
            last.as_micros() > first.as_micros() + 5_000,
            "latency should grow under overload: first={first}, last={last}"
        );
    }

    #[test]
    fn deadline_bounds_the_run() {
        let probe = Collector::new();
        let schedule: Vec<(Timestamp, Token)> = (0..1000)
            .map(|i| (Timestamp(i * 1_000), Token::Int(i as i64)))
            .collect();
        let mut b = WorkflowBuilder::new("bounded");
        let s = b.add_actor("src", TimedSource::new(schedule));
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let cost = TableCostModel::uniform(Micros(10), Micros::ZERO);
        let mut d = ScwfDirector::virtual_time(fifo(), Box::new(cost))
            .with_deadline(Timestamp(100_000));
        d.run(&mut wf).unwrap();
        assert!(probe.len() < 1000, "run stopped early");
        assert!(probe.len() > 50);
    }

    #[test]
    fn windows_and_flush_under_scwf() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("win");
        let s = b.add_actor("src", VecSource::new((0..5).map(Token::Int).collect()));
        let agg = b.add_actor(
            "agg",
            confluence_core::actors::FnActor::new(
                confluence_core::actor::IoSignature::transform("in", "out"),
                |w, emit| {
                    emit(0, Token::Int(w.len() as i64));
                    Ok(())
                },
            ),
        );
        let k = b.add_actor("sink", c.actor());
        b.link_windowed((s, "out"), (agg, "in"), WindowSpec::tuples(2, 2)).unwrap();
        b.link((agg, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let cost = TableCostModel::uniform(Micros(1), Micros::ZERO);
        ScwfDirector::virtual_time(fifo(), Box::new(cost))
            .run(&mut wf)
            .unwrap();
        // Two full 2-windows plus the flushed 1-window.
        assert_eq!(
            c.tokens(),
            vec![Token::Int(2), Token::Int(2), Token::Int(1)]
        );
    }

    #[test]
    fn real_time_mode_works() {
        let probe = Collector::new();
        let mut b = WorkflowBuilder::new("rt");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let mut d = ScwfDirector::real_time(fifo());
        assert_eq!(d.policy_name(), "FIFO");
        d.run(&mut wf).unwrap();
        assert_eq!(probe.len(), 1);
    }

    #[test]
    fn real_time_mode_sleeps_to_arrivals() {
        // Arrivals 5 ms apart: the idle branch must sleep the wall clock
        // forward rather than spin or jump.
        let probe = Collector::new();
        let schedule: Vec<(Timestamp, Token)> = (0..4)
            .map(|i| (Timestamp::from_millis(i * 5), Token::Int(i as i64)))
            .collect();
        let mut b = WorkflowBuilder::new("rt-sleep");
        let s = b.add_actor("src", TimedSource::new(schedule));
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let started = std::time::Instant::now();
        ScwfDirector::real_time(fifo()).run(&mut wf).unwrap();
        assert_eq!(probe.len(), 4);
        assert!(
            started.elapsed() >= std::time::Duration::from_millis(15),
            "run must take at least the schedule span"
        );
    }

    #[test]
    fn stepped_execution_with_budget() {
        let probe = Collector::new();
        let schedule: Vec<(Timestamp, Token)> = (0..20)
            .map(|i| (Timestamp(i), Token::Int(i as i64)))
            .collect();
        let mut b = WorkflowBuilder::new("stepped");
        let s = b.add_actor("src", TimedSource::new(schedule));
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let clock = Arc::new(VirtualClock::new());
        let cost = TableCostModel::uniform(Micros(100), Micros::ZERO);
        let mut core = ScwfCore::new_virtual(fifo(), Box::new(cost), clock);
        let mut slices = 0;
        loop {
            slices += 1;
            match core.run_for(&mut wf, Some(Micros(300))).unwrap() {
                Progress::Finished => break,
                Progress::IdleUntil(t) => core.advance_to(&wf, t),
                Progress::BudgetExhausted => { /* next slice */ }
                Progress::Paused => unreachable!("no checkpoint hook attached"),
            }
            assert!(slices < 1_000, "must terminate");
        }
        assert_eq!(probe.len(), 20);
        assert!(slices > 3, "budget forced multiple slices");
    }
}
