//! The DDF (Dynamic Dataflow) director: data-driven execution.
//!
//! No pre-compiled schedule: an actor is fired whenever a window is ready
//! on one of its inputs. Used for Linear Road sub-workflows whose
//! consumption and production rates are fluid (decision points,
//! non-constant production — paper Appendix A).
//!
//! The firing rule is all that lives here: fire the next ready window in
//! [`Sweep`] order; when none is ready, give each live source one firing,
//! one per step; end when a round of sources makes no progress. Each step
//! is one firing, so a stop or a checkpoint lands on the firing that meets
//! its bound. The firing step and the run loop are [`super::firing`]'s.

use std::sync::Arc;

use crate::error::Result;
use crate::graph::{ActorId, Workflow};
use crate::telemetry::Telemetry;
use crate::time::{Micros, SharedClock, VirtualClock};

use super::firing::{Cx, FiringOrder, Run, Span, Step, Sweep};
use super::{Director, RunReport};

/// Window firings one run may make before it fails as a runaway graph (a
/// cycle that generates tokens forever).
const MAX_FIRINGS: u64 = 1_000_000;

/// Fires any actor with ready data until the workflow quiesces.
pub struct DdfDirector {
    clock: SharedClock,
    telemetry: Option<Telemetry>,
}

impl Default for DdfDirector {
    fn default() -> Self {
        Self::new()
    }
}

impl DdfDirector {
    /// A director on a fresh virtual clock.
    pub fn new() -> Self {
        DdfDirector { clock: Arc::new(VirtualClock::new()), telemetry: None }
    }
}

/// The DDF firing order: one step is one firing.
pub(super) struct Dataflow {
    sweep: Sweep,
    sources: Vec<ActorId>,
    /// The source round under way, if any: where it stands in `sources`,
    /// and whether a source in it fired or finished.
    round: Option<(usize, bool)>,
}

impl Dataflow {
    /// DDF's order over `workflow`, failing as a runaway past
    /// [`MAX_FIRINGS`] window firings.
    pub(super) fn new(workflow: &Workflow) -> Self {
        Dataflow {
            sweep: Sweep::new(workflow, Some(MAX_FIRINGS)),
            sources: workflow.sources(),
            round: None,
        }
    }
}

impl FiringOrder for Dataflow {
    /// Fire the next ready window; if none is ready, open a round that
    /// gives each live source one firing before any window fires again.
    fn step(&mut self, cx: &mut Cx<'_>) -> Result<Step> {
        let (at, progress) = match self.round.take() {
            Some(round) => round,
            None if self.sweep.fire_next(cx)? => return Ok(Step::Busy(Micros::ZERO)),
            None => (0, false),
        };
        let sweep = &self.sweep;
        let Some(i) = (at..self.sources.len()).find(|&i| !sweep.done(self.sources[i])) else {
            // The round is over; a round in which no source fired or
            // finished ends the run.
            return Ok(if progress { Step::Busy(Micros::ZERO) } else { Step::Ended });
        };
        let id = self.sources[i];
        let fired = self.sweep.fire(cx, id, None)?.fired;
        self.round = Some((i + 1, progress || fired || self.sweep.done(id)));
        Ok(Step::Busy(Micros::ZERO))
    }

    fn settle(&mut self, cx: &mut Cx<'_>, id: ActorId, closed: bool) -> Result<()> {
        self.sweep.settle(cx, id, closed)
    }
}

impl Director for DdfDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let (run, mut contexts) = Run::open(workflow, self.telemetry.clone(), self.clock.clone())?;
        let mut order = Dataflow::new(workflow);
        run.drive(workflow, &mut contexts, &mut order, Span::Whole)?;
        Ok(run.report())
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, FireContext, IoSignature};
    use crate::actors::{Collector, FnActor, Router, VecSource};
    use crate::graph::WorkflowBuilder;
    use crate::token::Token;
    use crate::window::WindowSpec;

    #[test]
    fn runs_variable_rate_graph() {
        // Router sends evens one way, odds the other — rates are dynamic,
        // exactly what SDF cannot schedule and DDF exists for.
        let evens = Collector::new();
        let odds = Collector::new();
        let mut b = WorkflowBuilder::new("ddf");
        let s = b.add_actor("src", VecSource::new((1..=6).map(Token::Int).collect()));
        let r = b.add_actor(
            "route",
            Router::new(&["even", "odd"], |t: &Token| {
                Ok(Some((t.as_int()? % 2) as usize))
            }),
        );
        let ke = b.add_actor("evens", evens.actor());
        let ko = b.add_actor("odds", odds.actor());
        b.link((s, "out"), (r, "in")).unwrap();
        b.link((r, "even"), (ke, "in")).unwrap();
        b.link((r, "odd"), (ko, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let report = DdfDirector::new().run(&mut wf).unwrap();
        assert_eq!(evens.len(), 3);
        assert_eq!(odds.len(), 3);
        assert!(report.firings >= 12);
    }

    #[test]
    fn flushes_partial_windows_at_end() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("flush");
        let s = b.add_actor("src", VecSource::new((0..3).map(Token::Int).collect()));
        let agg = b.add_actor(
            "agg",
            FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
                emit(0, Token::Int(w.len() as i64));
                Ok(())
            }),
        );
        let k = b.add_actor("sink", c.actor());
        b.link_windowed((s, "out"), (agg, "in"), WindowSpec::tuples(10, 10)).unwrap();
        b.link((agg, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        DdfDirector::new().run(&mut wf).unwrap();
        assert_eq!(c.tokens(), vec![Token::Int(3)], "short window flushed at close");
    }

    #[test]
    fn max_firings_catches_runaway() {
        // An actor that emits two tokens per input back to itself explodes.
        struct Doubler;
        impl Actor for Doubler {
            fn signature(&self) -> IoSignature {
                IoSignature::transform("in", "out")
            }
            fn fire(&mut self, ctx: &mut dyn FireContext) -> crate::error::Result<()> {
                while let Some(w) = ctx.get(0) {
                    for t in w.tokens() {
                        ctx.emit(0, t.clone());
                        ctx.emit(0, t.clone());
                    }
                }
                Ok(())
            }
        }
        let mut b = WorkflowBuilder::new("runaway");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
        let d = b.add_actor("boom", Doubler);
        b.link((s, "out"), (d, "in")).unwrap();
        b.link((d, "out"), (d, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let clock = Arc::new(VirtualClock::new());
        let (run, mut contexts) = Run::open(&mut wf, None, clock).unwrap();
        let mut order =
            Dataflow { sweep: Sweep::new(&wf, Some(100)), sources: wf.sources(), round: None };
        let err = run.drive(&mut wf, &mut contexts, &mut order, Span::Whole);
        assert!(matches!(err, Err(crate::error::Error::Director(_))));
    }
}
