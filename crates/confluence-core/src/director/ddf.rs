//! The DDF (Dynamic Dataflow) director: data-driven execution.
//!
//! No pre-compiled schedule: an actor is fired whenever a window is ready
//! on one of its inputs. Used for Linear Road sub-workflows whose
//! consumption and production rates are fluid (decision points,
//! non-constant production — paper Appendix A).
//!
//! The firing rule is all that lives here: sweep the actors in id order
//! firing every ready window, give each live source one firing when
//! nothing is data-ready, end when neither makes progress. The firing
//! step and the run loop are [`super::firing`]'s.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::graph::{ActorId, Workflow};
use crate::telemetry::Telemetry;
use crate::time::{Micros, SharedClock, VirtualClock};

use super::firing::{Cx, FiringOrder, Run, Span, Step};
use super::{Director, RunReport};

/// Fires any actor with ready data until the workflow quiesces.
pub struct DdfDirector {
    clock: SharedClock,
    /// Safety bound against runaway graphs (cycles that generate tokens
    /// forever). Exceeding it is an error.
    pub max_firings: u64,
    telemetry: Option<Telemetry>,
    hook: Option<Arc<crate::checkpoint::QuiesceHook>>,
}

impl Default for DdfDirector {
    fn default() -> Self {
        Self::new()
    }
}

impl DdfDirector {
    /// A director on a fresh virtual clock.
    pub fn new() -> Self {
        DdfDirector {
            clock: Arc::new(VirtualClock::new()),
            max_firings: 1_000_000,
            telemetry: None,
            hook: None,
        }
    }
}

/// The DDF firing order: one step is one sweep.
struct Sweep {
    sources: Vec<ActorId>,
    /// Actors whose `postfire` said they are finished.
    done: Vec<bool>,
    firings: u64,
    max_firings: u64,
}

impl Sweep {
    /// Fire `id` on every window in its inbox. Returns whether any firing
    /// was attempted.
    fn drain(&mut self, cx: &mut Cx<'_>, id: ActorId) -> Result<bool> {
        let mut progress = false;
        while let Some(input) = cx.run.fabric.inbox(id).try_pop() {
            if self.done[id.0] {
                // Finished actors drop late windows.
                continue;
            }
            let fired = cx.fire(id, Some(input), None, None)?;
            self.done[id.0] = fired.alive == Some(false);
            self.firings += u64::from(fired.fired);
            progress = true;
            if self.firings > self.max_firings {
                return Err(Error::Director(format!(
                    "DDF exceeded max_firings={} (runaway graph?)",
                    self.max_firings
                )));
            }
        }
        Ok(progress)
    }
}

impl FiringOrder for Sweep {
    /// Fire every non-source actor with ready windows; if none had any,
    /// give each live source one firing.
    fn step(&mut self, cx: &mut Cx<'_>) -> Result<Step> {
        let mut progress = false;
        for id in cx.workflow.actor_ids() {
            if !cx.workflow.node(id).is_source {
                progress |= self.drain(cx, id)?;
            }
        }
        if !progress {
            for &id in &self.sources {
                if !self.done[id.0] {
                    let fired = cx.fire(id, None, None, None)?;
                    self.done[id.0] = fired.alive == Some(false);
                    progress |= fired.fired || self.done[id.0];
                }
            }
        }
        Ok(if progress { Step::Busy(Micros::ZERO) } else { Step::Ended })
    }

    /// Before an actor closes, fire what its inbox holds; after, fire
    /// every actor until no inbox holds a window (closing an actor's
    /// outputs flushes downstream partial windows).
    fn settle(&mut self, cx: &mut Cx<'_>, id: ActorId, closed: bool) -> Result<()> {
        if !closed {
            return self.drain(cx, id).map(drop);
        }
        while cx.workflow.actor_ids().any(|id| !cx.run.fabric.inbox(id).is_empty()) {
            for id in cx.workflow.actor_ids() {
                self.drain(cx, id)?;
            }
        }
        Ok(())
    }
}

impl Director for DdfDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let (run, mut contexts) = Run::open(
            workflow,
            self.telemetry.clone(),
            self.hook.clone(),
            self.clock.clone(),
        )?;
        let mut sweep = Sweep {
            sources: workflow.sources(),
            done: vec![false; workflow.actor_count()],
            firings: 0,
            max_firings: self.max_firings,
        };
        run.drive(workflow, &mut contexts, &mut sweep, Span::Whole)?;
        Ok(run.report())
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    fn attach_checkpoint(&mut self, hook: Arc<crate::checkpoint::QuiesceHook>) {
        self.hook = Some(hook);
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
        let mut d = DdfDirector::new();
        d.max_firings = 100;
        let err = d.run(&mut wf);
        assert!(matches!(err, Err(Error::Director(_))));
    }
}
