//! The DDF (Dynamic Dataflow) director: data-driven execution.
//!
//! No pre-compiled schedule: an actor is fired whenever a window is ready
//! on one of its inputs. Used for Linear Road sub-workflows whose
//! consumption and production rates are fluid (decision points,
//! non-constant production — paper Appendix A).
//!
//! The firing rule is all that lives here: sweep the actors in id order
//! firing every ready window, give each live source one firing when
//! nothing is data-ready, stop when neither makes progress. The firing
//! step and the run lifecycle are [`super::firing`]'s.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::graph::{ActorId, Workflow};
use crate::telemetry::{RunPhase, Telemetry};
use crate::time::{SharedClock, VirtualClock};

use super::firing::Run;
use super::{Director, QueueContext, RunReport};

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

/// One DDF execution: the shared run plus what the firing rule tracks.
struct Sweep {
    run: Run,
    contexts: Vec<QueueContext>,
    /// Actors whose `postfire` said they are finished.
    done: Vec<bool>,
    firings: u64,
    max_firings: u64,
}

impl Sweep {
    /// Fire `id` on every window in its inbox. Returns whether any firing
    /// was attempted.
    fn drain(&mut self, workflow: &mut Workflow, id: ActorId) -> Result<bool> {
        let mut progress = false;
        while let Some(input) = self.run.fabric.inbox(id).try_pop() {
            if self.done[id.0] {
                // Finished actors drop late windows.
                continue;
            }
            let actor = workflow.node_mut(id).actor_mut();
            let fired =
                self.run
                    .fire(id, actor, &mut self.contexts[id.0], Some(input), None, None)?;
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

    /// Fire every actor until no inbox holds a window.
    fn settle(&mut self, workflow: &mut Workflow) -> Result<()> {
        let mut again = true;
        while again {
            again = false;
            for id in workflow.actor_ids() {
                again |= self.drain(workflow, id)?;
            }
        }
        Ok(())
    }
}

impl Director for DdfDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let (run, contexts) = Run::open(
            workflow,
            self.telemetry.clone(),
            self.hook.clone(),
            self.clock.clone(),
        )?;
        let mut sweep = Sweep {
            run,
            contexts,
            done: vec![false; workflow.actor_count()],
            firings: 0,
            max_firings: self.max_firings,
        };
        let sources = workflow.sources();
        while !sweep.run.should_stop() {
            if sweep.run.pause_requested() {
                // The sweep boundary is quiescent: no firing is in flight.
                return Ok(sweep.run.quiesce(&mut sweep.contexts));
            }
            let mut progress = false;
            // Data-driven phase: fire every actor with ready windows.
            for id in workflow.actor_ids() {
                if !workflow.node(id).is_source {
                    progress |= sweep.drain(workflow, id)?;
                }
            }
            if progress {
                continue;
            }
            // Nothing data-ready: give each live source one firing.
            for &id in &sources {
                if sweep.done[id.0] {
                    continue;
                }
                let actor = workflow.node_mut(id).actor_mut();
                let ctx = &mut sweep.contexts[id.0];
                let fired = sweep.run.fire(id, actor, ctx, None, None, None)?;
                sweep.done[id.0] = fired.alive == Some(false);
                progress |= fired.fired || sweep.done[id.0];
            }
            if !progress {
                break;
            }
        }

        // Closure cascade in topological-ish order: closing an actor's
        // outputs flushes downstream partial windows, which may enable more
        // firings before those actors close in turn.
        sweep.run.phase(RunPhase::Close);
        for id in quasi_topological(workflow) {
            // Drain anything enabled by earlier closes before the actor's
            // own outputs close.
            sweep.drain(workflow, id)?;
            let actor = workflow.node_mut(id).actor_mut();
            sweep.run.finish_actor(id, actor, &mut sweep.contexts[id.0])?;
            sweep.settle(workflow)?;
        }
        sweep.run.wrapup(workflow)
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    fn attach_checkpoint(&mut self, hook: Arc<crate::checkpoint::QuiesceHook>) {
        self.hook = Some(hook);
    }
}

/// Topological order where possible; actors on cycles appended afterwards
/// in id order.
pub fn quasi_topological(workflow: &Workflow) -> Vec<ActorId> {
    let n = workflow.actor_count();
    let mut indeg = vec![0usize; n];
    for ch in workflow.channels() {
        indeg[ch.to.actor.0] += 1;
    }
    let mut ready: std::collections::VecDeque<usize> =
        (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    while let Some(a) = ready.pop_front() {
        if seen[a] {
            continue;
        }
        seen[a] = true;
        order.push(ActorId(a));
        for ch in workflow.channels() {
            if ch.from.actor.0 == a {
                indeg[ch.to.actor.0] = indeg[ch.to.actor.0].saturating_sub(1);
                if indeg[ch.to.actor.0] == 0 {
                    ready.push_back(ch.to.actor.0);
                }
            }
        }
    }
    for (i, seen_i) in seen.iter().enumerate() {
        if !seen_i {
            order.push(ActorId(i));
        }
    }
    order
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

    #[test]
    fn quasi_topo_handles_cycles() {
        struct Pass;
        impl Actor for Pass {
            fn signature(&self) -> IoSignature {
                IoSignature::transform("in", "out")
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> crate::error::Result<()> {
                Ok(())
            }
        }
        let mut b = WorkflowBuilder::new("cycle");
        let a = b.add_actor("a", Pass);
        let c = b.add_actor("c", Pass);
        b.link((a, "out"), (c, "in")).unwrap();
        b.link((c, "out"), (a, "in")).unwrap();
        let wf = b.build().unwrap();
        let order = quasi_topological(&wf);
        assert_eq!(order.len(), 2);
    }
}
