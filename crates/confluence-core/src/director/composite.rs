//! Composite actors: two-level workflow hierarchy.
//!
//! The Linear Road workflow (paper Appendix A) is a two-level hierarchy:
//! the top level is governed by a continuous-workflow director, while the
//! main tasks — detecting stopped cars, computing segment statistics — are
//! *sub-workflows*. The paper picks SDF or DDF for each by whether its rates
//! are constant; a composite here always fires DDF's order, which fires
//! constant rates as well.
//!
//! A [`CompositeActor`] wraps an inner [`Workflow`] and keeps one inner
//! [`Run`] over it: opened at the composite's first firing (a recovered
//! segment skips `initialize`, so opening there would miss it), closed by
//! the composite's own `finish`, which runs the inner close cascade and
//! `wrapup` once. Each firing routes the tokens of every delivered window
//! from the matching inert [`Entry`] into the open inner graph and fires
//! DDF's order until it ends. It then flushes partial windows the way the
//! close cascade would, upstream first: the first actor in
//! [`quasi_topological`] order whose ports form a window is flushed and the
//! order fired again, until no port forms one. So the inner graph holds no
//! event between firings, and each firing evaluates its windows whole, as a
//! fresh run closed after it would. The exit collectors are then
//! drained onto the composite's output ports. Windowing state lives at the
//! composite's own (outer) input ports, which is how the paper's
//! sub-workflows consume the windows formed at their composite's inputs.
//! The inner clock never advances, so an inner time window is refused.

use std::sync::Arc;

use crate::actor::{Actor, FireContext, IoSignature};
use crate::actors::Collector;
use crate::error::{Error, Result};
use crate::graph::{ActorId, Workflow};
use crate::time::VirtualClock;
use crate::window::Measure;

use super::ddf::Dataflow;
use super::firing::{quasi_topological, Cx, FiringOrder, Run, Span, Step};
use super::QueueContext;

/// An inner graph's entry: an inert actor the composite routes its
/// delivered windows' tokens from. It never fires.
pub struct Entry;

impl Actor for Entry {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }

    fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
        Ok(())
    }
}

/// An actor whose behaviour is an inner workflow, fired to quiescence on
/// every firing of the composite.
pub struct CompositeActor {
    signature: IoSignature,
    inner: Workflow,
    /// `entries[i]` feeds composite input port `i` into the inner graph.
    entries: Vec<ActorId>,
    /// `exits[j]` drains inner results onto composite output port `j`.
    exits: Vec<Collector>,
    /// The inner actors, upstream first: the order ports are flushed in.
    flush_order: Vec<ActorId>,
    /// The inner run, from the first firing to `finish`.
    run: Option<(Run, Vec<QueueContext>)>,
}

impl CompositeActor {
    /// Build a composite. `entries` are the inner graph's [`Entry`] actors,
    /// one per input port; `exits` one collector per output port.
    pub fn new(
        signature: IoSignature,
        inner: Workflow,
        entries: Vec<ActorId>,
        exits: Vec<Collector>,
    ) -> Result<Self> {
        if entries.len() != signature.inputs.len() {
            return Err(Error::Graph(format!(
                "composite declares {} inputs but {} entries",
                signature.inputs.len(),
                entries.len()
            )));
        }
        if exits.len() != signature.outputs.len() {
            return Err(Error::Graph(format!(
                "composite declares {} outputs but {} exit collectors",
                signature.outputs.len(),
                exits.len()
            )));
        }
        let timed = inner.actor_ids().any(|id| {
            let ports = inner.node(id).signature.inputs.len();
            (0..ports).any(|p| matches!(inner.window_spec(id, p).size, Measure::Time(_)))
        });
        if timed {
            return Err(Error::Graph("a composite's inner graph takes no time window".into()));
        }
        let flush_order = quasi_topological(&inner);
        Ok(CompositeActor { signature, inner, entries, exits, flush_order, run: None })
    }

    /// Hand what reached the exits to the composite's output ports.
    fn emit_exits(&self, ctx: &mut dyn FireContext) {
        for (port, exit) in self.exits.iter().enumerate() {
            for t in exit.take_tokens() {
                ctx.emit(port, t);
            }
        }
    }
}

impl Actor for CompositeActor {
    fn signature(&self) -> IoSignature {
        self.signature.clone()
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let (run, contexts) = match &mut self.run {
            Some(open) => open,
            slot => {
                let clock = Arc::new(VirtualClock::new());
                slot.insert(Run::open(&mut self.inner, None, clock)?)
            }
        };
        while let Some((port, w)) = ctx.get_any() {
            let tokens = w.events.into_iter().map(|e| (0, e.token)).collect();
            run.fabric.route(self.entries[port], tokens, None, run.clock.now())?;
        }
        let cx = &mut Cx { run, workflow: &mut self.inner, contexts };
        let mut order = Dataflow::new(cx.workflow);
        loop {
            while order.step(cx)? != Step::Ended {}
            let (fabric, now) = (&cx.run.fabric, cx.run.clock.now());
            if !self.flush_order.iter().any(|&id| fabric.flush_actor(id, now) > 0) {
                break;
            }
        }
        self.emit_exits(ctx);
        Ok(())
    }

    fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let Some((run, mut contexts)) = self.run.take() else {
            return Ok(());
        };
        let mut order = Dataflow::new(&self.inner);
        run.drive(&mut self.inner, &mut contexts, &mut order, Span::Whole)?;
        self.emit_exits(ctx);
        Ok(())
    }

    fn wrapup(&mut self) -> Result<()> {
        // An outer run abandoned without closing still tears the inner one down.
        match self.run.take() {
            Some((run, _)) => run.wrapup(&mut self.inner),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::actors::{FnActor, VecSource};
    use crate::director::threaded::ThreadedDirector;
    use crate::director::Director;
    use crate::graph::WorkflowBuilder;
    use crate::testing::MockContext;
    use crate::time::{Micros, Timestamp};
    use crate::token::Token;
    use crate::window::WindowSpec;

    /// An inner graph `entry → inner → exit`, `inner` reading `spec`
    /// windows, wrapped as a one-in, one-out composite.
    fn composite(inner: impl Actor + 'static, spec: WindowSpec) -> Result<CompositeActor> {
        let exit = Collector::new();
        let mut b = WorkflowBuilder::new("inner");
        let entry = b.add_actor("entry", Entry);
        let m = b.add_actor("inner", inner);
        let k = b.add_actor("exit", exit.actor());
        b.link_windowed((entry, "out"), (m, "in"), spec)?;
        b.link((m, "out"), (k, "in"))?;
        CompositeActor::new(IoSignature::transform("in", "out"), b.build()?, vec![entry], vec![exit])
    }

    /// Inner workflow: entry → per-token ×10 → exit.
    fn times_ten_composite() -> CompositeActor {
        let x10 = FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
            for t in w.tokens() {
                emit(0, Token::Int(t.as_int()? * 10));
            }
            Ok(())
        });
        composite(x10, WindowSpec::each_event()).unwrap()
    }

    #[test]
    fn composite_runs_inner_workflow_per_firing() {
        let mut comp = times_ten_composite();
        let mut ctx = MockContext::new(1);
        ctx.push_token(0, Token::Int(3), Timestamp(1));
        comp.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(30)]);
        // Second firing does not re-emit old results.
        ctx.emitted.clear();
        ctx.push_token(0, Token::Int(4), Timestamp(2));
        comp.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(40)]);
    }

    #[test]
    fn composite_with_no_input_is_a_noop_firing() {
        let mut comp = times_ten_composite();
        let mut ctx = MockContext::new(1);
        comp.fire(&mut ctx).unwrap();
        assert!(ctx.emitted.is_empty());
    }

    #[test]
    fn mismatched_handles_rejected() {
        let mut b = WorkflowBuilder::new("inner");
        b.add_actor("entry", Entry);
        let inner = b.build().unwrap();
        let err = CompositeActor::new(IoSignature::transform("in", "out"), inner, vec![], vec![]);
        assert!(err.is_err());
    }

    #[test]
    fn an_inner_time_window_is_refused() {
        let pass = FnActor::new(IoSignature::transform("in", "out"), |_, _| Ok(()));
        assert!(composite(pass, WindowSpec::time(Micros(10), Micros(10))).is_err());
    }

    /// Emits the size of each window it fires on; counts its lifecycle calls.
    struct Sizes(Arc<AtomicUsize>, Arc<AtomicUsize>);

    impl Actor for Sizes {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn initialize(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            while let Some(w) = ctx.get(0) {
                ctx.emit(0, Token::Int(w.len() as i64));
            }
            Ok(())
        }
        fn wrapup(&mut self) -> Result<()> {
            self.1.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn each_firing_evaluates_its_windows_whole_in_one_kept_run() {
        let (inits, wrapups) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let sizes = Sizes(inits.clone(), wrapups.clone());
        let mut comp = composite(sizes, WindowSpec::tuples(2, 2).delete_used(true)).unwrap();
        let mut ctx = MockContext::new(1);
        for (i, tokens) in [1, 1, 2, 1].into_iter().enumerate() {
            ctx.emitted.clear();
            for t in 0..tokens {
                ctx.push_token(0, Token::Int(t), Timestamp(i as u64));
            }
            comp.fire(&mut ctx).unwrap();
            // A window of 2 from two one-token firings would be a window
            // that mixes them: each firing's remainder is flushed instead.
            assert_eq!(ctx.emitted_on(0), vec![Token::Int(tokens)], "firing {i}");
            let (run, _) = comp.run.as_ref().expect("the inner run stays open");
            assert_eq!(run.fabric.backlog(), 0, "firing {i}");
            for id in comp.inner.actor_ids() {
                for r in run.fabric.receivers(id) {
                    assert_eq!(r.pending_events(), 0, "firing {i}");
                }
            }
        }
        assert_eq!(inits.load(Ordering::Relaxed), 1, "one inner run across the firings");
        assert_eq!(wrapups.load(Ordering::Relaxed), 0);
        comp.finish(&mut ctx).unwrap();
        assert!(comp.run.is_none());
        assert_eq!((inits.load(Ordering::Relaxed), wrapups.load(Ordering::Relaxed)), (1, 1));
    }

    #[test]
    fn an_outer_run_abandoned_without_finish_still_wraps_the_inner_run_up() {
        let wrapups = Arc::new(AtomicUsize::new(0));
        let sizes = Sizes(Arc::default(), wrapups.clone());
        let mut comp = composite(sizes, WindowSpec::each_event()).unwrap();
        let mut ctx = MockContext::new(1);
        ctx.push_token(0, Token::Int(1), Timestamp(1));
        comp.fire(&mut ctx).unwrap();
        comp.wrapup().unwrap();
        comp.wrapup().unwrap();
        assert_eq!(wrapups.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn remainders_flush_upstream_first_as_a_close_would() {
        // entry →{3} a →{2} b, each stage emitting its windows' sizes. Four
        // tokens give `a` a window of 3 and a remainder of 1; flushed
        // upstream first, `b` sees both sizes in one window, as it would if
        // the inner graph closed after the firing.
        let counts = || Sizes(Arc::default(), Arc::default());
        let exit = Collector::new();
        let mut b = WorkflowBuilder::new("inner");
        let entry = b.add_actor("entry", Entry);
        let (x, y) = (b.add_actor("a", counts()), b.add_actor("b", counts()));
        let k = b.add_actor("exit", exit.actor());
        b.link_windowed((entry, "out"), (x, "in"), WindowSpec::tuples(3, 3).delete_used(true))
            .unwrap();
        b.link_windowed((x, "out"), (y, "in"), WindowSpec::tuples(2, 2).delete_used(true)).unwrap();
        b.link((y, "out"), (k, "in")).unwrap();
        let sig = IoSignature::transform("in", "out");
        let mut comp = CompositeActor::new(sig, b.build().unwrap(), vec![entry], vec![exit]).unwrap();
        let mut ctx = MockContext::new(1);
        for t in 0..4 {
            ctx.push_token(0, Token::Int(t), Timestamp(1));
        }
        comp.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(2)]);
    }

    #[test]
    fn composite_inside_threaded_top_level() {
        // Two-level hierarchy under the PNCWF director, with a window on
        // the composite's input: the inner sub-workflow sums each window.
        let sum = FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
            let mut s = 0;
            for t in w.tokens() {
                s += t.as_int()?;
            }
            emit(0, Token::Int(s));
            Ok(())
        });
        // The inner "sum" fires per event, so the assertion below checks
        // per-token flow through the hierarchy.
        let comp = composite(sum, WindowSpec::each_event()).unwrap();

        let out = Collector::new();
        let mut b = WorkflowBuilder::new("outer");
        let s = b.add_actor("src", VecSource::new((1..=4).map(Token::Int).collect()));
        let c = b.add_actor("composite", comp);
        let sink = b.add_actor("sink", out.actor());
        b.link_windowed((s, "out"), (c, "in"), WindowSpec::tuples(2, 2).delete_used(true)).unwrap();
        b.link((c, "out"), (sink, "in")).unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        let got: Vec<i64> = out.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        assert_eq!(got.len(), 4, "each of the 4 tokens flowed through the hierarchy");
        let total: i64 = got.iter().sum();
        assert_eq!(total, 10);
    }
}
