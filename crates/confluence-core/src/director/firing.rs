//! The firing core: one firing step and one run loop, shared by every
//! execution path.
//!
//! The paper's thesis (§2) is that the director owns the model of
//! computation while actors, ports and channels are shared. [`Run`] is the
//! shared part of *executing*: a director keeps only its firing rule —
//! which actor fires next, on which thread, and when time advances — and
//! calls into here for everything else. A director that fires on the
//! caller's thread writes its rule as a [`FiringOrder`] and hands it to
//! [`Run::drive`], which owns the rest of the run.
//!
//! Every firing attempt, under every director, is this sequence:
//!
//! 1. `on_dequeue` per input window, then the windows are handed to the
//!    actor's context;
//! 2. `on_fire_start`, `prefire`, and — unless it refused — `fire`;
//! 3. the time rule charges the firing (model cost, or measured wall time);
//! 4. [`Fabric::stamp`], then the director's delivery (immediately unless
//!    it defers), then [`Fabric::route_expired`];
//! 5. `on_fire_end` with the one [`FireRecord`], then [`Telemetry::sample`];
//! 6. `postfire`.
//!
//! A refused `prefire` skips 3–4 and reports `fired: false`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::actor::Actor;
use crate::checkpoint::QuiesceHook;
use crate::error::Result;
use crate::graph::{ActorId, Workflow};
use crate::telemetry::{FireRecord, RunPhase, Telemetry};
use crate::time::{Micros, SharedClock, Timestamp};
use crate::window::Window;

use super::{Fabric, QueueContext, RunReport, Stamped};

/// A director's time rule, when firings are not timed on the run's clock:
/// called once per successful firing with `(events consumed, tokens
/// produced)`, it advances the clock by the firing's cost and returns it.
pub type Charge<'a> = &'a mut dyn FnMut(u64, u64) -> Micros;

/// A director's delivery rule, when a firing's stamped emissions do not go
/// out at once: takes the batch and says whether delivery completed
/// (`false` defers `postfire` until the director resumes the firing).
pub type Deliver<'a> = &'a mut dyn FnMut(Stamped) -> Result<bool>;

/// What one firing attempt did.
#[derive(Debug, Clone, Copy)]
pub struct Fired {
    /// Whether `prefire` accepted and the actor fired.
    pub fired: bool,
    /// Cost of the firing: the time rule's charge, or measured clock time.
    pub busy: Micros,
    /// Events consumed from input windows.
    pub events_in: u64,
    /// Tokens emitted.
    pub tokens_out: u64,
    /// Origin of the wave that triggered the firing.
    pub origin: Option<Timestamp>,
    /// Director time when the attempt began.
    pub started: Timestamp,
    /// Director time when the firing and its routing completed.
    pub ended: Timestamp,
    /// `postfire`'s verdict; `None` while delivery is deferred.
    pub alive: Option<bool>,
}

/// What a firing boundary allows. A stop outranks a pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Fire on.
    Go,
    /// Wind down through the close cascade.
    Stop,
    /// Stop at the boundary and capture what is queued (a checkpoint).
    Pause,
}

/// What one [`FiringOrder::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Work was done or attempted; the time rule charged this much.
    Busy(Micros),
    /// Nothing can fire before this instant.
    IdleUntil(Timestamp),
    /// The stream ended.
    Ended,
    /// The director's hard deadline passed: wrap up without closing.
    Abandoned,
}

/// How far one [`Run::drive`] goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// To the end of the run (or a pause), advancing idle time in place.
    Whole,
    /// One slice: hands idle time back, and ends once the budget is charged.
    Slice(Option<Micros>),
}

/// Outcome of one [`Run::drive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// The slice budget was exhausted; more work is immediately pending.
    BudgetExhausted,
    /// Quiescent until the given instant; the caller advances time.
    IdleUntil(Timestamp),
    /// The run ended and every actor was wrapped up.
    Finished,
    /// A checkpoint pause was honoured: the capture is on the quiesce hook.
    Paused,
}

/// What a firing order acts on: the run, the workflow and the contexts.
pub struct Cx<'a> {
    /// The shared run.
    pub run: &'a Run,
    /// The workflow being executed.
    pub workflow: &'a mut Workflow,
    /// One context per actor.
    pub contexts: &'a mut [QueueContext],
}

impl Cx<'_> {
    /// One firing attempt of `id` on `inputs` ([`Run::fire`]).
    pub fn fire(
        &mut self,
        id: ActorId,
        inputs: impl IntoIterator<Item = (usize, Window)>,
        charge: Option<Charge<'_>>,
        deliver: Option<Deliver<'_>>,
    ) -> Result<Fired> {
        let actor = self.workflow.node_mut(id).actor_mut();
        self.run.fire(id, actor, &mut self.contexts[id.0], inputs, charge, deliver)
    }
}

/// A director's firing rule, run on the caller's thread by [`Run::drive`],
/// which owns everything around it.
pub trait FiringOrder {
    /// Fire what the rule says comes next (one unit between boundaries).
    fn step(&mut self, cx: &mut Cx<'_>) -> Result<Step>;

    /// The close cascade's settle step, just before (`closed: false`) and
    /// just after (`closed: true`) actor `id` finishes.
    fn settle(&mut self, _cx: &mut Cx<'_>, _id: ActorId, _closed: bool) -> Result<()> {
        Ok(())
    }

    /// While a pause is pending, one more step before the capture, if any.
    fn drain(&mut self, _cx: &mut Cx<'_>) -> Result<bool> {
        Ok(false)
    }

    /// Advance the order's clock to `t` after an idle step.
    fn advance_to(&mut self, _run: &Run, _workflow: &Workflow, _t: Timestamp) {}
}

/// Everything the actors of one workflow execution share: the fabric, the
/// telemetry and checkpoint attachments, the clock, and the run's counters.
pub struct Run {
    /// The communication fabric.
    pub fabric: Fabric,
    /// Telemetry attached for this run (segment), if any.
    pub tele: Option<Telemetry>,
    /// Checkpoint quiesce hook, if any.
    pub hook: Option<Arc<QuiesceHook>>,
    /// The director's clock.
    pub clock: SharedClock,
    started: Timestamp,
    firings: AtomicU64,
    routed: AtomicU64,
}

impl Run {
    /// Open a run: build the fabric and [`Run::begin`] its first segment.
    /// Returns the run and one context per actor.
    pub fn open(
        workflow: &mut Workflow,
        tele: Option<Telemetry>,
        hook: Option<Arc<QuiesceHook>>,
        clock: SharedClock,
    ) -> Result<(Run, Vec<QueueContext>)> {
        let mut run = Run {
            fabric: Fabric::build(workflow)?,
            tele: None,
            hook,
            clock,
            started: Timestamp::ZERO,
            firings: AtomicU64::new(0),
            routed: AtomicU64::new(0),
        };
        let contexts = run.begin(workflow, tele)?;
        Ok((run, contexts))
    }

    /// Begin a checkpoint segment on this run's fabric: the segment's
    /// observer takes the fabric over, staged restore state is re-injected,
    /// fresh contexts are wired to the observer, [`RunPhase::Start`] is
    /// announced, and — unless the segment resumes restored state — every
    /// actor is initialized. A director that builds a fabric per segment
    /// gets this through [`Run::open`]; one that keeps its fabric across
    /// segments (SCWF) calls it at the start of each.
    pub fn begin(
        &mut self,
        workflow: &mut Workflow,
        tele: Option<Telemetry>,
    ) -> Result<Vec<QueueContext>> {
        let observer = tele.as_ref().map(|t| t.observer.clone());
        self.fabric.observe(workflow, observer.clone());
        self.tele = tele;
        if let Some(state) = self.hook.as_ref().and_then(|h| h.take_restore()) {
            self.fabric.restore_state(state)?;
        }
        let mut contexts: Vec<QueueContext> = workflow
            .actor_ids()
            .map(|id| {
                let mut ctx = QueueContext::new(workflow.node(id).signature.inputs.len());
                if let Some(obs) = &observer {
                    // Actor-side shed reports (shedding operators) land in
                    // the same per-actor events_shed metric as channel sheds.
                    ctx.set_shed_observer(obs.clone(), id);
                }
                ctx
            })
            .collect();
        self.started = self.clock.now();
        *self.firings.get_mut() = 0;
        *self.routed.get_mut() = 0;
        self.phase(RunPhase::Start);
        // Restored actor state already reflects a past initialization.
        if !self.hook.as_ref().is_some_and(|h| h.resuming()) {
            for id in workflow.actor_ids() {
                let ctx = &mut contexts[id.0];
                ctx.set_now(self.clock.now());
                workflow.node_mut(id).actor_mut().initialize(ctx)?;
                let (emissions, _) = ctx.take_emissions();
                let now = self.clock.now();
                *self.routed.get_mut() += self.fabric.route(id, emissions, None, now)?;
            }
        }
        Ok(contexts)
    }

    /// Report a run phase to the observer.
    pub fn phase(&self, phase: RunPhase) {
        if let Some(t) = &self.tele {
            t.observer.on_run_phase(phase, self.clock.now());
        }
    }

    /// What the next firing boundary allows. A stop outranks a pause.
    pub fn boundary(&self) -> Boundary {
        if self.tele.as_ref().is_some_and(|t| t.should_stop()) {
            Boundary::Stop
        } else if self.hook.as_ref().is_some_and(|h| h.pause_requested()) {
            Boundary::Pause
        } else {
            Boundary::Go
        }
    }

    /// Run `order` on the caller's thread over `span`. At each boundary a
    /// pause ends the segment in [`Run::quiesce`] once the order has nothing
    /// to drain; a stop, like the stream's end, closes every actor upstream
    /// first (settle, [`Run::finish_actor`], settle) and wraps the run up.
    pub fn drive(
        &self,
        workflow: &mut Workflow,
        contexts: &mut [QueueContext],
        order: &mut dyn FiringOrder,
        span: Span,
    ) -> Result<Progress> {
        let cx = &mut Cx { run: self, workflow, contexts };
        let (mut spent, mut exhausted, mut wake) = (Micros::ZERO, false, None);
        loop {
            match self.boundary() {
                Boundary::Stop => break,
                Boundary::Pause if order.drain(cx)? => continue,
                Boundary::Pause => {
                    self.quiesce(cx.contexts);
                    return Ok(Progress::Paused);
                }
                Boundary::Go if exhausted => return Ok(Progress::BudgetExhausted),
                Boundary::Go => {}
            }
            if let Some(t) = wake.take() {
                order.advance_to(self, cx.workflow, t);
            }
            match (order.step(cx)?, span) {
                (Step::Busy(cost), Span::Slice(Some(budget))) => {
                    spent += cost;
                    exhausted = spent >= budget;
                }
                (Step::Busy(_), _) => {}
                (Step::IdleUntil(t), Span::Slice(_)) => return Ok(Progress::IdleUntil(t)),
                (Step::IdleUntil(t), Span::Whole) => wake = Some(t),
                (Step::Ended, _) => break,
                (Step::Abandoned, _) => return self.wrapup(cx.workflow).map(|_| Progress::Finished),
            }
        }
        self.phase(RunPhase::Close);
        for id in quasi_topological(cx.workflow) {
            order.settle(cx, id, false)?;
            let actor = cx.workflow.node_mut(id).actor_mut();
            self.finish_actor(id, actor, &mut cx.contexts[id.0])?;
            order.settle(cx, id, true)?;
        }
        self.wrapup(cx.workflow).map(|_| Progress::Finished)
    }

    /// One firing attempt of `actor` on `inputs` (none for a source): the
    /// sequence in the module docs. `charge` and `deliver` are the two
    /// things a director may supply; `None` means firings are timed on the
    /// run's clock and emissions are delivered at once.
    ///
    /// A firing no window triggered admits external events, stamped at the
    /// firing's start — that is when they entered the workflow; the firing
    /// cost that follows is the first component of their response time.
    /// Derived events are stamped at production (firing completion).
    pub fn fire(
        &self,
        id: ActorId,
        actor: &mut dyn Actor,
        ctx: &mut QueueContext,
        inputs: impl IntoIterator<Item = (usize, Window)>,
        charge: Option<Charge<'_>>,
        deliver: Option<Deliver<'_>>,
    ) -> Result<Fired> {
        let observer = self.tele.as_ref().map(|t| &t.observer);
        let started = self.clock.now();
        ctx.set_now(started);
        let mut triggered = false;
        for (port, window) in inputs {
            triggered = true;
            if let (true, Some(obs)) = (self.fabric.fine, observer) {
                obs.on_dequeue(id, port, window.trigger_wave(), window.formed_at, started);
            }
            ctx.deliver(port, window);
        }
        if let Some(obs) = observer {
            obs.on_fire_start(id, started);
        }
        let fired = actor.prefire(ctx)?;
        let (mut events_in, mut tokens_out) = (0, 0);
        let (mut origin, mut trigger) = (None, None);
        let mut charged = None;
        let mut complete = true;
        if fired {
            actor.fire(ctx)?;
            self.firings.fetch_add(1, Ordering::Relaxed);
            events_in = ctx.consumed_events;
            let (emissions, wave) = ctx.take_emissions();
            tokens_out = emissions.len() as u64;
            origin = wave.as_ref().map(|w| w.origin());
            charged = charge.map(|charge| charge(events_in, tokens_out));
            let stamp_at = if triggered {
                trigger = wave;
                self.clock.now()
            } else {
                started
            };
            let mut stamped = self.fabric.stamp(id, emissions, trigger.as_ref(), stamp_at);
            self.routed
                .fetch_add(stamped.deliveries(), Ordering::Relaxed);
            complete = match deliver {
                Some(deliver) => deliver(stamped)?,
                None => self
                    .fabric
                    .deliver(&mut stamped, stamp_at, false)?
                    .is_none(),
            };
        }
        let ended = self.clock.now();
        if fired {
            self.route_expired(ended)?;
        }
        let busy = match charged {
            Some(cost) => cost,
            None if fired => ended.since(started),
            None => Micros::ZERO,
        };
        if let Some(t) = &self.tele {
            t.observer.on_fire_end(&FireRecord {
                actor: id,
                started,
                ended,
                busy,
                events_in,
                tokens_out,
                origin,
                trigger,
                fired,
            });
            // Sampling keys on the director clock — virtual under the
            // cooperative directors, so sampled series are deterministic.
            t.sample(ended);
        }
        let alive = if complete {
            Some(actor.postfire(ctx)?)
        } else {
            None
        };
        Ok(Fired {
            fired,
            busy,
            events_in,
            tokens_out,
            origin,
            started,
            ended,
            alive,
        })
    }

    /// Hand every port's expired events to its handler activity.
    fn route_expired(&self, now: Timestamp) -> Result<()> {
        let n = self.fabric.route_expired(now)?;
        if n > 0 {
            self.routed.fetch_add(n, Ordering::Relaxed);
        }
        Ok(())
    }

    /// A window-formation deadline passed: evaluate window timeouts on one
    /// actor (or all of them) at `now`, then route what expired.
    pub fn poll(&self, id: Option<ActorId>, now: Timestamp) -> Result<()> {
        match id {
            Some(id) => self.fabric.poll_actor(id, now),
            None => self.fabric.poll_all(now),
        };
        self.route_expired(now)
    }

    /// An actor's end of stream: its final chance to emit while its
    /// outputs are still open (`finish`), then the outputs close — also
    /// when `finish` or its routing failed, so downstream actors are
    /// released either way.
    pub fn finish_actor(
        &self,
        id: ActorId,
        actor: &mut dyn Actor,
        ctx: &mut QueueContext,
    ) -> Result<()> {
        let now = self.clock.now();
        ctx.set_now(now);
        let finished = actor.finish(ctx).and_then(|()| {
            let (emissions, trigger) = ctx.take_emissions();
            let n = self.fabric.route(id, emissions, trigger.as_ref(), now)?;
            self.routed.fetch_add(n, Ordering::Relaxed);
            self.route_expired(now)
        });
        let closed = self.fabric.close_actor_outputs(id, self.clock.now());
        finished.and(closed)
    }

    /// Hand an actor's delivered-but-unconsumed windows back to the front
    /// of its inbox, so a checkpoint capture does not lose them.
    pub fn unstage(&self, id: ActorId, ctx: &mut QueueContext) {
        self.fabric.inbox(id).push_front_batch(ctx.take_staged());
    }

    /// Honour a checkpoint pause once no firing is in flight: unstage the
    /// given contexts, deposit the captured fabric state on the hook, and
    /// end the segment without the end-of-stream tail (no `finish`, no
    /// channel closes, no `wrapup`) — the actors will resume.
    pub fn quiesce(&self, contexts: &mut [QueueContext]) -> RunReport {
        for (i, ctx) in contexts.iter_mut().enumerate() {
            self.unstage(ActorId(i), ctx);
        }
        if let Some(hook) = &self.hook {
            hook.deposit(self.fabric.capture_state());
        }
        self.phase(RunPhase::End);
        self.report()
    }

    /// End a run whose stream ended: one-time teardown of every actor.
    pub fn wrapup(&self, workflow: &mut Workflow) -> Result<RunReport> {
        self.phase(RunPhase::Wrapup);
        for id in workflow.actor_ids() {
            workflow.node_mut(id).actor_mut().wrapup()?;
        }
        self.phase(RunPhase::End);
        Ok(self.report())
    }

    /// Firings, deliveries and director time since the segment began.
    pub fn report(&self) -> RunReport {
        RunReport {
            firings: self.firings.load(Ordering::Relaxed),
            events_routed: self.routed.load(Ordering::Relaxed),
            elapsed: self.clock.now().since(self.started),
        }
    }
}

/// Kahn's topological sort, sources first and ties in id order. Actors on
/// a cycle, and everything downstream of one, are left out.
pub fn topological(workflow: &Workflow) -> Vec<ActorId> {
    let n = workflow.actor_count();
    let mut indeg = vec![0usize; n];
    for ch in workflow.channels() {
        indeg[ch.to.actor.0] += 1;
    }
    let mut ready: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(a) = ready.pop_front() {
        order.push(ActorId(a));
        for ch in workflow.channels() {
            if ch.from.actor.0 == a {
                indeg[ch.to.actor.0] -= 1;
                if indeg[ch.to.actor.0] == 0 {
                    ready.push_back(ch.to.actor.0);
                }
            }
        }
    }
    order
}

/// The close cascade's order: [`topological`], then the actors it left
/// out in id order.
pub fn quasi_topological(workflow: &Workflow) -> Vec<ActorId> {
    let sorted = topological(workflow);
    let rest = workflow.actor_ids().filter(|id| !sorted.contains(id));
    sorted.iter().copied().chain(rest).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{FireContext, IoSignature};
    use crate::graph::WorkflowBuilder;

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
        assert!(topological(&wf).is_empty());
        assert_eq!(quasi_topological(&wf), vec![ActorId(0), ActorId(1)]);
    }
}
