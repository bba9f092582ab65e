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
//! 5. the run's [`StatsModule`], if it keeps one, records the firing;
//! 6. `on_fire_end` with the one [`FireRecord`], then the series' sample;
//! 7. `postfire`.
//!
//! A refused `prefire` skips 3–5 and reports `fired: false`.
//!
//! The two wall-clock directors fire each actor as a [`Task`]: one
//! [`Task::step`] fires at most once and says whether the task rests next
//! ([`Wait`]); the threaded director parks its thread, the pool leaves it
//! off its ready queues or arms its timer, until the fabric wakes it
//! ([`Fabric`]; the run's latch wakes every task) or its instant comes. A
//! full `Block` port parks the rest of the firing's batch with the task.
//!
//! An error ends the run under every director: [`Run::fail`] keeps the
//! first one and latches [`Boundary::Failed`], every task and firing order
//! stops at its next boundary, and the run leaves through the one tail
//! without `finish` or `wrapup`, announcing [`RunPhase::End`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::actor::Actor;
use crate::checkpoint::QuiesceHook;
use crate::engine::StopCondition;
use crate::error::{Error, Result};
use crate::graph::{ActorId, Workflow};
use crate::telemetry::{FireRecord, RunPhase, StatsModule, Telemetry};
use crate::time::{Micros, SharedClock, Timestamp};
use crate::window::Window;

use super::{Fabric, QueueContext, RunReport, Stamped, SOURCE_BACKOFF};

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
    /// Tokens emitted.
    pub tokens_out: u64,
    /// `postfire`'s verdict; `None` while delivery is deferred.
    pub alive: Option<bool>,
}

/// What a firing boundary allows ([`Run::boundary`]). When a checkpoint
/// and a stop fall due together, the checkpoint is taken first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Fire on.
    Go = 0,
    /// Wind down through the close cascade.
    Stop = 1,
    /// Stop at the boundary and capture what is queued (a checkpoint).
    Pause = 2,
    /// The run failed ([`Run::fail`]): end without `finish` or `wrapup`.
    Failed = 3,
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
    /// A checkpoint pause was honoured: the capture is in the hook's slot.
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
    /// One firing attempt of `id` on `inputs` ([`Run::fire`]), its
    /// emissions delivered at once.
    pub fn fire(
        &mut self,
        id: ActorId,
        inputs: impl IntoIterator<Item = (usize, Window)>,
        charge: Option<Charge<'_>>,
    ) -> Result<Fired> {
        let actor = self.workflow.node_mut(id).actor_mut();
        self.run.fire(id, actor, &mut self.contexts[id.0], inputs, charge, None)
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

    /// Advance the order's clock to `t` after an idle step.
    fn advance_to(&mut self, _run: &Run, _workflow: &Workflow, _t: Timestamp) {}
}

/// The id-order sweep DE and DDF share. The next ready window is the front
/// of the inbox the sweep stands at; it moves on once that inbox is empty,
/// and starts over from the first actor after a pass that found a window.
/// An actor whose `postfire` said it is finished drops late windows.
pub struct Sweep {
    at: usize,
    /// Whether this pass has found a window.
    found: bool,
    done: Vec<bool>,
    /// Window firings allowed before the run fails as a runaway, if bounded.
    limit: Option<u64>,
    firings: u64,
}

impl Sweep {
    /// A sweep over `workflow`'s actors, failing the run after `limit`
    /// window firings if given.
    pub fn new(workflow: &Workflow, limit: Option<u64>) -> Self {
        let done = vec![false; workflow.actor_count()];
        Sweep { at: 0, found: false, done, limit, firings: 0 }
    }

    /// Whether `id`'s `postfire` said it is finished.
    pub fn done(&self, id: ActorId) -> bool {
        self.done[id.0]
    }

    /// One firing attempt of `id` on `input` (none for a source).
    pub fn fire(
        &mut self,
        cx: &mut Cx<'_>,
        id: ActorId,
        input: Option<(usize, Window)>,
    ) -> Result<Fired> {
        let window = input.is_some();
        let fired = cx.fire(id, input, None)?;
        self.done[id.0] = fired.alive == Some(false);
        self.firings += u64::from(window && fired.fired);
        if self.limit.is_some_and(|limit| self.firings > limit) {
            return Err(Error::Director("too many window firings (runaway graph?)".into()));
        }
        Ok(fired)
    }

    /// Fire the next ready window; `false` once a whole pass finds none.
    pub fn fire_next(&mut self, cx: &mut Cx<'_>) -> Result<bool> {
        loop {
            while self.at < self.done.len() {
                let id = ActorId(self.at);
                match cx.run.fabric.inbox(id).try_pop() {
                    Some(input) => {
                        self.found = true;
                        if !self.done[id.0] {
                            return self.fire(cx, id, Some(input)).map(|_| true);
                        }
                    }
                    None => self.at += 1,
                }
            }
            self.at = 0;
            if !std::mem::take(&mut self.found) {
                return Ok(false);
            }
        }
    }

    /// The close cascade's settle step: before actor `id` closes, fire
    /// what its inbox holds; after, fire until no inbox holds a window
    /// (closing an actor's outputs flushes downstream partial windows).
    pub fn settle(&mut self, cx: &mut Cx<'_>, id: ActorId, closed: bool) -> Result<()> {
        if closed {
            while self.fire_next(cx)? {}
            return Ok(());
        }
        while let Some(input) = cx.run.fabric.inbox(id).try_pop() {
            if !self.done[id.0] {
                self.fire(cx, id, Some(input))?;
            }
        }
        Ok(())
    }
}

/// Everything the actors of one workflow execution share: the fabric, the
/// telemetry (with its checkpoint hook), the clock, and the run's counters.
pub struct Run {
    /// The communication fabric.
    pub fabric: Fabric,
    /// Telemetry attached for this run (segment), if any.
    pub tele: Option<Telemetry>,
    /// STAFiLOS' statistics, when the director's policies read them (the
    /// pool and SCWF, which both hand them from run to run across
    /// checkpoint segments; `None` for the others and for a composite's
    /// inner runs).
    /// [`Run::fire`] is its only writer.
    pub stats: Option<Arc<StatsModule>>,
    /// The director's clock.
    pub clock: SharedClock,
    started: Timestamp,
    firings: AtomicU64,
    routed: AtomicU64,
    /// The segment's first non-`Go` [`Boundary`], kept to its end ([`Run::fail`] overrides it).
    decided: AtomicU8,
    /// The run's first error ([`Run::fail`]).
    error: Mutex<Option<Error>>,
}

impl Run {
    /// Open a run for one segment: build the fabric with `tele`'s observer
    /// attached, re-inject the state in the checkpoint slot if there is
    /// any, wire one fresh context per actor to the observer, announce
    /// [`RunPhase::Start`], and — unless state was taken, which already
    /// reflects a past initialization — initialize every actor. Returns
    /// the run and the contexts.
    pub fn open(
        workflow: &mut Workflow,
        tele: Option<Telemetry>,
        clock: SharedClock,
    ) -> Result<(Run, Vec<QueueContext>)> {
        let mut fabric = Fabric::build(workflow)?;
        let observer = tele.as_ref().map(|t| t.observer.clone());
        fabric.observe(workflow, observer.clone());
        let restored = tele.as_ref().and_then(|t| t.checkpoint.as_ref()).and_then(|h| h.take());
        let resumed = restored.is_some();
        if let Some(state) = restored {
            fabric.restore_state(state)?;
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
        let run = Run {
            fabric,
            tele,
            stats: None,
            started: clock.now(),
            clock,
            firings: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            decided: AtomicU8::new(Boundary::Go as u8),
            error: Mutex::new(None),
        };
        run.phase(RunPhase::Start);
        for id in workflow.actor_ids().filter(|_| !resumed) {
            let ctx = &mut contexts[id.0];
            ctx.set_now(run.clock.now());
            let initialized = (workflow.node_mut(id).actor_mut().initialize(ctx))
                .and_then(|()| run.fabric.route(id, ctx.take_emissions().0, None, run.clock.now()))
                .map(|n| run.routed.fetch_add(n, Ordering::Relaxed));
            if let Err(e) = initialized {
                run.fail(e);
                return Err(run.end(workflow, &mut contexts).expect_err("the run failed"));
            }
        }
        Ok((run, contexts))
    }

    /// The checkpoint hook the segment's telemetry carries, if any.
    fn hook(&self) -> Option<&QuiesceHook> {
        self.tele.as_ref()?.checkpoint.as_deref()
    }

    /// Report a run phase to the observer.
    pub fn phase(&self, phase: RunPhase) {
        if let Some(t) = &self.tele {
            t.observer.on_run_phase(phase, self.clock.now());
        }
    }

    /// What the next firing boundary allows, from the segment's own
    /// counters: `Failed` once the run has failed, else `Pause` once the
    /// segment has fired and met the hook's checkpoint cadence, else `Stop`
    /// once the telemetry's stop bound is met, else `Go`. The first answer
    /// that is not `Go` holds for the rest of the segment (an error
    /// overrides it), so the close cascade's firings cannot turn a stop
    /// into a pause, and every thread of a run sees the same answer; the
    /// call that latches it wakes every wall-clock task.
    pub fn boundary(&self) -> Boundary {
        if self.latched() == Boundary::Go {
            let decided = self.decide();
            if decided == Boundary::Go {
                return decided;
            }
            // Whoever latches first wins, and wakes everyone; the latch then holds.
            let (go, latch) = (Boundary::Go as u8, decided as u8);
            if self.decided.compare_exchange(go, latch, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                self.fabric.wake_all();
            }
        }
        self.latched()
    }

    /// The instant the earliest `Elapsed` bound falls due: the stop's, or
    /// the checkpoint cadence's once the segment has fired (before that it
    /// cannot latch, and resting until it would spin). No rest outlasts it.
    pub fn deadline(&self) -> Option<Timestamp> {
        let fired = self.firings.load(Ordering::Relaxed) > 0;
        let bounds = self.hook().and_then(|h| h.every()).filter(|_| fired).into_iter();
        let elapsed = |bound| if let StopCondition::Elapsed(t) = bound { Some(self.started.plus(t)) } else { None };
        bounds.chain(self.tele.as_ref().and_then(|t| t.stop)).filter_map(elapsed).min()
    }

    /// The boundary latched so far, without deciding anew.
    fn latched(&self) -> Boundary {
        use Boundary::*;
        [Go, Stop, Pause, Failed][usize::from(self.decided.load(Ordering::Acquire))]
    }

    /// Fail the run: keep `error` unless an earlier one is kept, and latch
    /// [`Boundary::Failed`], waking every wall-clock task the first time.
    pub fn fail(&self, error: Error) {
        self.error.lock().get_or_insert(error);
        if self.decided.swap(Boundary::Failed as u8, Ordering::AcqRel) != Boundary::Failed as u8 {
            self.fabric.wake_all();
        }
    }

    fn decide(&self) -> Boundary {
        if let Some(every) = self.hook().and_then(|h| h.every()) {
            // A pause needs a firing since the segment began, so a
            // checkpoint never follows a checkpoint with nothing between.
            if self.firings.load(Ordering::Relaxed) > 0 && self.met(every) {
                return Boundary::Pause;
            }
        }
        match self.tele.as_ref().and_then(|t| t.stop) {
            Some(stop) if self.met(stop) => Boundary::Stop,
            _ => Boundary::Go,
        }
    }

    /// Whether the segment has gone as far as `bound`.
    fn met(&self, bound: StopCondition) -> bool {
        match bound {
            StopCondition::Firings(n) => self.firings.load(Ordering::Relaxed) >= n,
            StopCondition::EventsRouted(n) => self.routed.load(Ordering::Relaxed) >= n,
            StopCondition::Elapsed(t) => self.clock.now().since(self.started) >= t,
        }
    }

    /// Run `order` on the caller's thread over `span`. A stop, like the
    /// stream's end, closes every actor upstream first (settle,
    /// [`Run::finish_actor`], settle); a pause or an error (of a step, a
    /// settle or a `finish`: [`Run::fail`]) does not. The run leaves
    /// through the tail it shares with [`Run::end_tasks`].
    pub fn drive(
        &self,
        workflow: &mut Workflow,
        contexts: &mut [QueueContext],
        order: &mut dyn FiringOrder,
        span: Span,
    ) -> Result<Progress> {
        let cx = &mut Cx { run: self, workflow, contexts };
        let (mut spent, mut exhausted, mut wake) = (Micros::ZERO, false, None);
        // `Some` when a slice hands back, `None` at the run's end.
        let mut fire_on = || -> Result<Option<Progress>> {
            loop {
                match self.boundary() {
                    Boundary::Stop => break,
                    Boundary::Pause | Boundary::Failed => return Ok(None),
                    Boundary::Go if exhausted => return Ok(Some(Progress::BudgetExhausted)),
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
                    (Step::IdleUntil(t), Span::Slice(_)) => return Ok(Some(Progress::IdleUntil(t))),
                    (Step::IdleUntil(t), Span::Whole) => wake = Some(t),
                    (Step::Ended, _) => break,
                    (Step::Abandoned, _) => return Ok(None),
                }
            }
            self.phase(RunPhase::Close);
            for id in quasi_topological(cx.workflow) {
                order.settle(cx, id, false)?;
                let actor = cx.workflow.node_mut(id).actor_mut();
                self.finish_actor(id, actor, &mut cx.contexts[id.0])?;
                order.settle(cx, id, true)?;
            }
            Ok(None)
        };
        match fire_on() {
            Ok(Some(progress)) => return Ok(progress),
            Ok(None) => {}
            Err(e) => self.fail(e),
        }
        self.end(cx.workflow, cx.contexts)
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
        if let (true, Some(stats)) = (fired, &self.stats) {
            stats.record_fire(id.0, busy, events_in, tokens_out, started);
        }
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
            if let Some(series) = &t.series {
                series.maybe_sample(ended);
            }
        }
        let alive = if complete {
            Some(actor.postfire(ctx)?)
        } else {
            None
        };
        Ok(Fired { fired, busy, tokens_out, alive })
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

    /// Honour a checkpoint pause once no firing is in flight: hand each
    /// actor's delivered-but-unconsumed windows back to the front of its
    /// inbox and put the captured fabric state in the hook's slot. The
    /// segment ends without the end-of-stream tail (no `finish`, no channel
    /// closes, no `wrapup`): the actors will resume.
    fn quiesce(&self, contexts: &mut [QueueContext]) {
        for (i, ctx) in contexts.iter_mut().enumerate() {
            self.fabric.inbox(ActorId(i)).push_front_batch(ctx.take_staged());
        }
        if let Some(hook) = self.hook() {
            hook.put(self.fabric.capture_state());
        }
    }

    /// One-time teardown of every actor, once the stream ended.
    pub fn wrapup(&self, workflow: &mut Workflow) -> Result<()> {
        self.phase(RunPhase::Wrapup);
        for id in workflow.actor_ids() {
            workflow.node_mut(id).actor_mut().wrapup()?;
        }
        Ok(())
    }

    /// The one end of a run, once nothing fires any more: a paused run
    /// captures what is queued, a failed one runs no `wrapup`, any other
    /// wraps up (an error there fails it). Then [`RunPhase::End`] is
    /// announced, and a failed run returns its first error.
    fn end(&self, workflow: &mut Workflow, contexts: &mut [QueueContext]) -> Result<Progress> {
        let paused = self.latched() == Boundary::Pause;
        if paused {
            self.quiesce(contexts);
        } else if self.latched() != Boundary::Failed {
            if let Err(e) = self.wrapup(workflow) {
                self.fail(e);
            }
        }
        self.phase(RunPhase::End);
        match self.error.lock().clone() {
            Some(e) => Err(e),
            None if paused => Ok(Progress::Paused),
            None => Ok(Progress::Finished),
        }
    }

    /// End a wall-clock run once every task has ended ([`Task::end`]): hand
    /// every actor back to `workflow`, then leave through the tail
    /// [`Run::drive`] shares, with the tasks' contexts.
    pub fn end_tasks(&self, workflow: &mut Workflow, tasks: Vec<Task>) -> Result<Progress> {
        let mut contexts = Vec::with_capacity(tasks.len());
        for task in tasks {
            workflow.node_mut(task.id).return_actor(task.actor);
            contexts.push(task.ctx);
        }
        self.end(workflow, &mut contexts)
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

/// What a wall-clock [`Task`] waits for after one [`Task::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Step again at once.
    Ready,
    /// Rest, with no cap, until the fabric wakes the task (a window or a
    /// close reached it, its parked port has room, the run latched) or, if
    /// given, this instant comes: a source's next arrival or backoff, a
    /// window-formation deadline, or the run's elapsed bound ([`Run::deadline`]).
    Rest(Option<Timestamp>),
    /// Done stepping: the stream ended, or the run stops, pauses or
    /// failed. [`Task::end`] comes next.
    Finish,
}

/// One actor fired on the wall clock, by its own thread or by a pool
/// worker: the actor and its context, the rest of a firing's batch parked
/// on a full `Block` port, and the `postfire` deferred past that park.
pub struct Task {
    /// The actor's id.
    pub id: ActorId,
    actor: Box<dyn Actor>,
    ctx: QueueContext,
    is_source: bool,
    parked: Option<Stamped>,
    postfire_due: bool,
    ended: bool,
}

impl Task {
    /// Take every actor out of `workflow` as a task with its context.
    pub fn take_all(workflow: &mut Workflow, contexts: Vec<QueueContext>) -> Vec<Task> {
        workflow
            .actor_ids()
            .zip(contexts)
            .map(|(id, ctx)| {
                let node = workflow.node_mut(id);
                Task {
                    id,
                    is_source: node.is_source,
                    actor: node.take_actor(),
                    ctx,
                    parked: None,
                    postfire_due: false,
                    ended: false,
                }
            })
            .collect()
    }

    /// Whether [`Task::end`] has run.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// One step: past a `Go` boundary, finish delivering a parked batch and
    /// its deferred `postfire`, then fire once if the actor may — a source
    /// when its timetable says, any other actor on the next window in its
    /// inbox, after polling its receivers once a window-formation deadline
    /// has passed. Returns what the task waits for, and the firing attempt
    /// if there was one; a rest ends no later than [`Run::deadline`]. An
    /// error or a panic fails the run ([`Run::fail`]) and ends the stepping.
    pub fn step(&mut self, run: &Run) -> (Wait, Option<Fired>) {
        match guarded(run, self.id, || self.try_step(run)) {
            Some((Wait::Rest(at), fired)) => (Wait::Rest(at.into_iter().chain(run.deadline()).min()), fired),
            stepped => stepped.unwrap_or((Wait::Finish, None)),
        }
    }

    fn try_step(&mut self, run: &Run) -> Result<(Wait, Option<Fired>)> {
        if run.boundary() != Boundary::Go {
            return Ok((Wait::Finish, None));
        }
        if parks_again(run, &mut self.parked)? {
            return Ok((Wait::Rest(None), None));
        }
        if std::mem::take(&mut self.postfire_due) && !self.actor.postfire(&mut self.ctx)? {
            return Ok((Wait::Finish, None));
        }
        let input = if self.is_source {
            match self.actor.next_arrival() {
                Some(arrival) if arrival > run.clock.now() => return Ok((Wait::Rest(Some(arrival)), None)),
                _ => None,
            }
        } else {
            let Some(input) = run.fabric.pop(self.id) else {
                let inbox = run.fabric.inbox(self.id);
                if inbox.all_ports_closed() {
                    // Upstream flushes happen-before the closing
                    // notification, so re-check for windows the final
                    // flush pushed.
                    let wait = if inbox.is_empty() { Wait::Finish } else { Wait::Ready };
                    return Ok((wait, None));
                }
                let deadline = run.fabric.actor_deadline(self.id);
                let now = run.clock.now();
                if deadline.is_some_and(|deadline| deadline <= now) {
                    // A window-formation deadline passed: force the
                    // receivers to evaluate their window semantics.
                    run.poll(Some(self.id), now)?;
                    return Ok((Wait::Ready, None));
                }
                return Ok((Wait::Rest(deadline), None));
            };
            Some(input)
        };
        let Task { id, actor, ctx, parked, .. } = self;
        let mut blocked = false;
        let mut park = |stamped| {
            *parked = Some(stamped);
            blocked = parks_again(run, parked)?;
            Ok(!blocked)
        };
        let fired = run.fire(*id, &mut **actor, ctx, input, None, Some(&mut park))?;
        run.boundary(); // latch a count bound this firing met: the task may rest next
        let wait = if blocked {
            self.postfire_due = true;
            Wait::Rest(None)
        } else if fired.alive == Some(false) {
            Wait::Finish
        } else if self.is_source
            && fired.tokens_out == 0
            && matches!(self.actor.next_arrival(), None | Some(Timestamp::ZERO))
        {
            // Nothing to say and no timetable to follow (an idle push
            // source): rest instead of spinning.
            Wait::Rest(Some(run.clock.now().plus(SOURCE_BACKOFF)))
        } else {
            Wait::Ready
        };
        Ok((wait, Some(fired)))
    }

    /// End the task, once, unless the run failed (a failed run finishes
    /// nothing): admit the parked rest over capacity, then — unless a
    /// checkpoint pause is latched, whose capture ([`Run::end_tasks`]) the
    /// resumed actor goes on from — [`Run::finish_actor`]. An error or a
    /// panic fails the run. A deferred `postfire` is not run at a pause: the
    /// resumed actor's next firing asks again.
    pub fn end(&mut self, run: &Run) {
        let boundary = run.boundary();
        if std::mem::replace(&mut self.ended, true) || boundary == Boundary::Failed {
            return;
        }
        guarded(run, self.id, || {
            let admitted = match self.parked.take() {
                Some(mut rest) => run.fabric.deliver(&mut rest, run.clock.now(), false).map(drop),
                None => Ok(()),
            };
            match boundary {
                Boundary::Pause => admitted,
                _ => admitted.and(run.finish_actor(self.id, &mut *self.actor, &mut self.ctx)),
            }
        });
    }
}

/// Run `f` on task `id`'s behalf: an error, or a panic (this is the one
/// place a task's panic is caught), fails the run and gives `None`.
fn guarded<T>(run: &Run, id: ActorId, f: impl FnOnce() -> Result<T>) -> Option<T> {
    let failed = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(done)) => return Some(done),
        Ok(Err(e)) => e,
        Err(_) => Error::Director(format!("actor {id} panicked")),
    };
    run.fail(failed);
    None
}

/// Deliver a parked batch, if any: whether the rest parks again on a full
/// port.
fn parks_again(run: &Run, parked: &mut Option<Stamped>) -> Result<bool> {
    let Some(rest) = parked else {
        return Ok(false);
    };
    let blocked = run.fabric.deliver(rest, run.clock.now(), true)?.is_some();
    if !blocked {
        *parked = None;
    }
    Ok(blocked)
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
    fn a_latched_stop_stays_a_stop_through_the_close_cascade() {
        use crate::actors::{Collector, VecSource};
        use crate::engine::StopCondition;
        use crate::telemetry::MultiObserver;
        use crate::time::VirtualClock;

        let c = Collector::new();
        let mut b = WorkflowBuilder::new("latch");
        let s = b.add_actor("src", VecSource::new((0..4).map(crate::token::Token::Int).collect()));
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let tele = Telemetry {
            stop: Some(StopCondition::Firings(1)),
            checkpoint: Some(QuiesceHook::new(Some(StopCondition::Firings(2)))),
            ..Telemetry::new(Arc::new(MultiObserver::default()))
        };
        let clock = Arc::new(VirtualClock::new());
        let (run, mut contexts) = Run::open(&mut wf, Some(tele.clone()), clock.clone()).unwrap();
        assert_eq!(run.boundary(), Boundary::Go);
        let src = wf.node_mut(s).actor_mut();
        run.fire(s, src, &mut contexts[s.0], None, None, None).unwrap();
        assert_eq!(run.boundary(), Boundary::Stop);
        // The cascade fires the sink on what is queued: the second firing
        // meets the checkpoint cadence, but the stop holds.
        let window = run.fabric.inbox(k).try_pop();
        let sink = wf.node_mut(k).actor_mut();
        run.fire(k, sink, &mut contexts[k.0], window, None, None).unwrap();
        assert_eq!(run.report().firings, 2);
        assert_eq!(run.boundary(), Boundary::Stop);
        // The next segment starts undecided: nothing has fired in it, so
        // neither bound is met.
        let (run, _) = Run::open(&mut wf, Some(tele), clock).unwrap();
        assert_eq!(run.boundary(), Boundary::Go);
    }

    #[test]
    fn the_first_error_latches_over_a_stop_and_ends_the_run() {
        use crate::actors::{Collector, VecSource};
        use crate::engine::StopCondition;
        use crate::telemetry::MultiObserver;
        use crate::time::VirtualClock;

        let mut b = WorkflowBuilder::new("fail");
        let s = b.add_actor("src", VecSource::new(vec![crate::token::Token::Int(1)]));
        let k = b.add_actor("sink", Collector::new().actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let tele = Telemetry {
            stop: Some(StopCondition::Firings(0)),
            ..Telemetry::new(Arc::new(MultiObserver::default()))
        };
        let (run, contexts) = Run::open(&mut wf, Some(tele), Arc::new(VirtualClock::new())).unwrap();
        assert_eq!(run.boundary(), Boundary::Stop);
        run.fail(Error::Director("first".into()));
        run.fail(Error::Director("second".into()));
        assert_eq!(run.boundary(), Boundary::Failed, "an error overrides a latched stop");
        let tasks = Task::take_all(&mut wf, contexts);
        let ended = run.end_tasks(&mut wf, tasks);
        assert_eq!(ended, Err(Error::Director("first".into())), "the first error is kept");
        assert!(wf.actor_ids().all(|id| wf.node(id).peek_actor().is_some()));
    }

    #[test]
    fn a_run_that_keeps_statistics_records_its_successful_firings() {
        use crate::actors::VecSource;
        use crate::time::{Clock, VirtualClock};

        /// A sink that refuses every second `prefire`.
        struct Alternate(u32);
        impl Actor for Alternate {
            fn signature(&self) -> IoSignature {
                IoSignature::sink("in")
            }
            fn prefire(&mut self, _ctx: &mut dyn FireContext) -> crate::error::Result<bool> {
                self.0 += 1;
                Ok(self.0 % 2 == 1)
            }
            fn fire(&mut self, ctx: &mut dyn FireContext) -> crate::error::Result<()> {
                while ctx.get_any().is_some() {}
                Ok(())
            }
        }

        let mut b = WorkflowBuilder::new("stats");
        let s = b.add_actor("src", VecSource::new((0..2).map(crate::token::Token::Int).collect()));
        let k = b.add_actor("sink", Alternate(0));
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let clock = Arc::new(VirtualClock::new());
        let (mut run, mut contexts) = Run::open(&mut wf, None, clock.clone()).unwrap();
        let stats = Arc::new(StatsModule::new(&wf));
        run.stats = Some(stats.clone());
        // The time rule charges 250 µs per firing, plus 10 µs per event in
        // and per token out, and advances the clock by the charge.
        let mut charge = |ins: u64, outs: u64| {
            let cost = Micros(250 + 10 * (ins + outs));
            clock.advance(cost);
            cost
        };
        let mut fire = |run: &Run, wf: &mut Workflow, id: ActorId, input: Option<(usize, Window)>| {
            let actor = wf.node_mut(id).actor_mut();
            run.fire(id, actor, &mut contexts[id.0], input, Some(&mut charge), None).unwrap()
        };
        // src at 0 and 260; the sink at 520, refused at 780, at 780.
        fire(&run, &mut wf, s, None);
        fire(&run, &mut wf, s, None);
        let first = run.fabric.inbox(k).try_pop();
        assert!(fire(&run, &mut wf, k, first).fired);
        assert!(!fire(&run, &mut wf, k, None).fired, "every second prefire refuses");
        let second = run.fabric.inbox(k).try_pop();
        assert!(fire(&run, &mut wf, k, second).fired);
        assert_eq!(clock.now(), Timestamp(1_040));

        let (src, sink) = (s.0, k.0);
        assert_eq!((stats.fires(src), stats.fires(sink)), (2, 2), "the refusal is not recorded");
        assert_eq!(stats.fires(src) + stats.fires(sink), run.report().firings);
        assert_eq!((stats.total_cost(src), stats.last_cost(src)), (Micros(520), Micros(260)));
        assert_eq!((stats.total_cost(sink), stats.last_cost(sink)), (Micros(520), Micros(260)));
        assert_eq!((stats.events_in(src), stats.events_out(src)), (0, 2));
        assert_eq!((stats.events_in(sink), stats.events_out(sink)), (2, 0));
        // Activity spans: src 0..260 µs, sink 520..780 µs.
        let per_span = 2.0 / Micros(260).as_secs_f64();
        assert_eq!(stats.output_rate(src), per_span);
        assert_eq!(stats.input_rate(src), 0.0);
        assert_eq!(stats.input_rate(sink), per_span);
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
        assert!(topological(&wf).is_empty());
        assert_eq!(quasi_topological(&wf), vec![ActorId(0), ActorId(1)]);
    }
}
