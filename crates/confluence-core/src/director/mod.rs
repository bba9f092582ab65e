//! Directors: the models of computation that execute a workflow.
//!
//! The director — not the actors — defines the execution and communication
//! model: whether communication is synchronous or buffered, what triggers a
//! firing, and how actors are scheduled. The same [`Workflow`]
//! specification runs unchanged under any director.
//!
//! This crate provides:
//!
//! * [`threaded::ThreadedDirector`] — the PNCWF continuous-workflow
//!   director: one OS thread per actor, waiting on its own inbox (the
//!   paper's baseline, scheduling delegated to the operating system);
//! * [`sdf::SdfDirector`] — synchronous dataflow with a pre-compiled
//!   schedule from balance equations;
//! * [`ddf::DdfDirector`] — dynamic dataflow, data-driven;
//! * [`de::DeDirector`] — discrete-event, global timestamp order;
//! * [`pool::PoolDirector`] — the same continuous-workflow semantics as
//!   tasks over a fixed pool of work-stealing worker threads;
//! * [`taxonomy`] — the machine-readable version of the paper's Table 1.
//!
//! A director decides *which actor fires next, on which thread, and when
//! time advances*. Everything else — the firing step with its hook order,
//! event stamping, and the run loop ([`firing::Run::drive`]) — is written
//! once in [`firing`] over the [`Fabric`] plumbing defined here. The
//! STAFiLOS scheduled CWF director lives in the `confluence-sched` crate
//! and builds on the same two pieces.

pub mod composite;
pub mod ddf;
pub mod de;
pub mod firing;
pub mod pool;
pub mod pool_policy;
pub mod sdf;
pub mod taxonomy;
pub mod threaded;

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::actor::FireContext;
use crate::channel::OnFull;
use crate::error::Result;
use crate::event::CwEvent;
use crate::graph::{ActorId, PortRef, Workflow};
use crate::receiver::{ActorInbox, PortReceiver, TryPut};
use crate::telemetry::{ActorTopology, Observer, Telemetry, TopologySnapshot};
use crate::time::{Micros, Timestamp};
use crate::token::Token;
use crate::wave::WaveTag;
use crate::window::Window;

/// How long a wall-clock director lets a source that had nothing to emit
/// and follows no timetable (an idle push source) rest before it fires
/// again, instead of spinning.
const SOURCE_BACKOFF: Micros = Micros(1_000);

/// Outcome of a workflow run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Total actor firings.
    pub firings: u64,
    /// Total events routed along channels.
    pub events_routed: u64,
    /// Wall or virtual time the run spanned.
    pub elapsed: Micros,
}

/// One firing's emissions after [`Fabric::stamp`]: every event carries its
/// wave tag and sits in the batch of its destination port, waiting for
/// [`Fabric::deliver`]. Delivery follows at once, except in a wall-clock
/// task parked on a full `Block` port ([`firing::Task`]), which holds the
/// undelivered rest until the port has room.
#[derive(Debug)]
pub struct Stamped {
    from: ActorId,
    deliveries: u64,
    batches: Vec<(PortRef, Vec<CwEvent>)>,
    /// When delivery first parked on the event now at the head of the
    /// batches (block-time telemetry). A delivery that starts with it set
    /// takes the producing task out of the fabric's wait-for table.
    parked: Option<Instant>,
}

impl Stamped {
    /// Channel deliveries this batch amounts to (events × destinations).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }
}

/// A model of computation executing a workflow to completion.
pub trait Director {
    /// Execute the workflow until quiescence (sources exhausted and all
    /// derived events drained). The first error — from an actor's
    /// `initialize`, firing, `finish` or `wrapup`, or a panic in a
    /// wall-clock task — ends the run: no `finish` or `wrapup` runs after
    /// it, [`crate::telemetry::RunPhase::End`] is announced, every actor is
    /// back in the workflow, and the error is returned.
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport>;

    /// Attach telemetry for subsequent runs: execution hooks flow to
    /// `telemetry.observer`, and `Run::boundary` stops the run at the
    /// first firing boundary where `telemetry.stop` is met; under a
    /// wall-clock director its latch wakes every waiting task, and an
    /// elapsed bound is an instant no rest outlasts. With a
    /// `telemetry.checkpoint` hook, a segment that meets its cadence stops
    /// every actor at its next firing boundary, puts the captured
    /// [`crate::checkpoint::FabricState`] (queued windows included, not
    /// drained) in the hook's slot, and returns *without* its end-of-stream
    /// teardown (no `finish`/`wrapup`, no channel closes); `Run::open`
    /// resumes the next segment from what the slot holds.
    fn instrument(&mut self, telemetry: Telemetry);
}

/// The communication fabric for one workflow execution: an inbox per actor
/// and a windowed receiver per input port, plus the routing tables to move
/// stamped events between them.
///
/// Under a wall-clock director the fabric is also what resumes a waiting
/// task, in four places: a window forms for a reader, a reader's last
/// feeding port closes, a wall-clock task's pop frees a slot on a port a
/// writer is parked on, and relief grows the port a writer is parked on.
/// The run's latch wakes every task once (`Fabric::wake_all`).
pub struct Fabric {
    inboxes: Vec<Arc<ActorInbox>>,
    receivers: Vec<Vec<Arc<PortReceiver>>>,
    routes: Vec<Vec<Vec<PortRef>>>,
    /// Destination of each (actor, input port)'s expired-items queue.
    expired_routes: Vec<Vec<Option<PortRef>>>,
    has_expired_routes: bool,
    /// Telemetry sink for routing/window/expiry hooks, if instrumented.
    observer: Option<Arc<dyn Observer>>,
    /// Whether the observer asked for the per-event hooks (`on_admit`,
    /// `on_enqueue`). Cached at build time so uninstrumented and
    /// metrics-only runs skip the per-event calls entirely.
    fine: bool,
    /// Parks' wait-for table, under one lock: per actor, the full `Block`
    /// port its task is parked on, and whether it has finished (it will
    /// never read again).
    waits: Mutex<Vec<(Option<PortRef>, bool)>>,
    /// Tasks the wait-for table shows parked, so a pop while none is
    /// parked costs one load.
    parked: AtomicUsize,
    /// How the wall-clock director resumes a waiting task: the pool
    /// schedules it, the threaded director unparks its thread. `None` under
    /// the directors that fire on the caller's thread.
    wake: Option<Box<dyn Fn(ActorId) + Send + Sync>>,
}

impl Fabric {
    /// Build receivers and inboxes for every actor of the workflow.
    pub fn build(workflow: &Workflow) -> Result<Fabric> {
        // Expired-queue feeders per destination port: a handler port stays
        // open until every port whose expired events feed it has closed.
        let mut expired_feeders: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for id in workflow.actor_ids() {
            for port in 0..workflow.node(id).signature.inputs.len() {
                if let Some(dest) = workflow.expired_route(id, port) {
                    *expired_feeders
                        .entry((dest.actor.index(), dest.port))
                        .or_default() += 1;
                }
            }
        }
        let mut inboxes = Vec::with_capacity(workflow.actor_count());
        let mut receivers = Vec::with_capacity(workflow.actor_count());
        for id in workflow.actor_ids() {
            let node = workflow.node(id);
            let n_inputs = node.signature.inputs.len();
            let inbox = ActorInbox::new(n_inputs);
            let mut ports = Vec::with_capacity(n_inputs);
            for port in 0..n_inputs {
                let channels = workflow.in_degree(id, port);
                let feeders = expired_feeders
                    .get(&(id.index(), port))
                    .copied()
                    .unwrap_or(0);
                let upstreams = channels + feeders;
                // Timestamps arrive in order from one producer's channel;
                // an expired-items feed replays old events at any time.
                let ordered = channels == 1 && feeders == 0;
                let receiver = Arc::new(PortReceiver::with_policy(
                    workflow.window_spec(id, port).clone(),
                    inbox.clone(),
                    port,
                    upstreams.max(1),
                    workflow.channel_policy(id, port),
                )?);
                receiver.wire(workflow.expired_route(id, port).is_some(), ordered);
                if upstreams == 0 {
                    // Nothing will ever feed this port: close it now so its
                    // actor sees the end of its input.
                    receiver.upstream_closed(Timestamp::ZERO);
                }
                ports.push(receiver);
            }
            inboxes.push(inbox);
            receivers.push(ports);
        }
        let routes = workflow
            .actor_ids()
            .map(|id| {
                (0..workflow.node(id).signature.outputs.len())
                    .map(|p| workflow.routes_from(id, p).to_vec())
                    .collect()
            })
            .collect();
        let expired_routes: Vec<Vec<Option<PortRef>>> = workflow
            .actor_ids()
            .map(|id| {
                (0..workflow.node(id).signature.inputs.len())
                    .map(|p| workflow.expired_route(id, p))
                    .collect()
            })
            .collect();
        let has_expired_routes = workflow.has_expired_routes();
        Ok(Fabric {
            inboxes,
            receivers,
            routes,
            expired_routes,
            has_expired_routes,
            observer: None,
            fine: false,
            waits: Mutex::new(vec![(None, false); workflow.actor_count()]),
            parked: AtomicUsize::new(0),
            wake: None,
        })
    }

    /// Give the fabric the wall-clock director's way to resume a waiting
    /// task, before any task runs.
    fn set_wake(&mut self, wake: impl Fn(ActorId) + Send + Sync + 'static) {
        self.wake = Some(Box::new(wake));
    }

    fn wake(&self, actor: ActorId) {
        if let Some(wake) = &self.wake {
            wake(actor);
        }
    }

    /// Wake every task: the run's boundary just latched (a stop, a pause, [`firing::Run::fail`]).
    fn wake_all(&self) {
        // Pairs with a threaded task's fence after it records its handle:
        // either its first step sees the latch, or this sees the handle.
        fence(Ordering::SeqCst);
        (0..self.inboxes.len()).for_each(|id| self.wake(ActorId(id)));
    }

    /// Attach `observer` (replacing any earlier one) and announce the
    /// wiring to it. [`firing::Run::open`] calls this on the fresh fabric
    /// of every segment, so the segment's observers see what it moves.
    pub fn observe(&mut self, workflow: &Workflow, observer: Option<Arc<dyn Observer>>) {
        self.fine = observer.as_ref().is_some_and(|o| o.wants_event_hooks());
        if let Some(obs) = &observer {
            // Announce the wiring before anything runs: observers that
            // sample per-port depths mid-run (series recorder, port-depth
            // gauges) size themselves from this and hold only weak inbox
            // handles, so they never keep a finished fabric alive.
            let actors = workflow
                .actor_ids()
                .map(|id| ActorTopology {
                    id,
                    name: workflow.node(id).name.clone(),
                    ports: workflow.node(id).signature.inputs.len(),
                    inbox: Arc::downgrade(&self.inboxes[id.index()]),
                })
                .collect();
            obs.on_topology(&TopologySnapshot { actors });
        }
        self.observer = observer;
    }

    /// Wake the reader of `dest`, on which windows formed, and report them
    /// to the observer with the destination inbox depth (the queue-length
    /// statistic schedulers key on).
    fn note_windows(&self, dest: PortRef, windows: usize, now: Timestamp) {
        if windows == 0 {
            return;
        }
        self.wake(dest.actor);
        if let Some(obs) = &self.observer {
            let depth = self.inboxes[dest.actor.0].len();
            obs.on_window_close(dest.actor, dest.port, windows, depth, now);
        }
    }

    /// The single capacity-aware admission point: every event entering a
    /// receiver goes through here so channel policies apply uniformly.
    ///
    /// A full `Block` port resolves one of two ways. With `parked`, the
    /// event is handed back (`Ok(Some(event))`) and the slot remembers when
    /// the wait began, so a wall-clock task can park and retry on space.
    /// Otherwise (cooperative directors, and a parked task's end or pause)
    /// the event is admitted over capacity. Drop policies shed here and
    /// report `on_shed`; an admission after a full port reports `on_block`
    /// with the time spent parked (zero when admitted over capacity).
    fn put_event(
        &self,
        dest: PortRef,
        event: CwEvent,
        now: Timestamp,
        parked: Option<&mut Option<Instant>>,
    ) -> Result<Option<CwEvent>> {
        let receiver = &self.receivers[dest.actor.0][dest.port];
        // Per-event hooks need the wave past the point the event is moved
        // into the receiver; the clone is only taken when a tracer asked.
        let wave = self.fine.then(|| event.wave.clone());
        let (formed, waited) = match receiver.try_put(event, now)? {
            TryPut::Stored(formed) => {
                if receiver.policy().on_full == OnFull::Block && receiver.is_full() {
                    // This put filled the port: a writer parked on it may
                    // now close a deadlock.
                    self.relieve_parked_on(|port| port == dest);
                }
                let started = parked.and_then(|p| p.take());
                (formed, started.map(|start| Micros(start.elapsed().as_micros() as u64)))
            }
            TryPut::Shed { dropped, windows } => {
                if let Some(obs) = &self.observer {
                    obs.on_shed(dest.actor, dest.port, dropped, now);
                }
                self.note_windows(dest, windows, now);
                return Ok(None);
            }
            TryPut::Full(ev) => {
                if let Some(slot) = parked {
                    slot.get_or_insert_with(Instant::now);
                    return Ok(Some(ev));
                }
                (receiver.put(ev, now)?, Some(Micros(0)))
            }
        };
        if let Some(obs) = &self.observer {
            if let Some(waited) = waited {
                obs.on_block(dest.actor, dest.port, waited, now);
            }
            if let Some(wave) = &wave {
                obs.on_enqueue(dest.actor, dest.port, wave, now);
            }
        }
        self.note_windows(dest, formed, now);
        Ok(None)
    }

    /// Relieve every writer parked on a port that `on` picks.
    fn relieve_parked_on(&self, on: impl Fn(PortRef) -> bool) {
        let waits = self.waits.lock();
        for writer in 0..waits.len() {
            if waits[writer].0.is_some_and(&on) {
                self.relieve(&waits, ActorId(writer));
            }
        }
    }

    /// Record in the wait-for table the port `writer` is parked on (`None`:
    /// it is not parked), keeping the count of parked tasks.
    fn set_parked(&self, waits: &mut [(Option<PortRef>, bool)], writer: ActorId, on: Option<PortRef>) {
        match (std::mem::replace(&mut waits[writer.0].0, on).is_some(), on.is_some()) {
            (false, true) => self.parked.fetch_add(1, Ordering::Relaxed),
            (true, false) => self.parked.fetch_sub(1, Ordering::Relaxed),
            _ => 0,
        };
    }

    /// Wake every writer the wait-for table shows parked on `port`.
    fn wake_parked_on(&self, waits: &[(Option<PortRef>, bool)], port: PortRef) {
        for (writer, (on, _)) in waits.iter().enumerate() {
            if *on == Some(port) {
                self.wake(ActorId(writer));
            }
        }
    }

    /// Take the oldest ready window of `id`'s inbox (a wall-clock task's
    /// pop), waking the writers parked on the port it frees a slot on.
    ///
    /// A writer records its park before it checks the port is still full
    /// (in [`Fabric::deliver`]), and this pop frees the slot before it
    /// reads the count, so either the writer sees the room or this sees
    /// the park.
    fn pop(&self, id: ActorId) -> Option<(usize, Window)> {
        let (port, window) = self.inboxes[id.0].try_pop()?;
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.wake_parked_on(&self.waits.lock(), PortRef { actor: id, port });
        }
        Some((port, window))
    }

    /// Parks' relief of artificial deadlock, decided from the wait-for
    /// table alone: the one place a queue grows. A task parks on one port
    /// at most, so the chain of parked readers from `writer` ends at a live
    /// reader that is not parked (it will read, so nothing grows), or at a
    /// finished reader (the port parked on it grows), or runs into a cycle
    /// (its smallest port grows). Every port involved must still be full,
    /// so a pop that raced the park grows nothing: its writer retries. The
    /// writers parked on the grown port wake.
    fn relieve(&self, waits: &[(Option<PortRef>, bool)], writer: ActorId) {
        let (mut walked, mut at) = (Vec::<(ActorId, PortRef)>::new(), writer);
        let stuck: Vec<PortRef> = loop {
            let Some(port) = waits[at.0].0 else { return };
            if waits[port.actor.0].1 {
                break vec![port];
            }
            walked.push((at, port));
            at = port.actor;
            if let Some(i) = walked.iter().position(|&(w, _)| w == at) {
                break walked[i..].iter().map(|&(_, port)| port).collect();
            }
        };
        let receiver = |p: &PortRef| &self.receivers[p.actor.0][p.port];
        if stuck.iter().all(|p| receiver(p).is_full()) {
            if let Some(&smallest) = stuck.iter().min_by_key(|p| receiver(p).effective_capacity()) {
                receiver(&smallest).grow_capacity();
                self.wake_parked_on(waits, smallest);
            }
        }
    }

    /// Deliver every port's expired events to its handler activity, if one
    /// was attached (the paper's expired-items queues). Returns how many
    /// events were routed. Cheap no-op when no handlers exist.
    pub fn route_expired(&self, now: Timestamp) -> Result<u64> {
        if !self.has_expired_routes {
            return Ok(0);
        }
        let mut routed = 0u64;
        for (a, ports) in self.expired_routes.iter().enumerate() {
            for (p, dest) in ports.iter().enumerate() {
                let Some(dest) = dest else { continue };
                let events = self.receivers[a][p].drain_expired();
                if events.is_empty() {
                    continue;
                }
                if let Some(obs) = &self.observer {
                    obs.on_expire(ActorId(a), p, events.len() as u64, now);
                }
                for event in events {
                    self.put_event(*dest, event, now, None)?;
                    routed += 1;
                }
            }
        }
        Ok(routed)
    }

    /// The ready-window inbox of an actor.
    pub fn inbox(&self, id: ActorId) -> &Arc<ActorInbox> {
        &self.inboxes[id.0]
    }

    /// The windowed receivers on an actor's input ports.
    pub fn receivers(&self, id: ActorId) -> &[Arc<PortReceiver>] {
        &self.receivers[id.0]
    }

    /// Stamp a firing's emissions: the only place events get their wave
    /// tags.
    ///
    /// `parent` is the wave of the window that triggered the firing;
    /// `None` means the emissions are external events initiating new waves
    /// (source actors), which are reported through `on_admit`. Wave serial
    /// numbers are assigned per emission — unrouted emissions still consume
    /// an index — and events are grouped by destination port so
    /// [`Fabric::deliver`] takes each inbox lock once per firing instead of
    /// once per event.
    pub fn stamp(
        &self,
        from: ActorId,
        emissions: Vec<(usize, Token)>,
        parent: Option<&WaveTag>,
        now: Timestamp,
    ) -> Stamped {
        let mut stamped = Stamped {
            from,
            deliveries: 0,
            batches: Vec::new(),
            parked: None,
        };
        let n = emissions.len();
        let out_routes = &self.routes[from.0];
        for (i, (port, token)) in emissions.into_iter().enumerate() {
            let dests = &out_routes[port];
            if dests.is_empty() {
                continue;
            }
            let event = match parent {
                None => CwEvent::external(token, now),
                Some(parent) => CwEvent::derived(token, now, parent, (i + 1) as u32, i + 1 == n),
            };
            if self.fine && parent.is_none() {
                if let Some(obs) = &self.observer {
                    obs.on_admit(from, &event.wave, now);
                }
            }
            stamped.deliveries += dests.len() as u64;
            let (last, fanned) = dests.split_last().expect("dests is non-empty");
            let mut stash = |dest: &PortRef, ev: CwEvent| match stamped
                .batches
                .iter_mut()
                .find(|(p, _)| p == dest)
            {
                Some((_, evs)) => evs.push(ev),
                None => stamped.batches.push((*dest, vec![ev])),
            };
            for dest in fanned {
                stash(dest, event.clone());
            }
            stash(last, event);
        }
        stamped
    }

    /// Deliver what is left of a stamped batch at director time `now`,
    /// reporting `on_route_edge` per destination for what went in.
    ///
    /// With `park`, a full [`OnFull::Block`] port stops delivery instead of
    /// over-admitting: the undelivered rest stays in `stamped` and the port
    /// is returned, so the producing wall-clock task can park and call
    /// again when it is woken. The park goes into the wait-for table (the
    /// next call takes it out) and relieves the artificial deadlock it
    /// closes at once. If a pop drained the port between the failed put
    /// and the park, the park guard delivers again instead. Drop and error
    /// policies resolve the same either way.
    pub fn deliver(
        &self,
        stamped: &mut Stamped,
        now: Timestamp,
        park: bool,
    ) -> Result<Option<PortRef>> {
        let from = stamped.from;
        if stamped.parked.is_some() {
            self.set_parked(&mut self.waits.lock(), from, None);
        }
        let mut batches = std::mem::take(&mut stamped.batches).into_iter();
        while let Some((dest, events)) = batches.next() {
            let receiver = &self.receivers[dest.actor.0][dest.port];
            let mut admitted = events.len() as u64;
            if receiver.policy().is_bounded() {
                // Bounded ports keep the event-at-a-time admission path:
                // parking and shedding are per-event decisions.
                let mut events = events.into_iter();
                while let Some(event) = events.next() {
                    let slot = park.then_some(&mut stamped.parked);
                    if let Some(back) = self.put_event(dest, event, now, slot)? {
                        admitted -= 1 + events.len() as u64;
                        let rest = std::iter::once(back).chain(events).collect();
                        stamped.batches = std::iter::once((dest, rest)).chain(batches).collect();
                        if let (true, Some(obs)) = (admitted > 0, &self.observer) {
                            obs.on_route_edge(from, dest.actor, dest.port, admitted, now);
                        }
                        let mut waits = self.waits.lock();
                        self.set_parked(&mut waits, from, Some(dest));
                        if !receiver.is_full() {
                            // The park guard: the pop that drained the port
                            // came before the park, so it woke nobody.
                            drop(waits);
                            return self.deliver(stamped, now, park);
                        }
                        self.relieve(&waits, from);
                        return Ok(Some(dest));
                    }
                }
            } else {
                if self.fine {
                    if let Some(obs) = &self.observer {
                        for event in &events {
                            obs.on_enqueue(dest.actor, dest.port, &event.wave, now);
                        }
                    }
                }
                let formed = receiver.put_batch(events, now)?;
                self.note_windows(dest, formed, now);
            }
            if let Some(obs) = &self.observer {
                obs.on_route_edge(from, dest.actor, dest.port, admitted, now);
            }
        }
        Ok(None)
    }

    /// Stamp a firing's emissions and deliver them downstream at once
    /// ([`Fabric::stamp`] then [`Fabric::deliver`]). Returns the number of
    /// channel deliveries.
    pub fn route(
        &self,
        from: ActorId,
        emissions: Vec<(usize, Token)>,
        parent: Option<&WaveTag>,
        now: Timestamp,
    ) -> Result<u64> {
        let mut stamped = self.stamp(from, emissions, parent, now);
        self.deliver(&mut stamped, now, false)?;
        Ok(stamped.deliveries)
    }

    /// Evaluate window timeouts on one actor's receivers at director time
    /// `now`, reporting formations to the observer. Returns the number of
    /// windows produced.
    pub fn poll_actor(&self, id: ActorId, now: Timestamp) -> usize {
        let mut formed = 0;
        for (port, r) in self.receivers[id.0].iter().enumerate() {
            let n = r.poll(now);
            self.note_windows(
                PortRef {
                    actor: id,
                    port,
                },
                n,
                now,
            );
            formed += n;
        }
        formed
    }

    /// Propagate "actor finished" along its output channels: each
    /// downstream receiver loses one upstream; the last closure flushes
    /// partial windows, and its reader wakes. Fully-closed ports with
    /// expired-items handlers hand their final expired events over and
    /// release the handler. The actor will never read again, so the writers
    /// parked on it are relieved.
    ///
    /// Hand-over goes through the same observed admission path as live
    /// routing, so windows formed during shutdown still reach
    /// `on_window_close` and put failures surface instead of being
    /// silently dropped.
    pub fn close_actor_outputs(&self, from: ActorId, now: Timestamp) -> Result<()> {
        self.waits.lock()[from.0].1 = true;
        self.relieve_parked_on(|port| port.actor == from);
        let mut fully_closed: Vec<PortRef> = Vec::new();
        for port_routes in &self.routes[from.0] {
            for dest in port_routes {
                if let Some(formed) = self.receivers[dest.actor.0][dest.port].upstream_closed(now) {
                    self.note_windows(*dest, formed, now);
                    self.wake(dest.actor);
                    fully_closed.push(*dest);
                }
            }
        }
        // Cascade expired-queue finalization (a handler port may itself
        // have an expired handler).
        while let Some(port) = fully_closed.pop() {
            let Some(dest) = self.expired_routes[port.actor.0][port.port] else {
                continue;
            };
            let receiver = &self.receivers[port.actor.0][port.port];
            let events = receiver.drain_expired();
            if !events.is_empty() {
                if let Some(obs) = &self.observer {
                    obs.on_expire(port.actor, port.port, events.len() as u64, now);
                }
            }
            for event in events {
                self.put_event(dest, event, now, None)?;
            }
            if let Some(formed) = self.receivers[dest.actor.0][dest.port].upstream_closed(now) {
                self.note_windows(dest, formed, now);
                self.wake(dest.actor);
                fully_closed.push(dest);
            }
        }
        Ok(())
    }

    /// Flush one actor's partial windows into its inbox without closing
    /// its ports. Returns the number of windows formed.
    pub fn flush_actor(&self, id: ActorId, now: Timestamp) -> usize {
        self.receivers[id.0].iter().map(|r| r.flush(now)).sum()
    }

    /// Evaluate window timeouts on every receiver at director time `now`.
    /// Returns the number of windows produced.
    pub fn poll_all(&self, now: Timestamp) -> usize {
        (0..self.receivers.len())
            .map(|a| self.poll_actor(ActorId(a), now))
            .sum()
    }

    /// The earliest pending window-formation deadline on one actor's ports.
    pub fn actor_deadline(&self, id: ActorId) -> Option<Timestamp> {
        self.receivers[id.0]
            .iter()
            .filter_map(|r| r.next_deadline())
            .min()
    }

    /// The earliest pending window-formation deadline across the workflow.
    pub fn next_deadline(&self) -> Option<Timestamp> {
        self.receivers
            .iter()
            .flatten()
            .filter_map(|r| r.next_deadline())
            .min()
    }

    /// Capture every inbox's queued windows and every port's operator
    /// state for a checkpoint. Destructive: the inboxes are drained and
    /// the window operators reset to fresh, so the captured state is held
    /// only once, and this must only run on a quiesced fabric no worker
    /// touches anymore.
    pub fn capture_state(&self) -> crate::checkpoint::FabricState {
        crate::checkpoint::FabricState {
            actors: self
                .inboxes
                .iter()
                .zip(&self.receivers)
                .map(|(inbox, ports)| crate::checkpoint::ActorFabricState {
                    inbox: inbox.drain_windows(),
                    ports: ports.iter().map(|r| r.take_op_snapshot()).collect(),
                })
                .collect(),
        }
    }

    /// Re-inject captured state into this freshly built fabric: operator
    /// snapshots first, then the queued windows in their original order.
    pub fn restore_state(&self, state: crate::checkpoint::FabricState) -> Result<()> {
        if state.actors.len() != self.inboxes.len() {
            return Err(crate::error::Error::Checkpoint(format!(
                "snapshot has {} actors, workflow has {}",
                state.actors.len(),
                self.inboxes.len()
            )));
        }
        for (id, actor) in state.actors.into_iter().enumerate() {
            let ports = &self.receivers[id];
            if actor.ports.len() != ports.len() {
                return Err(crate::error::Error::Checkpoint(format!(
                    "snapshot actor {id} has {} ports, workflow has {}",
                    actor.ports.len(),
                    ports.len()
                )));
            }
            for (receiver, snap) in ports.iter().zip(actor.ports) {
                receiver.restore_op(snap)?;
            }
            for (port, window) in actor.inbox {
                if port >= ports.len().max(1) {
                    return Err(crate::error::Error::Checkpoint(format!(
                        "snapshot window for out-of-range port {port} of actor {id}"
                    )));
                }
                self.inboxes[id].push(port, window);
            }
        }
        Ok(())
    }

    /// Total events buffered in receivers plus windows waiting in inboxes.
    pub fn backlog(&self) -> usize {
        let buffered: usize = self
            .receivers
            .iter()
            .flatten()
            .map(|r| r.pending_events())
            .sum();
        let ready: usize = self.inboxes.iter().map(|i| i.len()).sum();
        buffered + ready
    }
}

/// The standard [`FireContext`] used by cooperative directors: windows are
/// delivered before the firing; emissions are collected for the director to
/// stamp and route afterwards.
pub struct QueueContext {
    now: Timestamp,
    queues: Vec<VecDeque<Window>>,
    /// Emissions collected during the firing.
    pub emitted: Vec<(usize, Token)>,
    /// Wave of the last window the actor consumed (the firing's lineage
    /// parent).
    pub trigger: Option<WaveTag>,
    /// Events consumed during the firing (for rate statistics).
    pub consumed_events: u64,
    /// Where actor-side shed reports ([`FireContext::report_shed`]) land:
    /// the observer plus the reporting actor's id.
    shed_sink: Option<(Arc<dyn Observer>, ActorId)>,
}

impl std::fmt::Debug for QueueContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueContext")
            .field("now", &self.now)
            .field("queues", &self.queues)
            .field("emitted", &self.emitted)
            .field("trigger", &self.trigger)
            .field("consumed_events", &self.consumed_events)
            .finish_non_exhaustive()
    }
}

impl QueueContext {
    /// A context with `input_ports` delivery queues.
    pub fn new(input_ports: usize) -> Self {
        QueueContext {
            now: Timestamp::ZERO,
            queues: (0..input_ports).map(|_| VecDeque::new()).collect(),
            emitted: Vec::new(),
            trigger: None,
            consumed_events: 0,
            shed_sink: None,
        }
    }

    /// Route the actor's own [`FireContext::report_shed`] calls to an
    /// observer as `on_shed(actor, port 0, ...)`, so shedding operators
    /// (e.g. `confluence-sched`'s `LoadShedder`) count into per-actor
    /// `events_shed` like channel-policy sheds.
    pub fn set_shed_observer(&mut self, observer: Arc<dyn Observer>, actor: ActorId) {
        self.shed_sink = Some((observer, actor));
    }

    /// Set the director time reported to the actor.
    pub fn set_now(&mut self, now: Timestamp) {
        self.now = now;
    }

    /// Deliver a window to an input port ahead of a firing.
    pub fn deliver(&mut self, port: usize, window: Window) {
        self.queues[port].push_back(window);
    }

    /// Take the collected emissions, resetting for the next firing.
    pub fn take_emissions(&mut self) -> (Vec<(usize, Token)>, Option<WaveTag>) {
        self.consumed_events = 0;
        (std::mem::take(&mut self.emitted), self.trigger.take())
    }

    /// Drain every delivered-but-unconsumed window, in delivery order per
    /// port. A quiescing director hands these back to the actor's inbox
    /// (via [`ActorInbox::push_front_batch`]) so the checkpoint capture
    /// does not lose windows an actor staged but never fired on.
    pub fn take_staged(&mut self) -> Vec<(usize, Window)> {
        let mut staged = Vec::new();
        for (port, q) in self.queues.iter_mut().enumerate() {
            for w in q.drain(..) {
                staged.push((port, w));
            }
        }
        staged
    }
}

impl FireContext for QueueContext {
    fn now(&self) -> Timestamp {
        self.now
    }

    fn get(&mut self, port: usize) -> Option<Window> {
        let w = self.queues.get_mut(port)?.pop_front()?;
        if let Some(tag) = w.trigger_wave() {
            self.trigger = Some(tag.clone());
        }
        self.consumed_events += w.len() as u64;
        Some(w)
    }

    fn get_any(&mut self) -> Option<(usize, Window)> {
        let port = self.queues.iter().position(|q| !q.is_empty())?;
        self.get(port).map(|w| (port, w))
    }

    fn emit(&mut self, port: usize, token: Token) {
        self.emitted.push((port, token));
    }

    fn report_shed(&mut self, events: u64) {
        if events == 0 {
            return;
        }
        if let Some((obs, actor)) = &self.shed_sink {
            obs.on_shed(*actor, 0, events, self.now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, IoSignature};
    use crate::actors::{Collector, VecSource};
    use crate::graph::WorkflowBuilder;
    use crate::window::WindowSpec;

    struct Double;
    impl Actor for Double {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            while let Some(w) = ctx.get(0) {
                for t in w.tokens() {
                    ctx.emit(0, Token::Int(t.as_int()? * 2));
                }
            }
            Ok(())
        }
    }

    fn chain() -> (Workflow, Collector) {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("chain");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1), Token::Int(2)]));
        let d = b.add_actor("double", Double);
        let k = b.add_actor("sink", c.actor());
        b.link_windowed((s, "out"), (d, "in"), WindowSpec::each_event()).unwrap();
        b.link_windowed((d, "out"), (k, "in"), WindowSpec::each_event()).unwrap();
        (b.build().unwrap(), c)
    }

    #[test]
    fn fabric_builds_per_port_receivers() {
        let (wf, _c) = chain();
        let fabric = Fabric::build(&wf).unwrap();
        let d = wf.find("double").unwrap();
        assert_eq!(fabric.receivers(d).len(), 1);
        assert!(fabric.inbox(d).is_empty());
        assert_eq!(fabric.backlog(), 0);
        assert_eq!(fabric.next_deadline(), None);
    }

    #[test]
    fn route_stamps_external_events_for_sources() {
        let (wf, _c) = chain();
        let fabric = Fabric::build(&wf).unwrap();
        let s = wf.find("src").unwrap();
        let d = wf.find("double").unwrap();
        let n = fabric
            .route(s, vec![(0, Token::Int(7))], None, Timestamp(50))
            .unwrap();
        assert_eq!(n, 1);
        let (port, w) = fabric.inbox(d).try_pop().unwrap();
        assert_eq!(port, 0);
        let ev = &w.events[0];
        assert_eq!(ev.origin(), Timestamp(50));
        assert_eq!(ev.wave.depth(), 0);
    }

    #[test]
    fn route_stamps_derived_events_with_wave_children() {
        let (wf, _c) = chain();
        let fabric = Fabric::build(&wf).unwrap();
        let d = wf.find("double").unwrap();
        let k = wf.find("sink").unwrap();
        let parent = WaveTag::external(Timestamp(10));
        fabric
            .route(
                d,
                vec![(0, Token::Int(1)), (0, Token::Int(2))],
                Some(&parent),
                Timestamp(20),
            )
            .unwrap();
        let (_, w1) = fabric.inbox(k).try_pop().unwrap();
        let (_, w2) = fabric.inbox(k).try_pop().unwrap();
        assert_eq!(w1.events[0].wave.to_string(), "t10.1");
        assert_eq!(w2.events[0].wave.to_string(), "t10.2!");
        assert_eq!(w1.events[0].origin(), Timestamp(10), "origin survives");
    }

    #[test]
    fn close_propagates_and_flushes() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("flush");
        let s = b.add_actor("src", VecSource::new(vec![]));
        let k = b.add_actor("sink", c.actor());
        b.link_windowed((s, "out"), (k, "in"), WindowSpec::tuples(10, 10)).unwrap();
        let wf = b.build().unwrap();
        let fabric = Fabric::build(&wf).unwrap();
        let s = wf.find("src").unwrap();
        let k = wf.find("sink").unwrap();
        fabric
            .route(s, vec![(0, Token::Int(1))], None, Timestamp(1))
            .unwrap();
        assert!(fabric.inbox(k).is_empty(), "partial window not formed yet");
        fabric.close_actor_outputs(s, Timestamp(2)).unwrap();
        let (_, w) = fabric.inbox(k).try_pop().expect("flush on close");
        assert!(w.timed_out);
        assert!(fabric.inbox(k).all_ports_closed());
    }

    #[test]
    fn expired_events_are_queued_only_for_a_handler() {
        let sliding = |handled: bool| {
            let mut b = WorkflowBuilder::new("expired");
            let s = b.add_actor("src", VecSource::new(vec![]));
            let k = b.add_actor("sink", Collector::new().actor());
            b.link_windowed((s, "out"), (k, "in"), WindowSpec::tuples(2, 1)).unwrap();
            if handled {
                let audit = b.add_actor("audit", Collector::new().actor());
                b.expired_handler((k, "in"), (audit, "in")).unwrap();
            }
            let wf = b.build().unwrap();
            let fabric = Fabric::build(&wf).unwrap();
            let burst = (0..10).map(|i| (0, Token::Int(i))).collect();
            fabric.route(s, burst, None, Timestamp(1)).unwrap();
            assert_eq!(fabric.inbox(k).len(), 9, "windows slide either way");
            let port = &fabric.receivers(k)[0];
            assert_eq!(port.pending_events(), 1);
            let queued = port.expired_len();
            assert_eq!(fabric.route_expired(Timestamp(2)).unwrap(), queued as u64);
            queued
        };
        assert_eq!(sliding(true), 9, "a handler reads what slid out");
        assert_eq!(sliding(false), 0, "nobody would: nothing is kept");
    }

    /// `names` as `Double`s (`VecSource`s for the names in `sources`)
    /// linked `from → to` over `Block(1)` ports, one event per window.
    fn block_graph(names: &[&str], sources: &[&str], links: &[(&str, &str)]) -> (Workflow, Fabric) {
        let mut b = WorkflowBuilder::new("parks");
        let ids: Vec<ActorId> = names
            .iter()
            .map(|&n| match sources.contains(&n) {
                true => b.add_actor(n, VecSource::new(vec![])),
                false => b.add_actor(n, Double),
            })
            .collect();
        let id = |n: &str| ids[names.iter().position(|&m| m == n).unwrap()];
        for &(from, to) in links {
            b.link_windowed((id(from), "out"), (id(to), "in"), WindowSpec::each_event()).unwrap();
        }
        b.set_default_channel_policy(crate::channel::ChannelPolicy::block(1));
        let wf = b.build().unwrap();
        let fabric = Fabric::build(&wf).unwrap();
        (wf, fabric)
    }

    /// `n` events from `from`, delivered as a wall-clock task delivers
    /// (parking on a full `Block` port): the undelivered rest, and the port
    /// it parked on.
    fn send(fabric: &Fabric, from: ActorId, n: i64) -> (Stamped, Option<PortRef>) {
        let mut stamped = fabric.stamp(from, (0..n).map(|i| (0, Token::Int(i))).collect(), None, Timestamp(1));
        let parked = fabric.deliver(&mut stamped, Timestamp(1), true).unwrap();
        (stamped, parked)
    }

    fn capacity(fabric: &Fabric, id: ActorId) -> usize {
        fabric.receivers(id)[0].effective_capacity()
    }

    #[test]
    fn parking_that_closes_a_cycle_of_full_ports_grows_one() {
        let (wf, fabric) = block_graph(&["a", "b"], &[], &[("a", "b"), ("b", "a")]);
        let (a, b) = (wf.find("a").unwrap(), wf.find("b").unwrap());
        let (_, parked) = send(&fabric, b, 2);
        assert_eq!(parked, Some(PortRef { actor: a, port: 0 }));
        assert_eq!(fabric.waits.lock()[b.0].0, parked, "the park is in the table");
        assert_eq!((capacity(&fabric, a), capacity(&fabric, b)), (1, 1), "a is live");
        let (mut rest, parked) = send(&fabric, a, 2);
        assert_eq!(parked, Some(PortRef { actor: b, port: 0 }));
        assert_eq!(capacity(&fabric, a) + capacity(&fabric, b), 3, "one port grew, once");
        assert_eq!(fabric.deliver(&mut rest, Timestamp(2), true).unwrap(), None, "room at once");
        assert_eq!(fabric.waits.lock()[a.0].0, None, "the delivered writer left the table");
    }

    #[test]
    fn a_finishing_reader_relieves_the_writer_parked_on_it() {
        let (wf, fabric) = block_graph(&["src", "sink"], &["src"], &[("src", "sink")]);
        let (s, k) = (wf.find("src").unwrap(), wf.find("sink").unwrap());
        let (mut rest, parked) = send(&fabric, s, 2);
        assert_eq!(parked, Some(PortRef { actor: k, port: 0 }));
        assert_eq!(capacity(&fabric, k), 1);
        fabric.close_actor_outputs(k, Timestamp(2)).unwrap();
        assert_eq!(capacity(&fabric, k), 2, "the finished reader will never pop");
        assert_eq!(fabric.deliver(&mut rest, Timestamp(2), true).unwrap(), None);
        let (_, parked) = send(&fabric, s, 1);
        assert_eq!(parked, Some(PortRef { actor: k, port: 0 }), "full again");
        assert_eq!(capacity(&fabric, k), 3, "a park on a finished reader grows its port at once");
    }

    #[test]
    fn parking_on_a_reader_that_will_read_grows_nothing() {
        // A live reader that is not parked.
        let (wf, fabric) = block_graph(&["src", "sink"], &["src"], &[("src", "sink")]);
        let (s, k) = (wf.find("src").unwrap(), wf.find("sink").unwrap());
        let (mut rest, parked) = send(&fabric, s, 2);
        assert_eq!(parked, Some(PortRef { actor: k, port: 0 }));
        assert_eq!(fabric.deliver(&mut rest, Timestamp(2), true).unwrap(), parked, "still full");
        assert_eq!(capacity(&fabric, k), 1);
        assert_eq!(fabric.waits.lock()[s.0].0, parked);
        // A cycle whose reader popped before it parked: the writer on the
        // port it freed retries, so nothing grows.
        let (wf, fabric) = block_graph(&["a", "b"], &[], &[("a", "b"), ("b", "a")]);
        let (a, b) = (wf.find("a").unwrap(), wf.find("b").unwrap());
        send(&fabric, a, 2);
        assert!(fabric.inbox(b).try_pop().is_some());
        let (_, parked) = send(&fabric, b, 2);
        assert_eq!(parked, Some(PortRef { actor: a, port: 0 }));
        assert_eq!((capacity(&fabric, a), capacity(&fabric, b)), (1, 1));
    }

    #[test]
    fn a_put_that_fills_a_parked_writers_port_closes_the_deadlock() {
        // b's port has a second writer, z, off the cycle.
        let links = [("a", "b"), ("b", "a"), ("z", "b")];
        let (wf, fabric) = block_graph(&["a", "b", "z"], &["z"], &links);
        let (a, b, z) = (wf.find("a").unwrap(), wf.find("b").unwrap(), wf.find("z").unwrap());
        send(&fabric, a, 2);
        assert!(fabric.inbox(b).try_pop().is_some());
        send(&fabric, b, 2);
        assert_eq!((capacity(&fabric, a), capacity(&fabric, b)), (1, 1), "b's port had room");
        let (_, parked) = send(&fabric, z, 1);
        assert_eq!(parked, None, "z's one event fits");
        assert_eq!(capacity(&fabric, a) + capacity(&fabric, b), 3, "z's put closed the cycle");
    }

    /// Install a wake on `fabric` that records whom it wakes.
    fn woken(fabric: &mut Fabric) -> Arc<Mutex<Vec<ActorId>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let into = log.clone();
        fabric.set_wake(move |id| into.lock().push(id));
        log
    }

    #[test]
    fn a_formed_window_wakes_its_reader_and_an_event_that_forms_none_does_not() {
        let mut b = WorkflowBuilder::new("pairs");
        let s = b.add_actor("src", VecSource::new(vec![]));
        let k = b.add_actor("sink", Collector::new().actor());
        b.link_windowed((s, "out"), (k, "in"), WindowSpec::tuples(2, 2)).unwrap();
        let mut fabric = Fabric::build(&b.build().unwrap()).unwrap();
        let log = woken(&mut fabric);
        fabric.route(s, vec![(0, Token::Int(1))], None, Timestamp(1)).unwrap();
        assert_eq!(*log.lock(), [], "half a window wakes nobody");
        fabric.route(s, vec![(0, Token::Int(2))], None, Timestamp(2)).unwrap();
        assert_eq!(*log.lock(), [k]);
    }

    #[test]
    fn a_close_wakes_the_reader_even_when_nothing_flushed() {
        let (wf, mut fabric) = block_graph(&["src", "sink"], &["src"], &[("src", "sink")]);
        let (s, k) = (wf.find("src").unwrap(), wf.find("sink").unwrap());
        let log = woken(&mut fabric);
        fabric.close_actor_outputs(s, Timestamp(1)).unwrap();
        assert!(fabric.inbox(k).is_empty(), "nothing flushed");
        assert_eq!(*log.lock(), [k]);
    }

    #[test]
    fn a_pop_wakes_the_writer_parked_on_that_port_only() {
        let mut b = WorkflowBuilder::new("two ports");
        let w0 = b.add_actor("w0", VecSource::new(vec![]));
        let w1 = b.add_actor("w1", VecSource::new(vec![]));
        let u = b.add_actor("union", crate::actors::Union::new(2));
        b.link((w0, "out"), (u, "in0")).unwrap();
        b.link((w1, "out"), (u, "in1")).unwrap();
        b.set_default_channel_policy(crate::channel::ChannelPolicy::block(1));
        let mut fabric = Fabric::build(&b.build().unwrap()).unwrap();
        let log = woken(&mut fabric);
        assert_eq!(send(&fabric, w0, 2).1, Some(PortRef { actor: u, port: 0 }));
        assert_eq!(send(&fabric, w1, 2).1, Some(PortRef { actor: u, port: 1 }));
        log.lock().clear();
        assert_eq!(fabric.pop(u).map(|(port, _)| port), Some(0));
        assert_eq!(*log.lock(), [w0], "w1 waits on the other port");
        assert_eq!(fabric.pop(u).map(|(port, _)| port), Some(1));
        assert_eq!(*log.lock(), [w0, w1]);
    }

    #[test]
    fn relief_growth_wakes_the_writer_on_the_grown_port() {
        let (wf, mut fabric) = block_graph(&["a", "b"], &[], &[("a", "b"), ("b", "a")]);
        let (a, b) = (wf.find("a").unwrap(), wf.find("b").unwrap());
        let log = woken(&mut fabric);
        send(&fabric, b, 2);
        log.lock().clear();
        let (_, parked) = send(&fabric, a, 2);
        assert_eq!(parked, Some(PortRef { actor: b, port: 0 }));
        assert_eq!(capacity(&fabric, b), 2, "the park closed the cycle and a's port grew");
        assert_eq!(*log.lock(), [b, a], "b for a's first event, then a, parked on the grown port");
    }

    #[test]
    fn the_park_guard_delivers_again_when_the_port_drained_before_the_park() {
        /// Pops the reader's inbox once, as a reader's pop would between a
        /// writer's failed put and its park (after the put's route edge).
        struct Drain(Mutex<Option<Arc<ActorInbox>>>);
        impl Observer for Drain {
            fn on_route_edge(&self, _: ActorId, _: ActorId, _: usize, _: u64, _: Timestamp) {
                if let Some(inbox) = self.0.lock().take() {
                    inbox.try_pop().expect("the first event's window");
                }
            }
        }
        let (wf, mut fabric) = block_graph(&["src", "sink"], &["src"], &[("src", "sink")]);
        let (s, k) = (wf.find("src").unwrap(), wf.find("sink").unwrap());
        let drain = Drain(Mutex::new(Some(fabric.inbox(k).clone())));
        fabric.observe(&wf, Some(Arc::new(drain)));
        let (rest, parked) = send(&fabric, s, 2);
        assert_eq!(parked, None, "the second event went in after the drain");
        assert!(rest.batches.is_empty());
        assert_eq!(fabric.inbox(k).len(), 1);
        assert_eq!(fabric.waits.lock()[s.0].0, None, "nothing is parked");
        assert_eq!(fabric.parked.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn queue_context_tracks_trigger_and_consumption() {
        let mut ctx = QueueContext::new(2);
        ctx.set_now(Timestamp(5));
        assert_eq!(ctx.now(), Timestamp(5));
        let ev = CwEvent::external(Token::Int(1), Timestamp(3));
        let wave = ev.wave.clone();
        ctx.deliver(
            1,
            Window {
                events: vec![ev],
                formed_at: Timestamp(3),
                timed_out: false,
            },
        );
        let (port, w) = ctx.get_any().unwrap();
        assert_eq!((port, w.len()), (1, 1));
        assert_eq!(ctx.consumed_events, 1);
        ctx.emit(0, Token::Int(9));
        let (emissions, trigger) = ctx.take_emissions();
        assert_eq!(emissions, vec![(0, Token::Int(9))]);
        assert_eq!(trigger, Some(wave));
        assert_eq!(ctx.consumed_events, 0, "reset after take");
        assert!(ctx.get(0).is_none());
        assert!(ctx.get(9).is_none(), "out-of-range port is None");
    }
}
