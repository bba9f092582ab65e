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
//!   director: one OS thread per actor, blocking windowed reads (the
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// How long a blocked writer waits on the space condvar per slice before
/// re-checking global progress.
const BLOCK_POLL: Duration = Duration::from_millis(5);

/// How long the whole fabric must make zero progress (no pushes, no pops)
/// while a writer is blocked before Parks-style relief grows a queue.
const RELIEF_PATIENCE: Duration = Duration::from_millis(50);

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
/// [`Fabric::deliver`]. A director holds one only while delivery is
/// deferred — on DE's agenda until the channel delay has passed, or in a
/// pool task parked on a full `Block` port.
#[derive(Debug)]
pub struct Stamped {
    from: ActorId,
    deliveries: u64,
    batches: Vec<(PortRef, Vec<CwEvent>)>,
    /// When delivery first parked on the event now at the head of the
    /// batches (block-time telemetry).
    parked: Option<Instant>,
}

impl Stamped {
    /// Channel deliveries this batch amounts to (events × destinations).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// The destination ports still owed events, in delivery order.
    pub fn destinations(&self) -> impl Iterator<Item = PortRef> + '_ {
        self.batches.iter().map(|(dest, _)| *dest)
    }
}

/// A model of computation executing a workflow to completion.
pub trait Director {
    /// Execute the workflow until quiescence (sources exhausted and all
    /// derived events drained).
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport>;

    /// Attach telemetry for subsequent runs: execution hooks flow to
    /// `telemetry.observer` and the director polls `telemetry.control`
    /// at firing boundaries for cooperative stops.
    fn instrument(&mut self, telemetry: Telemetry);

    /// Attach a checkpoint quiesce hook for subsequent runs: when the hook
    /// requests a pause every actor stops at its next firing boundary, the
    /// director deposits the captured [`crate::checkpoint::FabricState`]
    /// (queued windows included, not drained), and returns *without* its
    /// end-of-stream teardown (no `finish`/`wrapup`, no channel closes).
    /// DE alone drains its agenda first (DESIGN.md, "What a director is").
    /// At the start of a run it re-injects any staged restore state and,
    /// on resumed segments, skips `Actor::initialize`.
    fn attach_checkpoint(&mut self, hook: Arc<crate::checkpoint::QuiesceHook>);
}

/// The communication fabric for one workflow execution: an inbox per actor
/// and a windowed receiver per input port, plus the routing tables to move
/// stamped events between them.
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
    /// Fabric-wide progress counter shared with every inbox: bumped on each
    /// push and pop. A blocked writer that sees it frozen concludes the
    /// network is artificially deadlocked (all writers blocked on full
    /// queues) and triggers relief.
    progress: Arc<AtomicU64>,
    /// Whether `Block` policies really block the calling thread (the
    /// thread-based director enables this; cooperative directors must not
    /// block their scheduling loop and admit over capacity instead).
    blocking: AtomicBool,
    /// Serializes deadlock relief so concurrent stalled writers grow one
    /// queue at a time.
    relief_lock: Mutex<()>,
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
        let progress = Arc::new(AtomicU64::new(0));
        let mut inboxes = Vec::with_capacity(workflow.actor_count());
        let mut receivers = Vec::with_capacity(workflow.actor_count());
        for id in workflow.actor_ids() {
            let node = workflow.node(id);
            let n_inputs = node.signature.inputs.len();
            let inbox = ActorInbox::new_shared(n_inputs, progress.clone());
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
                    // Nothing will ever feed this port: close it now so the
                    // thread-based director's blocking reads can terminate.
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
            progress,
            blocking: AtomicBool::new(false),
            relief_lock: Mutex::new(()),
        })
    }

    /// Attach `observer` (replacing any earlier one) and announce the
    /// wiring to it. A director that keeps one fabric across checkpoint
    /// segments calls this at the start of each, so the segment's
    /// observers — not the first segment's — see what the fabric moves.
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

    /// Make `Block` channel policies really block the writing thread (PN
    /// semantics). The thread-based director enables this; cooperative
    /// directors leave it off and admit over capacity, reporting a
    /// zero-wait block instead.
    pub fn set_blocking(&self, on: bool) {
        self.blocking.store(on, Ordering::Relaxed);
    }

    /// Whether `Block` policies block the writing thread.
    pub fn blocking_enabled(&self) -> bool {
        self.blocking.load(Ordering::Relaxed)
    }

    /// Report window formation on `dest` to the observer, including the
    /// destination inbox depth (the queue-length statistic schedulers key
    /// on).
    fn note_windows(&self, dest: PortRef, windows: usize, now: Timestamp) {
        if windows == 0 {
            return;
        }
        if let Some(obs) = &self.observer {
            let depth = self.inboxes[dest.actor.0].len();
            obs.on_window_close(dest.actor, dest.port, windows, depth, now);
        }
    }

    /// The single capacity-aware admission point: every event entering a
    /// receiver goes through here so channel policies apply uniformly.
    ///
    /// A full `Block` port resolves one of three ways. With `parked`, the
    /// event is handed back (`Ok(Some(event))`) and the slot remembers when
    /// the wait began, so a task-parking executor can retry on space. With
    /// [`Fabric::set_blocking`] on, the calling thread blocks in short
    /// condvar slices, watching the fabric-wide progress counter; if
    /// nothing anywhere pushes or pops for [`RELIEF_PATIENCE`], the network
    /// is treated as artificially deadlocked and the smallest full queue is
    /// grown (Parks' algorithm). Otherwise (cooperative directors) the
    /// event is admitted over capacity. Drop policies shed here and report
    /// `on_shed`; completed waits report `on_block` with the time spent
    /// blocked or parked.
    fn put_event(
        &self,
        dest: PortRef,
        event: CwEvent,
        now: Timestamp,
        mut parked: Option<&mut Option<Instant>>,
    ) -> Result<Option<CwEvent>> {
        let receiver = &self.receivers[dest.actor.0][dest.port];
        // Per-event hooks need the wave past the point the event is moved
        // into the receiver; the clone is only taken when a tracer asked.
        let wave = self.fine.then(|| event.wave.clone());
        let mut event = event;
        let mut wait_started: Option<Instant> = parked.as_mut().and_then(|p| p.take());
        let mut stalled_since: Option<Instant> = None;
        loop {
            match receiver.try_put(event, now)? {
                TryPut::Stored(formed) => {
                    if let (Some(start), Some(obs)) = (wait_started, &self.observer) {
                        let waited = Micros(start.elapsed().as_micros() as u64);
                        obs.on_block(dest.actor, dest.port, waited, now);
                    }
                    if let (Some(wave), Some(obs)) = (&wave, &self.observer) {
                        obs.on_enqueue(dest.actor, dest.port, wave, now);
                    }
                    self.note_windows(dest, formed, now);
                    return Ok(None);
                }
                TryPut::Shed { dropped, windows } => {
                    if let Some(obs) = &self.observer {
                        obs.on_shed(dest.actor, dest.port, dropped, now);
                    }
                    self.note_windows(dest, windows, now);
                    return Ok(None);
                }
                TryPut::Full(ev) => {
                    if let Some(slot) = parked.as_deref_mut() {
                        *slot = Some(wait_started.unwrap_or_else(Instant::now));
                        return Ok(Some(ev));
                    }
                    if !self.blocking_enabled() {
                        // Cooperative director: admit over capacity rather
                        // than block the scheduling loop; the zero-wait
                        // block still shows up in telemetry.
                        let formed = receiver.put(ev, now)?;
                        if let Some(obs) = &self.observer {
                            obs.on_block(dest.actor, dest.port, Micros(0), now);
                            if let Some(wave) = &wave {
                                obs.on_enqueue(dest.actor, dest.port, wave, now);
                            }
                        }
                        self.note_windows(dest, formed, now);
                        return Ok(None);
                    }
                    event = ev;
                    wait_started.get_or_insert_with(Instant::now);
                    let seen = self.progress.load(Ordering::Relaxed);
                    let has_space = receiver.inbox().wait_for_space(
                        dest.port,
                        receiver.effective_capacity(),
                        BLOCK_POLL,
                    );
                    if has_space || self.progress.load(Ordering::Relaxed) != seen {
                        stalled_since = None;
                        continue;
                    }
                    let stalled = *stalled_since.get_or_insert_with(Instant::now);
                    if stalled.elapsed() >= RELIEF_PATIENCE {
                        self.relieve_deadlock();
                        stalled_since = None;
                    }
                }
            }
        }
    }

    /// Parks-style artificial-deadlock relief: grow the smallest full
    /// bounded `Block` queue so one writer can proceed. Serialized so
    /// concurrently stalled writers grow one queue per detection. Public
    /// so task-parking executors (the pool director) can trigger relief
    /// from their own stall detector.
    pub fn relieve_deadlock(&self) {
        let _guard = self.relief_lock.lock();
        let smallest = self
            .receivers
            .iter()
            .flatten()
            .filter(|r| r.policy().is_bounded() && r.policy().on_full == OnFull::Block)
            .filter(|r| r.is_full())
            .min_by_key(|r| r.effective_capacity());
        if let Some(r) = smallest {
            r.grow_capacity();
            // Count relief as progress so other stalled writers restart
            // their patience window instead of piling on.
            self.progress.fetch_add(1, Ordering::Relaxed);
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
    /// reporting `on_route_edge` per destination and `on_route` once the
    /// whole batch is in.
    ///
    /// With `park`, a full [`OnFull::Block`] port stops delivery instead of
    /// blocking or over-admitting: the undelivered rest stays in `stamped`
    /// and the port is returned, so a task-parking executor can re-enqueue
    /// the producing *task* and call again when space frees up. Drop and
    /// error policies resolve the same either way.
    pub fn deliver(
        &self,
        stamped: &mut Stamped,
        now: Timestamp,
        park: bool,
    ) -> Result<Option<PortRef>> {
        if stamped.deliveries == 0 {
            // A firing whose emissions all hit unrouted ports produced no
            // deliveries: skip the observer callbacks.
            return Ok(None);
        }
        let from = stamped.from;
        let mut batches = std::mem::take(&mut stamped.batches).into_iter();
        while let Some((dest, events)) = batches.next() {
            let receiver = &self.receivers[dest.actor.0][dest.port];
            let mut admitted = events.len() as u64;
            if receiver.policy().is_bounded() {
                // Bounded ports keep the event-at-a-time admission path:
                // blocking, shedding, and relief are per-event decisions.
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
        if let Some(obs) = &self.observer {
            obs.on_route(from, stamped.deliveries, now);
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

    /// Current value of the fabric-wide progress counter (bumped on every
    /// inbox push and pop). Stall detectors watch it to recognize
    /// artificial deadlock.
    pub fn progress_counter(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
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
    /// partial windows. Fully-closed ports with expired-items handlers
    /// hand their final expired events over and release the handler.
    ///
    /// Hand-over goes through the same observed admission path as live
    /// routing, so windows formed during shutdown still reach
    /// `on_window_close` and put failures surface instead of being
    /// silently dropped.
    pub fn close_actor_outputs(&self, from: ActorId, now: Timestamp) -> Result<()> {
        let mut fully_closed: Vec<PortRef> = Vec::new();
        for port_routes in &self.routes[from.0] {
            for dest in port_routes {
                if self.receivers[dest.actor.0][dest.port].upstream_closed(now) {
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
            if self.receivers[dest.actor.0][dest.port].upstream_closed(now) {
                fully_closed.push(dest);
            }
        }
        Ok(())
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
    /// the window operators reset to fresh, so this must only run on a
    /// quiesced fabric no worker touches anymore. The reset is what lets
    /// the captured state be restored back into this *same* fabric —
    /// directors with a persistent fabric (scwf) re-stage the snapshot
    /// and refill on the next segment.
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
                group: Token::Unit,
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
