//! Receivers: the active queues sitting on actor input ports.
//!
//! In Kepler the receiving point of a channel has a *receiver* object which
//! is provided not by the actor but by the director. CONFLuEnCE's
//! **Windowed Receiver** encapsulates arriving tokens into timestamped,
//! wave-stamped events, runs the window operator on the queue, and makes
//! formed windows available to the actor's `get()` — here split into:
//!
//! * [`PortReceiver`] — one per input port: wraps the [`WindowOperator`]
//!   behind a lock and forwards formed windows to the owning actor's inbox
//!   (the paper's TM Windowed Receiver forwarding produced windows to the
//!   actor's ready queue at the director, Figure 4);
//! * [`ActorInbox`] — one per actor: the ready queue of `(port, Window)`
//!   pairs. The thread-based director's actor thread waits on it
//!   ([`ActorInbox::wait_ready`]), the pool is woken by it
//!   ([`InboxWaker`]), and the other directors poll it.
//!
//! Channels are *bounded* when a [`ChannelPolicy`] with a capacity is
//! attached: capacity is counted in formed windows queued per port, and a
//! full port either parks the writer (PN semantics, orchestrated by the
//! fabric), sheds, or errors — see [`crate::channel`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::channel::{ChannelPolicy, OnFull};
use crate::error::{Error, Result};
use crate::event::CwEvent;
use crate::time::Timestamp;
use crate::window::{release_drained, Window, WindowOperator, WindowSpec};

/// Callback surface for executors that schedule actors as tasks instead of
/// parking a thread per inbox (the pool director). Installed once per inbox
/// via [`ActorInbox::set_waker`]; the inbox invokes it outside its own lock.
pub trait InboxWaker: Send + Sync {
    /// A window became ready (or a feeding port closed): the owning actor
    /// should be (re-)enqueued for execution.
    fn on_ready(&self);
    /// Queue space was freed on this inbox: writers parked on a full port
    /// may retry.
    fn on_space(&self);
}

#[derive(Debug)]
struct InboxState {
    /// Ready windows with each window's earliest wave-origin (µs,
    /// `u64::MAX` when the window carries no events) cached at push time.
    windows: VecDeque<(usize, u64, Window)>,
    open_ports: usize,
    /// Formed windows currently queued, per input port (the occupancy that
    /// bounded channel policies meter).
    per_port: Vec<usize>,
}

impl InboxState {
    fn depth_slot(&mut self, port: usize) -> &mut usize {
        if port >= self.per_port.len() {
            self.per_port.resize(port + 1, 0);
        }
        &mut self.per_port[port]
    }
}

/// Cached earliest origin of a window about to be queued (µs).
fn origin_key(window: &Window) -> u64 {
    window
        .earliest_origin()
        .map(|t| t.as_micros())
        .unwrap_or(u64::MAX)
}

/// The per-actor ready queue of formed windows.
pub struct ActorInbox {
    state: Mutex<InboxState>,
    /// The owning actor's thread waits here for a window or a close.
    ready: Condvar,
    /// Writers parked on a full port wait here; every pop (and every
    /// drop-shed, close, or capacity growth) notifies it.
    space: Condvar,
    /// Shared fabric-wide progress counter, bumped on every push and pop.
    /// The no-progress detector behind Parks-style deadlock relief reads it.
    progress: Arc<AtomicU64>,
    /// Earliest wave-origin (µs) of the window at the queue front —
    /// `u64::MAX` when no window is pending. Maintained under the state
    /// lock, readable without it: the O(1) staleness signal deadline-aware
    /// pool policies key on.
    oldest: AtomicU64,
    /// Optional task-executor hook, set once before the run starts.
    waker: std::sync::OnceLock<Arc<dyn InboxWaker>>,
}

impl std::fmt::Debug for ActorInbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorInbox")
            .field("state", &self.state)
            .field("has_waker", &self.waker.get().is_some())
            .finish()
    }
}

impl ActorInbox {
    /// An inbox fed by `input_ports` port receivers.
    pub fn new(input_ports: usize) -> Arc<Self> {
        Self::new_shared(input_ports, Arc::new(AtomicU64::new(0)))
    }

    /// An inbox wired to a fabric-wide progress counter.
    pub fn new_shared(input_ports: usize, progress: Arc<AtomicU64>) -> Arc<Self> {
        Arc::new(ActorInbox {
            state: Mutex::new(InboxState {
                windows: VecDeque::new(),
                open_ports: input_ports,
                per_port: vec![0; input_ports],
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            progress,
            oldest: AtomicU64::new(u64::MAX),
            waker: std::sync::OnceLock::new(),
        })
    }

    /// Install the task-executor hook. First caller wins; the thread-based
    /// directors never install one and pay nothing for the check.
    pub fn set_waker(&self, waker: Arc<dyn InboxWaker>) {
        let _ = self.waker.set(waker);
    }

    fn wake_ready(&self) {
        if let Some(w) = self.waker.get() {
            w.on_ready();
        }
    }

    fn wake_space(&self) {
        if let Some(w) = self.waker.get() {
            w.on_space();
        }
    }

    /// Re-publish the front window's cached origin (call with the state
    /// lock held, after any queue mutation).
    fn refresh_oldest(&self, st: &InboxState) {
        let front = st.windows.front().map(|(_, o, _)| *o).unwrap_or(u64::MAX);
        self.oldest.store(front, Ordering::Relaxed);
    }

    /// Earliest wave-origin among the events of the oldest pending window
    /// (the one the next firing will consume), or `None` when the inbox is
    /// empty or the window carries no events. O(1): the origin is cached
    /// at push time and published through an atomic.
    pub fn oldest_origin(&self) -> Option<Timestamp> {
        match self.oldest.load(Ordering::Relaxed) {
            u64::MAX => None,
            us => Some(Timestamp(us)),
        }
    }

    /// Visit the cached earliest wave-origin ([`Timestamp::ZERO`] for a
    /// window that carries no events) of each queued window past the
    /// oldest `skip`, in order, and return the queue length — how a
    /// scheduled director tells its policy of windows it leaves queued.
    pub fn origins_past(&self, skip: usize, mut visit: impl FnMut(Timestamp)) -> usize {
        let st = self.state.lock();
        let len = st.windows.len();
        for (_, origin, _) in st.windows.range(skip.min(len)..) {
            visit(Timestamp(if *origin == u64::MAX { 0 } else { *origin }));
        }
        len
    }

    /// Enqueue a formed window from input port `port`.
    pub fn push(&self, port: usize, window: Window) {
        let mut st = self.state.lock();
        *st.depth_slot(port) += 1;
        st.windows.push_back((port, origin_key(&window), window));
        self.refresh_oldest(&st);
        drop(st);
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
        self.wake_ready();
    }

    /// Enqueue a batch of formed windows from input port `port` under one
    /// lock acquisition, with one progress bump and one wakeup for the
    /// whole batch (the fabric's batched routing path).
    pub fn push_batch(&self, port: usize, windows: impl IntoIterator<Item = Window>) {
        let mut st = self.state.lock();
        let before = st.windows.len();
        for w in windows {
            let key = origin_key(&w);
            st.windows.push_back((port, key, w));
        }
        let pushed = st.windows.len() - before;
        if pushed == 0 {
            return;
        }
        *st.depth_slot(port) += pushed;
        self.refresh_oldest(&st);
        drop(st);
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
        self.wake_ready();
    }

    /// Re-inject windows at the *front* of the queue, preserving their
    /// relative order (window `i` of the batch will pop before `i + 1`
    /// and before everything already queued). Used when a quiescing
    /// director hands back windows an actor had staged but not consumed,
    /// so the checkpoint capture sees them ahead of newer arrivals.
    pub fn push_front_batch(&self, windows: Vec<(usize, Window)>) {
        if windows.is_empty() {
            return;
        }
        let mut st = self.state.lock();
        for (port, w) in windows.into_iter().rev() {
            *st.depth_slot(port) += 1;
            let key = origin_key(&w);
            st.windows.push_front((port, key, w));
        }
        self.refresh_oldest(&st);
        drop(st);
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
        self.wake_ready();
    }

    /// Take the oldest ready window.
    pub fn try_pop(&self) -> Option<(usize, Window)> {
        let mut st = self.state.lock();
        let popped = st.windows.pop_front();
        if let Some((port, _, _)) = &popped {
            let port = *port;
            release_drained(&mut st.windows);
            let slot = st.depth_slot(port);
            *slot = slot.saturating_sub(1);
            self.refresh_oldest(&st);
            drop(st);
            self.progress.fetch_add(1, Ordering::Relaxed);
            self.space.notify_all();
            self.wake_space();
        }
        popped.map(|(port, _, w)| (port, w))
    }

    /// Wait until a window is queued, every feeding port has closed, or
    /// `timeout` passes (the thread-based director's idle actor thread;
    /// it then steps again). Returns whether a window or the close is
    /// there.
    pub fn wait_ready(&self, timeout: std::time::Duration) -> bool {
        let mut st = self.state.lock();
        let ready = |st: &InboxState| !st.windows.is_empty() || st.open_ports == 0;
        if !ready(&st) {
            self.ready.wait_for(&mut st, timeout);
        }
        ready(&st)
    }

    /// Number of ready windows.
    pub fn len(&self) -> usize {
        self.state.lock().windows.len()
    }

    /// Whether no windows are ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Formed windows currently queued for input `port`.
    pub fn port_depth(&self, port: usize) -> usize {
        let st = self.state.lock();
        st.per_port.get(port).copied().unwrap_or(0)
    }

    /// Remove (shed) the oldest queued window belonging to `port`.
    pub fn drop_oldest(&self, port: usize) -> Option<Window> {
        let mut st = self.state.lock();
        let pos = st.windows.iter().position(|(p, _, _)| *p == port)?;
        let (_, _, w) = st.windows.remove(pos)?;
        let slot = st.depth_slot(port);
        *slot = slot.saturating_sub(1);
        self.refresh_oldest(&st);
        drop(st);
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.space.notify_all();
        self.wake_space();
        Some(w)
    }

    /// Wait until `port` has fewer than `capacity` queued windows, the
    /// timeout passes, or the inbox owner goes away. Returns whether space
    /// is available now.
    pub fn wait_for_space(
        &self,
        port: usize,
        capacity: usize,
        timeout: std::time::Duration,
    ) -> bool {
        let mut st = self.state.lock();
        loop {
            let depth = st.per_port.get(port).copied().unwrap_or(0);
            if depth < capacity {
                return true;
            }
            if self.space.wait_for(&mut st, timeout).timed_out() {
                let depth = st.per_port.get(port).copied().unwrap_or(0);
                return depth < capacity;
            }
        }
    }

    /// Wake writers parked on a full port (used after capacity growth).
    pub fn notify_space(&self) {
        self.space.notify_all();
        self.wake_space();
    }

    /// Mark one feeding port as closed (its upstream actors all finished).
    pub fn close_port(&self) {
        let mut st = self.state.lock();
        st.open_ports = st.open_ports.saturating_sub(1);
        drop(st);
        self.ready.notify_all();
        self.space.notify_all();
        self.wake_ready();
        self.wake_space();
    }

    /// Whether every feeding port has closed (more windows may still be
    /// queued).
    pub fn all_ports_closed(&self) -> bool {
        self.state.lock().open_ports == 0
    }

    /// Remove and return every queued window in order (checkpoint capture
    /// on a quiesced fabric). Counts as one progress step and wakes any
    /// space waiters, like a pop.
    pub fn drain_windows(&self) -> Vec<(usize, Window)> {
        let mut st = self.state.lock();
        if st.windows.is_empty() {
            return Vec::new();
        }
        let drained: Vec<(usize, Window)> =
            st.windows.drain(..).map(|(port, _, w)| (port, w)).collect();
        release_drained(&mut st.windows);
        for slot in st.per_port.iter_mut() {
            *slot = 0;
        }
        self.refresh_oldest(&st);
        drop(st);
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.space.notify_all();
        self.wake_space();
        drained
    }
}

/// Outcome of a capacity-aware [`PortReceiver::try_put`].
#[derive(Debug)]
pub enum TryPut {
    /// The event was admitted; this many windows were formed and forwarded
    /// to the inbox.
    Stored(usize),
    /// The event was admitted by shedding: `dropped` previously-queued
    /// events were discarded (0 when the *incoming* event was the one
    /// dropped), and `windows` new windows formed.
    Shed {
        /// Events discarded to make room (or the incoming event itself
        /// under [`OnFull::DropNewest`]).
        dropped: u64,
        /// Windows formed by the admitted event (0 under `DropNewest`).
        windows: usize,
    },
    /// The port is at capacity under [`OnFull::Block`]; the event is
    /// returned so the caller can wait for space and retry.
    Full(CwEvent),
}

/// The Windowed Receiver on one input port.
pub struct PortReceiver {
    op: Mutex<WindowOperator>,
    inbox: Arc<ActorInbox>,
    port: usize,
    /// Channels still feeding this port; when the count reaches zero the
    /// receiver flushes and closes its inbox port.
    remaining_upstreams: Mutex<usize>,
    /// Capacity bound and overflow behavior for this channel.
    policy: ChannelPolicy,
    /// Effective capacity: starts at the policy's bound and grows under
    /// Parks-style artificial-deadlock relief. `usize::MAX` when unbounded.
    effective_capacity: AtomicUsize,
}

impl std::fmt::Debug for PortReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortReceiver")
            .field("port", &self.port)
            .field("policy", &self.policy)
            .finish()
    }
}

impl PortReceiver {
    /// Build the receiver for input `port` of the actor owning `inbox`,
    /// with the given window semantics, fed by `upstreams` channels.
    pub fn new(
        spec: WindowSpec,
        inbox: Arc<ActorInbox>,
        port: usize,
        upstreams: usize,
    ) -> Result<Self> {
        Self::with_policy(spec, inbox, port, upstreams, ChannelPolicy::unbounded())
    }

    /// [`PortReceiver::new`] with an explicit channel capacity policy.
    pub fn with_policy(
        spec: WindowSpec,
        inbox: Arc<ActorInbox>,
        port: usize,
        upstreams: usize,
        policy: ChannelPolicy,
    ) -> Result<Self> {
        Ok(PortReceiver {
            op: Mutex::new(WindowOperator::new(spec)?),
            inbox,
            port,
            remaining_upstreams: Mutex::new(upstreams),
            policy,
            effective_capacity: AtomicUsize::new(policy.capacity_or_max()),
        })
    }

    /// See [`WindowOperator::wire`].
    pub(crate) fn wire(&self, expired_handler: bool, single_upstream: bool) {
        self.op.lock().wire(expired_handler, single_upstream);
    }

    /// The input port index this receiver serves.
    pub fn port(&self) -> usize {
        self.port
    }

    /// The channel policy attached to this port.
    pub fn policy(&self) -> &ChannelPolicy {
        &self.policy
    }

    /// The inbox this receiver forwards to.
    pub fn inbox(&self) -> &Arc<ActorInbox> {
        &self.inbox
    }

    /// Current effective capacity (policy bound, possibly grown by
    /// deadlock relief). `usize::MAX` when unbounded.
    pub fn effective_capacity(&self) -> usize {
        self.effective_capacity.load(Ordering::Relaxed)
    }

    /// Whether the port is bounded and currently at (or over) capacity.
    pub fn is_full(&self) -> bool {
        self.policy.is_bounded() && self.inbox.port_depth(self.port) >= self.effective_capacity()
    }

    /// Grow the effective capacity by the policy's original bound
    /// (artificial-deadlock relief). Returns the new capacity.
    pub fn grow_capacity(&self) -> usize {
        let step = self.policy.capacity_or_max().max(1);
        let new = self
            .effective_capacity
            .fetch_add(step, Ordering::Relaxed)
            .saturating_add(step);
        self.inbox.notify_space();
        new
    }

    /// The paper's `put()`: encapsulated event goes into the appropriate
    /// group queue; within the same call window semantics are evaluated and
    /// any produced window is forwarded to the actor's ready queue.
    /// Returns the number of windows produced.
    ///
    /// This path never blocks and never sheds: a full [`OnFull::Block`] /
    /// drop-policy port is admitted over capacity and [`OnFull::Error`]
    /// fails. Capacity orchestration (parking, shedding, relief) lives in
    /// the fabric, which goes through [`PortReceiver::try_put`] first.
    pub fn put(&self, event: CwEvent, now: Timestamp) -> Result<usize> {
        if self.policy.on_full == OnFull::Error && self.is_full() {
            return Err(Error::ChannelFull {
                port: self.port,
                capacity: self.effective_capacity(),
            });
        }
        self.put_unchecked(event, now)
    }

    /// Admit the event regardless of capacity.
    fn put_unchecked(&self, event: CwEvent, now: Timestamp) -> Result<usize> {
        let mut op = self.op.lock();
        let n = op.push(event, now)?;
        self.forward(&mut op, n);
        Ok(n)
    }

    /// Hand the `n` windows the operator has just formed to the inbox, in
    /// order: one lock and one wake-up for the lot.
    fn forward(&self, op: &mut WindowOperator, n: usize) {
        if n > 0 {
            let formed = (0..n).map(|_| op.pop_window().expect("the operator reported n windows"));
            self.inbox.push_batch(self.port, formed);
        }
    }

    /// Admit a whole firing's worth of events under a single operator-lock
    /// acquisition, forwarding all formed windows to the inbox in one
    /// batch. Capacity is not consulted — the fabric only takes this path
    /// for unbounded ports. Returns windows formed.
    ///
    /// On a mid-batch error the windows formed so far are still forwarded
    /// (matching the per-event path, which forwards as it goes) before the
    /// error is returned.
    pub fn put_batch(&self, events: Vec<CwEvent>, now: Timestamp) -> Result<usize> {
        let mut op = self.op.lock();
        let mut formed = 0;
        let mut failed = None;
        for event in events {
            match op.push(event, now) {
                Ok(n) => formed += n,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        self.forward(&mut op, formed);
        match failed {
            Some(e) => Err(e),
            None => Ok(formed),
        }
    }

    /// Capacity-aware put. On a full port, resolves according to the
    /// channel policy:
    ///
    /// * [`OnFull::Block`] — returns [`TryPut::Full`] with the event handed
    ///   back; the fabric parks it with the writing task, or admits it
    ///   anyway under cooperative directors;
    /// * [`OnFull::DropOldest`] — sheds the oldest queued window on this
    ///   port, then admits the event;
    /// * [`OnFull::DropNewest`] — discards the incoming event;
    /// * [`OnFull::Error`] — fails with [`Error::ChannelFull`].
    pub fn try_put(&self, event: CwEvent, now: Timestamp) -> Result<TryPut> {
        if !self.is_full() {
            return Ok(TryPut::Stored(self.put_unchecked(event, now)?));
        }
        match self.policy.on_full {
            OnFull::Block => Ok(TryPut::Full(event)),
            OnFull::DropOldest => {
                let dropped = self
                    .inbox
                    .drop_oldest(self.port)
                    .map(|w| w.len() as u64)
                    // Nothing queued to shed (capacity 0 edge): drop the
                    // incoming event instead.
                    .unwrap_or(0);
                if dropped == 0 {
                    return Ok(TryPut::Shed {
                        dropped: 1,
                        windows: 0,
                    });
                }
                let windows = self.put_unchecked(event, now)?;
                Ok(TryPut::Shed { dropped, windows })
            }
            OnFull::DropNewest => Ok(TryPut::Shed {
                dropped: 1,
                windows: 0,
            }),
            OnFull::Error => Err(Error::ChannelFull {
                port: self.port,
                capacity: self.effective_capacity(),
            }),
        }
    }

    /// Evaluate time-driven window production at director time `now`
    /// (window-timeout events). Returns windows produced.
    pub fn poll(&self, now: Timestamp) -> usize {
        let mut op = self.op.lock();
        let n = op.poll(now);
        self.forward(&mut op, n);
        n
    }

    /// Earliest time at which [`PortReceiver::poll`] could produce.
    pub fn next_deadline(&self) -> Option<Timestamp> {
        self.op.lock().next_deadline()
    }

    /// Events buffered in group queues.
    pub fn pending_events(&self) -> usize {
        self.op.lock().pending_events()
    }

    /// Groups the port's window operator currently keeps state for.
    pub fn group_count(&self) -> usize {
        self.op.lock().group_count()
    }

    /// Expired events queued for the port's handler activity.
    pub fn expired_len(&self) -> usize {
        self.op.lock().expired_len()
    }

    /// Snapshot this port's window-operator state and reset the operator
    /// to fresh (destructive checkpoint capture: the state is held once).
    pub fn take_op_snapshot(&self) -> crate::window::OperatorSnapshot {
        self.op.lock().take_snapshot()
    }

    /// Re-inject a captured window-operator snapshot into this (fresh)
    /// port. Fails if the operator has already buffered anything or the
    /// snapshot's window kind does not match.
    pub fn restore_op(&self, snapshot: crate::window::OperatorSnapshot) -> Result<()> {
        self.op.lock().restore(snapshot)
    }

    /// Drain expired events (for an expired-items handler activity).
    pub fn drain_expired(&self) -> Vec<CwEvent> {
        self.op.lock().drain_expired()
    }

    /// One upstream channel finished. When the last one does, remaining
    /// partial windows are flushed to the inbox and the inbox port closes.
    /// Returns the windows that flush formed if this call fully closed the
    /// receiver, `None` otherwise.
    ///
    /// Idempotent past zero: a close on an already-closed receiver (e.g. a
    /// double-close through the expired-queue cascade) is a no-op rather
    /// than an underflow — `debug_assert!` alone would let the decrement
    /// wrap in release builds.
    pub fn upstream_closed(&self, now: Timestamp) -> Option<usize> {
        let mut remaining = self.remaining_upstreams.lock();
        debug_assert!(*remaining > 0, "more closes than upstream channels");
        if *remaining == 0 {
            return None;
        }
        *remaining = remaining.saturating_sub(1);
        if *remaining > 0 {
            return None;
        }
        drop(remaining);
        let formed = self.flush(now);
        self.inbox.close_port();
        Some(formed)
    }

    /// Force the port's partial windows out to the inbox without closing
    /// it. Returns windows formed.
    pub fn flush(&self, now: Timestamp) -> usize {
        let mut op = self.op.lock();
        let n = op.flush(now);
        self.forward(&mut op, n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;

    fn ev(v: i64, ts: u64) -> CwEvent {
        CwEvent::external(Token::Int(v), Timestamp(ts))
    }

    #[test]
    fn put_forms_windows_into_inbox() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::new(WindowSpec::tuples(2, 2), inbox.clone(), 0, 1).unwrap();
        assert_eq!(r.put(ev(1, 0), Timestamp(0)).unwrap(), 0);
        assert!(inbox.is_empty());
        assert_eq!(r.put(ev(2, 1), Timestamp(1)).unwrap(), 1);
        let (port, w) = inbox.try_pop().unwrap();
        assert_eq!(port, 0);
        assert_eq!(w.len(), 2);
        assert_eq!(r.port(), 0);
    }

    #[test]
    fn poll_produces_timed_windows() {
        use crate::time::Micros;
        let inbox = ActorInbox::new(1);
        let spec = WindowSpec::tuples(10, 10).with_timeout(Micros(50));
        let r = PortReceiver::new(spec, inbox.clone(), 0, 1).unwrap();
        r.put(ev(1, 0), Timestamp(0)).unwrap();
        assert_eq!(r.next_deadline(), Some(Timestamp(50)));
        assert_eq!(r.poll(Timestamp(49)), 0);
        assert_eq!(r.poll(Timestamp(50)), 1);
        assert_eq!(inbox.len(), 1);
        assert_eq!(r.pending_events(), 0);
        assert_eq!(r.drain_expired().len(), 1);
    }

    #[test]
    fn close_flushes_and_closes_inbox() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::new(WindowSpec::tuples(10, 10), inbox.clone(), 0, 2).unwrap();
        r.put(ev(1, 0), Timestamp(0)).unwrap();
        assert_eq!(r.upstream_closed(Timestamp(5)), None);
        assert!(!inbox.all_ports_closed(), "one of two upstreams remains");
        assert_eq!(r.upstream_closed(Timestamp(6)), Some(1), "the flush formed one window");
        assert!(inbox.all_ports_closed());
        let (_, w) = inbox.try_pop().expect("flushed short window");
        assert!(w.timed_out);
        assert!(inbox.wait_ready(std::time::Duration::from_secs(5)), "closed and drained");
    }

    #[test]
    fn double_close_is_a_noop() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::new(WindowSpec::tuples(10, 10), inbox.clone(), 0, 1).unwrap();
        assert_eq!(r.upstream_closed(Timestamp(0)), Some(0));
        // A second close (release builds drop the debug_assert) must not
        // wrap the upstream count back to usize::MAX.
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(r.upstream_closed(Timestamp(1)), None);
            assert_eq!(r.upstream_closed(Timestamp(2)), None);
        }
        assert!(inbox.all_ports_closed());
    }

    #[test]
    fn wait_ready_wakes_on_push() {
        let inbox = ActorInbox::new(1);
        let inbox2 = inbox.clone();
        let t = std::thread::spawn(move || inbox2.wait_ready(std::time::Duration::from_secs(5)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        inbox.push(
            0,
            Window {
                events: vec![ev(1, 0)],
                formed_at: Timestamp(0),
                timed_out: false,
            },
        );
        assert!(t.join().unwrap(), "the push woke the waiter");
        let (port, w) = inbox.try_pop().expect("the window waits in the inbox");
        assert_eq!((port, w.len()), (0, 1));
    }

    #[test]
    fn wait_ready_times_out() {
        let inbox = ActorInbox::new(1);
        assert!(!inbox.wait_ready(std::time::Duration::from_millis(5)));
    }

    #[test]
    fn wait_ready_returns_on_close() {
        let inbox = ActorInbox::new(1);
        let inbox2 = inbox.clone();
        let t = std::thread::spawn(move || inbox2.wait_ready(std::time::Duration::from_secs(5)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        inbox.close_port();
        assert!(t.join().unwrap(), "the close woke the waiter");
        assert!(inbox.try_pop().is_none());
    }

    #[test]
    fn inbox_tracks_per_port_depth() {
        let inbox = ActorInbox::new(2);
        let r0 = PortReceiver::new(WindowSpec::each_event(), inbox.clone(), 0, 1).unwrap();
        let r1 = PortReceiver::new(WindowSpec::each_event(), inbox.clone(), 1, 1).unwrap();
        r0.put(ev(1, 0), Timestamp(0)).unwrap();
        r0.put(ev(2, 1), Timestamp(1)).unwrap();
        r1.put(ev(3, 2), Timestamp(2)).unwrap();
        assert_eq!(inbox.port_depth(0), 2);
        assert_eq!(inbox.port_depth(1), 1);
        inbox.try_pop().unwrap();
        assert_eq!(inbox.port_depth(0), 1);
        let shed = inbox.drop_oldest(1).expect("port 1 has a window");
        assert_eq!(shed.len(), 1);
        assert_eq!(inbox.port_depth(1), 0);
        assert!(inbox.drop_oldest(1).is_none());
    }

    #[test]
    fn oldest_origin_tracks_the_queue_front() {
        let inbox = ActorInbox::new(1);
        assert_eq!(inbox.oldest_origin(), None, "empty inbox has no origin");
        let r = PortReceiver::new(WindowSpec::each_event(), inbox.clone(), 0, 1).unwrap();
        r.put(ev(1, 100), Timestamp(100)).unwrap();
        r.put(ev(2, 50), Timestamp(100)).unwrap();
        assert_eq!(
            inbox.oldest_origin(),
            Some(Timestamp(100)),
            "front window's origin, not the global min"
        );
        inbox.try_pop().unwrap();
        assert_eq!(inbox.oldest_origin(), Some(Timestamp(50)));
        inbox.try_pop().unwrap();
        assert_eq!(inbox.oldest_origin(), None);
    }

    #[test]
    fn origins_past_reads_the_tail_without_popping() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::new(WindowSpec::each_event(), inbox.clone(), 0, 1).unwrap();
        for ts in [30, 10, 20] {
            r.put(ev(0, ts), Timestamp(ts)).unwrap();
        }
        inbox.push(0, Window { events: vec![], formed_at: Timestamp(40), timed_out: true });
        let mut seen = Vec::new();
        assert_eq!(inbox.origins_past(1, |o| seen.push(o)), 4);
        assert_eq!(seen, [Timestamp(10), Timestamp(20), Timestamp::ZERO], "an empty window reads as zero");
        assert_eq!(inbox.origins_past(9, |_| panic!("nothing lies past the end")), 4);
        assert_eq!(inbox.len(), 4, "nothing was taken");
    }

    #[test]
    fn try_put_blocks_at_capacity() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::with_policy(
            WindowSpec::each_event(),
            inbox.clone(),
            0,
            1,
            ChannelPolicy::block(2),
        )
        .unwrap();
        assert!(matches!(
            r.try_put(ev(1, 0), Timestamp(0)).unwrap(),
            TryPut::Stored(1)
        ));
        assert!(matches!(
            r.try_put(ev(2, 1), Timestamp(1)).unwrap(),
            TryPut::Stored(1)
        ));
        assert!(r.is_full());
        match r.try_put(ev(3, 2), Timestamp(2)).unwrap() {
            TryPut::Full(e) => assert_eq!(e.token, Token::Int(3)),
            other => panic!("expected Full, got {other:?}"),
        }
        inbox.try_pop().unwrap();
        assert!(!r.is_full());
        assert!(matches!(
            r.try_put(ev(3, 2), Timestamp(2)).unwrap(),
            TryPut::Stored(1)
        ));
    }

    #[test]
    fn try_put_sheds_oldest() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::with_policy(
            WindowSpec::each_event(),
            inbox.clone(),
            0,
            1,
            ChannelPolicy::drop_oldest(1),
        )
        .unwrap();
        r.try_put(ev(1, 0), Timestamp(0)).unwrap();
        match r.try_put(ev(2, 1), Timestamp(1)).unwrap() {
            TryPut::Shed { dropped, windows } => {
                assert_eq!(dropped, 1);
                assert_eq!(windows, 1);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        let (_, w) = inbox.try_pop().unwrap();
        assert_eq!(w.events[0].token, Token::Int(2), "oldest was shed");
    }

    #[test]
    fn try_put_drops_newest() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::with_policy(
            WindowSpec::each_event(),
            inbox.clone(),
            0,
            1,
            ChannelPolicy::drop_newest(1),
        )
        .unwrap();
        r.try_put(ev(1, 0), Timestamp(0)).unwrap();
        match r.try_put(ev(2, 1), Timestamp(1)).unwrap() {
            TryPut::Shed { dropped, windows } => {
                assert_eq!(dropped, 1);
                assert_eq!(windows, 0);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        let (_, w) = inbox.try_pop().unwrap();
        assert_eq!(w.events[0].token, Token::Int(1), "newest was dropped");
        assert!(inbox.try_pop().is_none());
    }

    #[test]
    fn try_put_errors_when_full() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::with_policy(
            WindowSpec::each_event(),
            inbox.clone(),
            0,
            1,
            ChannelPolicy::error(1),
        )
        .unwrap();
        r.try_put(ev(1, 0), Timestamp(0)).unwrap();
        assert!(matches!(
            r.try_put(ev(2, 1), Timestamp(1)),
            Err(Error::ChannelFull { port: 0, capacity: 1 })
        ));
        assert!(matches!(
            r.put(ev(2, 1), Timestamp(1)),
            Err(Error::ChannelFull { .. })
        ));
    }

    #[test]
    fn grow_capacity_relieves_full_port() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::with_policy(
            WindowSpec::each_event(),
            inbox.clone(),
            0,
            1,
            ChannelPolicy::block(1),
        )
        .unwrap();
        r.try_put(ev(1, 0), Timestamp(0)).unwrap();
        assert!(r.is_full());
        assert_eq!(r.grow_capacity(), 2);
        assert!(!r.is_full());
        assert!(matches!(
            r.try_put(ev(2, 1), Timestamp(1)).unwrap(),
            TryPut::Stored(1)
        ));
    }

    #[test]
    fn wait_for_space_wakes_on_pop() {
        let inbox = ActorInbox::new(1);
        let r = PortReceiver::with_policy(
            WindowSpec::each_event(),
            inbox.clone(),
            0,
            1,
            ChannelPolicy::block(1),
        )
        .unwrap();
        r.try_put(ev(1, 0), Timestamp(0)).unwrap();
        let inbox2 = inbox.clone();
        let t = std::thread::spawn(move || {
            inbox2.wait_for_space(0, 1, std::time::Duration::from_secs(5))
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        inbox.try_pop().unwrap();
        assert!(t.join().unwrap(), "waiter saw the freed slot");
    }
}
