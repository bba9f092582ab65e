//! The window operator: runs on an input queue, forms windows.
//!
//! One [`WindowOperator`] is attached to each windowed input port. Events
//! are pushed in arrival order; the operator partitions them into per-group
//! queues, forms windows according to the [`WindowSpec`], appends produced
//! windows to a ready queue, and pushes events that slide out of scope (or
//! are consumed under `delete_used_events`) to the expired-items queue.
//!
//! What the operator holds follows what its windows currently cover: the
//! expired-items queue exists only where something drains it, a group with
//! no state left is removed ([`WindowOperator::retire_at`]), a group's
//! buffer is as long as its contents while those are few, and neither a
//! group nor a window keeps a key of its own ([`WindowOperator::rekey`]).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::event::CwEvent;
use crate::postable::PosTable;
use crate::time::{Micros, Timestamp};
use crate::token::Token;
use crate::wave::WaveTracker;

use super::{release_drained, GroupBy, KeyPositions, KeyProbe, Measure, Window, WindowSpec};

/// Window-forming state machine for one input port.
#[derive(Debug)]
pub struct WindowOperator {
    spec: WindowSpec,
    kind: Kind,
    groups: Groups,
    /// Groups created so far; a group's `born` is its place in the
    /// deterministic flush and snapshot order.
    born: u64,
    ready: VecDeque<Window>,
    /// The expired-items queue; `None` once the fabric has found no
    /// handler attached to the port.
    expired: Option<VecDeque<CwEvent>>,
    pending: usize,
    /// Incremental deadline index: poll time → ids of the groups due at
    /// that time. Keeps [`WindowOperator::next_deadline`] O(1) and
    /// [`WindowOperator::poll`] proportional to the *due* groups only —
    /// essential when group-by fans out to thousands of queues.
    deadline_index: BTreeMap<Timestamp, Vec<u32>>,
    /// Where the group-by fields sit in the input records' schema.
    key_positions: KeyPositions,
    /// Whether event timestamps are known to arrive in non-decreasing
    /// order (one upstream channel): the precondition for evicting time
    /// groups.
    ordered: bool,
    /// Highest event timestamp seen so far (µs).
    high: u64,
    /// Ids of empty time groups waiting for `high` to reach the key they
    /// are filed under, at which point they are evicted.
    retiring: BTreeMap<u64, Vec<u32>>,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Tuples { size: usize, step: usize },
    Time { size: u64, step: u64 },
    Wave,
}

/// A group's `deadline` while it has no entry in the deadline index.
const NO_DEADLINE: u64 = u64::MAX;

#[derive(Debug)]
struct Group {
    /// What the group's key is read from ([`WindowOperator::rekey`]); the
    /// directory, the deadline index and the retiring list use the id.
    key: Token,
    born: u64,
    /// The poll time (µs) this group is filed under in the deadline index,
    /// or [`NO_DEADLINE`].
    deadline: u64,
    state: GroupState,
}

#[derive(Debug)]
enum GroupState {
    Tuples(TupleGroup),
    Time(TimeGroup),
    Wave(WaveGroup),
}

#[derive(Debug, Default)]
struct TupleGroup {
    /// Buffered events; the front event has logical sequence `front_seq`.
    events: VecDeque<CwEvent>,
    /// Sequence number of the front of `events` (of the next event to
    /// arrive, when there is none): the next event's is
    /// `front_seq + events.len()`.
    front_seq: u64,
    /// Sequence at which the next window starts; never below `front_seq`.
    next_start: u64,
}

#[derive(Debug, Default)]
struct TimeGroup {
    /// Buffered events, kept sorted by event timestamp.
    events: VecDeque<CwEvent>,
    /// Highest event time observed (arrival watermark).
    watermark: u64,
    /// Index of the next window to close: window k covers `[k*step, k*step+size)`.
    next_k: u64,
}

#[derive(Debug, Default)]
struct WaveGroup {
    /// Per-wave trackers and buffered events, keyed by wave origin.
    waves: BTreeMap<Timestamp, (WaveTracker, Vec<CwEvent>)>,
}

/// Groups per arena chunk.
const CHUNK: usize = 256;

/// The groups of one operator: an arena of [`Group`]s behind a directory
/// of their ids. A group's id is its place in the arena and never changes
/// while the group lives (a removed group's id goes to a later group); the
/// arena grows a chunk at a time, so it never copies the groups there are
/// nor reserves room for as many again. The directory holds eight bytes an
/// id and reads a group's key out of the group ([`KeyProbe::matches`]).
#[derive(Debug, Default)]
struct Groups {
    chunks: Vec<Vec<Option<Group>>>,
    /// Ids of the vacant slots.
    free: Vec<u32>,
    dir: PosTable,
}

impl Groups {
    fn len(&self) -> usize {
        self.dir.len()
    }

    /// The live group with this id. Ids in the retiring list may have
    /// outlived their group.
    fn get(&self, id: u32) -> Option<&Group> {
        self.chunks.get(id as usize / CHUNK)?.get(id as usize % CHUNK)?.as_ref()
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut Group> {
        self.chunks.get_mut(id as usize / CHUNK)?.get_mut(id as usize % CHUNK)?.as_mut()
    }

    /// The group whose key `probe` (of hash `hash`) stands for.
    fn find(&self, probe: &KeyProbe<'_>, hash: u64) -> Option<u32> {
        self.dir
            .find(hash, |id| self.get(id).is_some_and(|group| probe.matches(&group.key)))
    }

    /// Add a group whose key (of hash `hash`) no group has.
    fn insert(&mut self, hash: u64, group: Group) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            if self.chunks.last().is_none_or(|chunk| chunk.len() == CHUNK) {
                // The first chunk grows with its contents (an ungrouped
                // port has one group); later ones come whole.
                let capacity = if self.chunks.is_empty() { 0 } else { CHUNK };
                self.chunks.push(Vec::with_capacity(capacity));
            }
            let last = self.chunks.len() - 1;
            self.chunks[last].push(None);
            u32::try_from(last * CHUNK + self.chunks[last].len() - 1).expect("fewer than 2^32 groups")
        });
        self.chunks[id as usize / CHUNK][id as usize % CHUNK] = Some(group);
        self.dir.insert(hash, id);
        id
    }

    fn remove(&mut self, id: u32, hash: u64) {
        if self.chunks[id as usize / CHUNK][id as usize % CHUNK].take().is_some() {
            self.dir.remove(hash, id);
            self.free.push(id);
        }
    }

    /// Live group ids, oldest group first.
    fn ids_by_birth(&self) -> Vec<u32> {
        let slots = self.chunks.iter().flatten().enumerate();
        let mut ids: Vec<(u64, u32)> = slots
            .filter_map(|(id, slot)| Some((slot.as_ref()?.born, id as u32)))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }
}

impl Group {
    fn new(key: Token, born: u64, kind: Kind) -> Group {
        Group {
            key,
            born,
            deadline: NO_DEADLINE,
            state: match kind {
                Kind::Tuples { .. } => GroupState::Tuples(TupleGroup::default()),
                Kind::Time { .. } => GroupState::Time(TimeGroup::default()),
                Kind::Wave => GroupState::Wave(WaveGroup::default()),
            },
        }
    }
}

impl WindowOperator {
    /// Build an operator for a validated spec.
    pub fn new(spec: WindowSpec) -> Result<Self> {
        spec.validate()?;
        let kind = match (spec.size, spec.step) {
            (Measure::Tuples(size), Measure::Tuples(step)) => Kind::Tuples { size, step },
            (Measure::Time(size), Measure::Time(step)) => Kind::Time {
                size: size.as_micros(),
                step: step.as_micros(),
            },
            (Measure::Wave, _) => Kind::Wave,
            _ => unreachable!("validate() rejects mixed measures"),
        };
        Ok(WindowOperator {
            spec,
            kind,
            groups: Groups::default(),
            born: 0,
            ready: VecDeque::new(),
            expired: Some(VecDeque::new()),
            pending: 0,
            deadline_index: BTreeMap::new(),
            key_positions: None,
            ordered: false,
            high: 0,
            retiring: BTreeMap::new(),
        })
    }

    /// The specification this operator implements.
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// What the fabric knows of the port from the graph. Without a handler
    /// activity to drain the expired-items queue, events are dropped as
    /// they expire. With a single upstream channel, event timestamps never
    /// decrease and empty time groups may be evicted
    /// ([`WindowOperator::retire_at`]).
    pub(crate) fn wire(&mut self, expired_handler: bool, single_upstream: bool) {
        if !expired_handler {
            self.expired = None;
        }
        self.ordered = single_upstream;
    }

    /// Push one event (arrival time = director time `now`). Any windows the
    /// event completes are appended to the ready queue; returns how many.
    pub fn push(&mut self, event: CwEvent, now: Timestamp) -> Result<usize> {
        if self.ordered {
            self.high = self.high.max(event.timestamp.as_micros());
            self.evict_retired();
        }
        let id = {
            let probe = self.spec.group_by.probe(&event.token, &mut self.key_positions)?;
            let hash = probe.hash();
            match self.groups.find(&probe, hash) {
                Some(id) => id,
                None => {
                    self.born += 1;
                    let key = if let KeyProbe::Built(key) = probe { key } else { event.token.clone() };
                    self.groups.insert(hash, Group::new(key, self.born, self.kind))
                }
            }
        };
        let produced_before = self.ready.len();
        let kind = self.kind;
        let delete_used = self.spec.delete_used_events;
        let mut out = Emitted {
            ready: &mut self.ready,
            expired: self.expired.as_mut(),
            pending_delta: 0,
        };
        let state = &mut self.groups.get_mut(id).expect("found or created above").state;
        let was_empty = matches!(state, GroupState::Time(g) if g.events.is_empty());
        match (state, kind) {
            // In the gap windows with `step > size` leave between them: no
            // window will cover the event. (It counts as +1 pending below;
            // expire() balances that.)
            (GroupState::Tuples(g), _) if g.events.is_empty() && g.front_seq < g.next_start => {
                out.expire(&event);
                g.front_seq += 1;
            }
            (GroupState::Tuples(g), Kind::Tuples { size, step }) => {
                fit_one(&mut g.events);
                g.events.push_back(event);
                g.try_emit(size, step, delete_used, now, &mut out);
            }
            (GroupState::Time(g), Kind::Time { size, step }) => g.push(event, size, step, delete_used, now, &mut out),
            (GroupState::Wave(g), Kind::Wave) => g.push(event, now, &mut out),
            _ => unreachable!("group state kind matches operator kind"),
        }
        self.pending = (self.pending as i64 + 1 + out.pending_delta) as usize;
        self.settle(id, was_empty);
        Ok(self.ready.len() - produced_before)
    }

    /// Per-group poll: close what is due for one group at `now`.
    fn poll_group(&mut self, id: u32, now: Timestamp) {
        let kind = self.kind;
        let delete_used = self.spec.delete_used_events;
        let timeout = self.spec.timeout;
        let Some(Group { state, .. }) = self.groups.get_mut(id) else {
            return;
        };
        let mut out = Emitted {
            ready: &mut self.ready,
            expired: self.expired.as_mut(),
            pending_delta: 0,
        };
        match (state, kind) {
            (GroupState::Tuples(g), Kind::Tuples { size, step }) => {
                g.poll(size, step, delete_used, timeout, now, &mut out);
            }
            (GroupState::Time(g), Kind::Time { size, step }) => {
                g.advance_watermark(now.as_micros(), size, step, delete_used, now, &mut out);
            }
            (GroupState::Wave(g), Kind::Wave) => g.poll(timeout, now, &mut out),
            _ => unreachable!(),
        }
        self.pending = (self.pending as i64 + out.pending_delta) as usize;
    }

    /// Earliest poll time at which one group could produce.
    fn group_deadline_of(&self, group: &Group) -> Option<Timestamp> {
        let timeout = self.spec.timeout;
        match (&group.state, self.kind) {
            (GroupState::Tuples(g), Kind::Tuples { .. }) => {
                let t = timeout?;
                let from = (g.next_start.saturating_sub(g.front_seq)) as usize;
                g.events.get(from).map(|e| e.timestamp.plus(t))
            }
            (GroupState::Time(g), Kind::Time { size, step }) => {
                let first = g.events.front()?;
                // Close time of the first non-empty window still open.
                let ts = first.timestamp.as_micros();
                let k_lo = if ts < size { 0 } else { (ts - size) / step + 1 };
                // (The clock closes time windows; a formation timeout has
                // nothing to force out of them.)
                Some(Timestamp(g.next_k.max(k_lo) * step + size))
            }
            (GroupState::Wave(g), Kind::Wave) => {
                let t = timeout?;
                g.waves
                    .values()
                    .filter_map(|(_, events)| events.first())
                    .map(|e| e.timestamp.plus(t))
                    .min()
            }
            _ => unreachable!(),
        }
    }

    /// After a push or poll touched group `id`: bring its entry in the
    /// deadline index up to date, and let go of it if it has no state left.
    /// `was_empty` says a time group held no event before the call either
    /// (a late event reached it): it is filed for eviction already.
    fn settle(&mut self, id: u32, was_empty: bool) {
        let Some(group) = self.groups.get(id) else {
            return;
        };
        let old = group.deadline;
        let new = self.group_deadline_of(group).map_or(NO_DEADLINE, |t| t.as_micros());
        let retire_at = self.retire_at(group);
        if new != old {
            let filed = (old != NO_DEADLINE).then(|| self.deadline_index.get_mut(&Timestamp(old)));
            if let Some(ids) = filed.flatten() {
                ids.retain(|held| *held != id);
                if ids.is_empty() {
                    self.deadline_index.remove(&Timestamp(old));
                }
            }
            if new != NO_DEADLINE {
                self.deadline_index.entry(Timestamp(new)).or_default().push(id);
            }
            self.groups.get_mut(id).expect("looked up above").deadline = new;
        }
        match retire_at {
            Some(at) if at <= self.high => self.remove(id),
            Some(at) if !was_empty => self.retiring.entry(at).or_default().push(id),
            Some(_) => {}
            None => self.rekey(id),
        }
    }

    /// Under `GroupBy::Fields` a group holds its newest buffered event's
    /// token for its key or, kept with none buffered (a time group on a port
    /// of several upstream channels, a tuple group in a `step > size` gap),
    /// a key record, so as to pin no event. Other groups hold their key.
    fn rekey(&mut self, id: u32) {
        let GroupBy::Fields(schema) = &self.spec.group_by else { return };
        let group = self.groups.get_mut(id).expect("settled group lives");
        let newest = match &group.state {
            GroupState::Tuples(TupleGroup { events, .. }) | GroupState::Time(TimeGroup { events, .. }) => events.back(),
            GroupState::Wave(g) => g.waves.values().next_back().and_then(|(_, events)| events.last()),
        };
        group.key = match newest {
            Some(event) => event.token.clone(),
            None if matches!(&group.key, Token::Record(key) if Arc::ptr_eq(key.schema(), schema)) => return,
            None => self.spec.group_by.key_of(&group.key).expect("a held event has the key fields"),
        };
    }

    /// Remove a group, its key's hash read off the token it holds.
    fn remove(&mut self, id: u32) {
        let Some(group) = self.groups.get(id) else { return };
        let probe = self.spec.group_by.probe_held(&group.key, &mut self.key_positions);
        let hash = probe.expect("a held key probes as the event it came from").hash();
        self.groups.remove(id, hash);
    }

    /// The `high` from which a group that holds nothing but its key can be
    /// removed; `None` while it holds more.
    ///
    /// A wave group is its open waves: with none left it goes at once. So
    /// does a tuple group with no event buffered and none to skip before
    /// its next window (its counters only mean something relative to each
    /// other), except an ungrouped port's, whose place no other key will
    /// want. An empty time group still says which
    /// windows it has closed (`next_k` decides which later events are
    /// late), so it goes only on an ordered port, once the port has
    /// accepted an event at or past the end of the last window the group
    /// closed (and the start of the next, when `size < step`). Every later
    /// event is past that time too: its first window is one the group has
    /// not closed, and a group created afresh for it emits and expires
    /// what the retained one would have.
    fn retire_at(&self, group: &Group) -> Option<u64> {
        let grouped = !matches!(self.spec.group_by, GroupBy::None);
        match (&group.state, self.kind) {
            (GroupState::Wave(g), _) if g.waves.is_empty() => Some(0),
            (GroupState::Tuples(g), _) if grouped && g.events.is_empty() && g.front_seq == g.next_start => {
                Some(0)
            }
            (GroupState::Time(g), Kind::Time { size, step }) if self.ordered && g.events.is_empty() => {
                Some(g.next_k * step + size.saturating_sub(step))
            }
            _ => None,
        }
    }

    /// Evict the groups filed under a `high` that has now been reached. An
    /// entry is a hint: a group that has buffered events or closed further
    /// windows since stays (and is filed again when it empties), and an id
    /// whose group went another way may by now be a later group's — which
    /// goes only if it is due itself.
    fn evict_retired(&mut self) {
        while let Some(entry) = self.retiring.first_entry().filter(|e| *e.key() <= self.high) {
            for id in entry.remove() {
                let due = self.groups.get(id).and_then(|g| self.retire_at(g));
                if due.is_some_and(|at| at <= self.high) {
                    self.remove(id);
                }
            }
        }
    }

    /// Advance director time: close any windows whose boundary or formation
    /// timeout has passed. Returns how many windows were produced.
    ///
    /// For time windows this treats `now` as a watermark (processing time
    /// drives event-time closure, which is exact in virtual-time runs where
    /// sources release events at their timestamps). For tuple and wave
    /// windows only the explicit formation timeout applies.
    pub fn poll(&mut self, now: Timestamp) -> usize {
        let produced_before = self.ready.len();
        while let Some(due) = self.deadline_index.first_entry().filter(|e| *e.key() <= now) {
            let ids = due.remove();
            for &id in &ids {
                if let Some(group) = self.groups.get_mut(id) {
                    group.deadline = NO_DEADLINE;
                }
            }
            for id in ids {
                self.poll_group(id, now);
                self.settle(id, false);
            }
        }
        self.ready.len() - produced_before
    }

    /// The earliest director time at which [`WindowOperator::poll`] could
    /// produce a window, if any events are buffered. Directors register a
    /// "window timeout event" at this time (paper §3, TM Windowed Receiver).
    pub fn next_deadline(&self) -> Option<Timestamp> {
        self.deadline_index.keys().next().copied()
    }

    /// End-of-stream: force every buffered event out in final windows.
    ///
    /// Tuple and wave groups emit their remainders as short (`timed_out`)
    /// windows; time groups close every window containing buffered events
    /// (their content is final once the stream ends, so they are not marked
    /// timed-out). Groups are walked oldest first. Returns how many windows
    /// were produced.
    pub fn flush(&mut self, now: Timestamp) -> usize {
        if self.pending == 0 {
            debug_assert!(self.deadline_index.is_empty(), "a deadline is an event's");
            return 0;
        }
        let produced_before = self.ready.len();
        let kind = self.kind;
        let delete_used = self.spec.delete_used_events;
        let mut out = Emitted {
            ready: &mut self.ready,
            expired: self.expired.as_mut(),
            pending_delta: 0,
        };
        for id in self.groups.ids_by_birth() {
            let group = self.groups.get_mut(id).expect("id of a live group");
            group.deadline = NO_DEADLINE;
            match (&mut group.state, kind) {
                // Each emptied buffer is handed back as the flush goes, so
                // closing a port with many groups does not hold every
                // group's buffer beside the windows it emits.
                (GroupState::Tuples(g), Kind::Tuples { .. }) => {
                    g.emit_rest(now, &mut out);
                    if g.events.is_empty() {
                        g.events = VecDeque::new();
                    }
                }
                (GroupState::Time(g), Kind::Time { size, step }) => {
                    if let Some(last) = g.events.back() {
                        // Close through the last window containing the last
                        // buffered event.
                        let k_hi = last.timestamp.as_micros() / step;
                        let end = k_hi * step + size;
                        g.advance_watermark(end, size, step, delete_used, now, &mut out);
                        // Whatever remains buffered can never be emitted
                        // again (stream is over): expire it.
                        for ev in g.events.drain(..) {
                            out.expire(&ev);
                        }
                        g.events = VecDeque::new();
                    }
                }
                (GroupState::Wave(g), Kind::Wave) => {
                    for (_, (_, events)) in std::mem::take(&mut g.waves) {
                        out.pending_delta -= events.len() as i64;
                        out.emit(events, now, true);
                    }
                }
                _ => unreachable!(),
            }
        }
        self.pending = (self.pending as i64 + out.pending_delta) as usize;
        // Everything buffered has been emitted or expired: no deadlines
        // remain.
        self.deadline_index.clear();
        self.ready.len() - produced_before
    }

    /// Take the next ready window, if any.
    pub fn pop_window(&mut self) -> Option<Window> {
        let window = self.ready.pop_front();
        release_drained(&mut self.ready);
        window
    }

    /// Number of events buffered in group queues (not yet in any emitted
    /// window for consuming specs).
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// Number of groups the operator currently keeps state for.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Drain the expired-items queue (optionally handled by another
    /// workflow activity).
    pub fn drain_expired(&mut self) -> Vec<CwEvent> {
        self.expired.iter_mut().flat_map(|q| q.drain(..)).collect()
    }

    /// Number of expired events awaiting drainage.
    pub fn expired_len(&self) -> usize {
        self.expired.as_ref().map_or(0, VecDeque::len)
    }

    /// Serialize the operator's full state for a checkpoint: every group's
    /// buffered events and progress counters (oldest group first), plus
    /// any formed-but-unconsumed and expired-but-undrained events.
    pub fn snapshot(&self) -> OperatorSnapshot {
        let groups = self
            .groups
            .ids_by_birth()
            .into_iter()
            .map(|id| {
                let group = self.groups.get(id).expect("id of a live group");
                let key = self.spec.group_by.held_key(&group.key, &self.key_positions);
                match &group.state {
                    GroupState::Tuples(g) => GroupSnapshot::Tuples {
                        key,
                        events: g.events.iter().cloned().collect(),
                        front_seq: g.front_seq,
                        next_seq: g.front_seq + g.events.len() as u64,
                        next_start: g.next_start,
                    },
                    GroupState::Time(g) => GroupSnapshot::Time {
                        key,
                        events: g.events.iter().cloned().collect(),
                        watermark: g.watermark,
                        next_k: g.next_k,
                    },
                    GroupState::Wave(g) => GroupSnapshot::Wave {
                        key,
                        // Per-origin buffers flattened in origin order; restore
                        // re-observes each tag to rebuild the trackers (tracker
                        // state is a pure fold of `observe`).
                        events: g
                            .waves
                            .values()
                            .flat_map(|(_, events)| events.iter().cloned())
                            .collect(),
                    },
                }
            })
            .collect();
        OperatorSnapshot {
            groups,
            ready: self.ready.iter().cloned().collect(),
            expired: self.expired.iter().flatten().cloned().collect(),
        }
    }

    /// Serialize like [`WindowOperator::snapshot`], then reset this
    /// operator to fresh. Used for destructive checkpoint capture on a
    /// quiesced fabric, so the captured state is held only once.
    pub fn take_snapshot(&mut self) -> OperatorSnapshot {
        let snap = self.snapshot();
        self.groups = Groups::default();
        self.ready.clear();
        if let Some(q) = &mut self.expired {
            q.clear();
        }
        self.pending = 0;
        self.deadline_index.clear();
        self.retiring.clear();
        snap
    }

    /// Restore state captured by [`WindowOperator::snapshot`] into a fresh
    /// operator built from the same [`WindowSpec`]. Rebuilds the pending
    /// count and the deadline index from the restored groups. Expired
    /// events in the snapshot of a port that keeps no expired-items queue
    /// (an older snapshot) are discarded.
    pub fn restore(&mut self, snap: OperatorSnapshot) -> Result<()> {
        if self.groups.len() != 0 || !self.ready.is_empty() || self.expired_len() != 0 {
            return Err(Error::Checkpoint(
                "window operator restore requires a fresh operator".into(),
            ));
        }
        let mut pending = 0usize;
        for group in snap.groups {
            let (key, state) = match (group, self.kind) {
                (
                    GroupSnapshot::Tuples {
                        key,
                        events,
                        front_seq,
                        next_seq: _,
                        next_start,
                    },
                    Kind::Tuples { .. },
                ) => {
                    pending += events.len();
                    (
                        key,
                        GroupState::Tuples(TupleGroup {
                            events: events.into(),
                            front_seq,
                            next_start,
                        }),
                    )
                }
                (
                    GroupSnapshot::Time {
                        key,
                        events,
                        watermark,
                        next_k,
                    },
                    Kind::Time { .. },
                ) => {
                    pending += events.len();
                    (
                        key,
                        GroupState::Time(TimeGroup {
                            events: events.into(),
                            watermark,
                            next_k,
                        }),
                    )
                }
                (GroupSnapshot::Wave { key, events }, Kind::Wave) => {
                    pending += events.len();
                    let mut g = WaveGroup::default();
                    for event in events {
                        let entry = g
                            .waves
                            .entry(event.wave.origin())
                            .or_insert_with(|| (WaveTracker::new(), Vec::new()));
                        entry.0.observe(&event.wave);
                        entry.1.push(event);
                    }
                    (key, GroupState::Wave(g))
                }
                _ => {
                    return Err(Error::Checkpoint(
                        "window snapshot group kind does not match the port's window spec".into(),
                    ))
                }
            };
            let probe = self.spec.group_by.probe_held(&key, &mut self.key_positions)?;
            let hash = probe.hash();
            if self.groups.find(&probe, hash).is_some() {
                return Err(Error::Checkpoint("duplicate group key in snapshot".into()));
            }
            self.born += 1;
            let group = Group {
                key,
                born: self.born,
                deadline: NO_DEADLINE,
                state,
            };
            let id = self.groups.insert(hash, group);
            self.settle(id, false);
        }
        self.pending = pending;
        self.ready.extend(snap.ready);
        if let Some(q) = &mut self.expired {
            q.extend(snap.expired);
        }
        Ok(())
    }
}

/// Serializable state of one window-operator group (see
/// [`WindowOperator::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub enum GroupSnapshot {
    /// A tuple-window group: buffered events plus sequence counters.
    Tuples {
        /// Group key.
        key: Token,
        /// Buffered events in arrival order.
        events: Vec<CwEvent>,
        /// Sequence number of the front buffered event.
        front_seq: u64,
        /// Sequence number of the next event to arrive: `front_seq` plus
        /// the buffered events. Not read on restore.
        next_seq: u64,
        /// Sequence at which the next window starts.
        next_start: u64,
    },
    /// A time-window group: buffered events plus watermark progress.
    Time {
        /// Group key.
        key: Token,
        /// Buffered events sorted by event time.
        events: Vec<CwEvent>,
        /// Highest event time observed.
        watermark: u64,
        /// Index of the next window to close.
        next_k: u64,
    },
    /// A wave-window group: buffered events of every open wave (trackers
    /// are rebuilt by re-observing the tags on restore).
    Wave {
        /// Group key.
        key: Token,
        /// Buffered events, grouped by origin, in arrival order.
        events: Vec<CwEvent>,
    },
}

/// Serializable state of a whole window operator — one windowed input
/// port's buffered partial windows, formed-but-unconsumed windows, and
/// undrained expired events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OperatorSnapshot {
    /// Per-group state, in first-arrival group order.
    pub groups: Vec<GroupSnapshot>,
    /// Formed windows not yet consumed from the operator.
    pub ready: Vec<Window>,
    /// Expired events not yet drained.
    pub expired: Vec<CwEvent>,
}

/// Emission sink threaded through group-state methods.
struct Emitted<'a> {
    ready: &'a mut VecDeque<Window>,
    expired: Option<&'a mut VecDeque<CwEvent>>,
    /// Net change to the operator's pending-event count produced by the
    /// call (removals are negative), excluding the pushed event itself.
    pending_delta: i64,
}

impl Emitted<'_> {
    fn emit(&mut self, events: Vec<CwEvent>, now: Timestamp, timed_out: bool) {
        self.ready.push_back(Window {
            events,
            formed_at: now,
            timed_out,
        });
    }

    /// `event` has left its group's buffer for good: it is copied to the
    /// expired-items queue where there is one (the caller may still move
    /// the event itself into the window it completes).
    fn expire(&mut self, event: &CwEvent) {
        if let Some(q) = &mut self.expired {
            q.push_back(event.clone());
        }
        self.pending_delta -= 1;
    }
}

/// Make room for one more event in a group's buffer: exactly that while
/// it holds fewer than four (most groups hold one to three, and a fresh
/// buffer's least capacity is four), amortised from there on.
fn fit_one(events: &mut VecDeque<CwEvent>) {
    if events.len() == events.capacity() && events.len() < 4 {
        events.reserve_exact(1);
    }
}

impl TupleGroup {
    /// Emit every full window currently formable.
    fn try_emit(&mut self, size: usize, step: usize, delete_used: bool, now: Timestamp, out: &mut Emitted<'_>) {
        let hop = if delete_used { step.max(size) } else { step };
        // The next window covers sequences [next_start, next_start + size).
        while self.front_seq + self.events.len() as u64 >= self.next_start + size as u64 {
            self.emit(size, hop, false, now, out);
        }
    }

    /// Emit the window of up to `size` events from `next_start` on and
    /// advance the start by `hop`. Events that fall below the new start
    /// leave the buffer: they are moved into the window, the ones the next
    /// window will see again are copied.
    fn emit(&mut self, size: usize, hop: usize, timed_out: bool, now: Timestamp, out: &mut Emitted<'_>) {
        let from = (self.next_start.saturating_sub(self.front_seq)) as usize;
        self.next_start += hop as u64;
        let leaving = (self.next_start.saturating_sub(self.front_seq) as usize).min(self.events.len());
        let mut events = Vec::with_capacity(size.min(self.events.len().saturating_sub(from)));
        for (i, ev) in self.events.drain(..leaving).enumerate() {
            out.expire(&ev);
            if i >= from && events.len() < size {
                events.push(ev);
            }
        }
        let staying = self.events.iter().skip(from.saturating_sub(leaving));
        events.extend(staying.take(size - events.len()).cloned());
        self.front_seq += leaving as u64;
        out.emit(events, now, timed_out);
    }

    /// Emit everything from `next_start` on as one short window, so that
    /// it is not emitted again.
    fn emit_rest(&mut self, now: Timestamp, out: &mut Emitted<'_>) {
        let from = (self.next_start.saturating_sub(self.front_seq)) as usize;
        if let Some(count) = self.events.len().checked_sub(from).filter(|c| *c > 0) {
            self.emit(count, count, true, now, out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn poll(
        &mut self,
        size: usize,
        step: usize,
        delete_used: bool,
        timeout: Option<Micros>,
        now: Timestamp,
        out: &mut Emitted<'_>,
    ) {
        let Some(timeout) = timeout else { return };
        // A partial window times out when its first event has waited too long.
        loop {
            let from = (self.next_start.saturating_sub(self.front_seq)) as usize;
            let Some(first) = self.events.get(from) else {
                return;
            };
            if now < first.timestamp.plus(timeout) {
                return;
            }
            if self.events.len() - from >= size {
                // A full window is formable; emit it normally.
                self.try_emit(size, step, delete_used, now, out);
            } else {
                self.emit_rest(now, out);
            }
        }
    }
}

impl TimeGroup {
    fn push(&mut self, event: CwEvent, size: u64, step: u64, delete_used: bool, now: Timestamp, out: &mut Emitted<'_>) {
        let ts = event.timestamp.as_micros();
        if ts < self.next_k * step {
            // Late event: every window it could join has already closed.
            // (The pushed event was counted as +1 pending by the caller;
            // expire() balances it back out.)
            out.expire(&event);
            return;
        }
        // Insert keeping the buffer sorted by event time (arrivals are
        // near-sorted, so this is cheap).
        let pos = self
            .events
            .iter()
            .rposition(|e| e.timestamp.as_micros() <= ts)
            .map(|p| p + 1)
            .unwrap_or(0);
        fit_one(&mut self.events);
        self.events.insert(pos, event);
        self.advance_watermark(ts, size, step, delete_used, now, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn advance_watermark(
        &mut self,
        watermark: u64,
        size: u64,
        step: u64,
        delete_used: bool,
        now: Timestamp,
        out: &mut Emitted<'_>,
    ) {
        self.watermark = self.watermark.max(watermark);
        // Close every window whose end has passed the watermark.
        loop {
            let lo = self.next_k * step;
            let hi = lo + size;
            if hi > self.watermark {
                break;
            }
            match self.events.front() {
                None => {
                    // Every closable window is empty: skip them all at once.
                    self.next_k = (self.watermark - size) / step + 1;
                    break;
                }
                Some(front) => {
                    let fts = front.timestamp.as_micros();
                    if fts >= hi {
                        // Current window is empty (buffer is sorted): jump
                        // to the first window containing the front event.
                        let k_lo = if fts < size { 0 } else { (fts - size) / step + 1 };
                        debug_assert!(k_lo > self.next_k);
                        self.next_k = k_lo;
                        continue;
                    }
                }
            }
            self.next_k += if delete_used {
                // Consumed events may not appear in a later window: hop a
                // whole window's worth of steps.
                size.div_ceil(step)
            } else {
                1
            };
            // Events no future window can cover leave the (sorted) buffer
            // and are moved into this window; the rest of the window's
            // events stay for a later one and are copied.
            let cutoff = self.next_k * step;
            let in_window = |e: &CwEvent| (lo..hi).contains(&e.timestamp.as_micros());
            let below_hi = self.events.iter().take_while(|e| e.timestamp.as_micros() < hi);
            let mut events = Vec::with_capacity(below_hi.filter(|e| in_window(e)).count());
            while self.events.front().is_some_and(|e| e.timestamp.as_micros() < cutoff) {
                let ev = self.events.pop_front().expect("checked front");
                out.expire(&ev);
                if in_window(&ev) {
                    events.push(ev);
                }
            }
            let staying = self.events.iter().take_while(|e| e.timestamp.as_micros() < hi);
            events.extend(staying.cloned());
            if !events.is_empty() {
                out.emit(events, now, false);
            }
        }
    }
}

impl WaveGroup {
    fn push(&mut self, event: CwEvent, now: Timestamp, out: &mut Emitted<'_>) {
        let origin = event.wave.origin();
        let entry = self
            .waves
            .entry(origin)
            .or_insert_with(|| (WaveTracker::new(), Vec::new()));
        entry.0.observe(&event.wave);
        entry.1.push(event);
        if entry.0.is_complete() {
            let (_, events) = self.waves.remove(&origin).expect("entry exists");
            out.pending_delta -= events.len() as i64;
            out.emit(events, now, false);
        }
    }

    fn poll(&mut self, timeout: Option<Micros>, now: Timestamp, out: &mut Emitted<'_>) {
        let Some(timeout) = timeout else { return };
        let stale: Vec<Timestamp> = self
            .waves
            .iter()
            .filter(|(_, (_, events))| {
                events
                    .first()
                    .is_some_and(|e| now >= e.timestamp.plus(timeout))
            })
            .map(|(o, _)| *o)
            .collect();
        for origin in stale {
            let (_, events) = self.waves.remove(&origin).expect("collected above");
            out.pending_delta -= events.len() as i64;
            out.emit(events, now, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Schema;
    use crate::window::{GroupBy, WindowSpec};

    fn ev(val: i64, ts: u64) -> CwEvent {
        CwEvent::external(Token::Int(val), Timestamp(ts))
    }

    fn rec_ev(car: i64, val: i64, ts: u64) -> CwEvent {
        CwEvent::external(
            Token::record().field("carid", car).field("v", val).build(),
            Timestamp(ts),
        )
    }

    fn values(w: &Window) -> Vec<i64> {
        w.tokens().map(|t| t.as_int().unwrap()).collect()
    }

    #[test]
    fn sliding_tuple_window() {
        // {Size: 4, Step: 1} — the stopped-car detection shape.
        let mut op = WindowOperator::new(WindowSpec::tuples(4, 1)).unwrap();
        for i in 0..4 {
            op.push(ev(i, i as u64), Timestamp(i as u64)).unwrap();
        }
        let w = op.pop_window().expect("first window after 4 events");
        assert_eq!(values(&w), vec![0, 1, 2, 3]);
        assert!(op.pop_window().is_none());
        op.push(ev(4, 4), Timestamp(4)).unwrap();
        let w = op.pop_window().expect("window slides by 1");
        assert_eq!(values(&w), vec![1, 2, 3, 4]);
        // Sliding by one expires exactly one event per window.
        assert_eq!(op.drain_expired().len(), 2);
    }

    #[test]
    fn tumbling_tuple_window_with_delete_used() {
        let spec = WindowSpec::tuples(2, 1).delete_used(true);
        let mut op = WindowOperator::new(spec).unwrap();
        for i in 0..6 {
            op.push(ev(i, i as u64), Timestamp(i as u64)).unwrap();
        }
        // delete_used consumes whole windows: [0,1], [2,3], [4,5].
        assert_eq!(values(&op.pop_window().unwrap()), vec![0, 1]);
        assert_eq!(values(&op.pop_window().unwrap()), vec![2, 3]);
        assert_eq!(values(&op.pop_window().unwrap()), vec![4, 5]);
        assert!(op.pop_window().is_none());
        assert_eq!(op.pending_events(), 0);
        assert_eq!(op.expired_len(), 6);
    }

    #[test]
    fn each_event_window() {
        let mut op = WindowOperator::new(WindowSpec::each_event()).unwrap();
        let n = op.push(ev(7, 1), Timestamp(1)).unwrap();
        assert_eq!(n, 1);
        let w = op.pop_window().unwrap();
        assert_eq!(values(&w), vec![7]);
        assert_eq!(op.pending_events(), 0);
    }

    #[test]
    fn grouped_tuple_windows() {
        // {Size: 2, Step: 1, Group-by: carid} — toll-calculation shape.
        let spec = WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"]));
        let mut op = WindowOperator::new(spec).unwrap();
        op.push(rec_ev(1, 10, 0), Timestamp(0)).unwrap();
        op.push(rec_ev(2, 20, 1), Timestamp(1)).unwrap();
        assert!(op.pop_window().is_none(), "one event per car: no window");
        op.push(rec_ev(1, 11, 2), Timestamp(2)).unwrap();
        let w = op.pop_window().expect("car 1 has two reports");
        assert_eq!(op.spec().group_by.key_of(&w.events[0].token).unwrap(), Token::record().field("carid", 1).build());
        assert_eq!(
            w.tokens().map(|t| t.int_field("v").unwrap()).collect::<Vec<_>>(),
            vec![10, 11]
        );
        op.push(rec_ev(2, 21, 3), Timestamp(3)).unwrap();
        let w = op.pop_window().expect("car 2 has two reports");
        assert_eq!(op.spec().group_by.key_of(&w.events[0].token).unwrap(), Token::record().field("carid", 2).build());
    }

    #[test]
    fn group_key_error_propagates() {
        let spec = WindowSpec::tuples(1, 1).group_by(GroupBy::fields(&["x"]));
        let mut op = WindowOperator::new(spec).unwrap();
        assert!(op.push(ev(1, 0), Timestamp(0)).is_err());
    }

    #[test]
    fn tuple_timeout_produces_short_window() {
        let spec = WindowSpec::tuples(4, 4).with_timeout(Micros(100));
        let mut op = WindowOperator::new(spec).unwrap();
        op.push(ev(1, 10), Timestamp(10)).unwrap();
        op.push(ev(2, 20), Timestamp(20)).unwrap();
        assert_eq!(op.poll(Timestamp(50)), 0, "timeout not reached");
        assert_eq!(op.next_deadline(), Some(Timestamp(110)));
        assert_eq!(op.poll(Timestamp(110)), 1, "forced short window");
        let w = op.pop_window().unwrap();
        assert!(w.timed_out);
        assert_eq!(values(&w), vec![1, 2]);
        // The short window advanced past its events: no re-emission.
        assert_eq!(op.poll(Timestamp(500)), 0);
        assert_eq!(op.pending_events(), 0);
    }

    #[test]
    fn tuple_timeout_prefers_full_window() {
        let spec = WindowSpec::tuples(2, 2).with_timeout(Micros(100));
        let mut op = WindowOperator::new(spec).unwrap();
        op.push(ev(1, 0), Timestamp(0)).unwrap();
        op.push(ev(2, 1), Timestamp(1)).unwrap();
        // Window already emitted by push; poll after timeout adds nothing.
        assert_eq!(op.ready.len(), 1);
        assert_eq!(op.poll(Timestamp(1000)), 0);
    }

    #[test]
    fn tumbling_time_window() {
        // {Size: 1 min, Step: 1 min} — segment-statistics shape (µs scaled
        // down to 100 for the test).
        let mut op = WindowOperator::new(WindowSpec::time(Micros(100), Micros(100))).unwrap();
        op.push(ev(1, 10), Timestamp(10)).unwrap();
        op.push(ev(2, 60), Timestamp(60)).unwrap();
        assert!(op.pop_window().is_none(), "window [0,100) still open");
        op.push(ev(3, 120), Timestamp(120)).unwrap();
        let w = op.pop_window().expect("event at 120 closes [0,100)");
        assert_eq!(values(&w), vec![1, 2]);
        op.push(ev(4, 205), Timestamp(205)).unwrap();
        let w = op.pop_window().expect("event at 205 closes [100,200)");
        assert_eq!(values(&w), vec![3]);
    }

    #[test]
    fn sliding_time_window_overlap() {
        // size 100, step 50 → event at t=60 appears in windows [0,100) and [50,150).
        let mut op = WindowOperator::new(WindowSpec::time(Micros(100), Micros(50))).unwrap();
        op.push(ev(1, 60), Timestamp(60)).unwrap();
        op.push(ev(2, 160), Timestamp(160)).unwrap();
        let w1 = op.pop_window().expect("[0,100) closed at watermark 160");
        assert_eq!(values(&w1), vec![1]);
        let w2 = op.pop_window().expect("[50,150) closed at watermark 160");
        assert_eq!(values(&w2), vec![1]);
        assert!(op.pop_window().is_none());
    }

    #[test]
    fn time_window_delete_used_consumes() {
        let spec = WindowSpec::time(Micros(100), Micros(50)).delete_used(true);
        let mut op = WindowOperator::new(spec).unwrap();
        op.push(ev(1, 60), Timestamp(60)).unwrap();
        op.push(ev(2, 160), Timestamp(160)).unwrap();
        let w1 = op.pop_window().expect("[0,100) closes");
        assert_eq!(values(&w1), vec![1]);
        assert!(
            op.pop_window().is_none(),
            "delete_used: event 1 consumed, window [50,150) skipped"
        );
    }

    #[test]
    fn time_window_poll_closes_by_clock() {
        let mut op = WindowOperator::new(WindowSpec::tumbling_time(Micros(100))).unwrap();
        op.push(ev(1, 10), Timestamp(10)).unwrap();
        assert_eq!(op.next_deadline(), Some(Timestamp(100)));
        assert_eq!(op.poll(Timestamp(99)), 0);
        assert_eq!(op.poll(Timestamp(100)), 1, "clock reaching boundary closes window");
        let w = op.pop_window().unwrap();
        assert_eq!(values(&w), vec![1]);
    }

    #[test]
    fn time_window_late_event_expires() {
        let mut op = WindowOperator::new(WindowSpec::tumbling_time(Micros(100))).unwrap();
        op.push(ev(1, 150), Timestamp(150)).unwrap();
        op.poll(Timestamp(200)); // closes [100,200) → window with event 1
        assert_eq!(op.pop_window().map(|w| values(&w)), Some(vec![1]));
        op.push(ev(9, 50), Timestamp(201)).unwrap();
        assert_eq!(op.pop_window(), None);
        let expired = op.drain_expired();
        assert_eq!(expired.len(), 2, "consumed event 1 + late event 9");
        assert_eq!(op.pending_events(), 0);
    }

    #[test]
    fn time_window_empty_windows_skipped() {
        let mut op = WindowOperator::new(WindowSpec::tumbling_time(Micros(10))).unwrap();
        op.push(ev(1, 5), Timestamp(5)).unwrap();
        op.push(ev(2, 1000), Timestamp(1000)).unwrap();
        // Only the two non-empty windows emit; the ~98 empty ones are skipped.
        assert_eq!(op.ready.len(), 1);
        assert_eq!(values(&op.pop_window().unwrap()), vec![1]);
        op.poll(Timestamp(1010));
        assert_eq!(values(&op.pop_window().unwrap()), vec![2]);
        assert!(op.pop_window().is_none());
    }

    #[test]
    fn wave_window_completes_on_last_marks() {
        use crate::wave::WaveTag;
        let mut op = WindowOperator::new(WindowSpec::wave()).unwrap();
        let root = WaveTag::external(Timestamp(5));
        let e1 = CwEvent::derived(Token::Int(1), Timestamp(6), &root, 1, false);
        let e2 = CwEvent::derived(Token::Int(2), Timestamp(7), &root, 2, true);
        op.push(e1, Timestamp(6)).unwrap();
        assert!(op.pop_window().is_none());
        op.push(e2, Timestamp(7)).unwrap();
        let w = op.pop_window().expect("wave complete");
        assert_eq!(values(&w), vec![1, 2]);
        assert_eq!(op.pending_events(), 0);
    }

    #[test]
    fn wave_window_timeout_flushes_incomplete_wave() {
        use crate::wave::WaveTag;
        let spec = WindowSpec::wave().with_timeout(Micros(50));
        let mut op = WindowOperator::new(spec).unwrap();
        let root = WaveTag::external(Timestamp(5));
        let e1 = CwEvent::derived(Token::Int(1), Timestamp(6), &root, 1, false);
        op.push(e1, Timestamp(6)).unwrap();
        assert_eq!(op.next_deadline(), Some(Timestamp(56)));
        assert_eq!(op.poll(Timestamp(56)), 1);
        let w = op.pop_window().unwrap();
        assert!(w.timed_out);
        assert_eq!(values(&w), vec![1]);
    }

    #[test]
    fn interleaved_waves_form_separate_windows() {
        let mut op = WindowOperator::new(WindowSpec::wave()).unwrap();
        // Two external events, each its own wave of one.
        op.push(ev(1, 10), Timestamp(10)).unwrap();
        op.push(ev(2, 20), Timestamp(20)).unwrap();
        assert_eq!(op.ready.len(), 2);
        assert_eq!(values(&op.pop_window().unwrap()), vec![1]);
        assert_eq!(values(&op.pop_window().unwrap()), vec![2]);
    }

    #[test]
    fn pending_and_ready_counters() {
        let mut op = WindowOperator::new(WindowSpec::tuples(3, 3)).unwrap();
        op.push(ev(1, 0), Timestamp(0)).unwrap();
        op.push(ev(2, 1), Timestamp(1)).unwrap();
        assert_eq!(op.pending_events(), 2);
        assert_eq!(op.ready.len(), 0);
        op.push(ev(3, 2), Timestamp(2)).unwrap();
        assert_eq!(op.ready.len(), 1);
        // step == size without delete_used expires the whole window content.
        assert_eq!(op.pending_events(), 0);
    }

    #[test]
    fn flush_forces_out_tuple_remainders() {
        let spec = WindowSpec::tuples(4, 4).group_by(GroupBy::fields(&["carid"]));
        let mut op = WindowOperator::new(spec).unwrap();
        op.push(rec_ev(1, 10, 0), Timestamp(0)).unwrap();
        op.push(rec_ev(2, 20, 1), Timestamp(1)).unwrap();
        op.push(rec_ev(1, 11, 2), Timestamp(2)).unwrap();
        assert_eq!(op.ready.len(), 0);
        assert_eq!(op.flush(Timestamp(10)), 2, "one short window per group");
        let w1 = op.pop_window().unwrap();
        let w2 = op.pop_window().unwrap();
        assert!(w1.timed_out && w2.timed_out);
        assert_eq!(w1.len() + w2.len(), 3);
        assert_eq!(op.pending_events(), 0);
        // Flushing again is a no-op.
        assert_eq!(op.flush(Timestamp(11)), 0);
    }

    #[test]
    fn flush_closes_time_windows() {
        let mut op = WindowOperator::new(WindowSpec::tumbling_time(Micros(100))).unwrap();
        op.push(ev(1, 10), Timestamp(10)).unwrap();
        op.push(ev(2, 110), Timestamp(110)).unwrap();
        assert_eq!(op.ready.len(), 1, "[0,100) closed by watermark");
        assert_eq!(op.flush(Timestamp(120)), 1, "[100,200) forced closed");
        op.pop_window().unwrap();
        let w = op.pop_window().unwrap();
        assert_eq!(values(&w), vec![2]);
        assert!(!w.timed_out, "end-of-stream content is final");
        assert_eq!(op.pending_events(), 0);
    }

    #[test]
    fn flush_emits_incomplete_waves() {
        use crate::wave::WaveTag;
        let mut op = WindowOperator::new(WindowSpec::wave()).unwrap();
        let root = WaveTag::external(Timestamp(5));
        op.push(
            CwEvent::derived(Token::Int(1), Timestamp(6), &root, 1, false),
            Timestamp(6),
        )
        .unwrap();
        assert_eq!(op.flush(Timestamp(10)), 1);
        assert!(op.pop_window().unwrap().timed_out);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        // Sliding grouped tuple windows mid-stream: restore must continue
        // producing exactly the windows the original would have.
        let spec = WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"]));
        let mut op = WindowOperator::new(spec.clone()).unwrap();
        op.push(rec_ev(1, 10, 0), Timestamp(0)).unwrap();
        op.push(rec_ev(2, 20, 1), Timestamp(1)).unwrap();
        op.push(rec_ev(1, 11, 2), Timestamp(2)).unwrap();
        let snap = op.snapshot();
        let mut restored = WindowOperator::new(spec).unwrap();
        restored.restore(snap.clone()).unwrap();
        assert_eq!(restored.pending_events(), op.pending_events());
        assert_eq!(restored.ready.len(), op.ready.len());
        assert_eq!(restored.next_deadline(), op.next_deadline());
        // Same continuation on both.
        op.push(rec_ev(1, 12, 3), Timestamp(3)).unwrap();
        restored.push(rec_ev(1, 12, 3), Timestamp(3)).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        while let Some(w) = op.pop_window() {
            a.push(w);
        }
        while let Some(w) = restored.pop_window() {
            b.push(w);
        }
        assert_eq!(a, b);
        // Snapshot identity is stable.
        assert_eq!(op.snapshot(), restored.snapshot());
    }

    #[test]
    fn snapshot_restore_time_and_wave_groups() {
        use crate::wave::WaveTag;
        let mut op = WindowOperator::new(WindowSpec::tumbling_time(Micros(100))).unwrap();
        op.push(ev(1, 10), Timestamp(10)).unwrap();
        op.push(ev(2, 120), Timestamp(120)).unwrap();
        let mut restored = WindowOperator::new(WindowSpec::tumbling_time(Micros(100))).unwrap();
        restored.restore(op.snapshot()).unwrap();
        assert_eq!(restored.ready.len(), 1, "formed window carried over");
        assert_eq!(restored.pop_window(), op.pop_window());
        restored.poll(Timestamp(300));
        op.poll(Timestamp(300));
        assert_eq!(restored.pop_window(), op.pop_window());

        let mut wv = WindowOperator::new(WindowSpec::wave()).unwrap();
        let root = WaveTag::external(Timestamp(5));
        wv.push(
            CwEvent::derived(Token::Int(1), Timestamp(6), &root, 1, false),
            Timestamp(6),
        )
        .unwrap();
        let mut wv2 = WindowOperator::new(WindowSpec::wave()).unwrap();
        wv2.restore(wv.snapshot()).unwrap();
        // Completing the wave on the restored operator emits it.
        wv2.push(
            CwEvent::derived(Token::Int(2), Timestamp(7), &root, 2, true),
            Timestamp(7),
        )
        .unwrap();
        assert_eq!(values(&wv2.pop_window().unwrap()), vec![1, 2]);
    }

    #[test]
    fn restore_rejects_mismatched_or_dirty_targets() {
        let mut op = WindowOperator::new(WindowSpec::tuples(2, 1)).unwrap();
        op.push(ev(1, 0), Timestamp(0)).unwrap();
        let snap = op.snapshot();
        // Wrong spec kind.
        let mut time_op = WindowOperator::new(WindowSpec::tumbling_time(Micros(10))).unwrap();
        assert!(time_op.restore(snap.clone()).is_err());
        // Non-fresh target.
        let mut dirty = WindowOperator::new(WindowSpec::tuples(2, 1)).unwrap();
        dirty.push(ev(9, 0), Timestamp(0)).unwrap();
        assert!(dirty.restore(snap).is_err());
    }

    /// Everything the operator has produced since the last call.
    fn produced(op: &mut WindowOperator) -> (Vec<Window>, Vec<CwEvent>) {
        let windows = std::iter::from_fn(|| op.pop_window()).collect();
        (windows, op.drain_expired())
    }

    fn car_of(w: &Window) -> i64 {
        w.events[0].token.int_field("carid").unwrap()
    }

    fn sorted(mut windows: Vec<Window>) -> Vec<Window> {
        windows.sort_by_key(|w| (car_of(w), w.earliest_origin()));
        windows
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// On a timestamp-ordered stream with polls that run ahead of it,
        /// an operator that evicts closed time groups emits the same
        /// windows in the same order and expires the same events as one
        /// that keeps every group for ever — tumbling, sliding, gapped and
        /// consuming windows alike — while holding no more groups.
        #[test]
        fn evicting_time_groups_changes_nothing_but_memory(
            // (group, time since the previous event, poll this far ahead
            // of it — or, from 400 on, not at all)
            stream in proptest::collection::vec((0..6i64, 0..60u64, 0..800u64), 1..120),
            size in 1..200u64,
            step in 1..200u64,
            delete_used in 0..2u8,
        ) {
            let spec = WindowSpec::time(Micros(size), Micros(step))
                .group_by(GroupBy::fields(&["carid"]))
                .delete_used(delete_used == 1);
            let mut evicting = WindowOperator::new(spec.clone()).unwrap();
            evicting.wire(true, true);
            let mut keeping = WindowOperator::new(spec).unwrap();
            let (mut ts, mut polled) = (0, 0);
            let mut most_groups = 0;
            for (i, (group, gap, poll_ahead)) in stream.into_iter().enumerate() {
                ts += gap;
                for op in [&mut evicting, &mut keeping] {
                    op.push(rec_ev(group, i as i64, ts), Timestamp(ts)).unwrap();
                    if poll_ahead < 400 {
                        polled = polled.max(ts + poll_ahead);
                        op.poll(Timestamp(ts + poll_ahead));
                    }
                }
                proptest::prop_assert_eq!(produced(&mut evicting), produced(&mut keeping));
                proptest::prop_assert_eq!(evicting.pending_events(), keeping.pending_events());
                proptest::prop_assert_eq!(evicting.next_deadline(), keeping.next_deadline());
                proptest::prop_assert!(evicting.group_count() <= keeping.group_count());
                most_groups = most_groups.max(evicting.group_count());
            }
            // Once the stream has moved past every window (and every
            // poll), nothing is left.
            let end = ts.max(polled) + 2 * (size + step);
            for op in [&mut evicting, &mut keeping] {
                op.poll(Timestamp(end));
                op.push(rec_ev(99, -1, end + step), Timestamp(end + step)).unwrap();
            }
            proptest::prop_assert_eq!(produced(&mut evicting), produced(&mut keeping));
            proptest::prop_assert_eq!(evicting.group_count(), 1);
            proptest::prop_assert!(most_groups <= 6);
            // End of stream walks the groups in (re)creation order: the
            // same windows, in an order of its own.
            evicting.flush(Timestamp(end));
            keeping.flush(Timestamp(end));
            let (a, b) = (produced(&mut evicting), produced(&mut keeping));
            proptest::prop_assert_eq!((sorted(a.0), a.1.len()), (sorted(b.0), b.1.len()));
        }

        /// A tuple group that holds no event and owes no gap is removed,
        /// under `delete_used`, `step ≥ size` and formation timeouts
        /// alike. The reference keeps one ungrouped operator per key (an
        /// ungrouped port keeps its one group) and emits, key by key, the
        /// same windows in the same order.
        #[test]
        fn evicting_tuple_groups_changes_nothing_but_memory(
            // (group, time since the previous event, poll this far ahead
            // of it — or, from 40 on, not at all)
            stream in proptest::collection::vec((0..5i64, 0..20u64, 0..80u64), 1..120),
            size in 1..5usize,
            step in 1..6usize,
            delete_used in 0..2u8,
            timeout in 0..60u64,
        ) {
            let mut spec = WindowSpec::tuples(size, step).delete_used(delete_used == 1);
            if timeout >= 10 {
                spec = spec.with_timeout(Micros(timeout));
            }
            let mut evicting =
                WindowOperator::new(spec.clone().group_by(GroupBy::fields(&["carid"]))).unwrap();
            let mut keeping: Vec<WindowOperator> =
                (0..5).map(|_| WindowOperator::new(spec.clone()).unwrap()).collect();
            // Everything the per-key references have produced, key by key.
            let reference = |keeping: &mut Vec<WindowOperator>| {
                let (mut windows, mut expired) = (Vec::new(), Vec::new());
                for op in keeping.iter_mut() {
                    let (w, e) = produced(op);
                    windows.extend(w);
                    expired.extend(e);
                }
                (windows, expired)
            };
            let by_key = |(mut windows, mut expired): (Vec<Window>, Vec<CwEvent>)| {
                windows.sort_by_key(car_of);
                expired.sort_by_key(|e| e.token.int_field("carid").unwrap());
                (windows, expired)
            };
            let mut ts = 0;
            for (i, (group, gap, poll_ahead)) in stream.into_iter().enumerate() {
                ts += gap;
                evicting.push(rec_ev(group, i as i64, ts), Timestamp(ts)).unwrap();
                keeping[group as usize].push(rec_ev(group, i as i64, ts), Timestamp(ts)).unwrap();
                if poll_ahead < 40 {
                    evicting.poll(Timestamp(ts + poll_ahead));
                    keeping.iter_mut().for_each(|op| { op.poll(Timestamp(ts + poll_ahead)); });
                }
                proptest::prop_assert_eq!(by_key(produced(&mut evicting)), reference(&mut keeping));
                let pending: usize = keeping.iter().map(|op| op.pending_events()).sum();
                proptest::prop_assert_eq!(evicting.pending_events(), pending);
                let deadline = keeping.iter().filter_map(|op| op.next_deadline()).min();
                proptest::prop_assert_eq!(evicting.next_deadline(), deadline);
                // A group is kept for the events it buffers (or, with
                // `step > size`, for the gap it still has to skip).
                let buffering = keeping.iter().filter(|op| op.pending_events() > 0).count();
                proptest::prop_assert!(evicting.group_count() >= buffering);
                if step <= size {
                    proptest::prop_assert_eq!(evicting.group_count(), buffering);
                }
            }
            // End of stream walks the groups in (re)creation order: the
            // same windows, in an order of its own.
            evicting.flush(Timestamp(ts));
            keeping.iter_mut().for_each(|op| { op.flush(Timestamp(ts)); });
            proptest::prop_assert_eq!(by_key(produced(&mut evicting)), reference(&mut keeping));
            proptest::prop_assert_eq!(evicting.pending_events(), 0);
        }

        /// A wave group is removed when its last open wave closes. The
        /// reference keeps every group alive with a wave that never
        /// completes, and emits the same windows in the same order.
        #[test]
        fn evicting_wave_groups_changes_nothing_but_memory(
            // (group, events in the wave, poll after it?)
            waves in proptest::collection::vec((0..4i64, 1..4u32, 0..2u8), 1..60),
        ) {
            use crate::wave::WaveTag;
            let spec = WindowSpec::wave()
                .group_by(GroupBy::fields(&["carid"]))
                .with_timeout(Micros(25));
            let mut evicting = WindowOperator::new(spec.clone()).unwrap();
            let mut keeping = WindowOperator::new(spec).unwrap();
            let never = WaveTag::external(Timestamp(u64::MAX / 2));
            for group in 0..4 {
                let mut open = rec_ev(group, -1, u64::MAX / 2);
                open.wave = never.child(1, false);
                keeping.push(open, Timestamp(0)).unwrap();
            }
            // Wave i starts at 10·i; its last event is held back until the
            // next wave has started, so waves overlap and some time out.
            let mut held: Option<CwEvent> = None;
            for (i, (group, n, poll)) in waves.into_iter().enumerate() {
                let ts = 10 * (i as u64 + 1);
                let root = WaveTag::external(Timestamp(ts));
                let mut events: Vec<CwEvent> = (1..=n)
                    .map(|k| {
                        let token = rec_ev(group, k as i64, ts).token;
                        CwEvent::derived(token, Timestamp(ts + k as u64), &root, k, k == n)
                    })
                    .collect();
                let last = events.pop().expect("a wave has an event");
                events.extend(held.replace(last));
                for op in [&mut evicting, &mut keeping] {
                    for e in &events {
                        op.push(e.clone(), Timestamp(ts)).unwrap();
                    }
                    if poll == 1 {
                        op.poll(Timestamp(ts + 5));
                    }
                }
                proptest::prop_assert_eq!(produced(&mut evicting), produced(&mut keeping));
                proptest::prop_assert_eq!(evicting.pending_events() + 4, keeping.pending_events());
                proptest::prop_assert_eq!(keeping.group_count(), 4);
            }
            evicting.poll(Timestamp(1_000_000));
            keeping.poll(Timestamp(1_000_000));
            proptest::prop_assert_eq!(produced(&mut evicting), produced(&mut keeping));
            proptest::prop_assert_eq!(evicting.group_count(), 0);
        }
    }

    #[test]
    fn equal_numeric_keys_share_a_group_fresh_and_restored() {
        // `{k: 3}` and `{k: 3.0}` are equal keys: one group, one window.
        let spec = WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["k"]));
        let int = CwEvent::external(Token::record().field("k", 3).build(), Timestamp(0));
        let float = CwEvent::external(Token::record().field("k", 3.0).build(), Timestamp(1));
        let mut op = WindowOperator::new(spec.clone()).unwrap();
        op.push(int.clone(), Timestamp(0)).unwrap();
        let mut restored = WindowOperator::new(spec).unwrap();
        restored.restore(op.snapshot()).unwrap();
        for op in [&mut op, &mut restored] {
            assert_eq!(op.push(float.clone(), Timestamp(1)).unwrap(), 1);
            assert_eq!(op.group_count(), 1);
            assert_eq!(op.pop_window().unwrap().events, vec![int.clone(), float.clone()]);
        }
    }

    /// The tokens the operator's groups hold, oldest group first.
    fn held_keys(op: &WindowOperator) -> Vec<Token> {
        op.groups.ids_by_birth().into_iter().map(|id| op.groups.get(id).unwrap().key.clone()).collect()
    }

    #[test]
    fn records_of_two_shapes_share_a_group() {
        // Two shared shapes with their fields in opposite orders, and a
        // record of a shape of its own: one key, one group (the last event
        // meets a held record of its own shape).
        let forward = Schema::new(&["carid", "v"]);
        let reversed = Schema::new(&["v", "carid"]);
        let events = [
            forward.record([Token::Int(7), Token::Int(1)]),
            reversed.record([Token::Int(2), Token::Int(7)]),
            Token::record().field("v", 3).field("carid", 7).build(),
            forward.record([Token::Int(7), Token::Int(4)]),
            reversed.record([Token::Int(5), Token::Int(8)]),
            forward.record([Token::Int(7), Token::Int(6)]),
        ];
        let spec = WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"]));
        let mut op = WindowOperator::new(spec).unwrap();
        for (i, token) in events.into_iter().enumerate() {
            op.push(CwEvent::external(token, Timestamp(i as u64)), Timestamp(i as u64)).unwrap();
        }
        assert_eq!(op.group_count(), 2, "car 7 and car 8");
        let values: Vec<Vec<i64>> = std::iter::from_fn(|| op.pop_window())
            .map(|w| w.tokens().map(|t| t.int_field("v").unwrap()).collect())
            .collect();
        assert_eq!(values, [[1, 2], [2, 3], [3, 4], [4, 6]]);
        // Each group holds its newest event, not a key of its own.
        let held = held_keys(&op);
        assert_eq!(held[0].int_field("v").unwrap(), 6);
        assert_eq!(held[1].int_field("v").unwrap(), 5);
        // A snapshot builds car 7's key through the positions cached for the
        // newest event's shape, and car 8's (a reversed record) by name.
        let keys: Vec<Token> = op
            .snapshot()
            .groups
            .into_iter()
            .map(|g| match g {
                GroupSnapshot::Tuples { key, .. } => key,
                _ => unreachable!("tuple groups"),
            })
            .collect();
        let key = |car: i64| Token::record().field("carid", car).build();
        assert_eq!(keys, [key(7), key(8)]);
    }

    #[test]
    fn a_restored_operator_keeps_matching_live_events() {
        let spec = WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"]));
        let mut op = WindowOperator::new(spec.clone()).unwrap();
        op.push(rec_ev(1, 10, 0), Timestamp(0)).unwrap();
        op.push(rec_ev(2, 20, 1), Timestamp(1)).unwrap();
        let mut snap = op.snapshot();
        // A decoded key has a schema of its own, as one read back would.
        for group in &mut snap.groups {
            if let GroupSnapshot::Tuples { key, .. } = group {
                *key = Token::record().field("carid", key.int_field("carid").unwrap()).build();
            }
        }
        let mut restored = WindowOperator::new(spec).unwrap();
        restored.restore(snap).unwrap();
        assert_eq!(held_keys(&restored), [rec_ev(1, 10, 0).token, rec_ev(2, 20, 1).token], "the buffered events");
        for op in [&mut op, &mut restored] {
            assert_eq!(op.push(rec_ev(2, 21, 2), Timestamp(2)).unwrap(), 1);
            assert_eq!(op.push(rec_ev(1, 11, 3), Timestamp(3)).unwrap(), 1);
            assert_eq!(op.group_count(), 2);
            let cars: Vec<i64> = std::iter::from_fn(|| op.pop_window()).map(|w| car_of(&w)).collect();
            assert_eq!(cars, [2, 1]);
        }
        assert_eq!(restored.snapshot(), op.snapshot());
    }

    #[test]
    fn a_group_kept_empty_holds_a_key_record() {
        let by_car = GroupBy::fields(&["carid"]);
        let GroupBy::Fields(key_schema) = by_car.clone() else { unreachable!() };
        // A tuple group in a `step > size` gap, and a time group on a port
        // that is not known to be ordered: both stay, with nothing buffered.
        let gapped = WindowSpec::tuples(1, 3).group_by(by_car.clone());
        let unordered = WindowSpec::tumbling_time(Micros(10)).group_by(by_car);
        for (spec, poll) in [(gapped, 0), (unordered, 10)] {
            let mut op = WindowOperator::new(spec).unwrap();
            op.push(rec_ev(1, 10, 0), Timestamp(0)).unwrap();
            op.poll(Timestamp(poll));
            assert_eq!(op.pop_window().unwrap().len(), 1);
            assert_eq!((op.group_count(), op.pending_events()), (1, 0));
            let held = held_keys(&op).remove(0);
            assert_eq!(held, Token::record().field("carid", 1).build());
            assert!(Arc::ptr_eq(held.as_record().unwrap().schema(), &key_schema), "a key record");
            // The next event is matched against it: the gap expires it
            // unbuffered; the time group buffers it and holds it instead.
            op.push(rec_ev(1, 11, 10), Timestamp(10)).unwrap();
            assert_eq!(op.group_count(), 1);
            let expected = if poll == 0 { held } else { rec_ev(1, 11, 10).token };
            assert_eq!(held_keys(&op), [expected]);
        }
    }

    #[test]
    fn numeric_keys_a_rounding_apart_form_two_groups() {
        // 2^53 + 1 widens to the f64 2^53 and hashes alike, but is not equal
        // to it: two groups. `Int(2^53)` is, and joins the float's group.
        let spec = WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["k"]));
        let key = |k: Token| CwEvent::external(Token::record().field("k", k).build(), Timestamp(0));
        let mut op = WindowOperator::new(spec).unwrap();
        let above = key(Token::Int((1 << 53) + 1));
        let float = key(Token::Float((1u64 << 53) as f64));
        let exact = key(Token::Int(1 << 53));
        assert_eq!(op.push(above, Timestamp(0)).unwrap(), 0);
        assert_eq!(op.push(float.clone(), Timestamp(1)).unwrap(), 0);
        assert_eq!(op.group_count(), 2);
        assert_eq!(op.push(exact.clone(), Timestamp(2)).unwrap(), 1);
        assert_eq!(op.group_count(), 2);
        assert_eq!(op.pop_window().unwrap().events, vec![float, exact]);
    }

    #[test]
    fn time_window_formation_timeout_does_not_spin() {
        // The timeout falls before the window's end: nothing to force out,
        // and polling at it must come back.
        let spec = WindowSpec::tumbling_time(Micros(100)).with_timeout(Micros(20));
        let mut op = WindowOperator::new(spec).unwrap();
        op.push(ev(1, 10), Timestamp(10)).unwrap();
        assert_eq!(op.next_deadline(), Some(Timestamp(100)));
        assert_eq!(op.poll(Timestamp(30)), 0);
        assert_eq!(op.poll(Timestamp(100)), 1);
    }

    #[test]
    fn hopping_tuple_windows_skip_the_gap() {
        // {Size: 1, Step: 3}: every third event, the two between expired
        // unseen as they arrive.
        let mut op = WindowOperator::new(WindowSpec::tuples(1, 3)).unwrap();
        for i in 0..7 {
            op.push(ev(i, i as u64), Timestamp(i as u64)).unwrap();
        }
        let (windows, expired) = produced(&mut op);
        assert_eq!(windows.iter().map(values).collect::<Vec<_>>(), vec![vec![0], vec![3], vec![6]]);
        assert_eq!(expired.len(), 7);
        assert_eq!(op.pending_events(), 0);
    }

    #[test]
    fn deadline_none_when_empty_or_no_timeout() {
        let op = WindowOperator::new(WindowSpec::tuples(4, 1)).unwrap();
        assert_eq!(op.next_deadline(), None);
        let mut op = WindowOperator::new(WindowSpec::tuples(4, 1).with_timeout(Micros(10))).unwrap();
        assert_eq!(op.next_deadline(), None);
        op.push(ev(1, 3), Timestamp(3)).unwrap();
        assert_eq!(op.next_deadline(), Some(Timestamp(13)));
    }
}
