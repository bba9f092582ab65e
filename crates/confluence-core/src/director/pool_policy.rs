//! Pluggable ready-queue policies for the pool executor.
//!
//! The paper's STAFiLOS layer replaces Kepler's OS-delegated scheduling
//! with workflow-aware policies (§3: FIFO, Rate-Based, EDF, quantum-based
//! round-robin). `confluence-sched` reproduces those policies in virtual
//! time; this module ports them to the *wall-clock* pool executor, where
//! the ready "queue" is per-worker and work-stealing. Each worker owns a
//! [`ReadyQueue`] — a binary min-heap of [`ReadyEntry`] keys plus a LIFO
//! slot for cache-warm reruns — and a [`PoolPolicy`] maps a ready actor to
//! its priority key at push/pop time:
//!
//! * [`Fifo`] — key 0 for everyone; the push sequence number alone orders
//!   the heap, reproducing the PR 3 deque behavior (control policy);
//! * [`RateBased`] — key from the cached `gSel/gCost` output-rate
//!   priority ([`StatsModule::rate_priority`]), higher rate first (Sharaf
//!   et al., as in the simulator's RB policy);
//! * [`OldestWave`] — EDF on wave origins: key is the origin timestamp of
//!   the oldest window pending at the actor's inbox, oldest first;
//! * [`Quantum`] — stride scheduling over the QBS allotments of
//!   Equation 1: each firing advances the actor's pass by
//!   `cost/allotment(priority)`, lowest pass first, so per-time-unit
//!   attention is proportional to the designer-assigned allotment.
//!
//! Keys are *advisory snapshots*: entries are keyed at push time and
//! lazily re-keyed on pop ([`ReadyQueue::pop_with`]), so a stale heap
//! never needs a global re-sort. Stealing takes the victim's *best* heap
//! entry ([`ReadyQueue::steal_best`]), never its LIFO slot — the thief
//! helps with the victim's most urgent work instead of its cache-warm
//! tail.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::graph::Workflow;
use crate::telemetry::{estimator, StatsModule};
use crate::time::{Micros, Timestamp};

/// One ready actor in a worker's queue. Ordered by `(key, seq)`: lower
/// key is more urgent, and the monotone push sequence number breaks ties
/// in arrival order (which makes key-0 policies exactly FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEntry {
    /// Policy priority key; lower runs first.
    pub key: u64,
    /// Monotone push sequence number (tie-break, FIFO within a key).
    pub seq: u64,
    /// Actor index.
    pub actor: usize,
}

impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.seq, self.actor).cmp(&(other.key, other.seq, other.actor))
    }
}

impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// On pop, at most this many stale heads are re-keyed and re-inserted
/// before the current head is taken as-is. Bounds pop latency when many
/// keys drifted at once; staleness then corrects over subsequent pops.
const REKEY_BUDGET: usize = 3;

/// Consecutive pops the LIFO slot may win before it is forced through
/// the heap, so one backlogged actor re-queueing itself cannot starve
/// higher-priority heap entries on its worker.
const LIFO_STREAK_MAX: u32 = 3;

/// One worker's ready set: a binary min-heap over [`ReadyEntry`] plus an
/// optional LIFO slot. The slot holds the worker's most recent self-push
/// (an actor re-queued right after it ran) so the next pop re-runs it
/// while its state is cache-warm; everything else merges into the heap.
#[derive(Default)]
pub struct ReadyQueue {
    lifo: Option<ReadyEntry>,
    lifo_streak: u32,
    heap: BinaryHeap<Reverse<ReadyEntry>>,
}

impl ReadyQueue {
    /// An empty queue.
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    /// Entries currently queued (heap plus LIFO slot).
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.lifo.is_some())
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.lifo.is_none() && self.heap.is_empty()
    }

    /// Queue an entry. With `hot` set the entry takes the LIFO slot
    /// (displacing any previous occupant into the heap); otherwise it
    /// goes straight into the heap.
    pub fn push(&mut self, entry: ReadyEntry, hot: bool) {
        if hot {
            if let Some(prev) = self.lifo.replace(entry) {
                self.heap.push(Reverse(prev));
            }
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Take the most urgent entry: the LIFO slot if occupied, else the
    /// heap minimum after lazy re-keying. `rekey` returns the *current*
    /// key for an actor; a head whose fresh key no longer wins is pushed
    /// back under it (at most `REKEY_BUDGET` times) so stale snapshots
    /// cannot leapfrog genuinely urgent work.
    pub fn pop_with(&mut self, mut rekey: impl FnMut(usize) -> u64) -> Option<ReadyEntry> {
        if let Some(e) = self.lifo.take() {
            if self.lifo_streak < LIFO_STREAK_MAX || self.heap.is_empty() {
                self.lifo_streak += 1;
                return Some(e);
            }
            // The slot has monopolized this worker: demote its occupant to
            // the heap and serve queued priorities first.
            self.heap.push(Reverse(e));
        }
        self.lifo_streak = 0;
        for _ in 0..REKEY_BUDGET {
            let Reverse(head) = self.heap.pop()?;
            let fresh = rekey(head.actor);
            if fresh <= head.key {
                return Some(head);
            }
            let updated = ReadyEntry { key: fresh, ..head };
            match self.heap.peek() {
                Some(&Reverse(next)) if updated > next => self.heap.push(Reverse(updated)),
                _ => return Some(updated),
            }
        }
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Steal the victim's best *heap* entry. The LIFO slot is never
    /// stolen: it is the victim's cache-warm continuation and the victim
    /// is about to pop it.
    pub fn steal_best(&mut self) -> Option<ReadyEntry> {
        self.heap.pop().map(|Reverse(e)| e)
    }

}

/// Everything a policy may consult when keying one ready actor.
pub struct PolicyView<'a> {
    /// Current wall-clock time.
    pub now: Timestamp,
    /// Whether the actor is a source.
    pub is_source: bool,
    /// Origin timestamp of the oldest window pending at the actor's
    /// inbox (`None` when empty or for sources).
    pub oldest_origin: Option<Timestamp>,
    /// The run's statistics (cumulative counters, cached rate priorities).
    pub stats: &'a StatsModule,
}

/// A ready-queue ordering policy for the pool executor. Implementations
/// are shared across workers and keyed on the push/pop hot path, so
/// [`PoolPolicy::key`] must be cheap (atomic loads, no locks held long).
pub trait PoolPolicy: Send + Sync {
    /// Stable lower-case policy name (CSV/CLI label).
    fn name(&self) -> &'static str;

    /// Size per-run state for the workflow about to execute. Called once
    /// before any worker starts.
    fn prepare(&self, workflow: &Workflow) {
        let _ = workflow;
    }

    /// Priority key for a ready actor; lower runs first. Ties run in
    /// push order.
    fn key(&self, actor: usize, view: &PolicyView<'_>) -> u64;

    /// A firing of `actor` completed at wall cost `cost`.
    fn on_fire(&self, actor: usize, cost: Micros) {
        let _ = (actor, cost);
    }

    /// Whether self-pushes may use the LIFO slot. Strict-order policies
    /// return `false`: a slot-hit would run the newest entry first.
    fn use_lifo_slot(&self) -> bool {
        true
    }
}

/// Arrival-order control policy: every key is 0, so the sequence number
/// alone orders the heap — exactly the PR 3 deque behavior. No LIFO slot
/// and no statistics read, so it doubles as the overhead baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl PoolPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn key(&self, _actor: usize, _view: &PolicyView<'_>) -> u64 {
        0
    }
    fn use_lifo_slot(&self) -> bool {
        false
    }
}

/// Rate-Based priority (Sharaf et al., the simulator's RB policy): rank
/// by the cached global output rate `Pr(A) = gSel(A)/gCost(A)` from
/// [`StatsModule`]. Sources key at 0 — inflow pacing belongs to the
/// arrival timetable, not the ready queue (the wall-clock port drops the
/// paper's source-interval regulation).
#[derive(Debug, Default, Clone, Copy)]
pub struct RateBased;

/// Key scale for inverting an output rate into a lower-is-better key.
const RATE_KEY_SCALE: f64 = 1e15;

impl PoolPolicy for RateBased {
    fn name(&self) -> &'static str {
        "rb"
    }
    fn key(&self, actor: usize, view: &PolicyView<'_>) -> u64 {
        if view.is_source {
            return 0;
        }
        let rate = view.stats.rate_priority(actor);
        if rate.is_infinite() {
            // Unmeasured actors rank first, as in the simulator.
            return 0;
        }
        // Saturating float→int cast caps vanishing rates at u64::MAX.
        (RATE_KEY_SCALE / (rate + 1e-9)) as u64
    }
}

/// Earliest-deadline-first on wave origins: the key is the origin
/// timestamp (µs) of the oldest window pending at the actor's inbox, so
/// the tuple that has been in the system longest is served first.
/// Sources (and empty inboxes) key at `now` — their next tuple is born
/// now, so any backlogged internal work outranks them under load.
#[derive(Debug, Default, Clone, Copy)]
pub struct OldestWave;

impl PoolPolicy for OldestWave {
    fn name(&self) -> &'static str {
        "edf"
    }
    fn key(&self, _actor: usize, view: &PolicyView<'_>) -> u64 {
        if view.is_source {
            return view.now.as_micros();
        }
        view.oldest_origin.unwrap_or(view.now).as_micros()
    }
}

/// Pass increments are scaled by this factor before dividing by the
/// allotment so integer passes keep sub-allotment resolution.
const STRIDE_SCALE: u128 = 1_000_000;

#[derive(Default)]
struct QuantumState {
    /// QBS allotment per actor (µs of attention per scheduling round).
    allotments: Vec<u64>,
    /// Stride pass per actor: total charged cost scaled by 1/allotment.
    passes: Vec<AtomicU64>,
}

/// Stride-scheduling port of the paper's Quantum-Based round-robin: each
/// actor's time allotment comes from Equation 1
/// ([`estimator::qbs_allotment`], `(40−p)·b`, quadrupled for p < 20),
/// and every firing advances the actor's *pass* by
/// `cost·SCALE/allotment`. The ready queue runs the lowest pass first,
/// so over time each actor receives worker attention proportional to its
/// allotment — the work-stealing analogue of the simulator's QBS queues,
/// without a central round-robin iteration.
pub struct Quantum {
    basic_quantum: u64,
    state: RwLock<QuantumState>,
}

impl Quantum {
    /// Stride scheduler over Equation 1 allotments with basic quantum
    /// `b` µs (clamped to at least 1).
    pub fn new(basic_quantum: u64) -> Self {
        Quantum {
            basic_quantum: basic_quantum.max(1),
            state: RwLock::new(QuantumState::default()),
        }
    }

    /// The configured basic quantum `b`, µs.
    pub fn basic_quantum(&self) -> u64 {
        self.basic_quantum
    }
}

impl Default for Quantum {
    /// The experiments' default basic quantum (1 ms).
    fn default() -> Self {
        Quantum::new(1_000)
    }
}

impl PoolPolicy for Quantum {
    fn name(&self) -> &'static str {
        "qbs"
    }
    fn prepare(&self, workflow: &Workflow) {
        let mut st = self.state.write();
        st.allotments = workflow
            .actor_ids()
            .map(|id| estimator::qbs_allotment(workflow.node(id).priority, self.basic_quantum).max(1) as u64)
            .collect();
        st.passes = (0..st.allotments.len()).map(|_| AtomicU64::new(0)).collect();
    }
    fn key(&self, actor: usize, _view: &PolicyView<'_>) -> u64 {
        let st = self.state.read();
        st.passes.get(actor).map_or(0, |p| p.load(Ordering::Relaxed))
    }
    fn on_fire(&self, actor: usize, cost: Micros) {
        let st = self.state.read();
        let (Some(pass), Some(&allot)) = (st.passes.get(actor), st.allotments.get(actor)) else {
            return;
        };
        let stride = (cost.as_micros().max(1) as u128 * STRIDE_SCALE / allot as u128) as u64;
        pass.fetch_add(stride, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(key: u64, seq: u64, actor: usize) -> ReadyEntry {
        ReadyEntry { key, seq, actor }
    }

    fn stats1() -> StatsModule {
        StatsModule::with_downstream(vec![vec![]])
    }

    fn view(stats: &StatsModule) -> PolicyView<'_> {
        PolicyView {
            now: Timestamp(500),
            is_source: false,
            oldest_origin: Some(Timestamp(100)),
            stats,
        }
    }

    #[test]
    fn key_zero_entries_pop_in_push_order() {
        let mut q = ReadyQueue::new();
        for (seq, actor) in [(0, 7), (1, 3), (2, 9)] {
            q.push(e(0, seq, actor), false);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop_with(|_| 0)).map(|x| x.actor).collect();
        assert_eq!(order, vec![7, 3, 9], "key 0 ⇒ pure FIFO");
    }

    #[test]
    fn lower_keys_pop_first_and_steal_takes_the_best() {
        let mut q = ReadyQueue::new();
        q.push(e(30, 0, 1), false);
        q.push(e(10, 1, 2), false);
        q.push(e(20, 2, 3), false);
        assert_eq!(q.steal_best().unwrap().actor, 2, "thief gets the minimum");
        // Lazy re-key: fresh keys are 10·actor, so actor 1 (fresh 10) now
        // beats the stale head actor 3 (fresh 30).
        assert_eq!(q.pop_with(|a| a as u64 * 10).unwrap().actor, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn lifo_slot_wins_pop_but_is_never_stolen() {
        let mut q = ReadyQueue::new();
        q.push(e(1, 0, 5), false);
        q.push(e(99, 1, 6), true);
        assert_eq!(q.len(), 2);
        assert_eq!(q.steal_best().unwrap().actor, 5, "steal skips the slot");
        assert_eq!(q.pop_with(|_| 0).unwrap().actor, 6, "slot wins the pop");
        assert!(q.is_empty());
        // A hot push displaces the previous occupant into the heap.
        q.push(e(5, 2, 7), true);
        q.push(e(1, 3, 8), true);
        assert_eq!(q.pop_with(|_| u64::MAX).unwrap().actor, 8);
        assert_eq!(q.pop_with(|k| k as u64).unwrap().actor, 7);
    }

    #[test]
    fn stale_heads_are_rekeyed_on_pop() {
        let mut q = ReadyQueue::new();
        q.push(e(1, 0, 1), false); // stale: current key is really 50
        q.push(e(10, 1, 2), false);
        let fresh = |a: usize| if a == 1 { 50 } else { 10 };
        assert_eq!(q.pop_with(fresh).unwrap().actor, 2, "rekeyed head loses");
        let got = q.pop_with(fresh).unwrap();
        assert_eq!((got.actor, got.key), (1, 50), "comes back out re-keyed");
    }

    #[test]
    fn lifo_streak_is_bounded_when_the_heap_has_work() {
        let mut q = ReadyQueue::new();
        q.push(e(0, 0, 9), false); // urgent heap entry
        // A self-requeueing actor keeps re-taking the slot...
        for i in 0..LIFO_STREAK_MAX {
            q.push(e(100, 1 + i as u64, 1), true);
            assert_eq!(q.pop_with(|_| 0).unwrap().actor, 1);
        }
        // ...until the streak cap forces the heap entry through.
        q.push(e(100, 50, 1), true);
        assert_eq!(q.pop_with(|_| 0).unwrap().actor, 9, "streak capped");
        assert_eq!(q.pop_with(|_| 100).unwrap().actor, 1, "demoted, not lost");
        // With an empty heap the slot may streak forever.
        for i in 0..LIFO_STREAK_MAX * 3 {
            q.push(e(100, 60 + i as u64, 1), true);
            assert_eq!(q.pop_with(|_| 0).unwrap().actor, 1);
        }
    }

    #[test]
    fn rekey_budget_bounds_the_pop_loop() {
        let mut q = ReadyQueue::new();
        for a in 0..5 {
            q.push(e(a, a, a as usize), false);
        }
        // Every rekey claims "worse than everything": the loop must still
        // terminate and return some entry.
        assert!(q.pop_with(|_| u64::MAX - 1).is_some());
        assert_eq!(q.len(), 4, "nothing is lost to the budget");
    }

    #[test]
    fn fifo_policy_is_inert() {
        let stats = stats1();
        let p = Fifo;
        assert_eq!(p.key(0, &view(&stats)), 0);
        assert!(!p.use_lifo_slot());
        assert_eq!(p.name(), "fifo");
    }

    #[test]
    fn oldest_wave_keys_by_origin_and_sources_by_now() {
        let stats = stats1();
        let p = OldestWave;
        assert_eq!(p.key(0, &view(&stats)), 100, "pending origin µs");
        let src = PolicyView {
            is_source: true,
            ..view(&stats)
        };
        assert_eq!(p.key(0, &src), 500, "sources key at now");
        let empty = PolicyView {
            oldest_origin: None,
            ..view(&stats)
        };
        assert_eq!(p.key(0, &empty), 500, "empty inbox keys at now");
    }

    #[test]
    fn rate_based_ranks_high_rates_first() {
        let stats = StatsModule::with_downstream(vec![vec![1], vec![]]);
        // 1 (terminal): 5µs/ev → Pr 0.2; 0: 10µs/ev, sel 0.5 → Pr 0.04.
        // 64 firings in all, so the first key read refreshes the cache.
        for t in 0..32 {
            stats.record_fire(0, Micros(100), 10, 5, Timestamp(t));
            stats.record_fire(1, Micros(50), 10, 0, Timestamp(t));
        }
        let p = RateBased;
        let v = PolicyView {
            now: Timestamp(0),
            is_source: false,
            oldest_origin: None,
            stats: &stats,
        };
        assert!(p.key(1, &v) < p.key(0, &v), "higher rate ⇒ lower key");
        let src = PolicyView {
            is_source: true,
            ..v
        };
        assert_eq!(p.key(0, &src), 0, "sources bypass rate ranking");
    }

    #[test]
    fn quantum_passes_advance_inversely_to_allotment() {
        use crate::actors::{Collector, VecSource};
        use crate::graph::WorkflowBuilder;
        use crate::token::Token;
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("q");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        b.set_priority(s, 5); // allotment (40−5)·4·b = 140·b
        b.set_priority(k, 30); // allotment (40−30)·b = 10·b
        let wf = b.build().unwrap();
        let p = Quantum::new(1_000);
        p.prepare(&wf);
        let stats = StatsModule::new(&wf);
        let v = PolicyView {
            now: Timestamp(0),
            is_source: false,
            oldest_origin: None,
            stats: &stats,
        };
        assert_eq!(p.key(0, &v), 0);
        p.on_fire(0, Micros(1_000));
        p.on_fire(1, Micros(1_000));
        let high = p.key(0, &v);
        let low = p.key(1, &v);
        assert!(high < low, "bigger allotment ⇒ smaller stride");
        assert_eq!(low / high, 14, "strides scale as the allotment ratio");
    }
}
