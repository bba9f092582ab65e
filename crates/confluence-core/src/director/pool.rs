//! The pooled work-stealing continuous-workflow executor.
//!
//! The paper's PNCWF director inherits Kepler's thread-per-actor model,
//! which leaves scheduling entirely to the operating system and
//! oversubscribes cores as soon as the actor count exceeds the machine
//! (the Linear Road hierarchy alone instantiates over a dozen actors).
//! [`PoolDirector`] keeps the same continuous-workflow semantics but runs
//! every actor as a *task* over a fixed pool of N worker threads:
//!
//! * each worker owns a policy-ordered ready queue (a priority heap plus
//!   a cache-warm LIFO slot, see
//!   [`pool_policy`](super::pool_policy)) and steals the *best* entry
//!   from other workers' heaps when its own runs dry;
//! * the ordering is pluggable ([`PoolDirector::with_policy`]): FIFO (the
//!   control), Rate-Based, EDF-on-wave-origins, and stride-scheduled
//!   quantum allotments — the STAFiLOS §3 policies in wall-clock form;
//! * the fabric's wake is `WakeHub::schedule`: an actor becomes ready
//!   when a window forms for it or its inbox closes, and a task parked on
//!   a full `Block` port when a pop frees a slot there or Parks' relief
//!   grows it ([`super::Fabric`]);
//! * a rest's instant (a source's next arrival, a window-formation
//!   deadline, the run's elapsed bound) is served by one shared timer thread
//!   over a deadline heap, not per-actor waits;
//! * an idle worker, and the timer, look at their queue or heap again
//!   under the lock they wait on, so a push or a deadline that lands just
//!   before the wait is not slept through; neither wait has a cap.
//!
//! The run spawns exactly N worker threads plus the timer thread,
//! independent of the actor count; N and the policy are fixed when the run
//! opens.
//!
//! All of that is the pool's firing rule — which task runs next, on which
//! worker. What one task step does, how a full `Block` port parks it, and
//! the run lifecycle are [`super::firing`]'s ([`Task`]), as under the
//! threaded director; the pool leaves a resting task off its queues (a
//! [`Wait::Rest`] with an instant arms the timer) until something schedules
//! it. A stop, a pause, or an error or a panic in a step ([`Run::fail`])
//! latches the run's boundary, whose latch schedules every task; each ends
//! at its next step (without `finish` after an error).

use std::cell::Cell;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::{Condvar, Mutex};

use crate::error::{Error, Result};
use crate::graph::Workflow;
use crate::receiver::ActorInbox;
use crate::telemetry::{StatsModule, Telemetry, WorkerMetrics};
use crate::time::{SharedClock, Timestamp, WallClock};

use super::firing::{Progress, Run, Task, Wait};
use super::pool_policy::{Fifo, PolicyView, PoolPolicy, ReadyEntry, ReadyQueue};
use super::{Director, RunReport};

// Per-actor readiness states (one atomic per actor).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RERUN: u8 = 3;

thread_local! {
    /// Index of the pool worker running on this thread (`usize::MAX` off
    /// the pool). Pushes from a worker go to its own deque; pushes from
    /// anywhere else round-robin across the deques.
    static WORKER_ID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// N workers over per-worker policy-ordered ready queues with best-entry
/// stealing; one timer thread.
pub struct PoolDirector {
    workers: usize,
    clock: SharedClock,
    telemetry: Option<Telemetry>,
    policy: Arc<dyn PoolPolicy>,
    /// The statistics of the last run if it ended in a checkpoint pause:
    /// the next segment's run goes on from them.
    paused_stats: Option<Arc<StatsModule>>,
}

impl Default for PoolDirector {
    fn default() -> Self {
        Self::new()
    }
}

impl PoolDirector {
    /// A pool sized to the machine (`available_parallelism`), on the wall
    /// clock, with FIFO ready queues.
    pub fn new() -> Self {
        let workers = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        PoolDirector {
            workers,
            clock: Arc::new(WallClock::new()),
            telemetry: None,
            policy: Arc::new(Fifo),
            paused_stats: None,
        }
    }

    /// Override the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// A pool on a caller-supplied clock (tests).
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// Order the ready queues by `policy` instead of FIFO.
    pub fn with_policy(mut self, policy: Arc<dyn PoolPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// The ready-queue policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}

/// Scheduling state shared by the fabric's wake, workers, and the timer:
/// everything needed to decide *who runs next*, with no reference to the
/// actors themselves.
struct WakeHub {
    /// One policy-ordered ready queue per worker; the worker id is the
    /// queue index.
    queues: Vec<Mutex<ReadyQueue>>,
    /// Ready-queue ordering policy.
    policy: Arc<dyn PoolPolicy>,
    /// The run's statistics, which the priority keys are computed from.
    stats: Arc<StatsModule>,
    /// Whether self-pushes may take the LIFO slot (the policy's choice).
    use_lifo: bool,
    /// Clock the priority keys timestamp against.
    clock: SharedClock,
    /// Per-actor source flag (sources are keyed specially).
    is_source: Vec<bool>,
    /// Per-actor inbox handles for oldest-pending-origin lookups.
    inboxes: Vec<Arc<ActorInbox>>,
    /// Monotone push sequence (FIFO tie-break within a priority key).
    seq: AtomicU64,
    /// Per-actor readiness state machine (IDLE/QUEUED/RUNNING/RERUN).
    states: Vec<AtomicU8>,
    /// Round-robin cursor for pushes from off-pool threads.
    next_queue: AtomicUsize,
    shutdown: AtomicBool,
    idle_lock: Mutex<()>,
    idle_cond: Condvar,
    /// Workers inside [`WakeHub::wait_for_work`]: a push takes the idle
    /// lock to notify only while one is.
    sleepers: AtomicUsize,
    /// Pending timed-window / source-arrival deadlines: (µs, actor). The
    /// timer waits on `timer_cond` under this lock.
    timer: Mutex<BinaryHeap<std::cmp::Reverse<(u64, usize)>>>,
    timer_cond: Condvar,
    // Per-worker counters for WorkerMetrics.
    fires: Vec<AtomicU64>,
    steals: Vec<AtomicU64>,
    queue_max: Vec<AtomicU64>,
    /// Per-worker firing time in µs (occupancy numerator).
    busy_us: Vec<AtomicU64>,
}

impl WakeHub {
    fn new(
        workers: usize,
        policy: Arc<dyn PoolPolicy>,
        stats: Arc<StatsModule>,
        clock: SharedClock,
        is_source: Vec<bool>,
        inboxes: Vec<Arc<ActorInbox>>,
    ) -> Self {
        let actors = inboxes.len();
        WakeHub {
            queues: (0..workers).map(|_| Mutex::new(ReadyQueue::new())).collect(),
            use_lifo: policy.use_lifo_slot(),
            policy,
            stats,
            clock,
            is_source,
            inboxes,
            seq: AtomicU64::new(0),
            states: (0..actors).map(|_| AtomicU8::new(IDLE)).collect(),
            next_queue: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle_cond: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            timer: Mutex::new(BinaryHeap::new()),
            timer_cond: Condvar::new(),
            fires: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            queue_max: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            busy_us: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Mark `actor` ready, enqueueing it unless it is already queued (or
    /// running, in which case it is flagged for a re-run).
    fn schedule(&self, actor: usize) {
        let st = &self.states[actor];
        loop {
            match st.compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.push(actor, false);
                    return;
                }
                Err(QUEUED) | Err(RERUN) => return,
                Err(_running) => {
                    if st
                        .compare_exchange(RUNNING, RERUN, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                    // The runner moved on between our two CASes; retry.
                }
            }
        }
    }

    /// Current policy key for `actor` (push time and lazy re-key on pop).
    fn key_of(&self, actor: usize) -> u64 {
        let view = PolicyView {
            now: self.clock.now(),
            is_source: self.is_source[actor],
            oldest_origin: self.inboxes[actor].oldest_origin(),
            stats: &self.stats,
        };
        self.policy.key(actor, &view)
    }

    /// Queue `actor` on this worker's queue (or round-robin over the
    /// queues from off-pool threads) and wake a worker. `hot` marks a
    /// self-push right after the actor ran, which may take the cache-warm
    /// LIFO slot if the policy allows it.
    fn push(&self, actor: usize, hot: bool) {
        let w = WORKER_ID.with(|c| c.get());
        let idx = if w < self.queues.len() {
            w
        } else {
            self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len()
        };
        let entry = ReadyEntry {
            key: self.key_of(actor),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            actor,
        };
        let depth = {
            let mut q = self.queues[idx].lock();
            q.push(entry, hot && self.use_lifo);
            q.len() as u64
        };
        self.queue_max[idx].fetch_max(depth, Ordering::Relaxed);
        // A worker counted itself a sleeper before it looked at the queues,
        // and this push was queued before this read: either it sees the
        // entry, or this sees it and notifies once it waits.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _idle = self.idle_lock.lock();
            self.idle_cond.notify_one();
        }
    }

    /// Worker `w`'s counters.
    fn worker_snapshot(&self, w: usize) -> WorkerMetrics {
        WorkerMetrics {
            worker: w,
            fires: self.fires[w].load(Ordering::Relaxed),
            steals: self.steals[w].load(Ordering::Relaxed),
            queue_depth: self.queue_max[w].load(Ordering::Relaxed),
            busy_micros: self.busy_us[w].load(Ordering::Relaxed),
        }
    }

    /// Pop ready work for worker `w`: its own best entry first (LIFO slot,
    /// then the heap minimum with lazy re-keying), then steal the *best*
    /// heap entry from the other workers. Returns `(actor, stolen)`.
    fn pop(&self, w: usize) -> Option<(usize, bool)> {
        if let Some(e) = self.queues[w].lock().pop_with(|a| self.key_of(a)) {
            return Some((e.actor, false));
        }
        let n = self.queues.len();
        for i in 1..n {
            let victim = (w + i) % n;
            if let Some(e) = self.queues[victim].lock().steal_best() {
                return Some((e.actor, true));
            }
        }
        None
    }

    /// An idle worker's wait: until a push or the shutdown notifies it,
    /// unless the queues hold work or the hub shuts down, both read again
    /// under the idle lock.
    fn wait_for_work(&self) {
        let mut idle = self.idle_lock.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if !self.shutdown.load(Ordering::Acquire) && self.queues.iter().all(|q| q.lock().is_empty()) {
            self.idle_cond.wait(&mut idle);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn register_deadline(&self, at: Timestamp, actor: usize) {
        self.timer.lock().push(std::cmp::Reverse((at.as_micros(), actor)));
        self.timer_cond.notify_one();
    }

    /// The timer's wait: until the earlier of its earliest deadline and
    /// `tick` (the series' next sample), untimed with neither, computed
    /// under the heap's lock, which a new deadline or the shutdown takes
    /// before it notifies.
    fn timer_wait(&self, tick: Option<Timestamp>) {
        let mut heap = self.timer.lock();
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let earliest = heap.peek().map(|&std::cmp::Reverse((t, _))| Timestamp(t));
        match earliest.into_iter().chain(tick).min() {
            Some(t) => {
                self.timer_cond.wait_for(&mut heap, t.since(self.clock.now()).to_std());
            }
            None => self.timer_cond.wait(&mut heap),
        }
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        drop(self.idle_lock.lock());
        self.idle_cond.notify_all();
        drop(self.timer.lock());
        self.timer_cond.notify_all();
    }
}

struct PoolShared {
    hub: Arc<WakeHub>,
    run: Run,
    tasks: Vec<Mutex<Task>>,
    live: AtomicUsize,
}

impl Director for PoolDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let (mut run, contexts) = Run::open(workflow, self.telemetry.clone(), self.clock.clone())?;
        let stats = self
            .paused_stats
            .take()
            .unwrap_or_else(|| Arc::new(StatsModule::new(workflow)));
        run.stats = Some(stats.clone());
        let n_actors = workflow.actor_count();
        let workers = self.workers;
        self.policy.prepare(workflow);
        let source_flags: Vec<bool> = workflow
            .actor_ids()
            .map(|id| workflow.node(id).is_source)
            .collect();
        let inboxes = workflow.actor_ids().map(|id| run.fabric.inbox(id).clone()).collect();
        let hub = Arc::new(WakeHub::new(
            workers,
            self.policy.clone(),
            stats.clone(),
            self.clock.clone(),
            source_flags,
            inboxes,
        ));
        let waker = hub.clone();
        run.fabric.set_wake(move |id| waker.schedule(id.0));
        let tasks = Task::take_all(workflow, contexts).into_iter().map(Mutex::new).collect();
        let shared = Arc::new(PoolShared {
            hub: hub.clone(),
            run,
            tasks,
            live: AtomicUsize::new(n_actors),
        });

        for a in 0..n_actors {
            hub.schedule(a);
        }
        if n_actors == 0 {
            hub.begin_shutdown();
        }
        // The workers, then the timer. A thread that fails to spawn fails
        // the run, whose latch schedules every task so that each ends at its
        // next step; with no worker to step them, the tasks come back as
        // they are.
        let mut handles = Vec::with_capacity(workers + 1);
        for w in 0..=workers {
            let (on_thread, builder) = (shared.clone(), thread::Builder::new());
            let spawned = if w < workers {
                builder.name(format!("cwf-pool-{w}")).spawn(move || worker_loop(&on_thread, w))
            } else {
                builder.name("cwf-pool-timer".to_string()).spawn(move || timer_loop(&on_thread))
            };
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    shared.run.fail(Error::Director(format!("failed to spawn a pool thread: {e}")));
                    if w == 0 {
                        hub.begin_shutdown();
                    }
                    break;
                }
            }
        }
        // A worker leaves only once the hub shuts down, which wakes the timer.
        for handle in handles {
            if handle.join().is_err() {
                shared.run.fail(Error::Director("a pool thread panicked".to_string()));
            }
        }

        if let Some(t) = &self.telemetry {
            for w in 0..workers {
                t.observer.on_worker(&hub.worker_snapshot(w));
            }
        }

        let shared = Arc::try_unwrap(shared)
            .map_err(|_| Error::Director("pool shared state still referenced".to_string()))?;
        let tasks = shared.tasks.into_iter().map(Mutex::into_inner).collect();
        let run = shared.run;
        if run.end_tasks(workflow, tasks)? == Progress::Paused {
            self.paused_stats = Some(stats);
        }
        Ok(run.report())
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }
}

fn worker_loop(shared: &Arc<PoolShared>, w: usize) {
    WORKER_ID.with(|c| c.set(w));
    let hub = &shared.hub;
    loop {
        match hub.pop(w) {
            Some((actor, stolen)) => {
                if stolen {
                    hub.steals[w].fetch_add(1, Ordering::Relaxed);
                }
                run_actor(shared, w, actor);
            }
            None => {
                if hub.shutdown.load(Ordering::Acquire) {
                    break;
                }
                hub.wait_for_work();
            }
        }
    }
}

/// Run one scheduled step of `actor` on worker `w`, handling the
/// readiness state machine around it: what the task waits for becomes a
/// requeue, a timer registration, nothing (the fabric wakes it), or its
/// end.
fn run_actor(shared: &Arc<PoolShared>, w: usize, actor: usize) {
    let hub = &shared.hub;
    let run = &shared.run;
    hub.states[actor].store(RUNNING, Ordering::Release);
    let mut task = shared.tasks[actor].lock();
    if task.ended() {
        drop(task);
        hub.states[actor].store(IDLE, Ordering::Release);
        return;
    }
    let (wait, fired) = task.step(run);
    if let Some(fired) = fired.filter(|fired| fired.fired) {
        hub.fires[w].fetch_add(1, Ordering::Relaxed);
        hub.busy_us[w].fetch_add(fired.busy.as_micros(), Ordering::Relaxed);
        hub.policy.on_fire(actor, fired.busy);
    }
    match wait {
        Wait::Ready => {
            drop(task);
            hub.states[actor].store(QUEUED, Ordering::Release);
            // A self-push right after running: cache-warm LIFO candidate.
            hub.push(actor, true);
            return;
        }
        Wait::Rest(Some(at)) => hub.register_deadline(at, actor),
        Wait::Rest(None) => {}
        Wait::Finish => {
            task.end(run);
            if shared.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                hub.begin_shutdown();
            }
        }
    }
    drop(task);
    if hub.states[actor]
        .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        // A wakeup arrived mid-step (state is RERUN): honor it.
        hub.states[actor].store(QUEUED, Ordering::Release);
        hub.push(actor, false);
    }
}

/// The timer thread: schedules every actor whose registered instant (a
/// source arrival or backoff, a window-formation deadline, the run's
/// elapsed bound) has come, and samples the time series.
fn timer_loop(shared: &Arc<PoolShared>) {
    let hub = &shared.hub;
    let run = &shared.run;
    let series = run.tele.as_ref().and_then(|t| t.series.as_ref());
    while !hub.shutdown.load(Ordering::Acquire) {
        // Time-series sampling rides the timer thread too; when a point
        // is taken, add the per-worker occupancy gauges only the pool
        // can see.
        let now = run.clock.now();
        if let Some(series) = series.filter(|s| s.maybe_sample(now)) {
            for (w, busy) in hub.busy_us.iter().enumerate() {
                series.record_point(&format!("worker_busy_us:{w}"), now.as_micros(), busy.load(Ordering::Relaxed));
            }
        }
        let now = run.clock.now().as_micros();
        loop {
            let mut heap = hub.timer.lock();
            match heap.peek() {
                Some(&std::cmp::Reverse((t, a))) if t <= now => {
                    heap.pop();
                    drop(heap);
                    hub.schedule(a);
                }
                _ => break,
            }
        }
        hub.timer_wait(series.map(|s| s.next_tick()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, FireContext, IoSignature};
    use crate::actors::{Collector, PushSource, TimedSource, VecSource};
    use crate::graph::WorkflowBuilder;
    use crate::time::Micros;
    use crate::token::Token;
    use crate::window::{GroupBy, WindowSpec};
    use std::time::Duration;

    struct AddOne;
    impl Actor for AddOne {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            while let Some(w) = ctx.get(0) {
                for t in w.tokens() {
                    ctx.emit(0, Token::Int(t.as_int()? + 1));
                }
            }
            Ok(())
        }
    }

    #[test]
    fn runs_linear_pipeline_to_completion() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("pipeline");
        let s = b.add_actor("src", VecSource::new((0..10).map(Token::Int).collect()));
        let a = b.add_actor("inc", AddOne);
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (a, "in")).unwrap();
        b.link((a, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let report = PoolDirector::new().with_workers(2).run(&mut wf).unwrap();
        assert_eq!(c.tokens(), (1..=10).map(Token::Int).collect::<Vec<_>>());
        assert!(report.firings >= 11);
        assert_eq!(report.events_routed, 20);
    }

    #[test]
    fn fan_out_and_merge() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("diamond");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1), Token::Int(2)]));
        let a1 = b.add_actor("a1", AddOne);
        let a2 = b.add_actor("a2", AddOne);
        let u = b.add_actor("union", crate::actors::Union::new(2));
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (a1, "in")).unwrap();
        b.link((s, "out"), (a2, "in")).unwrap();
        b.link((a1, "out"), (u, "in0")).unwrap();
        b.link((a2, "out"), (u, "in1")).unwrap();
        b.link((u, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        PoolDirector::new().with_workers(3).run(&mut wf).unwrap();
        let mut got: Vec<i64> = c.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![2, 2, 3, 3], "both branches see both tokens");
    }

    #[test]
    fn grouped_sliding_windows_under_the_pool() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("windows");
        let reports: Vec<Token> = vec![(1, 10), (2, 30), (1, 11), (2, 31), (1, 12)]
            .into_iter()
            .map(|(car, pos)| Token::record().field("carid", car).field("pos", pos).build())
            .collect();
        let s = b.add_actor("src", VecSource::new(reports));
        let pairs = b.add_actor(
            "pairs",
            crate::actors::FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
                if w.len() < 2 {
                    return Ok(());
                }
                let first = w.events.first().unwrap().token.int_field("pos")?;
                let last = w.events.last().unwrap().token.int_field("pos")?;
                emit(0, Token::Int(last - first));
                Ok(())
            }),
        );
        let k = b.add_actor("sink", c.actor());
        b.link_windowed(
            (s, "out"),
            (pairs, "in"),
            WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"])),
        )
        .unwrap();
        b.link((pairs, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        PoolDirector::new().with_workers(2).run(&mut wf).unwrap();
        let mut got: Vec<i64> = c.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![1, 1, 1]);
    }

    #[test]
    fn timed_window_timeout_fires_under_timer_thread() {
        // A lone event in a 20ms tumbling window must come out via the
        // shared timer (no later event ever closes the window).
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("timeout");
        let s = b.add_actor("src", TimedSource::new(vec![(Timestamp(0), Token::Int(1))]));
        let agg = b.add_actor(
            "agg",
            crate::actors::FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
                emit(0, Token::Int(w.len() as i64));
                Ok(())
            }),
        );
        let k = b.add_actor("sink", c.actor());
        b.link_windowed((s, "out"), (agg, "in"), WindowSpec::tumbling_time(Micros::from_millis(20)))
        .unwrap();
        b.link((agg, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        PoolDirector::new().with_workers(1).run(&mut wf).unwrap();
        assert_eq!(c.tokens(), vec![Token::Int(1)]);
    }

    #[test]
    fn push_source_end_to_end() {
        let c = Collector::new();
        let (src, handle) = PushSource::new();
        let mut b = WorkflowBuilder::new("push");
        let s = b.add_actor("src", src);
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let producer = std::thread::spawn(move || {
            for i in 0..5 {
                handle.push(Token::Int(i));
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        PoolDirector::new().with_workers(2).run(&mut wf).unwrap();
        producer.join().unwrap();
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn actor_error_is_reported() {
        struct Boom;
        impl Actor for Boom {
            fn signature(&self) -> IoSignature {
                IoSignature::sink("in")
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
                Err(Error::actor("boom", "fire", "deliberate"))
            }
        }
        let mut b = WorkflowBuilder::new("err");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
        let k = b.add_actor("boom", Boom);
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let err = PoolDirector::new().with_workers(2).run(&mut wf).unwrap_err();
        assert!(matches!(err, Error::Actor { .. }));
    }

    #[test]
    fn worker_count_is_configurable() {
        let d = PoolDirector::new().with_workers(0);
        assert_eq!(d.workers, 1, "clamped to at least one worker");
        let d = PoolDirector::new().with_workers(7);
        assert_eq!(d.workers, 7);
    }

    #[test]
    fn every_policy_runs_the_pipeline_to_completion() {
        use super::super::pool_policy::{OldestWave, Quantum, RateBased};
        let mk = |policy: Arc<dyn super::super::pool_policy::PoolPolicy>| {
            let c = Collector::new();
            let mut b = WorkflowBuilder::new("pipeline");
            let s = b.add_actor("src", VecSource::new((0..10).map(Token::Int).collect()));
            let a = b.add_actor("inc", AddOne);
            let k = b.add_actor("sink", c.actor());
            b.set_priority(a, 10);
            b.set_priority(k, 5);
            b.link((s, "out"), (a, "in")).unwrap();
            b.link((a, "out"), (k, "in")).unwrap();
            let mut wf = b.build().unwrap();
            let mut d = PoolDirector::new().with_workers(2).with_policy(policy);
            let report = d.run(&mut wf).unwrap();
            (c.tokens(), report)
        };
        for (name, policy) in [
            ("rb", Arc::new(RateBased) as Arc<dyn super::super::pool_policy::PoolPolicy>),
            ("edf", Arc::new(OldestWave)),
            ("qbs", Arc::new(Quantum::default())),
        ] {
            let (tokens, report) = mk(policy);
            assert_eq!(
                tokens,
                (1..=10).map(Token::Int).collect::<Vec<_>>(),
                "policy {name} must not reorder a linear pipeline"
            );
            assert_eq!(report.events_routed, 20, "policy {name}");
        }
    }

    #[test]
    fn statistics_carry_over_checkpoint_pauses() {
        use crate::checkpoint::QuiesceHook;
        use crate::engine::StopCondition;
        use crate::telemetry::MultiObserver;

        let c = Collector::new();
        let mut b = WorkflowBuilder::new("segments");
        let s = b.add_actor("src", VecSource::new((0..40).map(Token::Int).collect()));
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let mut d = PoolDirector::new().with_workers(1);
        d.instrument(Telemetry {
            checkpoint: Some(QuiesceHook::new(Some(StopCondition::Firings(10)))),
            ..Telemetry::new(Arc::new(MultiObserver::default()))
        });
        let first = d.run(&mut wf).unwrap();
        let after_first = c.len() as u64;
        let second = d.run(&mut wf).unwrap();
        assert!(after_first > 0, "the sink fired in the first segment");
        let stats = d.paused_stats.as_ref().expect("the second segment paused too");
        assert_eq!(stats.fires(k.0), c.len() as u64, "sink firings of both segments");
        assert_eq!(stats.fires(s.0) + stats.fires(k.0), first.firings + second.firings);
    }

    /// A one-worker hub over a two-actor workflow, on the wall clock.
    fn idle_hub() -> WakeHub {
        let mut b = WorkflowBuilder::new("hub");
        let s = b.add_actor("src", VecSource::new(vec![]));
        let k = b.add_actor("sink", Collector::new().actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let stats = Arc::new(StatsModule::new(&b.build().unwrap()));
        let clock = Arc::new(WallClock::new());
        WakeHub::new(1, Arc::new(Fifo), stats, clock, vec![true, false], vec![ActorInbox::new(0), ActorInbox::new(1)])
    }

    /// Whether `wait` returns within 5 s, run on a helper thread: a wait
    /// that sleeps through its wake (now untimed) fails the test instead of
    /// hanging it.
    fn returns(hub: &Arc<WakeHub>, wait: fn(&WakeHub)) -> bool {
        let (hub, (done, returned)) = (hub.clone(), std::sync::mpsc::channel());
        thread::spawn(move || {
            wait(&hub);
            let _ = done.send(());
        });
        returned.recv_timeout(Duration::from_secs(5)).is_ok()
    }

    #[test]
    fn a_push_before_the_idle_wait_is_not_slept_through() {
        // The worker's pop found nothing; the push lands before it waits.
        let hub = Arc::new(idle_hub());
        assert_eq!(hub.pop(0), None);
        hub.push(1, false);
        assert!(returns(&hub, WakeHub::wait_for_work), "the idle wait slept with work queued");
        assert_eq!(hub.pop(0), Some((1, false)));
    }

    #[test]
    fn a_deadline_before_the_timer_wait_is_not_slept_through() {
        // The timer found nothing due; a due deadline lands before it waits.
        let hub = Arc::new(idle_hub());
        hub.register_deadline(hub.clock.now(), 1);
        assert!(returns(&hub, |hub| hub.timer_wait(None)), "the timer slept past a due deadline");
    }

    #[test]
    fn policy_name_is_exposed() {
        assert_eq!(PoolDirector::new().policy_name(), "fifo");
        let d = PoolDirector::new().with_policy(Arc::new(super::super::pool_policy::OldestWave));
        assert_eq!(d.policy_name(), "edf");
    }
}
