//! The pooled work-stealing executor, end-to-end: firings are attributed
//! to workers (and idle workers steal), the shared timer thread closes
//! timed windows without per-actor threads, `Block` backpressure parks
//! the blocked *task* instead of a whole OS thread, the deadlock-relief
//! valve still works when writers park, and the pool produces the same
//! event flow as the thread-per-actor baseline on Linear Road.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, TimedSource, VecSource};
use confluence::core::error::Result;
use confluence::core::graph::WorkflowBuilder;
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::core::window::WindowSpec;
use confluence::prelude::{ChannelPolicy, Engine, Observer, PoolDirector};
use confluence_bench::runner::{run_linear_road_realtime, RealtimeOptions};
use confluence_linearroad::{Workload, WorkloadConfig};

/// Sink that dwells on every window, forcing upstream backlog.
struct SlowSink {
    delay: Duration,
    seen: Arc<AtomicU64>,
}

impl Actor for SlowSink {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            thread::sleep(self.delay);
            self.seen.fetch_add(w.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Cycle actor: each token `v > 0` becomes two tokens `v - 1`; stops
/// after processing exactly `budget` windows (see `tests/backpressure.rs`).
struct Doubling {
    seen: Arc<AtomicU64>,
    budget: u64,
}

impl Actor for Doubling {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            self.seen.fetch_add(1, Ordering::Relaxed);
            for t in w.tokens() {
                let v = t.as_int()?;
                if v > 0 {
                    ctx.emit(0, Token::Int(v - 1));
                    ctx.emit(0, Token::Int(v - 1));
                }
            }
        }
        Ok(())
    }
    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(self.seen.load(Ordering::Relaxed) < self.budget)
    }
}

/// Cycle actor: forwards every token unchanged; stops after `budget`
/// windows.
struct Forward {
    seen: Arc<AtomicU64>,
    budget: u64,
}

impl Actor for Forward {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            self.seen.fetch_add(1, Ordering::Relaxed);
            for t in w.tokens() {
                ctx.emit(0, t.clone());
            }
        }
        Ok(())
    }
    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(self.seen.load(Ordering::Relaxed) < self.budget)
    }
}

/// One wide fan-out run on a 4-worker pool. Returns (steals, workers,
/// worker-fires-sum, total-fires).
fn fan_out_run() -> (u64, usize, u64, u64) {
    let mut b = WorkflowBuilder::new("steal");
    let s = b.add_actor("src", VecSource::new((0..400).map(Token::Int).collect()));
    for i in 0..8 {
        let k = b.add_actor(format!("sink{i}"), Collector::new().actor());
        b.link((s, "out"), (k, "in")).unwrap();
    }
    let mut e = Engine::new(b.build().unwrap()).with_director(PoolDirector::new().with_workers(4));
    e.run().unwrap();
    let snap = e.snapshot();
    let steals: u64 = snap.workers.iter().map(|w| w.steals).sum();
    let fires: u64 = snap.workers.iter().map(|w| w.fires).sum();
    (steals, snap.workers.len(), fires, snap.total_fires())
}

/// Every firing is attributed to exactly one worker, and with more
/// workers than the machine has cores, idle workers end up stealing from
/// busy queues. Stealing depends on the OS interleaving worker threads,
/// so the run retries a bounded number of times before declaring failure.
#[test]
fn workers_attribute_fires_and_steal() {
    let mut stole = false;
    for _ in 0..20 {
        let (steals, workers, worker_fires, total_fires) = fan_out_run();
        assert_eq!(workers, 4, "one metrics row per worker");
        assert_eq!(worker_fires, total_fires, "fires partition across workers");
        if steals > 0 {
            stole = true;
            break;
        }
    }
    assert!(stole, "no worker stole a task in 20 fan-out runs");
}

/// A timed window whose closing event arrives far too late: the shared
/// timer thread must fire the 20ms deadline long before the 200ms event
/// (or the source's shutdown flush) could close the window. (Under the
/// thread-per-actor executor every actor polls its own deadlines; the
/// pool centralizes them in one timer.)
#[test]
fn timer_thread_closes_timed_windows() {
    struct CloseTimes(Mutex<Vec<Timestamp>>);
    impl Observer for CloseTimes {
        fn on_window_close(
            &self,
            _actor: confluence::core::graph::ActorId,
            _port: usize,
            _windows: usize,
            _queue_depth: usize,
            at: Timestamp,
        ) {
            self.0.lock().unwrap().push(at);
        }
    }
    let closes = Arc::new(CloseTimes(Mutex::new(Vec::new())));
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("timed");
    let s = b.add_actor(
        "src",
        TimedSource::new(vec![
            (Timestamp(0), Token::Int(42)),
            (Timestamp(200_000), Token::Int(7)),
        ]),
    );
    let k = b.add_actor("sink", c.actor());
    b.link_windowed((s, "out"), (k, "in"), WindowSpec::tumbling_time(Micros::from_millis(20)))
        .unwrap();
    let mut e = Engine::new(b.build().unwrap())
        .with_observer(closes.clone())
        .with_director(PoolDirector::new().with_workers(1));
    e.run().unwrap();
    assert_eq!(c.tokens(), vec![Token::Int(42), Token::Int(7)]);
    let first = *closes.0.lock().unwrap().first().expect("a window closed");
    assert!(
        first.as_micros() < 150_000,
        "first window must close at its ~20ms deadline, not at the 200ms \
         arrival or shutdown (closed at {}us)",
        first.as_micros()
    );
    assert!(e.snapshot().actor("sink").unwrap().windows_closed >= 1);
}

/// The `tests/backpressure.rs` Block bound, now under the pool: a fast
/// source into a slow sink over a 64-slot `Block` channel. The writer's
/// *task* parks at the bound (the worker moves on), nothing is lost, and
/// the backlog stays within 2x the capacity.
#[test]
fn block_policy_bounds_backlog_under_pool() {
    const N: i64 = 300;
    const CAP: usize = 64;
    let seen = Arc::new(AtomicU64::new(0));
    let mut b = WorkflowBuilder::new("overload-block-pool");
    let s = b.add_actor("src", VecSource::new((0..N).map(Token::Int).collect()));
    let k = b.add_actor(
        "sink",
        SlowSink {
            delay: Duration::from_micros(200),
            seen: seen.clone(),
        },
    );
    b.chain(&[s, k]).unwrap();
    b.set_default_channel_policy(ChannelPolicy::block(CAP));
    let mut engine =
        Engine::new(b.build().unwrap()).with_director(PoolDirector::new().with_workers(2));
    engine.run().unwrap();

    assert_eq!(seen.load(Ordering::Relaxed), N as u64, "Block loses nothing");
    let snap = engine.snapshot();
    let sink = snap.actor("sink").expect("sink metrics");
    assert!(
        sink.queue_high_water <= (2 * CAP) as u64,
        "backlog must stay bounded: high water {} > {}",
        sink.queue_high_water,
        2 * CAP
    );
    assert!(
        snap.total_blocks() > 0,
        "a source outpacing the sink must hit the bound"
    );
    assert_eq!(snap.total_shed(), 0, "Block never sheds");
}

/// The artificial-deadlock cycle from `tests/backpressure.rs`, under the
/// pool: with writers parked as tasks (not threads), the timer thread
/// still detects the frozen fabric and grows the smallest full queue.
#[test]
fn artificial_deadlock_relieved_under_pool() {
    let amp_seen = Arc::new(AtomicU64::new(0));
    let fwd_seen = Arc::new(AtomicU64::new(0));
    let mut b = WorkflowBuilder::new("cycle-pool");
    let s = b.add_actor("seed", VecSource::new(vec![Token::Int(4)]));
    let a = b.add_actor(
        "amp",
        Doubling {
            seen: amp_seen.clone(),
            budget: 31,
        },
    );
    let f = b.add_actor(
        "fwd",
        Forward {
            seen: fwd_seen.clone(),
            budget: 30,
        },
    );
    b.chain(&[s, a, f]).unwrap();
    b.link_windowed((f, "out"), (a, "in"), WindowSpec::each_event()).unwrap();
    b.channel_policy((a, "in"), ChannelPolicy::block(2)).unwrap();
    b.channel_policy((f, "in"), ChannelPolicy::block(2)).unwrap();

    let mut engine = Engine::new(b.build().unwrap()).with_director(PoolDirector::new().with_workers(2));
    engine.run().unwrap();

    assert_eq!(amp_seen.load(Ordering::Relaxed), 31);
    assert_eq!(fwd_seen.load(Ordering::Relaxed), 30);
    let snap = engine.snapshot();
    let high = snap
        .actor("amp")
        .expect("amp metrics")
        .queue_high_water
        .max(snap.actor("fwd").expect("fwd metrics").queue_high_water);
    assert!(
        high > 2,
        "deadlock relief must have grown a queue past its capacity (high water {high})"
    );
}

/// Head-to-head on a deterministic (no-accident) Linear Road trace: the
/// pool must route exactly the same events through exactly the same
/// per-actor windows as the thread-per-actor baseline, and produce the
/// same toll notifications. (Firing *counts* are batching-dependent —
/// one wake may drain several windows — so the invariant is over event
/// flow, not wakes.) The trace has 141 toll notifications and stays
/// inside minute 0, so every toll reads the never-written statistics of
/// the minutes before 0 and is exact whatever the thread timing; a toll
/// in a later minute races, on the wall clock, with the writers of the
/// minute before it.
#[test]
fn pool_matches_threaded_event_flow_on_linear_road() {
    let workload = Workload::generate(WorkloadConfig {
        duration_secs: 59,
        l_rating: 1.0,
        expressways: 1,
        seed: 7,
        base_initial_cars: 200,
        base_final_cars: 400,
        accident_every_secs: None,
        accident_duration_secs: 0,
    });
    let threaded = run_linear_road_realtime(&workload, &RealtimeOptions::new(None, 100));
    let pool = run_linear_road_realtime(&workload, &RealtimeOptions::new(Some(2), 100));
    assert_eq!(
        threaded.events_routed, pool.events_routed,
        "channel deliveries diverge"
    );
    assert!(threaded.toll_count >= 100, "trace must actually produce tolls");
    assert_eq!(threaded.toll_count, pool.toll_count, "toll outputs diverge");
    for actor in &threaded.metrics.actors {
        let other = pool.metrics.actor(&actor.name).expect("actor in both runs");
        assert_eq!(
            actor.events_in, other.events_in,
            "event intake diverges at `{}`",
            actor.name
        );
        assert_eq!(
            actor.tokens_out, other.tokens_out,
            "emissions diverge at `{}`",
            actor.name
        );
    }
    assert_eq!(pool.metrics.workers.len(), 2, "pool reports its two workers");
    assert!(pool.firings > 0 && threaded.firings > 0);
}
