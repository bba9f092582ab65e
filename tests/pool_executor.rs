//! The pooled work-stealing executor, end-to-end: firings are attributed
//! to workers (and idle workers steal), the shared timer thread closes
//! timed windows without per-actor threads, and the pool produces the same
//! event flow as the thread-per-actor baseline on Linear Road. `Block`
//! backpressure and deadlock relief under both wall-clock directors are
//! `tests/backpressure.rs`'s.

use std::sync::{Arc, Mutex};

use confluence::core::actors::{Collector, TimedSource, VecSource};
use confluence::core::graph::WorkflowBuilder;
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::core::window::WindowSpec;
use confluence::prelude::{Engine, Observer, PoolDirector};
use confluence_bench::runner::{run_linear_road_realtime, RealtimeOptions};
use confluence_linearroad::{Workload, WorkloadConfig};

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
