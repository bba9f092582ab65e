//! Overload behavior of the bounded fabric, end-to-end: `Block`
//! backpressure bounds the backlog of a fast-source/slow-sink pipeline
//! under both wall-clock directors (the writer's task parks, on its own
//! thread or as a pool task), drop policies shed with exact accounting,
//! `Error` surfaces as [`Error::ChannelFull`], cooperative directors — DDF
//! and the scheduled director alike — soft-admit instead of stalling their
//! scheduling loop, and an artificial deadlock on a cyclic workflow is
//! relieved by growing the smallest full queue (Parks' algorithm).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, VecSource};
use confluence::core::director::ddf::DdfDirector;
use confluence::core::error::{Error, Result};
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::token::Token;
use confluence::core::window::WindowSpec;
use confluence::core::time::Micros;
use confluence::prelude::{ChannelPolicy, Engine, PoolDirector};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

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

/// Emits tokens `0..fanout` for every input window — a one-firing burst
/// that overruns any channel smaller than `fanout`.
struct Burst {
    fanout: i64,
}

impl Actor for Burst {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while ctx.get(0).is_some() {
            for i in 0..self.fanout {
                ctx.emit(0, Token::Int(i));
            }
        }
        Ok(())
    }
}

/// Cycle actor: each token `v > 0` becomes two tokens `v - 1` (so the
/// in-flight population doubles per generation); stops after processing
/// exactly `budget` windows.
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

/// Cycle actor: forwards every token unchanged; stops after processing
/// exactly `budget` windows.
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

/// The engine for `workflow` under the wall-clock director `name`.
fn wall_clock(name: &str, workflow: Workflow) -> Engine {
    match name {
        "pool" => Engine::new(workflow).with_director(PoolDirector::new().with_workers(2)),
        _ => Engine::new(workflow),
    }
}

/// Fast source into a slow sink over a `Block` channel, under the
/// wall-clock director `name`: the writer parks at the bound instead of
/// growing the backlog, nothing is lost, the time it spent parked is
/// reported, and the high-watermark stays within the configured capacity
/// (the sink is live and parks on nothing, so relief never grows the port).
fn block_bounds_backlog(name: &str) {
    const N: i64 = 300;
    const CAP: usize = 64;
    let seen = Arc::new(AtomicU64::new(0));
    let mut b = WorkflowBuilder::new("overload-block");
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
    let mut engine = wall_clock(name, b.build().unwrap());
    engine.run().unwrap();

    assert_eq!(seen.load(Ordering::Relaxed), N as u64, "{name}: Block loses nothing");
    let snap = engine.snapshot();
    let sink = snap.actor("sink").expect("sink metrics");
    assert!(
        sink.queue_high_water <= CAP as u64,
        "{name}: backlog must stay bounded: high water {} > {CAP}",
        sink.queue_high_water
    );
    assert!(
        snap.total_blocks() > 0,
        "{name}: a source outpacing the sink must hit the bound"
    );
    assert!(snap.total_block_time().as_micros() > 0, "{name}: parked time is reported");
    assert_eq!(snap.total_shed(), 0, "{name}: Block never sheds");

    // The backpressure counters ride along in both exchange formats.
    let json = snap.to_json();
    assert!(json.contains("\"blocks\""));
    assert!(json.contains("\"block_us\""));
    assert!(json.contains("\"events_shed\""));
    let prom = snap.to_prometheus();
    assert!(prom.contains("confluence_actor_blocks_total"));
    assert!(prom.contains("confluence_actor_block_microseconds_total"));
    assert!(prom.contains("confluence_actor_events_shed_total"));
}

#[test]
fn block_policy_bounds_backlog() {
    block_bounds_backlog("threaded");
}

/// The same bound under the pool: the writer's *task* parks, not a thread.
#[test]
fn block_policy_bounds_backlog_under_pool() {
    block_bounds_backlog("pool");
}

/// `DropOldest` under sustained overload: every event is either
/// delivered or counted as shed — nothing vanishes from the accounting.
#[test]
fn drop_oldest_sheds_with_exact_accounting() {
    const N: i64 = 200;
    let seen = Arc::new(AtomicU64::new(0));
    let mut b = WorkflowBuilder::new("overload-shed");
    let s = b.add_actor("src", VecSource::new((0..N).map(Token::Int).collect()));
    let k = b.add_actor(
        "sink",
        SlowSink {
            delay: Duration::from_micros(500),
            seen: seen.clone(),
        },
    );
    b.chain(&[s, k]).unwrap();
    b.channel_policy((k, "in"), ChannelPolicy::drop_oldest(8)).unwrap();
    let mut engine = Engine::new(b.build().unwrap());
    engine.run().unwrap();

    let snap = engine.snapshot();
    let delivered = seen.load(Ordering::Relaxed);
    let shed = snap.total_shed();
    assert!(shed > 0, "a fast source into a slow 8-slot sink must shed");
    assert_eq!(
        delivered + shed,
        N as u64,
        "every event is either delivered or shed"
    );
    assert_eq!(snap.actor("sink").expect("sink metrics").events_shed, shed);
    assert_eq!(snap.total_blocks(), 0, "drop policies never block");
}

fn burst_workflow(fanout: i64, policy: ChannelPolicy) -> (Engine, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("burst");
    let s = b.add_actor("src", VecSource::new(vec![Token::Int(0)]));
    let a = b.add_actor("burst", Burst { fanout });
    let k = b.add_actor("sink", c.actor());
    b.chain(&[s, a, k]).unwrap();
    b.channel_policy((k, "in"), policy).unwrap();
    let engine = Engine::new(b.build().unwrap()).with_director(DdfDirector::new());
    (engine, c)
}

/// A cooperative director routes a whole firing's emissions before the
/// sink can drain, so `DropOldest` deterministically keeps the newest
/// `capacity` windows.
#[test]
fn ddf_drop_oldest_keeps_newest_windows() {
    let (mut engine, collector) = burst_workflow(10, ChannelPolicy::drop_oldest(4));
    engine.run().unwrap();
    let expect: Vec<Token> = (6..10).map(Token::Int).collect();
    assert_eq!(collector.tokens(), expect, "oldest windows are shed first");
    let snap = engine.snapshot();
    assert_eq!(snap.total_shed(), 6);
    assert_eq!(snap.actor("sink").expect("sink metrics").events_shed, 6);
}

/// Cooperative directors cannot park their scheduling loop, so `Block`
/// overflows are admitted and recorded as zero-wait blocks instead of
/// being dropped.
#[test]
fn cooperative_director_soft_admits_block_overflow() {
    let (mut engine, collector) = burst_workflow(10, ChannelPolicy::block(4));
    engine.run().unwrap();
    assert_eq!(collector.len(), 10, "soft-admitted Block loses nothing");
    let snap = engine.snapshot();
    assert_eq!(snap.total_blocks(), 6, "each over-capacity put is recorded");
    assert_eq!(snap.total_block_time().as_micros(), 0);
    assert_eq!(snap.total_shed(), 0);
    assert_eq!(
        snap.actor("sink").expect("sink metrics").queue_high_water,
        10
    );
}

/// The `Error` policy turns overload into a run failure naming the
/// saturated port.
#[test]
fn error_policy_surfaces_channel_full() {
    let (mut engine, _collector) = burst_workflow(10, ChannelPolicy::error(4));
    let err = engine.run().expect_err("fifth put must fail");
    assert!(
        matches!(
            err,
            Error::ChannelFull {
                port: 0,
                capacity: 4
            }
        ),
        "unexpected error: {err}"
    );
}

/// Tokens the fan's source emits; each goes to all three sinks.
const FAN: i64 = 60;

/// A source fanned to three sinks under virtual-time SCWF, with a source
/// turn after every internal firing: three windows arrive per window
/// consumed, so some forty wait for each sink by the end of the stream.
/// `policy` bounds the last sink's port.
fn scwf_fan(policy: ChannelPolicy) -> (Engine, [Collector; 3]) {
    let sinks = [Collector::new(), Collector::new(), Collector::new()];
    let mut b = WorkflowBuilder::new("fan");
    let s = b.add_actor("src", VecSource::new((0..FAN).map(Token::Int).collect()));
    for (i, c) in sinks.iter().enumerate() {
        let k = b.add_actor(format!("sink{i}"), c.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        if i == 2 {
            b.channel_policy((k, "in"), policy).unwrap();
        }
    }
    let director = ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(1)),
        Box::new(TableCostModel::uniform(Micros(1), Micros(0))),
    );
    (Engine::new(b.build().unwrap()).with_director(director), sinks)
}

/// The scheduled director's backlog waits in the inbox the channel policy
/// meters, so `DropOldest` sheds there too — over many firings, with
/// every event either delivered or counted, on the bounded sink alone.
#[test]
fn scwf_drop_oldest_sheds_with_exact_accounting() {
    let (mut engine, sinks) = scwf_fan(ChannelPolicy::drop_oldest(4));
    engine.run().unwrap();
    let snap = engine.snapshot();
    let shed = snap.total_shed();
    assert!(shed > 0, "forty windows waiting on a 4-slot port must shed");
    assert_eq!(sinks[2].len() as u64 + shed, FAN as u64, "delivered or shed");
    assert_eq!(snap.actor("sink2").expect("sink2 metrics").events_shed, shed);
    for unbounded in &sinks[..2] {
        assert_eq!(unbounded.len(), FAN as usize);
    }
    let newest = sinks[2].tokens().last().cloned();
    assert_eq!(newest, Some(Token::Int(FAN - 1)), "the newest window survives");
    assert!(
        snap.actor("sink2").unwrap().queue_high_water <= 4,
        "a shedding port never holds more than its capacity"
    );
    assert_eq!(snap.total_blocks(), 0, "drop policies never block");
}

/// `Block` under the scheduled director: over-capacity puts are admitted
/// and recorded as zero-wait blocks.
#[test]
fn scwf_soft_admits_block_overflow() {
    let (mut engine, sinks) = scwf_fan(ChannelPolicy::block(4));
    engine.run().unwrap();
    assert_eq!(sinks[2].len(), FAN as usize, "soft-admitted Block loses nothing");
    let snap = engine.snapshot();
    assert!(snap.total_blocks() > 0, "the port was over capacity most of the run");
    assert_eq!(snap.actor("sink2").expect("sink2 metrics").blocks, snap.total_blocks());
    assert_eq!(snap.total_block_time().as_micros(), 0);
    assert_eq!(snap.total_shed(), 0);
    assert!(snap.actor("sink2").unwrap().queue_high_water > 4);
}

/// `Error` under the scheduled director names the saturated port.
#[test]
fn scwf_error_policy_surfaces_channel_full() {
    let (mut engine, _sinks) = scwf_fan(ChannelPolicy::error(4));
    let err = engine.run().expect_err("the fifth waiting window must fail the run");
    assert!(
        matches!(err, Error::ChannelFull { port: 0, capacity: 4 }),
        "unexpected error: {err}"
    );
}

/// Artificial deadlock on a cyclic workflow (paper/Parks), under the
/// wall-clock director `name`: a doubling amplifier feeding a forwarder
/// feeding back into the amplifier, over 2-slot `Block` channels. The in-flight
/// token population (peaks at 16 for a depth-4 seed) cannot fit in the
/// bounded fabric, so both writers park on each other — the park that
/// closes the cycle grows the smallest full queue at once, and a writer
/// parked on a finished reader has its port grown, until the cascade
/// drains. Firing budgets (31 = 1 seed + 30 forwarded windows; 30 =
/// 2+4+8+16 amplified tokens) terminate the cycle deterministically.
fn deadlock_relieved(name: &str) {
    let amp_seen = Arc::new(AtomicU64::new(0));
    let fwd_seen = Arc::new(AtomicU64::new(0));
    let mut b = WorkflowBuilder::new("cycle");
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

    let mut engine = wall_clock(name, b.build().unwrap());
    engine.run().unwrap();

    assert_eq!(amp_seen.load(Ordering::Relaxed), 31, "{name}");
    assert_eq!(fwd_seen.load(Ordering::Relaxed), 30, "{name}");
    let snap = engine.snapshot();
    assert!(
        snap.total_blocks() > 0,
        "{name}: the doubling cascade must saturate the 2-slot channels"
    );
    assert!(snap.total_block_time().as_micros() > 0, "{name}: parked time is reported");
    let high = snap
        .actor("amp")
        .expect("amp metrics")
        .queue_high_water
        .max(snap.actor("fwd").expect("fwd metrics").queue_high_water);
    assert!(
        high > 2,
        "{name}: deadlock relief must have grown a queue past its capacity (high water {high})"
    );
}

#[test]
fn artificial_deadlock_relieved_by_queue_growth() {
    deadlock_relieved("threaded");
}

/// The same cycle under the pool: with writers parked as tasks (not
/// threads), the park that closes the cycle still grows the smallest full
/// queue.
#[test]
fn artificial_deadlock_relieved_under_pool() {
    deadlock_relieved("pool");
}
