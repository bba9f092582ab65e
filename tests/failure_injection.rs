//! Failure injection and recovery: an actor erroring mid-run must surface
//! cleanly from every director (no hang, no panic, the error preserved),
//! and a run killed mid-stream must recover from its checkpoint and
//! reconverge on the uninterrupted run's outputs.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use confluence::core::actors::{Collector, TimedSource, VecSource};
use confluence::core::actor::{Actor, FireContext, IoSignature, SdfRates};
use confluence::core::channel::ChannelPolicy;
use confluence::core::checkpoint;
use confluence::core::director::ddf::DdfDirector;
use confluence::core::director::de::DeDirector;
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::sdf::SdfDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::error::{Error, Result};
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::telemetry::{TraceConfig, Tracer};
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::linearroad::{self, LrOptions, TollNotification, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::QbsScheduler;
use confluence::sched::ScwfDirector;

/// Fails on the N-th firing.
struct FailsAfter {
    remaining: u32,
    rated: bool,
}

impl Actor for FailsAfter {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(_w) = ctx.get(0) {
            if self.remaining == 0 {
                return Err(Error::actor("failer", "fire", "injected fault"));
            }
            self.remaining -= 1;
        }
        Ok(())
    }
    fn rates(&self) -> Option<SdfRates> {
        if self.rated {
            Some(SdfRates {
                consume: vec![1],
                produce: vec![],
            })
        } else {
            None
        }
    }
}

struct RatedSource(Vec<Token>);
impl Actor for RatedSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }
    fn prefire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(!self.0.is_empty())
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        ctx.emit(0, self.0.remove(0));
        Ok(())
    }
    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(!self.0.is_empty())
    }
    fn is_source(&self) -> bool {
        true
    }
    fn next_arrival(&self) -> Option<confluence::core::time::Timestamp> {
        if self.0.is_empty() {
            None
        } else {
            Some(confluence::core::time::Timestamp::ZERO)
        }
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![],
            produce: vec![1],
        })
    }
}

fn faulty_workflow(rated: bool) -> Workflow {
    let mut b = WorkflowBuilder::new("faulty");
    let s = if rated {
        b.add_actor("src", RatedSource((0..10).map(Token::Int).collect()))
    } else {
        b.add_actor("src", VecSource::new((0..10).map(Token::Int).collect()))
    };
    let k = b.add_actor("failer", FailsAfter { remaining: 3, rated });
    b.link((s, "out"), (k, "in")).unwrap();
    b.build().unwrap()
}

fn assert_injected(err: Error) {
    match err {
        Error::Actor { actor, message, .. } => {
            assert_eq!(actor, "failer");
            assert_eq!(message, "injected fault");
        }
        other => panic!("unexpected error kind: {other}"),
    }
}

#[test]
fn threaded_surfaces_actor_errors() {
    let mut wf = faulty_workflow(false);
    assert_injected(ThreadedDirector::new().run(&mut wf).unwrap_err());
}

#[test]
fn ddf_surfaces_actor_errors() {
    let mut wf = faulty_workflow(false);
    assert_injected(DdfDirector::new().run(&mut wf).unwrap_err());
}

#[test]
fn de_surfaces_actor_errors() {
    let mut wf = faulty_workflow(false);
    assert_injected(DeDirector::new().run(&mut wf).unwrap_err());
}

#[test]
fn sdf_surfaces_actor_errors() {
    let mut wf = faulty_workflow(true);
    assert_injected(SdfDirector::new().run(&mut wf).unwrap_err());
}

#[test]
fn scwf_surfaces_actor_errors() {
    let mut wf = faulty_workflow(false);
    let mut d = ScwfDirector::virtual_time(
        Box::new(QbsScheduler::new(500, 5)),
        Box::new(TableCostModel::uniform(Micros(10), Micros(1))),
    );
    assert_injected(d.run(&mut wf).unwrap_err());
}

#[test]
fn pool_surfaces_actor_errors() {
    // N workers racing over the faulty graph: the injected error must
    // surface from the join without hanging and without losing its
    // identity to a generic shutdown error.
    for workers in [2, 4] {
        let mut wf = faulty_workflow(false);
        assert_injected(
            PoolDirector::new()
                .with_workers(workers)
                .run(&mut wf)
                .unwrap_err(),
        );
    }
}

#[test]
fn pool_error_releases_blocked_writers() {
    // A tiny Block-policy channel keeps the source's task parked on queue
    // space for most of the run; when the failer errors, shutdown must
    // wake the parked writer instead of leaving it waiting for space that
    // will never come (the run would hang, not fail).
    let mut b = WorkflowBuilder::new("blocked-faulty");
    let s = b.add_actor("src", VecSource::new((0..200).map(Token::Int).collect()));
    let k = b.add_actor(
        "failer",
        FailsAfter {
            remaining: 3,
            rated: false,
        },
    );
    b.link((s, "out"), (k, "in")).unwrap();
    b.channel_policy((k, "in"), ChannelPolicy::block(2)).unwrap();
    let mut wf = b.build().unwrap();
    assert_injected(
        PoolDirector::new()
            .with_workers(2)
            .run(&mut wf)
            .unwrap_err(),
    );
}

// ---------------------------------------------------------------------------
// Kill-and-recover: checkpointed runs reconverge after a mid-stream kill
// ---------------------------------------------------------------------------

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "confluence-failure-ckpt-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Running-sum transform: stateful, so a recovery that loses or doubles
/// state shows up as wrong sums, not just missing tokens. `per_window` is
/// how long it sleeps per window, so a fast source can build a backlog.
struct RunningSum {
    sum: i64,
    per_window: Duration,
}

impl Actor for RunningSum {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            std::thread::sleep(self.per_window);
            for t in w.tokens() {
                self.sum += t.as_int()?;
                ctx.emit(0, Token::Int(self.sum));
            }
        }
        Ok(())
    }
    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = confluence::core::checkpoint::codec::Encoder::new();
        e.i64(self.sum);
        Ok(Some(e.into_bytes()))
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.sum = confluence::core::checkpoint::codec::Decoder::new(bytes).i64()?;
        Ok(())
    }
}

fn summing_workflow(n: i64, per_window: Duration) -> (Workflow, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("ckpt-recover");
    let s = b.add_actor("src", VecSource::new((1..=n).map(Token::Int).collect()));
    let a = b.add_actor("sum", RunningSum { sum: 0, per_window });
    let k = b.add_actor("sink", c.actor());
    b.link((s, "out"), (a, "in")).unwrap();
    b.link((a, "out"), (k, "in")).unwrap();
    (b.build().unwrap(), c)
}

fn running_sums(n: i64) -> Vec<Token> {
    (1..=n)
        .scan(0i64, |s, i| {
            *s += i;
            Some(Token::Int(*s))
        })
        .collect()
}

/// A checkpoint requested while writers sit in `OnFull::Block`
/// backpressure (capacity 2) must not snapshot a torn queue. A writer
/// blocked or parked on a full port admits the rest of its batch over
/// capacity before the capture, so recovery replays exactly once — wrong
/// sums or missing tokens here would mean a window was snapshotted
/// half-delivered.
#[test]
fn checkpoint_under_block_backpressure_is_not_torn() {
    for name in ["threaded", "pool"] {
        let dir = tmpdir(&format!("backpressure-{name}"));
        let mk = |wf: Workflow| match name {
            "pool" => Engine::new(wf).configure(ExecConfig::new().workers(2)),
            _ => Engine::new(wf),
        };
        {
            let (wf, _c) = summing_workflow(30, Duration::ZERO);
            let mut engine = mk(wf).configure(
                ExecConfig::new()
                    .channel_policy(ChannelPolicy::block(2))
                    .checkpoint_every(StopCondition::Firings(10), &dir),
            );
            engine.run_until(StopCondition::Firings(40)).unwrap();
        }
        assert!(
            dir.join(checkpoint::SNAPSHOT_FILE).exists(),
            "{name}: killed run wrote a snapshot"
        );
        let (wf, c) = summing_workflow(30, Duration::ZERO);
        let mut engine = mk(wf).configure(
            ExecConfig::new()
                .channel_policy(ChannelPolicy::block(2))
                .recover_from(&dir),
        );
        engine.run().unwrap();
        assert_eq!(
            c.tokens(),
            running_sums(30),
            "{name}: recovery under Block backpressure reconverges exactly"
        );
    }
}

/// A pause stops every actor at its next firing boundary and captures
/// what is queued rather than draining it: a fast source ahead of a slow
/// running sum leaves windows in the sum's inbox, the snapshot carries
/// them, and recovery still yields every running sum exactly once.
#[test]
fn pause_captures_the_backlog_and_recovers_exactly() {
    for name in ["threaded", "pool"] {
        let dir = tmpdir(&format!("backlog-{name}"));
        let mk = |wf: Workflow| match name {
            "pool" => Engine::new(wf).configure(ExecConfig::new().workers(2)),
            _ => Engine::new(wf),
        };
        let slow = Duration::from_millis(2);
        {
            let (wf, _c) = summing_workflow(100, slow);
            let mut engine = mk(wf).configure(
                ExecConfig::new().checkpoint_every(StopCondition::Firings(40), &dir),
            );
            engine.run_until(StopCondition::Firings(120)).unwrap();
        }
        let snapshot = checkpoint::Checkpoint::read_from_dir(&dir).unwrap();
        let queued: usize = snapshot.fabric.actors.iter().map(|a| a.inbox.len()).sum();
        assert!(queued > 0, "{name}: the pause captured the backlog, not drained it");
        let (wf, c) = summing_workflow(100, slow);
        let mut engine = mk(wf).configure(ExecConfig::new().recover_from(&dir));
        engine.run().unwrap();
        assert_eq!(c.tokens(), running_sums(100), "{name}: recovery reconverges exactly");
    }
}

/// The scheduled (SCWF) director checkpoints at its dispatch boundaries
/// and recovers through the same engine path as the stream directors.
#[test]
fn scwf_kill_and_recover_reconverges() {
    let dir = tmpdir("scwf");
    let scwf = || {
        ScwfDirector::virtual_time(
            Box::new(QbsScheduler::new(500, 5)),
            Box::new(TableCostModel::uniform(Micros(10), Micros(1))),
        )
    };
    {
        let (wf, _c) = summing_workflow(20, Duration::ZERO);
        let mut engine = Engine::new(wf).with_director(scwf()).configure(
            ExecConfig::new().checkpoint_every(StopCondition::Firings(5), &dir),
        );
        engine.run_until(StopCondition::Firings(30)).unwrap();
    }
    assert!(dir.join(checkpoint::SNAPSHOT_FILE).exists());
    let (wf, c) = summing_workflow(20, Duration::ZERO);
    let mut engine = Engine::new(wf)
        .with_director(scwf())
        .configure(ExecConfig::new().recover_from(&dir));
    engine.run().unwrap();
    assert_eq!(c.tokens(), running_sums(20));
}

// ---------------------------------------------------------------------------
// Linear Road kill-and-recover
// ---------------------------------------------------------------------------

/// Deterministic (no-accident) trace: the toll stream it produces is
/// byte-identical across directors (see tests/linearroad_sharded.rs), so
/// it can anchor an exact recovery comparison.
fn lr_workload() -> Workload {
    Workload::generate(WorkloadConfig {
        duration_secs: 30,
        l_rating: 0.05,
        expressways: 1,
        seed: 7,
        base_initial_cars: 200,
        base_final_cars: 400,
        accident_every_secs: None,
        accident_duration_secs: 0,
    })
}

fn lr_build(w: &Workload) -> linearroad::LinearRoad {
    linearroad::build(
        w,
        &LrOptions {
            composite_subworkflows: false,
            arrival_speedup: 100,
            ..LrOptions::default()
        },
    )
    .unwrap()
}

fn toll_tuples(out: &linearroad::actors::NotificationOutput) -> Vec<(i64, i64, i64, u64)> {
    let mut tolls: Vec<(i64, i64, i64, u64)> = out
        .items()
        .iter()
        .map(|i| {
            let n = TollNotification::from_token(&i.token).unwrap();
            (n.carid, n.time, n.seg, n.toll.to_bits())
        })
        .collect();
    tolls.sort_unstable();
    tolls
}

/// The tentpole acceptance test: Linear Road killed mid-run recovers from
/// its checkpoint (actor state + in-flight windows + relational store +
/// source event logs) and the recovered toll stream is byte-identical to
/// the uninterrupted run's, under the threaded and pooled directors.
#[test]
fn linear_road_kill_and_recover_reconverges() {
    let w = lr_workload();
    for name in ["threaded", "pool"] {
        let engine_for = |wf: Workflow| match name {
            "pool" => Engine::new(wf).configure(ExecConfig::new().workers(4)),
            _ => Engine::new(wf),
        };
        // Uninterrupted reference run.
        let lr = lr_build(&w);
        let toll_ref = lr.toll_output.clone();
        let mut engine = engine_for(lr.workflow);
        let report = engine.run().unwrap();
        let reference = toll_tuples(&toll_ref);
        assert!(!reference.is_empty(), "{name}: trace must produce tolls");
        let total_firings = report.firings.max(60);

        // Killed run: checkpoint periodically, stop mid-stream, discard
        // everything in memory.
        let dir = tmpdir(&format!("linearroad-{name}"));
        {
            let lr = lr_build(&w);
            let store = lr.store.clone();
            let mut engine = engine_for(lr.workflow)
                .register_checkpoint_resource("relstore", Arc::new(store))
                .configure(ExecConfig::new().checkpoint_every(
                    StopCondition::Firings(total_firings / 6),
                    &dir,
                ));
            engine
                .run_until(StopCondition::Firings(total_firings / 2))
                .unwrap();
        }
        assert!(
            dir.join(checkpoint::SNAPSHOT_FILE).exists(),
            "{name}: killed run wrote a snapshot"
        );

        // Recovery: a fresh process rebuilds the same workflow (fresh
        // store with the same DDL, empty outputs) and recovers.
        let lr = lr_build(&w);
        let toll_rec = lr.toll_output.clone();
        let store = lr.store.clone();
        let mut engine = engine_for(lr.workflow)
            .register_checkpoint_resource("relstore", Arc::new(store))
            .configure(ExecConfig::new().recover_from(&dir));
        engine.run().unwrap();
        assert_eq!(
            toll_tuples(&toll_rec),
            reference,
            "{name}: recovered toll stream diverged from the uninterrupted run"
        );
    }
}

// ---------------------------------------------------------------------------
// Wave-tree reconvergence
// ---------------------------------------------------------------------------

/// Doubles each integer token (no SDF rates needed: the recovery wave test
/// runs under DE).
struct Doubler;

impl Actor for Doubler {
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

/// src → double → sinkA, with src fanned out to sinkB: one external event
/// is a three-actor wave with a fan-out edge. Scheduled arrivals give each
/// root a distinct, deterministic origin under DE.
fn traced_pipeline(events: u64) -> Workflow {
    let schedule: Vec<(Timestamp, Token)> = (0..events)
        .map(|i| (Timestamp(i * 1_000), Token::Int(i as i64)))
        .collect();
    let mut b = WorkflowBuilder::new("traced-recovery");
    let s = b.add_actor("src", TimedSource::new(schedule));
    let d = b.add_actor("double", Doubler);
    let a = b.add_actor("sinkA", Collector::new().actor());
    let x = b.add_actor("sinkB", Collector::new().actor());
    b.link((s, "out"), (d, "in")).unwrap();
    b.link((s, "out"), (x, "in")).unwrap();
    b.link((d, "out"), (a, "in")).unwrap();
    b.build().unwrap()
}

/// Recovery preserves causal lineage, not just outputs: every wave of the
/// uninterrupted run appears — origin-normalized — either in the recovered
/// run (replayed waves) or in the killed run before its snapshot, with an
/// identical span structure; and the recovered run invents no wave the
/// uninterrupted run lacks.
#[test]
fn recovered_wave_tree_matches_uninterrupted() {
    const EVENTS: u64 = 8;
    let traced = |engine: Engine| -> (Engine, Arc<Tracer>) {
        let tracer = Arc::new(Tracer::for_workflow(engine.workflow(), TraceConfig::default()));
        (engine.with_tracer(tracer.clone()), tracer)
    };
    let by_origin = |tracer: &Tracer| -> HashMap<u64, Vec<String>> {
        tracer
            .report()
            .waves
            .iter()
            .map(|w| (w.origin.as_micros(), w.structure()))
            .collect()
    };

    // Uninterrupted reference.
    let (mut engine, t_ref) =
        traced(Engine::new(traced_pipeline(EVENTS)).with_director(DeDirector::new()));
    engine.run().unwrap();
    let reference = by_origin(&t_ref);
    assert_eq!(reference.len(), EVENTS as usize, "one wave per external event");

    // Killed run: two snapshots, then a mid-stream stop.
    let dir = tmpdir("wave-tree");
    let killed = {
        let (mut engine, t_killed) = traced(
            Engine::new(traced_pipeline(EVENTS))
                .with_director(DeDirector::new())
                .configure(ExecConfig::new().checkpoint_every(StopCondition::Firings(6), &dir)),
        );
        engine.run_until(StopCondition::Firings(14)).unwrap();
        by_origin(&t_killed)
    };
    assert!(dir.join(checkpoint::SNAPSHOT_FILE).exists());

    // Recovered run.
    let (mut engine, t_rec) = traced(
        Engine::new(traced_pipeline(EVENTS))
            .with_director(DeDirector::new())
            .configure(ExecConfig::new().recover_from(&dir)),
    );
    engine.run().unwrap();
    let recovered = by_origin(&t_rec);

    for (origin, structure) in &reference {
        match recovered.get(origin) {
            // Waves past the snapshot replay in the recovered run and must
            // rebuild the same causal tree.
            Some(s) => assert_eq!(s, structure, "replayed wave @{origin} diverged"),
            // Waves fully processed before the snapshot live only in the
            // killed run's trace — complete, because checkpoints quiesce.
            None => match killed.get(origin) {
                Some(s) => assert_eq!(s, structure, "pre-snapshot wave @{origin} diverged"),
                None => panic!("wave @{origin} lost by the kill"),
            },
        }
    }
    for (origin, structure) in &recovered {
        assert_eq!(
            reference.get(origin),
            Some(structure),
            "recovered run invented wave @{origin}"
        );
    }
}

#[test]
fn failing_initialize_surfaces_too() {
    struct BadInit;
    impl Actor for BadInit {
        fn signature(&self) -> IoSignature {
            IoSignature::sink("in")
        }
        fn initialize(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
            Err(Error::actor("badinit", "initialize", "nope"))
        }
        fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
            Ok(())
        }
    }
    let mut b = WorkflowBuilder::new("bad-init");
    let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
    let k = b.add_actor("badinit", BadInit);
    b.link((s, "out"), (k, "in")).unwrap();
    let mut wf = b.build().unwrap();
    let err = DdfDirector::new().run(&mut wf).unwrap_err();
    assert!(matches!(err, Error::Actor { .. }));
}
