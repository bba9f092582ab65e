//! Failure injection and recovery: an actor erroring or panicking mid-run
//! must surface cleanly from every director (no hang, the error preserved,
//! every actor handed back, `RunPhase::End` announced once), and a run
//! killed mid-stream must recover from its checkpoint and reconverge on
//! the uninterrupted run's outputs.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use confluence::core::actors::{Collector, PushHandle, PushSource, TimedSource, VecSource};
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
use confluence::core::graph::{ActorId, Workflow, WorkflowBuilder};
use confluence::core::telemetry::{FireRecord, Observer, RunPhase, Telemetry, TraceConfig, Tracer};
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::linearroad::{self, LrOptions, TollNotification, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::{FifoScheduler, QbsScheduler};
use confluence::sched::ScwfDirector;

/// Fails on the N-th firing.
struct FailsAfter {
    remaining: u32,
    rated: bool,
    /// Read when the fault fires: a source's emission count, and where to
    /// keep what it read.
    mark: Option<(Arc<AtomicUsize>, Arc<AtomicUsize>)>,
}

impl Actor for FailsAfter {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(_w) = ctx.get(0) {
            if self.remaining == 0 {
                if let Some((emitted, at_fault)) = &self.mark {
                    at_fault.store(emitted.load(Ordering::SeqCst), Ordering::SeqCst);
                }
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
    let k = b.add_actor("failer", FailsAfter { remaining: 3, rated, mark: None });
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

/// Emits `0..n`, one token a firing, counting what it emitted.
struct CountingSource {
    n: usize,
    emitted: Arc<AtomicUsize>,
}

impl Actor for CountingSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let i = self.emitted.fetch_add(1, Ordering::SeqCst);
        ctx.emit(0, Token::Int(i as i64));
        Ok(())
    }
    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(self.emitted.load(Ordering::SeqCst) < self.n)
    }
    fn is_source(&self) -> bool {
        true
    }
}

/// A tiny Block-policy channel keeps the source's task parked on queue
/// space for most of the run. The failer's error ends the run: the parked
/// writer sees the latched error at its next step and ends without
/// `finish`, so the run fails without waiting for Parks relief to grow the
/// queue 2 slots at a time (which, for 200 tokens, took seconds). Counted:
/// after the failing firing the source emits at most what the port holds
/// plus one firing's batch (one token); no relief growth lets more in.
fn error_releases_blocked_writers(director: &mut dyn Director) {
    const CAPACITY: usize = 2;
    let (emitted, at_fault) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let mut b = WorkflowBuilder::new("blocked-faulty");
    let s = b.add_actor("src", CountingSource { n: 200, emitted: emitted.clone() });
    let mark = Some((emitted.clone(), at_fault.clone()));
    let k = b.add_actor("failer", FailsAfter { remaining: 3, rated: false, mark });
    b.link((s, "out"), (k, "in")).unwrap();
    b.channel_policy((k, "in"), ChannelPolicy::block(CAPACITY)).unwrap();
    let mut wf = b.build().unwrap();
    assert_injected(director.run(&mut wf).unwrap_err());
    let (emitted, at_fault) = (emitted.load(Ordering::SeqCst), at_fault.load(Ordering::SeqCst));
    assert!(at_fault > 0, "the fault fired after the source emitted");
    assert!(
        emitted - at_fault <= CAPACITY + 1,
        "the source emitted {} tokens after the fault (at most the port's {CAPACITY} plus one)",
        emitted - at_fault
    );
}

#[test]
fn pool_error_releases_blocked_writers() {
    error_releases_blocked_writers(&mut PoolDirector::new().with_workers(2));
}

#[test]
fn threaded_error_releases_blocked_writers() {
    error_releases_blocked_writers(&mut ThreadedDirector::new());
}

/// A producer that still holds its `PushHandle` does not keep a failed run
/// alive: the push source sees the latched error at its next step and
/// ends. The handle is held until the run returns (or, should the run
/// hang, for 10 s), then dropped.
fn error_ends_a_live_push_source(director: &mut dyn Director) {
    let (src, handle) = PushSource::new();
    for i in 0..10 {
        handle.push(Token::Int(i));
    }
    let (returned, holding) = mpsc::channel::<()>();
    let holder = thread::spawn(move || {
        let _ = holding.recv_timeout(Duration::from_secs(10));
        drop(handle);
    });
    let mut b = WorkflowBuilder::new("push-faulty");
    let s = b.add_actor("src", src);
    let k = b.add_actor("failer", FailsAfter { remaining: 3, rated: false, mark: None });
    b.link((s, "out"), (k, "in")).unwrap();
    let mut wf = b.build().unwrap();
    let err = director.run(&mut wf).unwrap_err();
    let held = returned.send(()).is_ok();
    holder.join().unwrap();
    assert_injected(err);
    assert!(held, "the run returned only once the producer dropped its handle");
}

#[test]
fn pool_error_ends_a_live_push_source() {
    error_ends_a_live_push_source(&mut PoolDirector::new().with_workers(2));
}

#[test]
fn threaded_error_ends_a_live_push_source() {
    error_ends_a_live_push_source(&mut ThreadedDirector::new());
}

/// Panics on its first window.
struct Panics;

impl Actor for Panics {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        if ctx.get(0).is_some() {
            panic!("injected panic");
        }
        Ok(())
    }
}

/// A panic in a firing fails the run like an error: the run returns
/// `Error::Director`, and every actor is back in the workflow.
#[test]
fn a_panicking_actor_fails_the_run_and_every_actor_comes_back() {
    let directors: Vec<(&str, Box<dyn Director>)> = vec![
        ("threaded", Box::new(ThreadedDirector::new())),
        ("pool", Box::new(PoolDirector::new().with_workers(2))),
    ];
    for (name, mut director) in directors {
        let mut b = WorkflowBuilder::new("panicking");
        let s = b.add_actor("src", VecSource::new((0..10).map(Token::Int).collect()));
        let p = b.add_actor("panics", Panics);
        let k = b.add_actor("sink", Collector::new().actor());
        b.link((s, "out"), (p, "in")).unwrap();
        b.link((p, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let err = director.run(&mut wf).unwrap_err();
        assert!(matches!(err, Error::Director(_)), "{name}: {err}");
        let back = wf.actor_ids().filter(|&id| wf.node(id).peek_actor().is_some()).count();
        assert_eq!(back, 3, "{name}: every actor is handed back");
    }
}

/// Counts `RunPhase::End` announcements.
#[derive(Default)]
struct Ends(AtomicUsize);

impl Observer for Ends {
    fn on_run_phase(&self, phase: RunPhase, _at: Timestamp) {
        if phase == RunPhase::End {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Every director announces the end of a failed run, once.
#[test]
fn a_failed_run_announces_its_end_once() {
    let scwf = ScwfDirector::virtual_time(
        Box::new(QbsScheduler::new(500, 5)),
        Box::new(TableCostModel::uniform(Micros(10), Micros(1))),
    );
    let directors: Vec<(&str, Box<dyn Director>, bool)> = vec![
        ("ddf", Box::new(DdfDirector::new()), false),
        ("de", Box::new(DeDirector::new()), false),
        ("sdf", Box::new(SdfDirector::new()), true),
        ("scwf", Box::new(scwf), false),
        ("threaded", Box::new(ThreadedDirector::new()), false),
        ("pool", Box::new(PoolDirector::new().with_workers(2)), false),
    ];
    for (name, mut director, rated) in directors {
        let ends = Arc::new(Ends::default());
        director.instrument(Telemetry::new(ends.clone()));
        assert_injected(director.run(&mut faulty_workflow(rated)).unwrap_err());
        assert_eq!(ends.0.load(Ordering::SeqCst), 1, "{name}: one End per failed run");
    }
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

/// Pushes the next of its values on every firing of the source it
/// watches, and drops the handle once they run out, which ends the stream:
/// under DDF every push lands at the same point of the run, every time.
struct Producer {
    src: ActorId,
    pushes: Mutex<(Option<PushHandle>, std::vec::IntoIter<i64>)>,
}

impl Observer for Producer {
    fn on_fire_end(&self, record: &FireRecord) {
        if record.actor != self.src || !record.fired {
            return;
        }
        let (handle, values) = &mut *self.pushes.lock().unwrap();
        match (handle.as_ref(), values.next()) {
            (Some(h), Some(v)) => assert!(h.push(Token::Int(v))),
            _ => *handle = None,
        }
    }
}

/// `PushSource → RunningSum → Collector` under DDF, fed `values` by a
/// [`Producer`].
fn pushed_engine(values: Vec<i64>) -> (Engine, Collector) {
    let (push, handle) = PushSource::new();
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("push-recover");
    let s = b.add_actor("src", push);
    let a = b.add_actor("sum", RunningSum { sum: 0, per_window: Duration::ZERO });
    let k = b.add_actor("sink", c.actor());
    b.link((s, "out"), (a, "in")).unwrap();
    b.link((a, "out"), (k, "in")).unwrap();
    let producer = Producer { src: s, pushes: Mutex::new((Some(handle), values.into_iter())) };
    let engine = Engine::new(b.build().unwrap())
        .with_director(DdfDirector::new())
        .with_observer(Arc::new(producer));
    (engine, c)
}

/// A push source cannot be read again, so a checkpointed run journals
/// what it emits. Recovery emits the journaled tail past the snapshot
/// ahead of what the new producer pushes: every push arrives once, in
/// order, and none of the new ones is dropped.
#[test]
fn a_recovered_push_source_emits_its_tail_then_every_new_push() {
    recover_pushes(false);
}

/// The same recovery into another checkpoint directory: the new directory
/// takes the journal over, so the tail is not lost and its log holds the
/// whole stream.
#[test]
fn a_push_source_recovered_into_another_directory_keeps_its_tail() {
    recover_pushes(true);
}

/// Kill a checkpointed push-source run with a logged tail past its
/// snapshot, then recover it with three new pushes, checkpointing on in
/// the same directory or (`elsewhere`) in another one.
fn recover_pushes(elsewhere: bool) {
    let dir = tmpdir(if elsewhere { "push-from" } else { "push" });
    {
        let (engine, _c) = pushed_engine((0..20).collect());
        let mut engine =
            engine.configure(ExecConfig::new().checkpoint_every(StopCondition::Firings(6), &dir));
        engine.run_until(StopCondition::Firings(22)).unwrap();
    }
    let logged = checkpoint::EventLog::read_all(&checkpoint::log_path(&dir, "src")).unwrap();
    let snapshot = checkpoint::Checkpoint::read_from_dir(&dir).unwrap();
    let (_, state) = snapshot.actors.iter().find(|(name, _)| name == "src").unwrap();
    let saved = checkpoint::codec::Decoder::new(state).u64().unwrap();
    assert!(logged.len() as u64 > saved, "the kill leaves {} logged past {saved}", logged.len());

    let fresh = vec![100, 101, 102];
    let (engine, c) = pushed_engine(fresh.clone());
    let config = ExecConfig::new().recover_from(&dir);
    let into = if elsewhere { tmpdir("push-into") } else { dir.clone() };
    let config = if elsewhere { config.checkpoint_every(StopCondition::Firings(6), &into) } else { config };
    engine.configure(config).run().unwrap();
    let pushed: Vec<i64> = logged.iter().map(|e| e.token.as_int().unwrap()).chain(fresh).collect();
    let sums: Vec<Token> = pushed
        .iter()
        .scan(0, |sum, v| {
            *sum += v;
            Some(Token::Int(*sum))
        })
        .collect();
    assert_eq!(c.tokens(), sums, "tail first, then every new push, each once");
    if elsewhere {
        let journal = checkpoint::EventLog::read_all(&checkpoint::log_path(&into, "src")).unwrap();
        let seqs: Vec<u64> = journal.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..pushed.len() as u64).collect::<Vec<_>>(), "one journal, whole");
        let tokens: Vec<i64> = journal.iter().map(|e| e.token.as_int().unwrap()).collect();
        assert_eq!(tokens, pushed);
    }
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
            "pool" => Engine::new(wf).with_director(PoolDirector::new().with_workers(2)),
            _ => Engine::new(wf),
        };
        {
            let (mut wf, _c) = summing_workflow(30, Duration::ZERO);
            wf.set_default_channel_policy(ChannelPolicy::block(2));
            let mut engine = mk(wf).configure(
                ExecConfig::new().checkpoint_every(StopCondition::Firings(10), &dir),
            );
            engine.run_until(StopCondition::Firings(40)).unwrap();
        }
        assert!(
            dir.join(checkpoint::SNAPSHOT_FILE).exists(),
            "{name}: killed run wrote a snapshot"
        );
        let (mut wf, c) = summing_workflow(30, Duration::ZERO);
        wf.set_default_channel_policy(ChannelPolicy::block(2));
        let mut engine = mk(wf).configure(ExecConfig::new().recover_from(&dir));
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
            "pool" => Engine::new(wf).with_director(PoolDirector::new().with_workers(2)),
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

/// Saved once per snapshot, so it counts them.
#[derive(Default)]
struct SnapshotCounter(std::sync::atomic::AtomicUsize);

impl checkpoint::CheckpointResource for SnapshotCounter {
    fn save(&self) -> Result<Vec<u8>> {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Vec::new())
    }
    fn restore(&self, _bytes: &[u8]) -> Result<()> {
        Ok(())
    }
}

/// A stop bound met on the firing that also completes a checkpoint
/// interval takes the snapshot first and then stops: the 20th firing
/// writes the second snapshot, the run ends short of the stream, and
/// recovery from that snapshot completes it.
#[test]
fn scwf_stop_on_a_checkpoint_firing_snapshots_first() {
    let dir = tmpdir("scwf-tie");
    let scwf = || {
        ScwfDirector::virtual_time(
            Box::new(QbsScheduler::new(500, 5)),
            Box::new(TableCostModel::uniform(Micros(10), Micros(1))),
        )
    };
    let counter = Arc::new(SnapshotCounter::default());
    {
        let (wf, c) = summing_workflow(30, Duration::ZERO);
        let mut engine = Engine::new(wf)
            .with_director(scwf())
            .register_checkpoint_resource("counter", counter.clone())
            .configure(ExecConfig::new().checkpoint_every(StopCondition::Firings(10), &dir));
        engine.run_until(StopCondition::Firings(20)).unwrap();
        assert!(c.tokens().len() < 30, "the run stopped mid-stream");
    }
    let snapshots = counter.0.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(snapshots, 2, "the snapshot at the stop firing was written");
    let (wf, c) = summing_workflow(30, Duration::ZERO);
    let mut engine = Engine::new(wf)
        .with_director(scwf())
        .register_checkpoint_resource("counter", counter)
        .configure(ExecConfig::new().recover_from(&dir));
    engine.run().unwrap();
    assert_eq!(c.tokens(), running_sums(30));
}

// ---------------------------------------------------------------------------
// Linear Road kill-and-recover
// ---------------------------------------------------------------------------

/// A no-accident trace of 701 reports and 141 toll notifications that
/// stays inside minute 0. Every toll then reads statistics of the minutes
/// before 0, which no run ever writes, so each is 0 and the toll stream is
/// exact whatever the thread timing: it can anchor an exact recovery
/// comparison.
/// (A toll in a later minute races, on the wall clock, with the writers of
/// the minute before it.)
fn lr_workload() -> Workload {
    Workload::generate(WorkloadConfig {
        duration_secs: 59,
        l_rating: 1.0,
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
            "pool" => Engine::new(wf).with_director(PoolDirector::new().with_workers(4)),
            _ => Engine::new(wf),
        };
        // Uninterrupted reference run.
        let lr = lr_build(&w);
        let toll_ref = lr.toll_output.clone();
        let mut engine = engine_for(lr.workflow);
        let report = engine.run().unwrap();
        let reference = toll_tuples(&toll_ref);
        assert!(reference.len() >= 100, "{name}: trace must produce tolls");
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
        assert!(
            !checkpoint::log_path(&dir, "source").exists(),
            "{name}: the source resumes from its offset and keeps no journal"
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

/// Every alert, as text, sorted.
fn alert_texts(out: &linearroad::actors::NotificationOutput) -> Vec<String> {
    let mut alerts: Vec<String> = out.items().iter().map(|i| format!("{:?}", i.token)).collect();
    alerts.sort_unstable();
    alerts
}

/// The same kill-and-recover with the detection tasks as composite
/// sub-workflows, in virtual time: a composite opens its inner run at its
/// first firing, so a recovered segment, which skips `initialize`, still
/// has one. The trace confirms accidents, so alerts are compared too.
#[test]
fn linear_road_with_composites_kill_and_recover_reconverges() {
    let w = Workload::generate(WorkloadConfig {
        duration_secs: 240,
        accident_every_secs: Some(30),
        ..Default::default()
    });
    let build = || {
        linearroad::build(&w, &LrOptions { composite_subworkflows: true, ..LrOptions::default() })
            .unwrap()
    };
    let engine_for = |wf: Workflow| {
        Engine::new(wf).with_director(ScwfDirector::virtual_time(
            Box::new(FifoScheduler::new(5)),
            Box::new(TableCostModel::uniform(Micros(20), Micros(2))),
        ))
    };
    let lr = build();
    let (toll_ref, alert_ref) = (lr.toll_output.clone(), lr.accident_output.clone());
    let total_firings = engine_for(lr.workflow).run().unwrap().firings;
    let (tolls, alerts) = (toll_tuples(&toll_ref), alert_texts(&alert_ref));
    assert!(!alerts.is_empty(), "the trace alerts");

    let dir = tmpdir("linearroad-composite");
    {
        let lr = build();
        let store = lr.store.clone();
        engine_for(lr.workflow)
            .register_checkpoint_resource("relstore", Arc::new(store))
            .configure(
                ExecConfig::new().checkpoint_every(StopCondition::Firings(total_firings / 5), &dir),
            )
            .run_until(StopCondition::Firings(total_firings / 2))
            .unwrap();
    }
    assert!(dir.join(checkpoint::SNAPSHOT_FILE).exists(), "the killed run wrote a snapshot");

    let lr = build();
    let (toll_rec, alert_rec) = (lr.toll_output.clone(), lr.accident_output.clone());
    let store = lr.store.clone();
    engine_for(lr.workflow)
        .register_checkpoint_resource("relstore", Arc::new(store))
        .configure(ExecConfig::new().recover_from(&dir))
        .run()
        .unwrap();
    assert_eq!(toll_tuples(&toll_rec), tolls, "recovered tolls diverged");
    assert_eq!(alert_texts(&alert_rec), alerts, "recovered alerts diverged");
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
