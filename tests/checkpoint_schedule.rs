//! A checkpointed virtual-time SCWF run keeps the uncheckpointed schedule:
//! a pause captures the fabric and resumes it in the same process, the
//! policy's state survives, and no window is announced to it twice — so
//! every sink sees the same tokens at the same virtual instants whether or
//! not the run was snapshotted along the way.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::TimedSource;
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::error::Result;
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::{
    EdfScheduler, FifoScheduler, QbsScheduler, RbScheduler, RrScheduler,
};
use confluence::sched::{Scheduler, ScwfDirector};

const TOKENS: i64 = 60;

/// What one sink saw: each token with the virtual time of its firing.
type Seen = Arc<Mutex<Vec<(Token, Timestamp)>>>;

struct TimedSink(Seen);

impl Actor for TimedSink {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            let now = ctx.now();
            self.0.lock().unwrap().extend(w.tokens().map(|t| (t.clone(), now)));
        }
        Ok(())
    }
}

/// A sink that takes nothing before `open_at`: every window delivered to
/// it earlier stays staged in its context.
struct GatedSink {
    open_at: Timestamp,
    sink: TimedSink,
}

impl Actor for GatedSink {
    fn signature(&self) -> IoSignature {
        self.sink.signature()
    }
    fn prefire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(ctx.now() >= self.open_at)
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.sink.fire(ctx)
    }
}

struct Relay;

impl Actor for Relay {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                ctx.emit(0, t.clone());
            }
        }
        Ok(())
    }
}

/// `src → mid → sink0, src → sink1, src → sink2` with unequal costs, fed
/// a token every 10 µs against 106 µs of service per token: the backlog
/// grows for the whole stream, and every policy has real choices to make.
fn run(policy: Box<dyn Scheduler>, checkpoint: Option<(u64, PathBuf)>) -> Vec<Vec<(Token, Timestamp)>> {
    let sinks: Vec<Seen> = (0..3).map(|_| Seen::default()).collect();
    let mut b = WorkflowBuilder::new("fan");
    let schedule = (0..TOKENS)
        .map(|i| (Timestamp(i as u64 * 10), Token::Int(i)))
        .collect();
    let src = b.add_actor("src", TimedSource::new(schedule));
    let mid = b.add_actor("mid", Relay);
    b.link((src, "out"), (mid, "in")).unwrap();
    for (i, seen) in sinks.iter().enumerate() {
        let k = b.add_actor(format!("sink{i}"), TimedSink(seen.clone()));
        let from = if i == 0 { mid } else { src };
        b.link((from, "out"), (k, "in")).unwrap();
    }
    let cost = TableCostModel::uniform(Micros(1), Micros(0))
        .with_actor("mid", Micros(30), Micros(0))
        .with_actor("sink0", Micros(5), Micros(0))
        .with_actor("sink1", Micros(20), Micros(0))
        .with_actor("sink2", Micros(50), Micros(0));
    drive(b.build().unwrap(), policy, cost, checkpoint);
    sinks.iter().map(|s| s.lock().unwrap().clone()).collect()
}

/// Run `workflow` under virtual-time SCWF, snapshotting into the given
/// directory every so many firings when `checkpoint` says so.
fn drive(
    workflow: Workflow,
    policy: Box<dyn Scheduler>,
    cost: TableCostModel,
    checkpoint: Option<(u64, PathBuf)>,
) {
    let mut engine = Engine::new(workflow)
        .with_director(ScwfDirector::virtual_time(policy, Box::new(cost)));
    if let Some((every, dir)) = &checkpoint {
        engine = engine
            .configure(ExecConfig::new().checkpoint_every(StopCondition::Firings(*every), dir));
    }
    engine.run().unwrap();
    if let Some((_, dir)) = &checkpoint {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Forty tokens reach a sink that refuses them, then one more after it
/// opens: what a pause hands back from the sink's context to its inbox
/// must be announced again, or it waits there for the end of the stream.
fn run_gated(checkpoint: Option<PathBuf>) -> Vec<(Token, Timestamp)> {
    let seen = Seen::default();
    let mut b = WorkflowBuilder::new("gated");
    let mut schedule: Vec<_> = (0..40).map(|i| (Timestamp(i as u64 * 10), Token::Int(i))).collect();
    schedule.push((Timestamp(10_000), Token::Int(40)));
    schedule.push((Timestamp(20_000), Token::Int(41)));
    let src = b.add_actor("src", TimedSource::new(schedule));
    let sink = GatedSink { open_at: Timestamp(500), sink: TimedSink(seen.clone()) };
    let k = b.add_actor("sink", sink);
    b.link((src, "out"), (k, "in")).unwrap();
    let cost = TableCostModel::uniform(Micros(1), Micros(0));
    drive(b.build().unwrap(), Box::new(FifoScheduler::new(5)), cost, checkpoint.map(|dir| (3, dir)));
    let seen = seen.lock().unwrap().clone();
    seen
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("confluence-schedule-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_checkpointed_run_keeps_the_uncheckpointed_schedule() {
    type Policy = fn() -> Box<dyn Scheduler>;
    let policies: [(&str, Policy); 5] = [
        ("fifo", || Box::new(FifoScheduler::new(5))),
        ("rb", || Box::new(RbScheduler::new())),
        ("edf", || Box::new(EdfScheduler::new(5))),
        ("qbs", || Box::new(QbsScheduler::new(10, 5))),
        ("rr", || Box::new(RrScheduler::new(40, 5))),
    ];
    for (name, policy) in policies {
        let whole = run(policy(), None);
        for (i, sink) in whole.iter().enumerate() {
            assert_eq!(sink.len(), TOKENS as usize, "{name}: sink{i} saw the whole stream");
        }
        // Dense and sparse pauses, none aligned with the source interval.
        for every in [2, 3, 5, 7, 23] {
            let paused = run(policy(), Some((every, tmpdir(&format!("{name}-{every}")))));
            assert_eq!(paused, whole, "{name}: a snapshot every {every} firings moved the schedule");
        }
    }
}

#[test]
fn windows_a_pause_hands_back_are_announced_again() {
    let whole = run_gated(None);
    assert_eq!(whole.len(), 42);
    assert!(
        whole[..41].iter().all(|(_, at)| *at == whole[0].1),
        "the first firing past the gate takes everything staged before it"
    );
    assert_eq!(run_gated(Some(tmpdir("gated"))), whole);
}
