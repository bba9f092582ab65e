//! The resuming rule: a segment that resumes from checkpointed state skips
//! `initialize`, and only such a segment does. A checkpointed run
//! initializes each actor once however many segments it pauses into; a
//! recovered run never does; and the multi-workflow executor, which writes
//! no checkpoint, ignores a checkpoint hook in its telemetry.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, VecSource};
use confluence::core::checkpoint::{self, QuiesceHook};
use confluence::core::director::ddf::DdfDirector;
use confluence::core::director::de::DeDirector;
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::error::Result;
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::telemetry::{MultiObserver, Telemetry};
use confluence::core::time::Micros;
use confluence::core::token::Token;
use confluence::sched::cost::TableCostModel;
use confluence::sched::multi::{ManagerState, MultiWorkflowExecutor};
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

const TOKENS: i64 = 40;

/// A relay that counts its `initialize` calls.
struct Counted(Arc<AtomicUsize>);

impl Actor for Counted {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn initialize(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(())
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

/// `src → relay → sink`, with the relay's `initialize` counter.
fn build() -> (Workflow, Arc<AtomicUsize>, Collector) {
    let inits = Arc::new(AtomicUsize::new(0));
    let sink = Collector::new();
    let mut b = WorkflowBuilder::new("resume_rule");
    let s = b.add_actor("src", VecSource::new((0..TOKENS).map(Token::Int).collect()));
    let r = b.add_actor("relay", Counted(inits.clone()));
    let k = b.add_actor("sink", sink.actor());
    b.link((s, "out"), (r, "in")).unwrap();
    b.link((r, "out"), (k, "in")).unwrap();
    (b.build().unwrap(), inits, sink)
}

/// An engine over `workflow` under one of the five directors.
type Under = fn(Workflow) -> Engine;

fn directors() -> [(&'static str, Under); 5] {
    [
        ("ddf", |wf| {
            Engine::new(wf).with_director(DdfDirector::new())
        }),
        ("de", |wf| Engine::new(wf).with_director(DeDirector::new())),
        ("scwf", |wf| {
            let cost = TableCostModel::uniform(Micros(10), Micros::ZERO);
            let fifo = Box::new(FifoScheduler::new(5));
            Engine::new(wf).with_director(ScwfDirector::virtual_time(fifo, Box::new(cost)))
        }),
        ("threaded", |wf| {
            Engine::new(wf).with_director(ThreadedDirector::new())
        }),
        ("pool", |wf| {
            Engine::new(wf).with_director(PoolDirector::new().with_workers(2))
        }),
    ]
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "confluence-resume_rule-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_checkpointed_run_initializes_each_actor_once() {
    for (name, under) in directors() {
        let dir = tmpdir(&format!("once-{name}"));
        let (wf, inits, sink) = build();
        let every = ExecConfig::new().checkpoint_every(StopCondition::Firings(4), &dir);
        under(wf).configure(every).run().unwrap();
        assert!(
            dir.join(checkpoint::SNAPSHOT_FILE).exists(),
            "{name}: the run paused"
        );
        assert_eq!(inits.load(Ordering::SeqCst), 1, "{name}");
        assert_eq!(sink.len(), TOKENS as usize, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_recovered_run_initializes_nothing() {
    for (name, under) in directors() {
        let dir = tmpdir(&format!("recover-{name}"));
        let (wf, _, _) = build();
        let every = ExecConfig::new().checkpoint_every(StopCondition::Firings(4), &dir);
        under(wf)
            .configure(every)
            .run_until(StopCondition::Firings(20))
            .unwrap();
        let (wf, inits, _) = build();
        under(wf)
            .configure(ExecConfig::new().recover_from(&dir))
            .run()
            .unwrap();
        assert_eq!(inits.load(Ordering::SeqCst), 0, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_managed_workflow_ignores_a_checkpoint_hook() {
    let (wf, inits, sink) = build();
    let mut exec = MultiWorkflowExecutor::new(Micros(1_000));
    let cost = TableCostModel::uniform(Micros(10), Micros::ZERO);
    let idx = exec.add_workflow("w", wf, Box::new(FifoScheduler::new(5)), Box::new(cost), 1);
    let telemetry = Telemetry {
        checkpoint: Some(QuiesceHook::new(Some(StopCondition::Firings(2)))),
        ..Telemetry::new(Arc::new(MultiObserver::default()))
    };
    exec.instrument(idx, telemetry).unwrap();
    exec.run().unwrap();
    assert_eq!(exec.manager(idx).state(), ManagerState::Finished);
    assert_eq!(inits.load(Ordering::SeqCst), 1);
    assert_eq!(sink.len(), TOKENS as usize);
}
