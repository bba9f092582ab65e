//! `checkpoint_every(StopCondition::Elapsed(..))` measures each checkpoint
//! segment from that segment's start. Under the scheduled director, which
//! keeps one fabric across segments, every segment after the first used to
//! be measured from time zero (and its routing reported to the first
//! segment's watcher), so a snapshot was taken after every firing.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, TimedSource};
use confluence::core::checkpoint::{self, codec, CheckpointResource};
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::error::Result;
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

/// Stream length in virtual time, and the number of tokens spread over it.
const T: Micros = Micros(80_000);
const TOKENS: i64 = 160;

#[derive(Default)]
struct RunningSum {
    sum: i64,
}

impl Actor for RunningSum {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                self.sum += t.as_int()?;
                ctx.emit(0, Token::Int(self.sum));
            }
        }
        Ok(())
    }
    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = codec::Encoder::new();
        e.i64(self.sum);
        Ok(Some(e.into_bytes()))
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.sum = codec::Decoder::new(bytes).i64()?;
        Ok(())
    }
}

fn workflow() -> (Workflow, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("elapsed-checkpoints");
    let every = T.as_micros() / TOKENS as u64;
    let schedule = (1..=TOKENS)
        .map(|i| (Timestamp(i as u64 * every), Token::Int(i)))
        .collect();
    let s = b.add_actor("src", TimedSource::new(schedule));
    let a = b.add_actor("sum", RunningSum::default());
    let k = b.add_actor("sink", c.actor());
    b.link((s, "out"), (a, "in")).unwrap();
    b.link((a, "out"), (k, "in")).unwrap();
    (b.build().unwrap(), c)
}

fn scwf() -> ScwfDirector {
    ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(1), Micros(0))),
    )
}

/// Saved once per snapshot, so it counts them.
#[derive(Default)]
struct SnapshotCounter(AtomicUsize);

impl CheckpointResource for SnapshotCounter {
    fn save(&self) -> Result<Vec<u8>> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(Vec::new())
    }
    fn restore(&self, _bytes: &[u8]) -> Result<()> {
        Ok(())
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("confluence-elapsed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn scwf_elapsed_checkpoints_once_per_interval_and_recovers() {
    let every = StopCondition::Elapsed(Micros(T.as_micros() / 8));
    let (wf, reference) = workflow();
    Engine::new(wf).with_director(scwf()).run().unwrap();
    assert_eq!(reference.tokens().len(), TOKENS as usize);

    // A whole run of T snapshots about eight times, not once per firing
    // (some 480 firings here).
    let dir = tmpdir("count");
    let counter = Arc::new(SnapshotCounter::default());
    let (wf, whole) = workflow();
    Engine::new(wf)
        .with_director(scwf())
        .register_checkpoint_resource("counter", counter.clone())
        .configure(ExecConfig::new().checkpoint_every(every, &dir))
        .run()
        .unwrap();
    let snapshots = counter.0.load(Ordering::Relaxed);
    assert!((7..=9).contains(&snapshots), "{snapshots} snapshots in a run of 8 intervals");
    assert_eq!(whole.tokens(), reference.tokens());
    let _ = std::fs::remove_dir_all(&dir);

    // Killed past the middle and recovered, the stream is the same.
    let dir = tmpdir("recover");
    {
        let (wf, _c) = workflow();
        Engine::new(wf)
            .with_director(scwf())
            .configure(ExecConfig::new().checkpoint_every(every, &dir))
            .run_until(StopCondition::Elapsed(Micros(T.as_micros() * 5 / 8)))
            .unwrap();
    }
    assert!(dir.join(checkpoint::SNAPSHOT_FILE).exists());
    let (wf, recovered) = workflow();
    Engine::new(wf)
        .with_director(scwf())
        .configure(ExecConfig::new().recover_from(&dir))
        .run()
        .unwrap();
    assert_eq!(recovered.tokens(), reference.tokens());
    let _ = std::fs::remove_dir_all(&dir);
}
