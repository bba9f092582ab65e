//! What every director owes an observer, whatever its firing rule: each
//! `prefire` call is a paired `on_fire_start` / `on_fire_end` (a refusal
//! reports `fired: false`), an actor's own shed reports reach the
//! per-actor `events_shed` metric, and a stop winds down through every
//! actor's `finish`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use confluence::core::actor::{Actor, FireContext, IoSignature, SdfRates};
use confluence::core::director::ddf::DdfDirector;
use confluence::core::director::de::DeDirector;
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::sdf::SdfDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::error::Result;
use confluence::core::graph::{ActorId, Workflow, WorkflowBuilder};
use confluence::core::telemetry::FireRecord;
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;
use confluence::{Engine, Observer, StopCondition};

const TOKENS: i64 = 20;

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
    fn next_arrival(&self) -> Option<Timestamp> {
        (!self.0.is_empty()).then_some(Timestamp::ZERO)
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![],
            produce: vec![1],
        })
    }
}

/// Rate-declaring pass-through (one event in, one out).
struct Pass;
impl Actor for Pass {
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
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![1],
        })
    }
}

/// A sink that refuses every other `prefire` (a sink may, even under SDF:
/// nothing downstream depends on its rate) and reports each odd input as
/// shed while still collecting it.
struct FussySink {
    seen: Arc<AtomicU64>,
    prefires: u64,
}
impl Actor for FussySink {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn prefire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        self.prefires += 1;
        Ok(self.prefires.is_multiple_of(2))
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        // A refused window stays pending, so an accepted firing finds two.
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                ctx.report_shed((t.as_int()? % 2) as u64);
                self.seen.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![],
        })
    }
}

/// The `cross_director_equivalence` pipeline with a fussy sink; also
/// returns the count of tokens the sink has seen.
fn pipeline() -> (Workflow, Arc<AtomicU64>) {
    let seen = Arc::new(AtomicU64::new(0));
    let mut b = WorkflowBuilder::new("conformance");
    let s = b.add_actor("src", RatedSource((1..=TOKENS).map(Token::Int).collect()));
    let p = b.add_actor("pass", Pass);
    let k = b.add_actor(
        "fussy",
        FussySink {
            seen: seen.clone(),
            prefires: 0,
        },
    );
    b.link((s, "out"), (p, "in")).unwrap();
    b.link((p, "out"), (k, "in")).unwrap();
    (b.build().unwrap(), seen)
}

/// A rate-declaring sink that records whether its `finish` ran.
struct FinishFlag(Arc<AtomicBool>);
impl Actor for FinishFlag {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while ctx.get(0).is_some() {}
        Ok(())
    }
    fn finish(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
        self.0.store(true, Ordering::Relaxed);
        Ok(())
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![],
        })
    }
}

#[derive(Default)]
struct HookCounts {
    starts: AtomicU64,
    ends: AtomicU64,
    refusals: AtomicU64,
}

impl Observer for HookCounts {
    fn on_fire_start(&self, _actor: ActorId, _at: Timestamp) {
        self.starts.fetch_add(1, Ordering::Relaxed);
    }
    fn on_fire_end(&self, record: &FireRecord) {
        self.ends.fetch_add(1, Ordering::Relaxed);
        if !record.fired {
            self.refusals.fetch_add(1, Ordering::Relaxed);
        }
    }
}

type EngineFor = Box<dyn Fn(Workflow) -> Engine>;

/// The six execution paths, by name; the first four are deterministic.
fn engines() -> Vec<(&'static str, EngineFor)> {
    let scwf = || {
        let cost = TableCostModel::uniform(Micros(10), Micros(1));
        ScwfDirector::virtual_time(Box::new(FifoScheduler::new(5)), Box::new(cost))
    };
    vec![
        (
            "sdf",
            Box::new(|wf| Engine::new(wf).with_director(SdfDirector::new())),
        ),
        (
            "ddf",
            Box::new(|wf| Engine::new(wf).with_director(DdfDirector::new())),
        ),
        (
            "de",
            Box::new(|wf| Engine::new(wf).with_director(DeDirector::new())),
        ),
        (
            "scwf",
            Box::new(move |wf| Engine::new(wf).with_director(scwf())),
        ),
        (
            "threaded",
            Box::new(|wf| Engine::new(wf).with_director(ThreadedDirector::new())),
        ),
        (
            "pool",
            Box::new(|wf| Engine::new(wf).with_director(PoolDirector::new().with_workers(2))),
        ),
    ]
}

#[test]
fn every_prefire_is_a_paired_start_and_end() {
    let mut attempts = Vec::new();
    for (name, engine_for) in engines() {
        let (wf, seen) = pipeline();
        let hooks = Arc::new(HookCounts::default());
        let mut engine = engine_for(wf).with_observer(hooks.clone());
        engine.run().unwrap();
        assert_eq!(
            seen.load(Ordering::Relaxed),
            TOKENS as u64,
            "{name}: every token arrives"
        );
        let (starts, ends) = (
            hooks.starts.load(Ordering::Relaxed),
            hooks.ends.load(Ordering::Relaxed),
        );
        assert_eq!(starts, ends, "{name}: starts and ends pair up");
        assert_eq!(
            hooks.refusals.load(Ordering::Relaxed),
            TOKENS as u64 / 2,
            "{name}: each refusal is an end with fired: false"
        );
        let fussy = engine.snapshot().actor("fussy").cloned().unwrap();
        assert_eq!(
            (fussy.fires, fussy.attempts),
            (TOKENS as u64 / 2, TOKENS as u64),
            "{name}: attempts count the refusals"
        );
        attempts.push((
            name,
            engine
                .snapshot()
                .actors
                .iter()
                .map(|a| a.attempts)
                .sum::<u64>(),
        ));
    }
    let deterministic = &attempts[..4];
    assert!(
        deterministic.iter().all(|(_, n)| *n == deterministic[0].1),
        "deterministic directors agree on attempts: {deterministic:?}"
    );
}

#[test]
fn actor_shed_reports_reach_the_metrics_under_every_director() {
    for (name, engine_for) in engines() {
        let (wf, _seen) = pipeline();
        let mut engine = engine_for(wf);
        engine.run().unwrap();
        let fussy = engine.snapshot().actor("fussy").cloned().unwrap();
        assert_eq!(fussy.events_shed, TOKENS as u64 / 2, "{name}");
    }
}

#[test]
fn a_stop_finishes_every_actor_under_every_director() {
    for (name, engine_for) in engines() {
        let finished = Arc::new(AtomicBool::new(false));
        let mut b = WorkflowBuilder::new("stop");
        let s = b.add_actor("src", RatedSource((0..10_000).map(Token::Int).collect()));
        let k = b.add_actor("sink", FinishFlag(finished.clone()));
        b.link((s, "out"), (k, "in")).unwrap();
        let mut engine = engine_for(b.build().unwrap());
        engine.run_until(StopCondition::Firings(50)).unwrap();
        assert!(
            engine.snapshot().total_fires() < 10_000,
            "{name}: the stop ended the run early"
        );
        assert!(
            finished.load(Ordering::Relaxed),
            "{name}: the sink's finish ran"
        );
    }
}
