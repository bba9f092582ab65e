//! The engine facade and its telemetry layer, exercised end-to-end: the
//! same per-actor metrics come back from every director, snapshots are
//! deterministic in virtual time, and the exchange formats (JSON,
//! Prometheus text) are produced from real runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use confluence::core::actor::{Actor, FireContext, IoSignature, SdfRates};
use confluence::core::actors::{Collector, PushSource, VecSource};
use confluence::core::director::ddf::DdfDirector;
use confluence::core::director::de::DeDirector;
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::sdf::SdfDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::error::Result;
use confluence::core::graph::{ActorId, Workflow, WorkflowBuilder};
use confluence::core::telemetry::FireRecord;
use confluence::core::time::{Micros, Timestamp, VirtualClock};
use confluence::core::token::Token;
use confluence::prelude::{Engine, MetricsSnapshot, Observer, StopCondition};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::scwf::{Progress, ScwfCore};
use confluence::sched::ScwfDirector;

const N: i64 = 20;

/// Rate-declaring doubler so the same graph also runs under SDF.
struct Double;
impl Actor for Double {
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
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![1],
        })
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
    fn next_arrival(&self) -> Option<Timestamp> {
        if self.0.is_empty() {
            None
        } else {
            Some(Timestamp::ZERO)
        }
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![],
            produce: vec![1],
        })
    }
}

/// A collector that declares it takes `take` windows per firing.
struct RatedCollector {
    inner: confluence::core::actors::CollectorActor,
    take: u32,
}
impl Actor for RatedCollector {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.inner.fire(ctx)
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![self.take],
            produce: vec![],
        })
    }
}

fn pipeline(rated: bool) -> (Workflow, Collector) {
    pipeline_taking(rated, 1)
}

/// The pipeline with a sink that (when rated) fires once per `take`
/// windows, so that many wait for it in every SDF iteration.
fn pipeline_taking(rated: bool, take: u32) -> (Workflow, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("pipeline");
    let inputs: Vec<Token> = (1..=N).map(Token::Int).collect();
    let s = if rated {
        b.add_actor("src", RatedSource(inputs))
    } else {
        b.add_actor("src", VecSource::new(inputs))
    };
    let d = b.add_actor("double", Double);
    let k = if rated {
        b.add_actor("sink", RatedCollector { inner: c.actor(), take })
    } else {
        b.add_actor("sink", c.actor())
    };
    b.chain(&[s, d, k]).unwrap();
    (b.build().unwrap(), c)
}

/// Token flow through the pipeline is fully determined: the source emits
/// N tokens, the doubler passes N through, the sink absorbs N.
fn assert_pipeline_flow(snap: &MetricsSnapshot, director: &str) {
    let src = snap.actor("src").unwrap_or_else(|| panic!("{director}: src metrics"));
    let dbl = snap.actor("double").unwrap_or_else(|| panic!("{director}: double metrics"));
    let sink = snap.actor("sink").unwrap_or_else(|| panic!("{director}: sink metrics"));
    assert_eq!(src.tokens_out, N as u64, "{director}: source emissions");
    assert!(src.fires > 0, "{director}: source fired");
    assert_eq!(dbl.events_in, N as u64, "{director}: doubler intake");
    assert_eq!(dbl.tokens_out, N as u64, "{director}: doubler output");
    assert_eq!(sink.events_in, N as u64, "{director}: sink intake");
    assert_eq!(sink.tokens_out, 0, "{director}: sink emits nothing");
    assert!(snap.events_routed >= 2 * N as u64, "{director}: routed");
    // Every sink window that carried a wave origin produced a latency
    // sample; the sink consumed N events in total.
    assert!(snap.latency.count > 0, "{director}: sink latency sampled");
    assert!(snap.latency.count <= N as u64, "{director}: at most N samples");
}

#[test]
fn metrics_identical_flow_across_all_six_directors() {
    let runs: Vec<(&str, MetricsSnapshot)> = vec![
        ("threaded", {
            let (wf, _c) = pipeline(false);
            let mut e = Engine::new(wf).with_director(ThreadedDirector::new());
            e.run().unwrap();
            e.snapshot()
        }),
        ("pool", {
            let (wf, _c) = pipeline(false);
            let mut e = Engine::new(wf).with_director(PoolDirector::new().with_workers(2));
            e.run().unwrap();
            e.snapshot()
        }),
        ("sdf", {
            let (wf, _c) = pipeline(true);
            let mut e = Engine::new(wf).with_director(SdfDirector::new());
            e.run().unwrap();
            e.snapshot()
        }),
        ("ddf", {
            let (wf, _c) = pipeline(false);
            let mut e = Engine::new(wf).with_director(DdfDirector::new());
            e.run().unwrap();
            e.snapshot()
        }),
        ("de", {
            let (wf, _c) = pipeline(false);
            let mut e = Engine::new(wf).with_director(DeDirector::new());
            e.run().unwrap();
            e.snapshot()
        }),
        ("scwf", {
            let (wf, _c) = pipeline(false);
            let d = ScwfDirector::virtual_time(
                Box::new(FifoScheduler::new(5)),
                Box::new(TableCostModel::uniform(Micros(10), Micros(1))),
            );
            let mut e = Engine::new(wf).with_director(d);
            e.run().unwrap();
            e.snapshot()
        }),
    ];
    for (director, snap) in &runs {
        assert_pipeline_flow(snap, director);
    }
    // The scheduled director charges model cost as busy time.
    let scwf = &runs.iter().find(|(d, _)| *d == "scwf").unwrap().1;
    assert!(scwf.actor("double").unwrap().busy > Micros::ZERO);
    // The pool executor additionally reports per-worker counters, and
    // every firing is attributed to exactly one worker.
    let pool = &runs.iter().find(|(d, _)| *d == "pool").unwrap().1;
    assert_eq!(pool.workers.len(), 2, "one metrics row per pool worker");
    let worker_fires: u64 = pool.workers.iter().map(|w| w.fires).sum();
    assert_eq!(worker_fires, pool.total_fires(), "worker fires cover the run");
}

#[test]
fn sdf_and_de_agree_on_fire_counts() {
    let (wf, _c) = pipeline(true);
    let mut sdf = Engine::new(wf).with_director(SdfDirector::new());
    sdf.run().unwrap();
    let (wf, _c) = pipeline(false);
    let mut de = Engine::new(wf).with_director(DeDirector::new());
    de.run().unwrap();
    let a = sdf.snapshot();
    let b = de.snapshot();
    for name in ["double", "sink"] {
        assert_eq!(
            a.actor(name).unwrap().fires,
            b.actor(name).unwrap().fires,
            "fire counts diverge at `{name}`"
        );
    }
    assert_eq!(a.total_fires(), b.total_fires());
}

#[test]
fn virtual_time_snapshots_are_deterministic() {
    // Two identical runs under the virtual-clock SDF director must yield
    // byte-identical snapshots: virtual busy time is zero and timestamps
    // come from the schedule, not the wall.
    let run = || {
        let (wf, _c) = pipeline(true);
        let mut e = Engine::new(wf).with_director(SdfDirector::new());
        e.run().unwrap();
        e.snapshot().to_json()
    };
    assert_eq!(run(), run());
}

#[test]
fn report_is_a_view_over_the_recorder() {
    let (wf, _c) = pipeline(false);
    let mut e = Engine::new(wf).with_director(DdfDirector::new());
    let report = e.run().unwrap();
    let snap = e.snapshot();
    assert_eq!(report.firings, snap.total_fires());
    assert_eq!(report.events_routed, snap.events_routed);
    // A second run accumulates into the same recorder, but the per-run
    // report still covers one run.
    let (wf2, _c2) = pipeline(false);
    let mut e2 = Engine::new(wf2).with_director(DdfDirector::new());
    let r1 = e2.run().unwrap();
    assert_eq!(r1.firings, report.firings);
}

/// The recorder's live count is the counter loads themselves: after a
/// run it agrees with the snapshot and with the per-actor counts.
#[test]
fn live_fire_count_matches_the_snapshot() {
    let (wf, _c) = pipeline(false);
    let ids: Vec<ActorId> = wf.actor_ids().collect();
    let mut e = Engine::new(wf).with_director(DeDirector::new());
    e.run().unwrap();
    let recorder = e.recorder();
    let per_actor: u64 = ids.iter().map(|&id| recorder.actor_fires(id)).sum();
    assert_eq!(recorder.total_fires(), e.snapshot().total_fires());
    assert_eq!(recorder.total_fires(), per_actor);
    assert!(per_actor >= 3 * N as u64, "every token passed three actors");
}

/// A supervisor thread holding a clone of the engine's recorder reads
/// progress while the run is live: the producer handle it holds keeps
/// the push source, and so the run, open until it has looked.
#[test]
fn a_recorder_clone_reads_progress_mid_run() {
    let c = Collector::new();
    let (source, feed) = PushSource::new();
    let mut b = WorkflowBuilder::new("pushed");
    let s = b.add_actor("src", source);
    let d = b.add_actor("double", Double);
    let k = b.add_actor("sink", c.actor());
    b.chain(&[s, d, k]).unwrap();
    let mut e = Engine::new(b.build().unwrap()).with_director(ThreadedDirector::new());

    let recorder = e.recorder().clone();
    let supervisor = std::thread::spawn(move || {
        for i in 0..N {
            feed.push(Token::Int(i));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while recorder.actor_fires(k) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let sink_fires = recorder.actor_fires(k);
        let seen = recorder.total_fires();
        drop(feed);
        (seen, sink_fires)
    });
    e.run().unwrap();
    let (seen, sink_fires) = supervisor.join().unwrap();
    assert!(sink_fires > 0, "the sink fired while the feed was open");
    assert!(seen > 0 && seen <= e.snapshot().total_fires(), "mid-run count {seen}");
    assert_eq!(c.len(), N as usize, "every pushed token reached the sink");
}

#[test]
fn exports_are_produced_from_a_real_run() {
    let (wf, _c) = pipeline(false);
    let mut e = Engine::new(wf).with_director(DeDirector::new());
    e.run().unwrap();
    let snap = e.snapshot();

    let json = snap.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    for key in ["\"total_fires\"", "\"events_routed\"", "\"latency\"", "\"double\""] {
        assert!(json.contains(key), "JSON export misses {key}: {json}");
    }

    let prom = snap.to_prometheus();
    for needle in [
        "# TYPE confluence_actor_fires_total counter",
        "confluence_actor_fires_total{actor=\"double\"}",
        "confluence_events_routed_total",
        "confluence_latency_us_bucket",
        "confluence_latency_summary_us{quantile=\"0.95\"}",
        "le=\"+Inf\"",
    ] {
        assert!(prom.contains(needle), "Prometheus export misses `{needle}`");
    }

    let table = snap.render_table();
    for name in ["src", "double", "sink"] {
        assert!(table.contains(name), "table misses actor `{name}`");
    }
}

#[test]
fn custom_observers_see_every_firing() {
    #[derive(Default)]
    struct FireCounter {
        fires: AtomicU64,
        tokens: AtomicU64,
    }
    impl Observer for FireCounter {
        fn on_fire_end(&self, record: &FireRecord) {
            if record.fired {
                self.fires.fetch_add(1, Ordering::Relaxed);
                self.tokens.fetch_add(record.tokens_out, Ordering::Relaxed);
            }
        }
    }
    let counter = Arc::new(FireCounter::default());
    let (wf, _c) = pipeline(false);
    let mut e = Engine::new(wf)
        .with_director(DdfDirector::new())
        .with_observer(counter.clone());
    e.run().unwrap();
    assert_eq!(counter.fires.load(Ordering::Relaxed), e.snapshot().total_fires());
    assert_eq!(counter.tokens.load(Ordering::Relaxed), 2 * N as u64);
}

#[test]
fn run_until_stops_early() {
    // A source with far more input than the stop condition allows.
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("bounded");
    let inputs: Vec<Token> = (0..10_000).map(Token::Int).collect();
    let s = b.add_actor("src", VecSource::new(inputs));
    let k = b.add_actor("sink", c.actor());
    b.chain(&[s, k]).unwrap();
    let wf = b.build().unwrap();

    let mut e = Engine::new(wf).with_director(DdfDirector::new());
    e.run_until(StopCondition::Firings(50)).unwrap();
    let fires = e.snapshot().total_fires();
    assert!(fires >= 50, "the stop condition was reached ({fires})");
    assert!(
        fires < 20_000,
        "the run was cut short well before the input drained ({fires})"
    );
}

#[test]
fn queue_high_water_reflects_backlog() {
    // SDF runs the full schedule: four windows wait for the sink before
    // each of its firings, so the high-water mark exceeds one.
    let (wf, _c) = pipeline_taking(true, 4);
    let mut e = Engine::new(wf).with_director(SdfDirector::new());
    e.run().unwrap();
    let snap = e.snapshot();
    let ids: Vec<ActorId> = snap.actors.iter().map(|a| a.id).collect();
    assert_eq!(ids.len(), 3, "every actor appears exactly once");
    assert!(snap.actor("sink").unwrap().windows_closed >= N as u64);
    assert_eq!(snap.actor("sink").unwrap().queue_high_water, 4, "SDF: the sink's backlog");

    // So does the scheduled director's when a source turn follows every
    // internal firing: the doubler gains a window per two firings.
    let (wf, _c) = pipeline(false);
    let flooding = ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(1)),
        Box::new(TableCostModel::uniform(Micros(1), Micros::ZERO)),
    );
    let mut e = Engine::new(wf).with_director(flooding);
    e.run().unwrap();
    let scwf = e.snapshot().actor("double").unwrap().queue_high_water;
    assert!(scwf > 1, "SCWF: the flooded doubler's high water is {scwf}");
}

/// Windows waiting for an actor under the scheduled director wait in its
/// inbox, where the fabric's backlog and the port-depth gauges count them.
#[test]
fn scwf_backlog_is_visible_in_the_fabric_mid_run() {
    let sinks = [Collector::new(), Collector::new(), Collector::new()];
    let mut b = WorkflowBuilder::new("fan");
    let s = b.add_actor("src", VecSource::new((0..60).map(Token::Int).collect()));
    let ids: Vec<ActorId> = sinks
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let k = b.add_actor(format!("sink{i}"), c.actor());
            b.link((s, "out"), (k, "in")).unwrap();
            k
        })
        .collect();
    let mut wf = b.build().unwrap();
    let mut core = ScwfCore::new_virtual(
        Box::new(FifoScheduler::new(1)),
        Box::new(TableCostModel::uniform(Micros(1), Micros::ZERO)),
        Arc::new(VirtualClock::new()),
    );
    // Forty 1 µs firings alternate source and sinks: each source firing
    // leaves three windows, each sink firing takes one.
    assert_eq!(core.run_for(&mut wf, Some(Micros(40))).unwrap(), Progress::BudgetExhausted);
    let consumed: usize = sinks.iter().map(|c| c.len()).sum();
    let emitted = core.report().firings as usize - consumed;
    let waiting = 3 * emitted - consumed;
    assert!(waiting >= 30, "{emitted} emitted, {consumed} consumed");
    let fabric = core.fabric().expect("the first slice built it");
    assert_eq!(fabric.backlog(), waiting);
    let depths: Vec<usize> = ids.iter().map(|&k| fabric.inbox(k).port_depth(0)).collect();
    assert_eq!(depths.iter().sum::<usize>(), waiting, "per sink: {depths:?}");
    assert!(depths.iter().all(|&d| d > 1), "per sink: {depths:?}");
}
