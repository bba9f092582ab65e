//! Continuous time-series sampling end-to-end: series ride the
//! directors' own clocks, so virtual-time runs produce byte-identical
//! trajectories, and the real-time directors sample the same keys on
//! wall time.

use std::sync::Arc;

use confluence::core::actors::{Collector, VecSource};
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::engine::{Engine, ExecConfig};
use confluence::core::graph::Workflow;
use confluence::core::telemetry::{TraceConfig, Tracer};
use confluence::core::time::Micros;
use confluence::core::token::Token;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

const N: i64 = 40;

fn pipeline() -> (Workflow, Collector) {
    use confluence::core::actor::{Actor, FireContext, IoSignature};
    use confluence::core::error::Result;
    use confluence::core::graph::WorkflowBuilder;

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
    }

    let c = Collector::new();
    let mut b = WorkflowBuilder::new("pipeline");
    let s = b.add_actor("src", VecSource::new((1..=N).map(Token::Int).collect()));
    let d = b.add_actor("double", Double);
    let k = b.add_actor("sink", c.actor());
    b.chain(&[s, d, k]).unwrap();
    (b.build().unwrap(), c)
}

fn scwf() -> ScwfDirector {
    ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(10), Micros(1))),
    )
}

/// Two identical virtual-time runs must sample byte-identical series:
/// the recorder keys samples on director time, which under the scheduled
/// CWF director comes from the cost model, not the wall.
#[test]
fn virtual_time_series_are_deterministic() {
    let run = || {
        let (wf, _c) = pipeline();
        let mut e = Engine::new(wf)
            .with_director(scwf())
            .configure(ExecConfig::new().sample_series(Micros(20)));
        e.run().unwrap();
        e.series().expect("series recorder is on").to_csv_all()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "virtual-time series must be reproducible");
    // The trajectory is real, not an empty header: every actor got depth
    // and fire series, and more than one tick was taken.
    assert!(a.starts_with("tick_us,key,value\n"));
    for key in ["depth:src", "depth:double", "depth:sink", "fires:sink"] {
        assert!(a.contains(key), "series CSV misses key `{key}`:\n{a}");
    }
    assert!(
        a.lines().count() > 8,
        "expected a multi-tick trajectory, got:\n{a}"
    );
}

/// The same keys appear under the real-time directors, and cumulative
/// per-actor fire series are monotone and end at the recorder's totals.
#[test]
fn realtime_directors_sample_the_same_keys() {
    type Select = fn(Engine) -> Engine;
    let threaded: Select = |e| e.with_director(ThreadedDirector::new());
    let pool: Select = |e| e.with_director(PoolDirector::new().with_workers(2));
    for (name, with_director) in [("threaded", threaded), ("pool", pool)] {
        let (wf, _c) = pipeline();
        let mut e = with_director(Engine::new(wf))
            .configure(ExecConfig::new().sample_series(Micros(1)));
        e.run().unwrap();
        let series = e.series().expect("series recorder is on");
        let keys = series.keys();
        for key in ["depth:src", "depth:double", "depth:sink", "fires:sink"] {
            assert!(
                keys.iter().any(|k| k == key),
                "{name}: missing series `{key}` (got {keys:?})"
            );
        }
        let fires = series.series("fires:sink");
        assert!(!fires.is_empty(), "{name}: sink fire series sampled");
        assert!(
            fires.windows(2).all(|w| w[0].value <= w[1].value),
            "{name}: cumulative fire counts are monotone"
        );
        assert!(
            fires.last().unwrap().value <= e.snapshot().actor("sink").unwrap().fires,
            "{name}: sampled fires never exceed the recorder's total"
        );
        assert!(
            fires.windows(2).all(|w| w[0].tick_us < w[1].tick_us),
            "{name}: sample ticks strictly increase"
        );
    }
}

/// With a latency sketch attached (always, via the engine) the sampled
/// `p95_us` series appears once sink latencies exist.
#[test]
fn p95_series_tracks_the_latency_sketch() {
    let (wf, _c) = pipeline();
    let mut e = Engine::new(wf)
        .with_director(scwf())
        .configure(ExecConfig::new().sample_series(Micros(20)));
    e.run().unwrap();
    let series = e.series().unwrap();
    let p95 = series.series("p95_us");
    assert!(!p95.is_empty(), "p95 series sampled (keys: {:?})", series.keys());
    let snap = e.snapshot();
    assert_eq!(
        p95.last().unwrap().value,
        snap.latency.quantile(0.95),
        "final p95 sample agrees with the snapshot sketch"
    );
}

/// The per-key CSV export carries exactly the sampled points.
#[test]
fn per_key_csv_matches_the_ring() {
    let (wf, _c) = pipeline();
    let mut e = Engine::new(wf)
        .with_director(scwf())
        .configure(ExecConfig::new().sample_series(Micros(20)));
    e.run().unwrap();
    let series = e.series().unwrap();
    let csv = series.to_csv("fires:sink");
    let mut expect = String::from("tick_us,value\n");
    for p in series.series("fires:sink") {
        expect.push_str(&format!("{},{}\n", p.tick_us, p.value));
    }
    assert_eq!(csv, expect);
    assert!(csv.lines().count() > 1, "fires series is non-empty");
}

/// Series and traces are opt-in: an engine without `sample_series` or a
/// tracer has neither, while its metrics snapshot still exports.
#[test]
fn series_and_traces_are_absent_unless_asked_for() {
    let (wf, _c) = pipeline();
    let mut plain = Engine::new(wf).with_director(scwf());
    plain.run().unwrap();
    assert!(plain.series().is_none(), "no series without sample_series");
    assert!(plain.trace_report().is_none(), "no trace without a tracer");
    let snap = plain.snapshot();
    assert!(snap.to_prometheus().contains("confluence_actor_fires_total{actor=\"sink\"}"));
    assert!(snap.to_json().contains("\"total_fires\""));
}

/// An engine given both a tracer and series sampling has both in either
/// builder order, each reading what the run recorded.
#[test]
fn series_and_traces_do_not_depend_on_builder_order() {
    let tracer = || Arc::new(Tracer::new(TraceConfig::default()));
    let sampled = || ExecConfig::new().sample_series(Micros(20));
    let (a, _) = pipeline();
    let (b, _) = pipeline();
    for mut e in [
        Engine::new(a).with_director(scwf()).with_tracer(tracer()).configure(sampled()),
        Engine::new(b).with_director(scwf()).configure(sampled()).with_tracer(tracer()),
    ] {
        e.run().unwrap();
        let series = e.series().unwrap();
        assert!(series.keys().iter().any(|k| k == "fires:sink"));
        assert!(series.to_csv_all().starts_with("tick_us,key,value\n"));
        assert!(!e.trace_report().unwrap().waves.is_empty(), "the tracer saw the run");
    }
}
