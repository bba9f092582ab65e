//! A stateful per-key actor (a running sum per key) between a source and
//! a sink: every director must deliver its output exact and in input
//! order, SDF must refuse the graph, whose actors declare no rates, and the
//! engine facade must run it and export its per-actor metrics.

use std::collections::HashMap;

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, VecSource};
use confluence::core::director::ddf::DdfDirector;
use confluence::core::director::de::DeDirector;
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::sdf::SdfDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::error::{Error, Result};
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::time::Micros;
use confluence::core::token::Token;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

fn rec(k: i64, v: i64) -> Token {
    Token::record().field("k", k).field("v", v).build()
}

/// Per-key running sum: emits `(k, sum of v so far for k)` per record.
#[derive(Default)]
struct KeyedSum {
    sums: HashMap<i64, i64>,
}

impl Actor for KeyedSum {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                let k = t.int_field("k")?;
                let v = t.int_field("v")?;
                let sum = self.sums.entry(k).or_insert(0);
                *sum += v;
                ctx.emit(0, rec(k, *sum));
            }
        }
        Ok(())
    }
}

/// Forty records over five keys, interleaved.
fn spread() -> Vec<Token> {
    (0..40).map(|i| rec(i % 5, i)).collect()
}

/// Forty records that all share one key.
fn one_hot_key() -> Vec<Token> {
    (0..40).map(|i| rec(7, i)).collect()
}

/// The reference result: running sums in input order.
fn expected(inputs: &[Token]) -> Vec<(i64, i64)> {
    let mut sums: HashMap<i64, i64> = HashMap::new();
    inputs
        .iter()
        .map(|t| {
            let k = t.int_field("k").unwrap();
            let s = sums.entry(k).or_insert(0);
            *s += t.int_field("v").unwrap();
            (k, *s)
        })
        .collect()
}

fn build(inputs: Vec<Token>) -> (Workflow, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("keyed-sum");
    let s = b.add_actor("src", VecSource::new(inputs));
    let a = b.add_actor("sum", KeyedSum::default());
    let k = b.add_actor("sink", c.actor());
    b.link(s.port("out"), a.port("in")).unwrap();
    b.link(a.port("out"), k.port("in")).unwrap();
    (b.build().unwrap(), c)
}

fn collected(c: &Collector) -> Vec<(i64, i64)> {
    c.tokens()
        .iter()
        .map(|t| (t.int_field("k").unwrap(), t.int_field("v").unwrap()))
        .collect()
}

fn run_under(name: &str, wf: &mut Workflow) {
    match name {
        "threaded" => ThreadedDirector::new().run(wf).map(|_| ()).unwrap(),
        "pool" => PoolDirector::new()
            .with_workers(4)
            .run(wf)
            .map(|_| ())
            .unwrap(),
        "ddf" => DdfDirector::new().run(wf).map(|_| ()).unwrap(),
        "de" => DeDirector::new().run(wf).map(|_| ()).unwrap(),
        "scwf" => {
            let cost = TableCostModel::uniform(Micros(10), Micros(1));
            ScwfDirector::virtual_time(Box::new(FifoScheduler::new(5)), Box::new(cost))
                .run(wf)
                .map(|_| ())
                .unwrap()
        }
        other => panic!("unknown director {other}"),
    }
}

fn assert_exact_and_ordered(director: &str) {
    let (mut wf, c) = build(spread());
    run_under(director, &mut wf);
    assert_eq!(collected(&c), expected(&spread()), "director {director}");
}

#[test]
fn keyed_running_sum_is_exact_and_ordered_under_threaded() {
    assert_exact_and_ordered("threaded");
}

#[test]
fn keyed_running_sum_is_exact_and_ordered_under_pool() {
    assert_exact_and_ordered("pool");
}

#[test]
fn keyed_running_sum_is_exact_and_ordered_under_ddf() {
    assert_exact_and_ordered("ddf");
}

#[test]
fn keyed_running_sum_is_exact_and_ordered_under_de() {
    assert_exact_and_ordered("de");
}

#[test]
fn keyed_running_sum_is_exact_and_ordered_under_scwf() {
    assert_exact_and_ordered("scwf");
}

#[test]
fn one_hot_key_keeps_its_order_under_every_director() {
    let reference = expected(&one_hot_key());
    assert_eq!(reference.last(), Some(&(7, (0..40).sum())));
    for director in ["threaded", "pool", "ddf", "de", "scwf"] {
        let (mut wf, c) = build(one_hot_key());
        run_under(director, &mut wf);
        assert_eq!(collected(&c), reference, "director {director}");
    }
}

#[test]
fn sdf_refuses_a_graph_without_rates_by_actor_and_runs_nothing() {
    // No actor here declares SDF rates; the first one in the graph is named.
    let (mut wf, c) = build(spread());
    match SdfDirector::new().run(&mut wf) {
        Err(Error::Sdf(msg)) => {
            assert!(msg.contains("actor `src` declares no SDF rates"), "{msg}");
        }
        other => panic!("expected SDF rate error, got {other:?}"),
    }
    assert!(collected(&c).is_empty(), "nothing runs before the schedule");
}

#[test]
fn engine_configure_runs_a_keyed_workflow_and_exports_its_actors() {
    use confluence::prelude::{Engine, ExecConfig};
    let (wf, c) = build(spread());
    let mut engine = Engine::new(wf)
        .with_director(PoolDirector::new().with_workers(2))
        .configure(ExecConfig::new().sample_series(Micros::from_millis(1)));
    engine.run().unwrap();
    assert_eq!(collected(&c), expected(&spread()));
    let snap = engine.snapshot();
    let sum = snap.actor("sum").expect("the keyed actor is measured");
    assert!(sum.fires > 0);
    assert_eq!(sum.events_in, 40);
    assert_eq!(sum.tokens_out, 40);
    let prom = snap.to_prometheus();
    for name in ["src", "sum", "sink"] {
        assert!(
            prom.contains(&format!("confluence_actor_fires_total{{actor=\"{name}\"}}")),
            "`{name}` exported:\n{prom}"
        );
    }
}

#[test]
fn to_dot_draws_each_actor_and_channel_once() {
    let (wf, _c) = build(spread());
    assert_eq!(wf.actor_count(), 3);
    let dot = wf.to_dot();
    for name in ["src", "sum", "sink"] {
        assert_eq!(
            dot.matches(&format!("label=\"{name}\\n")).count(),
            1,
            "`{name}` drawn once:\n{dot}"
        );
    }
    assert_eq!(dot.matches(" -> ").count(), 2, "two channels:\n{dot}");
    assert_eq!(dot.matches("out→in").count(), 2, "{dot}");
    assert!(!dot.contains("subgraph"), "a flat graph has no clusters:\n{dot}");
}
