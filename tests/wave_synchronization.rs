//! Wave synchronization end-to-end: the motivating use of wave-tags
//! (paper §2.1) — events fan out across parallel branches and a
//! downstream task synchronizes *all* the events belonging to a single
//! wave, using a wave-based window.

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, FnActor, TimedSource, Union};
use confluence::core::director::Director;
use confluence::core::error::Result;
use confluence::core::graph::WorkflowBuilder;
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::core::window::WindowSpec;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::{FifoScheduler, QbsScheduler, RrScheduler};
use confluence::sched::{Scheduler, ScwfDirector};

/// Splits one order into its line items (a 1→N expansion: the produced
/// events join the external event's wave as `t.1 .. t.n`).
struct Explode;
impl Actor for Explode {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                let n = t.int_field("items")?;
                for i in 0..n {
                    ctx.emit(
                        0,
                        Token::record()
                            .field("order", t.int_field("order")?)
                            .field("item", i)
                            .build(),
                    );
                }
            }
        }
        Ok(())
    }
}

fn run_with(policy: Box<dyn Scheduler>) -> Vec<(i64, usize)> {
    // Orders with varying item counts; each order is one external event.
    let orders: Vec<(Timestamp, Token)> = [(1i64, 3i64), (2, 1), (3, 4), (4, 2)]
        .iter()
        .enumerate()
        .map(|(k, &(order, items))| {
            (
                Timestamp::from_millis(k as u64 * 10),
                Token::record().field("order", order).field("items", items).build(),
            )
        })
        .collect();

    let out = Collector::new();
    let mut b = WorkflowBuilder::new("wave-sync");
    let src = b.add_actor("orders", TimedSource::new(orders));
    let explode = b.add_actor("explode", Explode);
    // Two parallel enrichment branches, then a union — the wave's events
    // interleave arbitrarily across the branches.
    let price = b.add_actor(
        "price",
        FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
            for t in w.tokens() {
                emit(0, t.clone());
            }
            Ok(())
        }),
    );
    let stock = b.add_actor(
        "stock",
        FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
            for t in w.tokens() {
                emit(0, t.clone());
            }
            Ok(())
        }),
    );
    let route = b.add_actor(
        "route",
        confluence::core::actors::Router::new(&["a", "b"], |t: &Token| {
            Ok(Some((t.int_field("item")? % 2) as usize))
        }),
    );
    let union = b.add_actor("union", Union::new(2));
    // The synchronizer: a wave window delivers exactly the complete wave.
    let sync = b.add_actor(
        "sync",
        FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
            let order = w.events[0].token.int_field("order")?;
            emit(
                0,
                Token::record()
                    .field("order", order)
                    .field("parts", w.len() as i64)
                    .build(),
            );
            Ok(())
        }),
    );
    let sink = b.add_actor("sink", out.actor());
    b.link((src, "out"), (explode, "in")).unwrap();
    b.link((explode, "out"), (route, "in")).unwrap();
    b.link((route, "a"), (price, "in")).unwrap();
    b.link((route, "b"), (stock, "in")).unwrap();
    b.link((price, "out"), (union, "in0")).unwrap();
    b.link((stock, "out"), (union, "in1")).unwrap();
    b.link_windowed((union, "out"), (sync, "in"), WindowSpec::wave()).unwrap();
    b.link((sync, "out"), (sink, "in")).unwrap();
    let mut wf = b.build().unwrap();

    let mut d = ScwfDirector::virtual_time(
        policy,
        Box::new(TableCostModel::uniform(Micros(35), Micros(7))),
    );
    d.run(&mut wf).unwrap();

    let mut got: Vec<(i64, usize)> = out
        .tokens()
        .iter()
        .map(|t| {
            (
                t.int_field("order").unwrap(),
                t.int_field("parts").unwrap() as usize,
            )
        })
        .collect();
    got.sort_unstable();
    got
}

#[test]
fn wave_windows_reassemble_fanned_out_events() {
    let got = run_with(Box::new(FifoScheduler::new(5)));
    // Every order arrives exactly once, with ALL its parts, despite the
    // parts taking different branches.
    assert_eq!(got, vec![(1, 3), (2, 1), (3, 4), (4, 2)]);
}

#[test]
fn wave_synchronization_is_scheduler_independent() {
    let reference = run_with(Box::new(FifoScheduler::new(5)));
    for policy in [
        Box::new(QbsScheduler::new(500, 5)) as Box<dyn Scheduler>,
        Box::new(RrScheduler::new(10_000, 5)),
    ] {
        assert_eq!(run_with(policy), reference);
    }
}
