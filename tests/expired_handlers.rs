//! End-to-end tests of the expired-items queues (paper §2.1): events that
//! slide out of a window are pushed to an expired-items queue which is
//! optionally handled by another workflow activity.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, FnActor, VecSource};
use confluence::core::channel::ChannelPolicy;
use confluence::core::director::ddf::DdfDirector;
use confluence::core::director::de::DeDirector;
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::engine::Engine;
use confluence::core::error::{Error, Result};
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::core::window::WindowSpec;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

/// src → agg (tumbling 3-windows, delete_used) with agg.in's expired
/// events handled by a dedicated audit sink.
fn build() -> (Workflow, Collector, Collector) {
    let audit = Collector::new();
    let source = VecSource::new((0..9).map(Token::Int).collect());
    let (wf, out) = build_with(source, audit.clone(), None);
    (wf, out, audit)
}

fn build_with(
    source: impl Actor + 'static,
    audit: Collector,
    audit_policy: Option<ChannelPolicy>,
) -> (Workflow, Collector) {
    let out = Collector::new();
    let mut b = WorkflowBuilder::new("expired");
    let s = b.add_actor("src", source);
    let agg = b.add_actor(
        "agg",
        FnActor::new(
            IoSignature::transform("in", "out"),
            |w, emit| {
                let mut sum = 0;
                for t in w.tokens() {
                    sum += t.as_int()?;
                }
                emit(0, Token::Int(sum));
                Ok(())
            },
        ),
    );
    let sink = b.add_actor("sink", out.actor());
    let auditor = b.add_actor("audit", audit.actor());
    b.link_windowed((s, "out"), (agg, "in"), WindowSpec::tuples(3, 3).delete_used(true)).unwrap();
    b.link((agg, "out"), (sink, "in")).unwrap();
    // The audit actor has no channel into it: it is fed purely by the
    // expired-items queue of agg's input port.
    b.expired_handler((agg, "in"), (auditor, "in")).unwrap();
    if let Some(policy) = audit_policy {
        b.channel_policy((auditor, "in"), policy).unwrap();
    }
    (b.build().unwrap(), out)
}

/// A source that emits 0..9 and then stays alive — emitting nothing —
/// until the audit sink has been handed an expired event, or it has waited
/// long enough to give up. `handler_ran` says which.
struct GatedSource {
    tokens: VecDeque<Token>,
    audit: Collector,
    idle_firings: u32,
    alive: bool,
    handler_ran: Arc<AtomicBool>,
}

impl Actor for GatedSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        match self.tokens.pop_front() {
            Some(t) => ctx.emit(0, t),
            None => self.idle_firings += 1,
        }
        Ok(())
    }
    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        if self.tokens.is_empty() {
            if !self.audit.is_empty() {
                self.handler_ran.store(true, Ordering::SeqCst);
            }
            self.alive = self.audit.is_empty() && self.idle_firings < 5_000;
        }
        Ok(self.alive)
    }
    fn is_source(&self) -> bool {
        true
    }
    fn next_arrival(&self) -> Option<Timestamp> {
        self.alive.then_some(Timestamp::ZERO)
    }
}

/// The expired-items queue is a live stream, not an end-of-run dump: under
/// every director that accepts the graph, the handler activity sees
/// expired events while the source is still open.
#[test]
fn handler_sees_expired_events_before_the_source_closes() {
    let scwf = |real: bool| -> Box<dyn Director> {
        let policy = Box::new(FifoScheduler::new(5));
        if real {
            Box::new(ScwfDirector::real_time(policy))
        } else {
            let cost = TableCostModel::uniform(Micros(10), Micros(1));
            Box::new(ScwfDirector::virtual_time(policy, Box::new(cost)))
        }
    };
    let directors: Vec<(&str, Box<dyn Director>)> = vec![
        ("threaded", Box::new(ThreadedDirector::new())),
        ("pool", Box::new(PoolDirector::new().with_workers(2))),
        ("ddf", Box::new(DdfDirector::new())),
        ("de", Box::new(DeDirector::new())),
        ("scwf-virtual", scwf(false)),
        ("scwf-real", scwf(true)),
    ];
    for (name, mut director) in directors {
        let audit = Collector::new();
        let handler_ran = Arc::new(AtomicBool::new(false));
        let source = GatedSource {
            tokens: (0..9).map(Token::Int).collect(),
            audit: audit.clone(),
            idle_firings: 0,
            alive: true,
            handler_ran: handler_ran.clone(),
        };
        let (mut wf, out) = build_with(source, audit.clone(), None);
        director.run(&mut wf).unwrap();
        assert!(
            handler_ran.load(Ordering::SeqCst),
            "{name}: the handler saw nothing while the source was open"
        );
        assert_eq!(out.len(), 3, "{name}");
        let mut audited: Vec<i64> = audit.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        audited.sort_unstable();
        assert_eq!(audited, (0..9).collect::<Vec<_>>(), "{name}");
    }
}

/// An expired-items hand-over is a channel write like any other: when the
/// handler's port refuses it (`OnFull::Error`), the run fails instead of
/// quietly dropping the events.
#[test]
fn scwf_surfaces_a_refused_expired_hand_over() {
    let source = VecSource::new((0..9).map(Token::Int).collect());
    let refuse = ChannelPolicy::error(1);
    let (mut wf, _out) = build_with(source, Collector::new(), Some(refuse));
    let cost = TableCostModel::uniform(Micros(10), Micros(1));
    let err = ScwfDirector::virtual_time(Box::new(FifoScheduler::new(5)), Box::new(cost))
        .run(&mut wf)
        .unwrap_err();
    assert!(matches!(err, Error::ChannelFull { .. }), "{err}");
}

/// `Engine::run` reports the run's own counters, which count an
/// expired-items hand-over as a delivery (a `StopCondition::EventsRouted`
/// bound does too): its report equals the director's own on a fresh copy.
#[test]
fn the_engine_reports_what_the_director_counts() {
    let scwf = || {
        let cost = TableCostModel::uniform(Micros(10), Micros(1));
        ScwfDirector::virtual_time(Box::new(FifoScheduler::new(5)), Box::new(cost))
    };
    let (mut wf, _out, audit) = build();
    let direct = scwf().run(&mut wf).unwrap();
    assert_eq!(audit.len(), 9, "every event expired into the audit sink");
    let (wf, _out, _audit) = build();
    let mut engine = Engine::new(wf).with_director(scwf());
    assert_eq!(engine.run().unwrap(), direct);
    assert_eq!(direct.events_routed, 21, "9 source events, 3 sums and 9 hand-overs");
}

#[test]
fn expired_events_reach_the_handler_under_ddf() {
    let (mut wf, out, audit) = build();
    DdfDirector::new().run(&mut wf).unwrap();
    // Three full windows: sums 0+1+2, 3+4+5, 6+7+8.
    assert_eq!(
        out.tokens(),
        vec![Token::Int(3), Token::Int(12), Token::Int(21)]
    );
    // Every consumed event eventually expires into the audit activity.
    let mut audited: Vec<i64> = audit.tokens().iter().map(|t| t.as_int().unwrap()).collect();
    audited.sort_unstable();
    assert_eq!(audited, (0..9).collect::<Vec<_>>());
}

#[test]
fn expired_events_reach_the_handler_under_threads() {
    let (mut wf, out, audit) = build();
    ThreadedDirector::new().run(&mut wf).unwrap();
    assert_eq!(out.len(), 3);
    let mut audited: Vec<i64> = audit.tokens().iter().map(|t| t.as_int().unwrap()).collect();
    audited.sort_unstable();
    assert_eq!(audited, (0..9).collect::<Vec<_>>());
}

#[test]
fn sliding_windows_expire_only_slid_out_events() {
    // {Size: 2, Step: 1} without delete_used: event k expires once the
    // window start passes it — every event except the very last.
    let out = Collector::new();
    let audit = Collector::new();
    let mut b = WorkflowBuilder::new("sliding-expired");
    let s = b.add_actor("src", VecSource::new((0..5).map(Token::Int).collect()));
    let pass = b.add_actor(
        "pass",
        FnActor::new(
            IoSignature::transform("in", "out"),
            |w, emit| {
                emit(0, Token::Int(w.len() as i64));
                Ok(())
            },
        ),
    );
    let sink = b.add_actor("sink", out.actor());
    let auditor = b.add_actor("audit", audit.actor());
    b.link_windowed((s, "out"), (pass, "in"), WindowSpec::tuples(2, 1)).unwrap();
    b.link((pass, "out"), (sink, "in")).unwrap();
    b.expired_handler((pass, "in"), (auditor, "in")).unwrap();
    let mut wf = b.build().unwrap();
    DdfDirector::new().run(&mut wf).unwrap();
    let mut audited: Vec<i64> = audit.tokens().iter().map(|t| t.as_int().unwrap()).collect();
    audited.sort_unstable();
    assert_eq!(audited, (0..5).collect::<Vec<_>>(), "all expire by close");
}

#[test]
fn builder_rejects_unknown_handler_ports() {
    let mut b = WorkflowBuilder::new("bad");
    let s = b.add_actor("src", VecSource::new(vec![]));
    let k = b.add_actor("sink", Collector::new().actor());
    b.link((s, "out"), (k, "in")).unwrap();
    assert!(b
        .expired_handler((k, "nope"), (s, "in"))
        .is_err());
    assert!(b
        .expired_handler((k, "in"), (s, "nope"))
        .is_err());
}
