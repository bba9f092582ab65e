//! Cross-director equivalence: the same workflow specification computes
//! the same results under every model of computation — the Kepler/Ptolemy
//! decoupling the whole system rests on.

use confluence::core::actor::{Actor, FireContext, IoSignature, SdfRates};
use confluence::core::actors::{Collector, VecSource};
use confluence::core::director::ddf::DdfDirector;
use confluence::core::director::de::DeDirector;
use confluence::core::director::sdf::SdfDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::error::Result;
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::time::Micros;
use confluence::core::token::Token;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::{FifoScheduler, QbsScheduler};
use confluence::sched::ScwfDirector;

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

struct RatedCollector(confluence::core::actors::CollectorActor);
impl Actor for RatedCollector {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.0.fire(ctx)
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![],
        })
    }
}

fn pipeline(rated: bool) -> (Workflow, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("pipeline");
    let inputs: Vec<Token> = (1..=20).map(Token::Int).collect();
    let s = if rated {
        b.add_actor("src", RatedSource(inputs))
    } else {
        b.add_actor("src", VecSource::new(inputs))
    };
    let d = b.add_actor("double", Double);
    let k = if rated {
        b.add_actor("sink", RatedCollector(c.actor()))
    } else {
        b.add_actor("sink", c.actor())
    };
    b.link((s, "out"), (d, "in")).unwrap();
    b.link((d, "out"), (k, "in")).unwrap();
    (b.build().unwrap(), c)
}

fn expected() -> Vec<i64> {
    (1..=20).map(|i| i * 2).collect()
}

fn collected(c: &Collector) -> Vec<i64> {
    c.tokens().iter().map(|t| t.as_int().unwrap()).collect()
}

#[test]
fn threaded_pncwf() {
    let (mut wf, c) = pipeline(false);
    ThreadedDirector::new().run(&mut wf).unwrap();
    assert_eq!(collected(&c), expected());
}

#[test]
fn sdf() {
    let (mut wf, c) = pipeline(true);
    SdfDirector::new().run(&mut wf).unwrap();
    assert_eq!(collected(&c), expected());
}

#[test]
fn ddf() {
    let (mut wf, c) = pipeline(false);
    DdfDirector::new().run(&mut wf).unwrap();
    assert_eq!(collected(&c), expected());
}

#[test]
fn de() {
    let (mut wf, c) = pipeline(false);
    DeDirector::new().run(&mut wf).unwrap();
    assert_eq!(collected(&c), expected());
}

#[test]
fn scwf_fifo_and_qbs() {
    for policy in [
        Box::new(FifoScheduler::new(5)) as Box<dyn confluence::sched::Scheduler>,
        Box::new(QbsScheduler::new(500, 5)),
    ] {
        let (mut wf, c) = pipeline(false);
        let cost = TableCostModel::uniform(Micros(10), Micros(1));
        ScwfDirector::virtual_time(policy, Box::new(cost))
            .run(&mut wf)
            .unwrap();
        assert_eq!(collected(&c), expected());
    }
}

#[test]
fn scwf_real_time() {
    let (mut wf, c) = pipeline(false);
    ScwfDirector::real_time(Box::new(FifoScheduler::new(5)))
        .run(&mut wf)
        .unwrap();
    assert_eq!(collected(&c), expected());
}
