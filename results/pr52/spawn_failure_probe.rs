//! Probe for a failed thread spawn: drop it into `tests/` of a copy whose
//! directors fail their second `thread::Builder::spawn` (see
//! `spawn_mutation.diff`) and run
//! `cargo test --release --test spawn_failure_probe -- --nocapture`.
//! Each run must return `Error::Director` at once with every actor back.

use std::time::{Duration, Instant};

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, TimedSource};
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::error::{Error, Result};
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::time::Timestamp;
use confluence::core::token::Token;

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

/// `src → relay → sink`; the source's last event is 5 s away, so a run
/// that is not failed does not end on its own for 5 s.
fn workflow() -> Workflow {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("spawn-probe");
    let times = [0, 1_000, 5_000_000];
    let s = b.add_actor(
        "src",
        TimedSource::new(times.iter().map(|&t| (Timestamp(t), Token::Int(t as i64))).collect()),
    );
    let r = b.add_actor("relay", Relay);
    let k = b.add_actor("sink", c.actor());
    b.link((s, "out"), (r, "in")).unwrap();
    b.link((r, "out"), (k, "in")).unwrap();
    b.build().unwrap()
}

#[test]
fn a_failed_spawn_fails_the_run_and_every_actor_comes_back() {
    let directors: [(&str, Box<dyn Director>); 3] = [
        ("threaded", Box::new(ThreadedDirector::new())),
        ("pool:2 (worker 1 fails)", Box::new(PoolDirector::new().with_workers(2))),
        ("pool:1 (the timer fails)", Box::new(PoolDirector::new().with_workers(1))),
    ];
    let mut failed = Vec::new();
    for (name, mut director) in directors {
        let mut wf = workflow();
        let began = Instant::now();
        let result = director.run(&mut wf);
        let took = began.elapsed();
        let back = wf.actor_ids().filter(|&id| wf.node(id).peek_actor().is_some()).count();
        println!("{name}: {result:?} in {took:?}; {back} of {} actors back", wf.actor_count());
        let ok = matches!(&result, Err(Error::Director(m)) if m.contains("failed to spawn"))
            && back == wf.actor_count()
            && took < Duration::from_secs(2);
        if !ok {
            failed.push(name);
        }
    }
    assert!(failed.is_empty(), "failed under {failed:?}");
}
