use std::time::Instant;

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, VecSource};
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::error::Result;
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::token::Token;

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
}

fn wf(n: i64) -> (Workflow, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("probe");
    let s = b.add_actor("src", VecSource::new((0..n).map(Token::Int).collect()));
    let a = b.add_actor("pass", Pass);
    let k = b.add_actor("sink", c.actor());
    b.link((s, "out"), (a, "in")).unwrap();
    b.link((a, "out"), (k, "in")).unwrap();
    (b.build().unwrap(), c)
}

fn main() {
    let n = 3000;
    let every = 600;
    for director in ["threaded", "pool:2"] {
        let mk = |w: Workflow| match director {
            "pool:2" => Engine::new(w).configure(ExecConfig::new().workers(2)),
            _ => Engine::new(w),
        };
        for round in 0..3 {
            let (w, c) = wf(n);
            let t = Instant::now();
            mk(w).run().unwrap();
            let plain = t.elapsed().as_secs_f64();
            assert_eq!(c.len(), n as usize);
            let dir = std::path::PathBuf::from(std::env::var("PROBE_DIR").unwrap()).join(format!("ckpt-{round}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let (w, c) = wf(n);
            let mut e = mk(w).configure(ExecConfig::new().checkpoint_every(StopCondition::Firings(every), &dir));
            let t = Instant::now();
            let report = e.run().unwrap();
            let ckpt = t.elapsed().as_secs_f64();
            assert_eq!(c.len(), n as usize);
            let pauses = report.firings / every;
            let _ = std::fs::remove_dir_all(&dir);
            println!(
                "{director} round {round}: plain {:.1} ms, checkpointed {:.1} ms, ~{pauses} pauses, {:.1} ms per pause",
                plain * 1e3,
                ckpt * 1e3,
                (ckpt - plain) * 1e3 / pauses.max(1) as f64
            );
        }
    }
}
