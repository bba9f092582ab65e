//! The SDF (Synchronous Dataflow) director: pre-compiled static schedules.
//!
//! Every actor declares fixed token consumption/production rates
//! ([`crate::actor::SdfRates`]). The director solves the balance equations
//! `q[a] * produce(a→b) = q[b] * consume(a→b)` for the repetition vector
//! `q`, derives a single-appearance schedule (topological order with
//! repetition counts — valid for the acyclic graphs the Linear Road
//! sub-workflows use), and executes it iteration by iteration. Rate
//! inconsistencies are rejected at scheduling time, before any actor fires
//! — the classic SDF guarantee.
//!
//! In the Linear Road workflow hierarchy, sub-workflows with constant
//! consumption and production rates are governed by SDF directors
//! (paper Appendix A).
//!
//! The firing rule is the compiled schedule and the declared number of
//! windows staged per firing. The firing step and the run loop are
//! [`super::firing`]'s.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::graph::{ActorId, Workflow};
use crate::telemetry::Telemetry;
use crate::time::{Micros, SharedClock, VirtualClock};

use super::firing::{topological, Cx, FiringOrder, Run, Span, Step};
use super::{Director, RunReport};

/// Greatest common divisor.
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A non-negative rational, for balance-equation propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frac {
    num: u64,
    den: u64,
}

impl Frac {
    fn new(num: u64, den: u64) -> Frac {
        debug_assert!(den != 0);
        let g = gcd(num, den).max(1);
        Frac {
            num: num / g,
            den: den / g,
        }
    }

    fn mul(self, num: u64, den: u64) -> Frac {
        Frac::new(self.num * num, self.den * den)
    }
}

/// The compiled schedule: repetition vector, firing order and the
/// declared consumption rates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdfSchedule {
    /// Repetitions per actor per iteration.
    pub repetitions: Vec<u64>,
    /// Actor firing order (topological); each entry fires its full
    /// repetition count.
    pub order: Vec<usize>,
    /// Declared windows consumed per firing, per actor and input port.
    pub consume: Vec<Vec<u32>>,
}

/// Solve the balance equations and derive the schedule. Public so tests
/// and tools can inspect schedules without running anything.
pub fn compile_schedule(workflow: &Workflow) -> Result<SdfSchedule> {
    let n = workflow.actor_count();
    let mut consume: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut produce: Vec<Vec<u32>> = Vec::with_capacity(n);
    for id in workflow.actor_ids() {
        let node = workflow.node(id);
        let sdf = node_rates(workflow, id.0).ok_or_else(|| {
            Error::Sdf(format!(
                "actor `{}` declares no SDF rates; every actor under an SDF director must",
                node.name
            ))
        })?;
        if sdf.consume.len() != node.signature.inputs.len()
            || sdf.produce.len() != node.signature.outputs.len()
        {
            return Err(Error::Sdf(format!(
                "actor `{}` rates do not match its port counts",
                node.name
            )));
        }
        if sdf.consume.contains(&0) {
            return Err(Error::Sdf(format!(
                "actor `{}` declares a zero consumption rate",
                node.name
            )));
        }
        consume.push(sdf.consume);
        produce.push(sdf.produce);
    }

    // Each input port must have exactly one incoming channel for SDF rate
    // analysis to be well defined.
    for id in workflow.actor_ids() {
        for port in 0..workflow.node(id).signature.inputs.len() {
            if workflow.in_degree(id, port) != 1 {
                return Err(Error::Sdf(format!(
                    "SDF requires exactly one channel into each input port; `{}` port {} has {}",
                    workflow.node(id).name,
                    port,
                    workflow.in_degree(id, port)
                )));
            }
        }
    }

    // Propagate fractional repetition factors across channels: each
    // channel a→b imposes q[b] = q[a] · produce(a)/consume(b).
    let mut q: Vec<Option<Frac>> = vec![None; n];
    for start in 0..n {
        if q[start].is_some() {
            continue;
        }
        q[start] = Some(Frac::new(1, 1));
        let mut bfs = VecDeque::from([start]);
        while let Some(a) = bfs.pop_front() {
            let qa = q[a].expect("set before enqueue");
            for ch in workflow.channels() {
                let (v, num, den) = if ch.from.actor.0 == a {
                    let p = produce[a][ch.from.port] as u64;
                    let c = consume[ch.to.actor.0][ch.to.port] as u64;
                    (ch.to.actor.0, p, c)
                } else if ch.to.actor.0 == a {
                    // Traverse backwards: invert the ratio.
                    let p = produce[ch.from.actor.0][ch.from.port] as u64;
                    let c = consume[a][ch.to.port] as u64;
                    (ch.from.actor.0, c, p)
                } else {
                    continue;
                };
                if den == 0 {
                    return Err(Error::Sdf(format!(
                        "zero production rate feeding actor `{}`",
                        workflow.node(ActorId(v)).name
                    )));
                }
                let qv = qa.mul(num, den);
                match q[v] {
                    None => {
                        q[v] = Some(qv);
                        bfs.push_back(v);
                    }
                    Some(existing) => {
                        if existing != qv {
                            return Err(Error::Sdf(format!(
                                "inconsistent rates at actor `{}`",
                                workflow.node(ActorId(v)).name
                            )));
                        }
                    }
                }
            }
        }
    }

    // Scale to the smallest integer vector.
    let lcm_den = q
        .iter()
        .map(|f| f.expect("all assigned").den)
        .fold(1u64, |acc, d| acc / gcd(acc, d) * d);
    let mut reps: Vec<u64> = q
        .iter()
        .map(|f| {
            let f = f.expect("all assigned");
            f.num * (lcm_den / f.den)
        })
        .collect();
    let g = reps.iter().copied().fold(0, gcd).max(1);
    for r in &mut reps {
        *r /= g;
    }

    // Topological order; the sort leaves out every actor on a cycle.
    let order: Vec<usize> = topological(workflow).into_iter().map(|id| id.0).collect();
    if order.len() != n {
        return Err(Error::Sdf(
            "graph has a cycle; cyclic SDF (with initial tokens) is not supported".into(),
        ));
    }

    Ok(SdfSchedule {
        repetitions: reps,
        order,
        consume,
    })
}

fn node_rates(workflow: &Workflow, idx: usize) -> Option<crate::actor::SdfRates> {
    workflow
        .node(ActorId(idx))
        .peek_actor()
        .and_then(|a| a.rates())
}

/// Executes a compiled SDF schedule.
pub struct SdfDirector {
    clock: SharedClock,
    telemetry: Option<Telemetry>,
    hook: Option<Arc<crate::checkpoint::QuiesceHook>>,
}

impl Default for SdfDirector {
    fn default() -> Self {
        Self::new()
    }
}

impl SdfDirector {
    /// A director on a fresh virtual clock, running until sources exhaust.
    pub fn new() -> Self {
        SdfDirector {
            clock: Arc::new(VirtualClock::new()),
            telemetry: None,
            hook: None,
        }
    }
}

/// The SDF firing order: one step is one schedule iteration.
struct Iteration {
    schedule: SdfSchedule,
    /// Set when a source runs dry: the iteration it happens in is
    /// completed (downstream actors must still consume the in-flight
    /// tokens) and then the stream has ended.
    stopping: bool,
}

impl FiringOrder for Iteration {
    fn step(&mut self, cx: &mut Cx<'_>) -> Result<Step> {
        for &a in &self.schedule.order {
            let id = ActorId(a);
            'reps: for _rep in 0..self.schedule.repetitions[a] {
                // Stage the declared number of windows per input port.
                let inbox = cx.run.fabric.inbox(id);
                let mut staged: Vec<(usize, crate::window::Window)> = Vec::new();
                let mut counts = vec![0u32; self.schedule.consume[a].len()];
                while counts
                    .iter()
                    .zip(&self.schedule.consume[a])
                    .any(|(have, need)| have < need)
                {
                    if let Some((port, w)) = inbox.try_pop() {
                        counts[port] += 1;
                        staged.push((port, w));
                    } else if cx.workflow.node(id).is_source {
                        break;
                    } else if self.stopping {
                        // The drying source under-produced this
                        // iteration: hand the partial delivery to the
                        // context (a later rep or the actor's own loop
                        // may still cope) and skip this firing.
                        for (port, w) in staged {
                            cx.contexts[a].deliver(port, w);
                        }
                        continue 'reps;
                    } else {
                        return Err(Error::Sdf(format!(
                            "actor `{}` starved mid-schedule (rates inconsistent with behaviour)",
                            cx.workflow.node(id).name
                        )));
                    }
                }
                let fired = cx.fire(id, staged, None)?;
                // A source refusing to fire means the stream is over.
                self.stopping |=
                    (!fired.fired && cx.workflow.node(id).is_source) || fired.alive == Some(false);
            }
        }
        Ok(if self.stopping {
            Step::Ended
        } else {
            Step::Busy(Micros::ZERO)
        })
    }
}

impl Director for SdfDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let schedule = compile_schedule(workflow)?;
        let (run, mut contexts) = Run::open(
            workflow,
            self.telemetry.clone(),
            self.hook.clone(),
            self.clock.clone(),
        )?;
        // Iteration boundaries are SDF's quiescent points: the balance
        // equations guarantee every token produced in an iteration has
        // been consumed, so a pause captures there.
        let mut order = Iteration {
            schedule,
            stopping: false,
        };
        run.drive(workflow, &mut contexts, &mut order, Span::Whole)?;
        Ok(run.report())
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    fn attach_checkpoint(&mut self, hook: Arc<crate::checkpoint::QuiesceHook>) {
        self.hook = Some(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, FireContext, IoSignature, SdfRates};
    use crate::actors::Collector;
    use crate::graph::WorkflowBuilder;
    use crate::token::Token;

    /// Source with fixed production rate.
    struct RateSource {
        left: i64,
        per_firing: u32,
    }
    impl Actor for RateSource {
        fn signature(&self) -> IoSignature {
            IoSignature::source("out")
        }
        fn prefire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
            Ok(self.left > 0)
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            for _ in 0..self.per_firing {
                ctx.emit(0, Token::Int(self.left));
                self.left -= 1;
            }
            Ok(())
        }
        fn is_source(&self) -> bool {
            true
        }
        fn rates(&self) -> Option<SdfRates> {
            Some(SdfRates {
                consume: vec![],
                produce: vec![self.per_firing],
            })
        }
    }

    /// Consumes `take` tokens, emits their sum.
    struct SumN {
        take: u32,
    }
    impl Actor for SumN {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            let mut sum = 0;
            while let Some(w) = ctx.get(0) {
                for t in w.tokens() {
                    sum += t.as_int()?;
                }
            }
            ctx.emit(0, Token::Int(sum));
            Ok(())
        }
        fn rates(&self) -> Option<SdfRates> {
            Some(SdfRates {
                consume: vec![self.take],
                produce: vec![1],
            })
        }
    }

    struct RatedSink;
    impl Actor for RatedSink {
        fn signature(&self) -> IoSignature {
            IoSignature::sink("in")
        }
        fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
            Ok(())
        }
        fn rates(&self) -> Option<SdfRates> {
            Some(SdfRates {
                consume: vec![1],
                produce: vec![],
            })
        }
    }

    struct CollectorRated(crate::actors::CollectorActor);
    impl Actor for CollectorRated {
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

    fn rate_graph() -> (Workflow, Collector) {
        // src (2/firing) → sum3 (3:1) → sink (1)
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("sdf");
        let s = b.add_actor(
            "src",
            RateSource {
                left: 12,
                per_firing: 2,
            },
        );
        let m = b.add_actor("sum3", SumN { take: 3 });
        let k = b.add_actor("sink", CollectorRated(c.actor()));
        b.link((s, "out"), (m, "in")).unwrap();
        b.link((m, "out"), (k, "in")).unwrap();
        (b.build().unwrap(), c)
    }

    #[test]
    fn repetition_vector_balances_rates() {
        let (wf, _c) = rate_graph();
        let sched = compile_schedule(&wf).unwrap();
        // 2·q[src] = 3·q[sum3], q[sum3] = q[sink] → q = [3, 2, 2].
        assert_eq!(sched.repetitions, vec![3, 2, 2]);
        assert_eq!(sched.order, vec![0, 1, 2]);
    }

    #[test]
    fn executes_schedule_until_source_exhausts() {
        let (mut wf, c) = rate_graph();
        let report = SdfDirector::new().run(&mut wf).unwrap();
        // 12 tokens → 4 sums of 3 consecutive descending values.
        assert_eq!(
            c.tokens(),
            vec![
                Token::Int(12 + 11 + 10),
                Token::Int(9 + 8 + 7),
                Token::Int(6 + 5 + 4),
                Token::Int(3 + 2 + 1),
            ]
        );
        assert!(report.firings > 0);
    }

    #[test]
    fn missing_rates_rejected() {
        struct NoRates;
        impl Actor for NoRates {
            fn signature(&self) -> IoSignature {
                IoSignature::sink("in")
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
                Ok(())
            }
        }
        let mut b = WorkflowBuilder::new("bad");
        let s = b.add_actor(
            "src",
            RateSource {
                left: 1,
                per_firing: 1,
            },
        );
        let k = b.add_actor("k", NoRates);
        b.link((s, "out"), (k, "in")).unwrap();
        let wf = b.build().unwrap();
        assert!(matches!(compile_schedule(&wf), Err(Error::Sdf(_))));
    }

    #[test]
    fn inconsistent_rates_rejected() {
        // Diamond where the two branches imply different repetition counts
        // for the join actor.
        struct Split2;
        impl Actor for Split2 {
            fn signature(&self) -> IoSignature {
                IoSignature::new(&["in"], &["a", "b"])
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
                Ok(())
            }
            fn rates(&self) -> Option<SdfRates> {
                Some(SdfRates {
                    consume: vec![1],
                    produce: vec![1, 2], // branch b gets twice the tokens
                })
            }
        }
        struct Join;
        impl Actor for Join {
            fn signature(&self) -> IoSignature {
                IoSignature::new(&["x", "y"], &[])
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
                Ok(())
            }
            fn rates(&self) -> Option<SdfRates> {
                Some(SdfRates {
                    consume: vec![1, 1], // but consumes them equally
                    produce: vec![],
                })
            }
        }
        let mut b = WorkflowBuilder::new("inconsistent");
        let s = b.add_actor(
            "src",
            RateSource {
                left: 4,
                per_firing: 1,
            },
        );
        let sp = b.add_actor("split", Split2);
        let j = b.add_actor("join", Join);
        b.link((s, "out"), (sp, "in")).unwrap();
        b.link((sp, "a"), (j, "x")).unwrap();
        b.link((sp, "b"), (j, "y")).unwrap();
        let wf = b.build().unwrap();
        let err = compile_schedule(&wf).unwrap_err();
        assert!(matches!(err, Error::Sdf(_)));
    }

    #[test]
    fn multi_channel_port_rejected() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("multi");
        let s1 = b.add_actor("s1", RateSource { left: 1, per_firing: 1 });
        let s2 = b.add_actor("s2", RateSource { left: 1, per_firing: 1 });
        let k = b.add_actor("k", CollectorRated(c.actor()));
        b.link((s1, "out"), (k, "in")).unwrap();
        b.link((s2, "out"), (k, "in")).unwrap();
        let wf = b.build().unwrap();
        assert!(matches!(compile_schedule(&wf), Err(Error::Sdf(_))));
    }

    #[test]
    fn zero_consumption_rejected() {
        struct ZeroSink;
        impl Actor for ZeroSink {
            fn signature(&self) -> IoSignature {
                IoSignature::sink("in")
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
                Ok(())
            }
            fn rates(&self) -> Option<SdfRates> {
                Some(SdfRates {
                    consume: vec![0],
                    produce: vec![],
                })
            }
        }
        let mut b = WorkflowBuilder::new("zero");
        let s = b.add_actor("s", RateSource { left: 1, per_firing: 1 });
        let k = b.add_actor("k", ZeroSink);
        b.link((s, "out"), (k, "in")).unwrap();
        let wf = b.build().unwrap();
        assert!(matches!(compile_schedule(&wf), Err(Error::Sdf(_))));
    }

    #[test]
    fn unused_sink_rates_ok() {
        // RatedSink exists to exercise the type; wire a tiny graph.
        let mut b = WorkflowBuilder::new("tiny");
        let s = b.add_actor("s", RateSource { left: 2, per_firing: 1 });
        let k = b.add_actor("k", RatedSink);
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let sched = compile_schedule(&wf).unwrap();
        assert_eq!(sched.repetitions, vec![1, 1]);
        SdfDirector::new().run(&mut wf).unwrap();
    }
}
