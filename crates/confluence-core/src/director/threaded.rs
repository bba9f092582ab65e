//! The PNCWF thread-based continuous-workflow director.
//!
//! Based on Kepler's PN/CN/DE directors: every actor is wrapped in its own
//! OS thread, allowing actors to run in parallel and waiting whenever
//! there is no data to consume. Resource allocation among the threads is
//! handled directly by the operating system — which, as the paper's
//! evaluation shows, leaves no margin for QoS-based optimization (that is
//! STAFiLOS's job, in `confluence-sched`).
//!
//! The firing rule is "whenever the actor's own thread finds a window"
//! (sources: whenever their timetable says). Each thread steps its actor's
//! [`Task`] — the firing step, the window-deadline poll, a `Block` port's
//! park and the run lifecycle are [`super::firing`]'s — and parks itself
//! while the task rests ([`Wait::Rest`]): until the fabric's wake unparks
//! it ([`super::Fabric`]), or the rest's instant comes, with no cap.
//! `thread::unpark` keeps a wake that comes before the park. Parks' relief
//! needs no thread of its own: the park that closes an artificial deadlock
//! grows a queue at once ([`super::Fabric::deliver`]), and the writer on
//! the grown port wakes. A stop, a pause, or an error or a panic in any
//! task ([`Run::fail`]) latches the run's boundary, whose latch unparks
//! every thread; each then ends its task (without `finish` after an error).

use std::sync::atomic::{fence, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::graph::Workflow;
use crate::telemetry::Telemetry;
use crate::time::{SharedClock, WallClock};

use super::firing::{Run, Task, Wait};
use super::{Director, RunReport};

/// One OS thread per actor; OS scheduling; each thread parks until the
/// fabric wakes it.
pub struct ThreadedDirector {
    clock: SharedClock,
    telemetry: Option<Telemetry>,
}

impl Default for ThreadedDirector {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadedDirector {
    /// A director on the wall clock (the normal mode).
    pub fn new() -> Self {
        ThreadedDirector { clock: Arc::new(WallClock::new()), telemetry: None }
    }
}

impl Director for ThreadedDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let (mut run, contexts) = Run::open(workflow, self.telemetry.clone(), self.clock.clone())?;
        // Each thread puts its handle here before its first step.
        let threads: Arc<[OnceLock<Thread>]> = (0..workflow.actor_count()).map(|_| OnceLock::new()).collect();
        let parked = threads.clone();
        run.fabric.set_wake(move |id| {
            if let Some(thread) = parked[id.0].get() {
                thread.unpark();
            }
        });
        let run = Arc::new(run);
        // Each task waits in a slot kept here, so a thread that fails to
        // spawn (its closure dropped) loses no actor.
        let slots: Vec<_> =
            Task::take_all(workflow, contexts).into_iter().map(|t| Arc::new(Mutex::new(t))).collect();
        let mut handles = Vec::with_capacity(slots.len());
        for slot in &slots {
            let (id, on_thread, slot, threads) = (slot.lock().id, run.clone(), slot.clone(), threads.clone());
            let spawned = thread::Builder::new().name(format!("cwf-{}", workflow.node(id).name)).spawn(move || {
                let _ = threads[id.0].set(thread::current());
                // Pairs with the fence in the run latch's wake: either it
                // sees this handle, or the first step sees the latch.
                fence(Ordering::SeqCst);
                controller(&on_thread, &mut slot.lock())
            });
            match spawned {
                Ok(handle) => handles.push((id, handle)),
                Err(e) => {
                    run.fail(Error::Director(format!("failed to spawn actor thread: {e}")));
                    break;
                }
            }
        }
        for (id, handle) in handles {
            if handle.join().is_err() {
                run.fail(Error::Director(format!("actor thread {id} panicked")));
            }
        }
        let tasks = slots.into_iter().map(|slot| Arc::into_inner(slot).expect("joined").into_inner());
        run.end_tasks(workflow, tasks.collect()).map(|_| run.report())
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }
}

/// The per-actor thread body: steps the task until it finishes, parking
/// while it rests until the fabric wakes it or the rest's instant comes,
/// then ends it.
fn controller(run: &Run, task: &mut Task) {
    loop {
        match task.step(run).0 {
            Wait::Ready => {}
            Wait::Rest(Some(t)) => thread::park_timeout(t.since(run.clock.now()).to_std()),
            Wait::Rest(None) => thread::park(),
            Wait::Finish => break,
        }
    }
    task.end(run);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, FireContext, IoSignature};
    use crate::actors::{Collector, PushSource, TimedSource, VecSource};
    use crate::graph::WorkflowBuilder;
    use crate::time::{Micros, Timestamp};
    use crate::token::Token;
    use crate::window::{GroupBy, WindowSpec};

    struct AddOne;
    impl Actor for AddOne {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            while let Some(w) = ctx.get(0) {
                for t in w.tokens() {
                    ctx.emit(0, Token::Int(t.as_int()? + 1));
                }
            }
            Ok(())
        }
    }

    #[test]
    fn runs_linear_pipeline_to_completion() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("pipeline");
        let s = b.add_actor(
            "src",
            VecSource::new((0..10).map(Token::Int).collect()),
        );
        let a = b.add_actor("inc", AddOne);
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (a, "in")).unwrap();
        b.link((a, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let report = ThreadedDirector::new().run(&mut wf).unwrap();
        assert_eq!(c.tokens(), (1..=10).map(Token::Int).collect::<Vec<_>>());
        assert!(report.firings >= 11);
        assert_eq!(report.events_routed, 20);
    }

    #[test]
    fn fan_out_and_merge() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("diamond");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1), Token::Int(2)]));
        let a1 = b.add_actor("a1", AddOne);
        let a2 = b.add_actor("a2", AddOne);
        let u = b.add_actor("union", crate::actors::Union::new(2));
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (a1, "in")).unwrap();
        b.link((s, "out"), (a2, "in")).unwrap();
        b.link((a1, "out"), (u, "in0")).unwrap();
        b.link((a2, "out"), (u, "in1")).unwrap();
        b.link((u, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        let mut got: Vec<i64> = c.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![2, 2, 3, 3], "both branches see both tokens");
    }

    #[test]
    fn grouped_sliding_windows_under_threads() {
        // Stopped-car shape: {Size: 2, Step: 1, Group-by: carid}.
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("windows");
        let reports: Vec<Token> = vec![(1, 10), (2, 30), (1, 11), (2, 31), (1, 12)]
            .into_iter()
            .map(|(car, pos)| Token::record().field("carid", car).field("pos", pos).build())
            .collect();
        let s = b.add_actor("src", VecSource::new(reports));
        let pairs = b.add_actor(
            "pairs",
            crate::actors::FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
                if w.len() < 2 {
                    // End-of-stream flush produces short windows; a real
                    // pairwise operator ignores them.
                    return Ok(());
                }
                let first = w.events.first().unwrap().token.int_field("pos")?;
                let last = w.events.last().unwrap().token.int_field("pos")?;
                emit(0, Token::Int(last - first));
                Ok(())
            }),
        );
        let k = b.add_actor("sink", c.actor());
        b.link_windowed(
            (s, "out"),
            (pairs, "in"),
            WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"])),
        )
        .unwrap();
        b.link((pairs, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        let mut got: Vec<i64> = c.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![1, 1, 1], "car1: 10→11, 11→12; car2: 30→31");
    }

    #[test]
    fn push_source_end_to_end() {
        let c = Collector::new();
        let (src, handle) = PushSource::new();
        let mut b = WorkflowBuilder::new("push");
        let s = b.add_actor("src", src);
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let producer = std::thread::spawn(move || {
            for i in 0..5 {
                handle.push(Token::Int(i));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // handle drops here, ending the stream
        });
        ThreadedDirector::new().run(&mut wf).unwrap();
        producer.join().unwrap();
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn timed_window_timeout_fires_without_closing_event() {
        // A lone event in a 20ms tumbling window must come out via the
        // timeout path (no later event ever closes the window).
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("timeout");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![(Timestamp(0), Token::Int(1))]),
        );
        let agg = b.add_actor(
            "agg",
            crate::actors::FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
                emit(0, Token::Int(w.len() as i64));
                Ok(())
            }),
        );
        let k = b.add_actor("sink", c.actor());
        b.link_windowed((s, "out"), (agg, "in"), WindowSpec::tumbling_time(Micros::from_millis(20)))
        .unwrap();
        b.link((agg, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        assert_eq!(c.tokens(), vec![Token::Int(1)]);
    }

    #[test]
    fn actor_error_is_reported() {
        struct Boom;
        impl Actor for Boom {
            fn signature(&self) -> IoSignature {
                IoSignature::sink("in")
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
                Err(Error::actor("boom", "fire", "deliberate"))
            }
        }
        let mut b = WorkflowBuilder::new("err");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
        let k = b.add_actor("boom", Boom);
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let err = ThreadedDirector::new().run(&mut wf).unwrap_err();
        assert!(matches!(err, Error::Actor { .. }));
    }

    #[test]
    fn collector_reads_latency_under_wall_clock() {
        let p = Collector::new();
        let mut b = WorkflowBuilder::new("latency");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
        let k = b.add_actor("probe", p.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        assert_eq!(p.latencies().len(), 1);
    }
}
