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
//! park and the run lifecycle are [`super::firing`]'s — and turns what the
//! task waits for into a sleep, a wait on its own inbox (until the earliest
//! window-formation deadline), or a wait for space on the port it parked
//! on, running Parks' stall detector meanwhile.

use std::sync::Arc;
use std::thread;

use crate::error::{Error, Result};
use crate::graph::Workflow;
use crate::telemetry::Telemetry;
use crate::time::{SharedClock, Timestamp, WallClock};

use super::firing::{Run, Task, Wait};
use super::{Director, RunReport, RECHECK};

/// One OS thread per actor; OS scheduling; each thread waits on its own inbox.
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
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// A director on a caller-supplied clock (tests).
    pub fn with_clock(clock: SharedClock) -> Self {
        ThreadedDirector { clock, telemetry: None }
    }
}

impl Director for ThreadedDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let (run, contexts) = Run::open(workflow, self.telemetry.clone(), self.clock.clone())?;
        let run = Arc::new(run);
        let mut handles = Vec::with_capacity(workflow.actor_count());
        for task in Task::take_all(workflow, contexts) {
            let id = task.id;
            let run = run.clone();
            let handle = thread::Builder::new()
                .name(format!("cwf-{}", workflow.node(id).name))
                .spawn(move || controller(&run, task))
                .map_err(|e| Error::Director(format!("failed to spawn actor thread: {e}")))?;
            handles.push((id, handle));
        }
        let mut tasks = Vec::with_capacity(handles.len());
        let mut first_error = None;
        for (id, handle) in handles {
            let (task, outcome) = handle
                .join()
                .map_err(|_| Error::Director(format!("actor thread {id} panicked")))?;
            tasks.push(task);
            first_error = first_error.or(outcome.err());
        }
        run.end_tasks(workflow, tasks, first_error)
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }
}

/// The per-actor thread body: steps the task until it finishes, waiting
/// at most [`RECHECK`] at a time so a stop, a pause or relief is seen,
/// then ends it. Hands the task back with the first error, if any.
fn controller(run: &Run, mut task: Task) -> (Task, Result<()>) {
    // This thread's stall-detector reading while it is parked.
    let mut stall = None;
    let until = |t: Timestamp| t.since(run.clock.now()).to_std().min(RECHECK);
    let outcome = loop {
        match task.step(run) {
            Ok((Wait::Ready, _)) => {}
            Ok((Wait::Until(t), _)) => thread::sleep(until(t)),
            Ok((Wait::Inbox(deadline), _)) => {
                run.fabric.inbox(task.id).wait_ready(deadline.map_or(RECHECK, until));
            }
            Ok((Wait::Space(port), _)) => {
                let receiver = &run.fabric.receivers(port.actor)[port.port];
                let capacity = receiver.effective_capacity();
                if !receiver.inbox().wait_for_space(port.port, capacity, RECHECK) {
                    run.fabric.relieve_if_stalled(&mut stall);
                }
            }
            Ok((Wait::Finish, _)) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    let outcome = task.end(run, outcome);
    (task, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, FireContext, IoSignature};
    use crate::actors::{Collector, PushSource, TimedSource, VecSource};
    use crate::graph::WorkflowBuilder;
    use crate::time::Micros;
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
