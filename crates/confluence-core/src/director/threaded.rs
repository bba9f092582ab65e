//! The PNCWF thread-based continuous-workflow director.
//!
//! Based on Kepler's PN/CN/DE directors: every actor is wrapped in its own
//! OS thread, allowing actors to run in parallel and blocking them whenever
//! there is no data to consume. Resource allocation among the threads is
//! handled directly by the operating system — which, as the paper's
//! evaluation shows, leaves no margin for QoS-based optimization (that is
//! STAFiLOS's job, in `confluence-sched`).
//!
//! The timeout of timed windows is handled by the waiting actor thread: it
//! waits on its inbox only until the earliest window-formation deadline of
//! its receivers, then forces the receivers to produce.
//!
//! The firing rule is "whenever the actor's own thread finds a window"
//! (sources: whenever their timetable says). The firing step and the run
//! lifecycle are [`super::firing`]'s.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::actor::Actor;
use crate::checkpoint::QuiesceHook;
use crate::error::{Error, Result};
use crate::graph::{ActorId, Workflow};
use crate::receiver::InboxPop;
use crate::telemetry::{RunPhase, Telemetry};
use crate::time::{SharedClock, Timestamp, WallClock};

use super::firing::{Boundary, Run};
use super::{Director, QueueContext, RunReport, SOURCE_BACKOFF};

/// Longest uninterrupted block/sleep while a stop or a checkpoint pause
/// may be pending: actor threads re-check both at least this often.
const STOP_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// One OS thread per actor; OS scheduling; blocking windowed reads.
pub struct ThreadedDirector {
    clock: SharedClock,
    telemetry: Option<Telemetry>,
    hook: Option<Arc<QuiesceHook>>,
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
        ThreadedDirector {
            clock,
            telemetry: None,
            hook: None,
        }
    }
}

impl Director for ThreadedDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let (run, contexts) = Run::open(
            workflow,
            self.telemetry.clone(),
            self.hook.clone(),
            self.clock.clone(),
        )?;
        // PN semantics: bounded channels really block the writing actor
        // thread (cooperative directors leave this off).
        run.fabric.set_blocking(true);
        let run = Arc::new(run);
        let mut handles = Vec::with_capacity(workflow.actor_count());
        for (id, ctx) in workflow.actor_ids().zip(contexts) {
            let node = workflow.node_mut(id);
            let actor = node.take_actor();
            let is_source = node.is_source;
            let run = run.clone();
            let handle = thread::Builder::new()
                .name(format!("cwf-{}", node.name))
                .spawn(move || controller(&run, id, actor, is_source, ctx))
                .map_err(|e| Error::Director(format!("failed to spawn actor thread: {e}")))?;
            handles.push((id, handle));
        }

        let mut first_error = None;
        for (id, handle) in handles {
            let (actor, outcome) = handle
                .join()
                .map_err(|_| Error::Director(format!("actor thread {id} panicked")))?;
            workflow.node_mut(id).return_actor(actor);
            first_error = first_error.or(outcome.err());
        }
        if let Some(e) = first_error {
            run.phase(RunPhase::End);
            return Err(e);
        }
        if run.boundary() == Boundary::Pause {
            // Every thread has joined and unstaged its own context: the
            // fabric is exclusively ours, so the destructive capture is safe.
            return Ok(run.quiesce(&mut []));
        }
        run.wrapup(workflow)
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    fn attach_checkpoint(&mut self, hook: Arc<QuiesceHook>) {
        self.hook = Some(hook);
    }
}

/// The per-actor thread body: transitions the actor through its iteration
/// phases, blocking on the inbox between firings. Hands the actor back
/// with the first error, if any.
fn controller(
    run: &Run,
    id: ActorId,
    mut actor: Box<dyn Actor>,
    is_source: bool,
    mut ctx: QueueContext,
) -> (Box<dyn Actor>, Result<()>) {
    // Every actor leaves its loop at the firing boundary where it first
    // sees a stop or a checkpoint pause; what is queued stays queued.
    let parked = || run.boundary() != Boundary::Go;
    let bounded_waits = run.tele.is_some() || run.hook.is_some();

    let result = (|| -> Result<()> {
        if is_source {
            while !parked() {
                // Pace by the source's timetable (wall-clock realization of
                // event arrival times).
                if let Some(arrival) = actor.next_arrival() {
                    let mut remaining = arrival.since(run.clock.now()).to_std();
                    // Sleep in slices so a stop or pause request does
                    // not have to wait out a long inter-arrival gap.
                    while !remaining.is_zero() && !parked() {
                        let slice = if bounded_waits {
                            remaining.min(STOP_POLL_INTERVAL)
                        } else {
                            remaining
                        };
                        thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                    if parked() {
                        break;
                    }
                }
                let fired = run.fire(id, &mut *actor, &mut ctx, None, None, None)?;
                if fired.alive == Some(false) {
                    break;
                }
                if fired.tokens_out == 0
                    && matches!(actor.next_arrival(), None | Some(Timestamp::ZERO))
                {
                    // A source with nothing to say right now and no future
                    // arrival to sleep toward (idle push source, or a
                    // custom source whose timetable is exhausted but which
                    // stays alive): back off instead of spinning.
                    thread::sleep(SOURCE_BACKOFF.to_std());
                }
            }
        } else {
            let inbox = run.fabric.inbox(id).clone();
            while !parked() {
                let now = run.clock.now();
                let mut timeout = run
                    .fabric
                    .actor_deadline(id)
                    .map(|deadline| deadline.since(now).to_std());
                if bounded_waits {
                    // Bound the block so a stop request is noticed promptly.
                    timeout = Some(timeout.map_or(STOP_POLL_INTERVAL, |t| t.min(STOP_POLL_INTERVAL)));
                }
                match inbox.pop_blocking(timeout) {
                    InboxPop::Window(port, window) => {
                        let input = Some((port, window));
                        let fired = run.fire(id, &mut *actor, &mut ctx, input, None, None)?;
                        if fired.alive == Some(false) {
                            break;
                        }
                    }
                    // A window-formation deadline passed: force the
                    // receivers to evaluate their window semantics.
                    InboxPop::TimedOut => run.poll(Some(id), run.clock.now())?,
                    InboxPop::Closed => break,
                }
            }
        }
        Ok(())
    })();
    let result = match result {
        // The actor will resume, not finish: skip the end-of-stream tail
        // and leave the outputs open. A writer still blocked on a full
        // `Block` port (its reader may have halted) admits over capacity
        // instead, so it reaches its own firing boundary.
        Ok(()) if run.boundary() == Boundary::Pause => {
            run.fabric.set_blocking(false);
            run.unstage(id, &mut ctx);
            Ok(())
        }
        // Inputs drained (or stream ended).
        Ok(()) => run.finish_actor(id, &mut *actor, &mut ctx),
        // A failed actor skips `finish`, but its outputs still close so
        // downstream threads terminate.
        Err(e) => {
            let _ = run.fabric.close_actor_outputs(id, run.clock.now());
            Err(e)
        }
    };
    (actor, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{FireContext, IoSignature};
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
