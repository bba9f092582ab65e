//! The DE (Discrete Event) director: global timestamp order.
//!
//! The virtual clock advances to each next event: a source's declared
//! arrival time, or a window-formation deadline — the paper's "window
//! timeout events". A firing's emissions are delivered at once, and what
//! they ready fires before time moves on.
//!
//! The firing rule is all that lives here: fire the next ready window in
//! [`Sweep`] order; when none is ready, fire one live source whose arrival
//! is due (sources due together take turns); otherwise idle until the next
//! arrival or deadline. Each step is one firing, so a stop or a checkpoint
//! lands on the firing that meets its bound. The firing step and the run
//! loop are [`super::firing`]'s.

use std::sync::Arc;

use crate::error::Result;
use crate::graph::{ActorId, Workflow};
use crate::telemetry::Telemetry;
use crate::time::{Clock, Micros, Timestamp, VirtualClock};

use super::firing::{Cx, FiringOrder, Run, Span, Step, Sweep};
use super::{Director, RunReport};

/// Timestamp-ordered executor in virtual time.
pub struct DeDirector {
    clock: Arc<VirtualClock>,
    telemetry: Option<Telemetry>,
}

impl Default for DeDirector {
    fn default() -> Self {
        Self::new()
    }
}

impl DeDirector {
    /// A director on a fresh virtual clock.
    pub fn new() -> Self {
        DeDirector { clock: Arc::new(VirtualClock::new()), telemetry: None }
    }
}

/// The DE firing order: one step is one firing.
struct Sim {
    clock: Arc<VirtualClock>,
    sweep: Sweep,
    sources: Vec<ActorId>,
    /// Where the next search for a due source starts in `sources`.
    turn: usize,
}

impl FiringOrder for Sim {
    fn step(&mut self, cx: &mut Cx<'_>) -> Result<Step> {
        if self.sweep.fire_next(cx)? {
            return Ok(Step::Busy(Micros::ZERO));
        }
        let now = self.clock.now();
        let mut next = cx.run.fabric.next_deadline();
        let n = self.sources.len();
        for i in (self.turn..n).chain(0..self.turn) {
            let id = self.sources[i];
            let arrival = cx.workflow.node(id).peek_actor().and_then(|a| a.next_arrival());
            match arrival.filter(|_| !self.sweep.done(id)) {
                Some(t) if t <= now => {
                    self.turn = (i + 1) % n;
                    self.sweep.fire(cx, id, None)?;
                    return Ok(Step::Busy(Micros::ZERO));
                }
                Some(t) => next = Some(next.map_or(t, |d| d.min(t))),
                None => {}
            }
        }
        Ok(next.map_or(Step::Ended, Step::IdleUntil))
    }

    fn settle(&mut self, cx: &mut Cx<'_>, id: ActorId, closed: bool) -> Result<()> {
        self.sweep.settle(cx, id, closed)
    }

    /// Move the clock to `t` and evaluate window timeouts. (What the
    /// timeouts expire is routed by the next firing.)
    fn advance_to(&mut self, run: &Run, _workflow: &Workflow, t: Timestamp) {
        self.clock.advance_to(t);
        run.fabric.poll_all(self.clock.now());
    }
}

impl Director for DeDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let (run, mut contexts) = Run::open(workflow, self.telemetry.clone(), self.clock.clone())?;
        let mut sim = Sim {
            clock: self.clock.clone(),
            sweep: Sweep::new(workflow, None),
            sources: workflow.sources(),
            turn: 0,
        };
        run.drive(workflow, &mut contexts, &mut sim, Span::Whole)?;
        Ok(run.report())
    }

    fn instrument(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::{Collector, TimedSource};
    use crate::graph::WorkflowBuilder;
    use crate::token::Token;
    use crate::window::WindowSpec;

    #[test]
    fn processes_in_timestamp_order_in_virtual_time() {
        let probe = Collector::new();
        let mut b = WorkflowBuilder::new("de");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![
                (Timestamp(100), Token::Int(1)),
                (Timestamp(300), Token::Int(2)),
            ]),
        );
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let mut d = DeDirector::new();
        d.run(&mut wf).unwrap();
        let items = probe.items();
        assert_eq!(items.len(), 2);
        // Delivery is immediate: results appear at the event times.
        assert_eq!(items[0].received_at, Timestamp(100));
        assert_eq!(items[1].received_at, Timestamp(300));
        assert_eq!(probe.latencies()[0], Micros::ZERO);
        assert_eq!(d.clock.now(), Timestamp(300));
    }

    #[test]
    fn time_windows_close_via_scheduled_timeouts() {
        // Tumbling 100µs windows over events at 10 and 250: the window
        // [0,100) closes when the event at 250 arrives, and [200,300)
        // closes via the scheduled window-timeout event at 300.
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("timeouts");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![
                (Timestamp(10), Token::Int(1)),
                (Timestamp(250), Token::Int(2)),
            ]),
        );
        let agg = b.add_actor(
            "agg",
            crate::actors::FnActor::new(
                crate::actor::IoSignature::transform("in", "out"),
                |w, emit| {
                    emit(0, Token::Int(w.len() as i64));
                    Ok(())
                },
            ),
        );
        let k = b.add_actor("sink", c.actor());
        b.link_windowed((s, "out"), (agg, "in"), WindowSpec::tumbling_time(Micros(100))).unwrap();
        b.link((agg, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        DeDirector::new().run(&mut wf).unwrap();
        assert_eq!(c.tokens(), vec![Token::Int(1), Token::Int(1)]);
    }
}
