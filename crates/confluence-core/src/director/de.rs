//! The DE (Discrete Event) director: global timestamp order.
//!
//! Keeps a global event queue ordered by timestamp; the virtual clock
//! advances to each event's time and the receiving actor fires immediately.
//! Source firings are scheduled at the sources' declared arrival times;
//! channel deliveries may carry a fixed propagation delay. Window-formation
//! deadlines are scheduled as first-class timer events — the paper's
//! "window timeout events".
//!
//! The firing rule is the agenda. The firing step and the run loop are
//! [`super::firing`]'s; DE's delivery rule puts a firing's stamped batch
//! on the agenda at `now + channel_delay` instead of delivering it at
//! once.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::Result;
use crate::graph::{ActorId, Workflow};
use crate::telemetry::Telemetry;
use crate::time::{Clock, Micros, Timestamp, VirtualClock};
use crate::window::Window;

use super::firing::{Cx, FiringOrder, Run, Span, Step};
use super::{Director, RunReport, Stamped};

#[derive(Debug)]
enum Agenda {
    /// Fire a source actor.
    SourceFire(ActorId),
    /// Deliver a firing's stamped emissions.
    Deliver(Stamped),
    /// Evaluate window timeouts on an actor's receivers.
    Poll(ActorId),
}

/// Event-queue driven executor in virtual time.
pub struct DeDirector {
    clock: Arc<VirtualClock>,
    /// Fixed propagation delay added to every channel delivery.
    pub channel_delay: Micros,
    telemetry: Option<Telemetry>,
    hook: Option<Arc<crate::checkpoint::QuiesceHook>>,
}

impl Default for DeDirector {
    fn default() -> Self {
        Self::new()
    }
}

impl DeDirector {
    /// A director with zero channel delay on a fresh virtual clock.
    pub fn new() -> Self {
        DeDirector {
            clock: Arc::new(VirtualClock::new()),
            channel_delay: Micros::ZERO,
            telemetry: None,
            hook: None,
        }
    }

    /// The final virtual time after a run.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }
}

/// The DE firing order: one step is one agenda entry.
struct Sim {
    clock: Arc<VirtualClock>,
    channel_delay: Micros,
    /// Pending entries by time, ties in scheduling order.
    agenda: BTreeMap<(Timestamp, u64), Agenda>,
    seq: u64,
}

impl Sim {
    fn schedule(&mut self, time: Timestamp, agenda: Agenda) {
        self.seq += 1;
        self.agenda.insert((time, self.seq), agenda);
    }

    /// Fire `id` on `input`; its emissions go on the agenda.
    fn fire(&mut self, cx: &mut Cx<'_>, id: ActorId, input: Option<(usize, Window)>) -> Result<bool> {
        let due = self.clock.now().plus(self.channel_delay);
        let mut outbox = None;
        let deliver = &mut |stamped: Stamped| {
            outbox = Some(stamped);
            Ok(true)
        };
        let fired = cx.fire(id, input, None, Some(deliver))?;
        if let Some(stamped) = outbox.filter(|s| s.deliveries() > 0) {
            self.schedule(due, Agenda::Deliver(stamped));
        }
        Ok(fired.alive == Some(true))
    }

    /// Fire every actor on every window in its inbox until none is left
    /// (a delivery or poll readies its destination; an expired-items
    /// hand-over readies the handler).
    fn fire_ready(&mut self, cx: &mut Cx<'_>) -> Result<()> {
        while cx.workflow.actor_ids().any(|id| !cx.run.fabric.inbox(id).is_empty()) {
            for id in cx.workflow.actor_ids() {
                while let Some(input) = cx.run.fabric.inbox(id).try_pop() {
                    self.fire(cx, id, Some(input))?;
                }
            }
        }
        Ok(())
    }

    /// Advance to an agenda entry's time and act on it.
    fn act(&mut self, cx: &mut Cx<'_>, time: Timestamp, agenda: Agenda) -> Result<()> {
        self.clock.advance_to(time);
        let now = self.clock.now();
        match agenda {
            Agenda::SourceFire(id) => {
                if self.fire(cx, id, None)? {
                    let next = cx.workflow.node(id).peek_actor().and_then(|a| a.next_arrival());
                    if let Some(next) = next {
                        self.schedule(next.max(now), Agenda::SourceFire(id));
                    }
                }
            }
            Agenda::Deliver(mut stamped) => {
                let dests: Vec<_> = stamped.destinations().collect();
                cx.run.fabric.deliver(&mut stamped, now, false)?;
                for dest in dests {
                    let deadline = cx.run.fabric.receivers(dest.actor)[dest.port].next_deadline();
                    if let Some(deadline) = deadline {
                        self.schedule(deadline, Agenda::Poll(dest.actor));
                    }
                }
            }
            Agenda::Poll(id) => cx.run.poll(Some(id), now)?,
        }
        self.fire_ready(cx)
    }
}

impl FiringOrder for Sim {
    fn step(&mut self, cx: &mut Cx<'_>) -> Result<Step> {
        let Some(((time, _), agenda)) = self.agenda.pop_first() else {
            return Ok(Step::Ended);
        };
        self.act(cx, time, agenda)?;
        Ok(Step::Busy(Micros::ZERO))
    }

    /// After an actor closes, fire what the close readied and drain the
    /// agenda's deliveries and polls, so close-time emissions reach
    /// still-open downstream ports before the cascade moves on.
    fn settle(&mut self, cx: &mut Cx<'_>, _id: ActorId, closed: bool) -> Result<()> {
        if closed {
            self.fire_ready(cx)?;
            while self.drain(cx)? {}
        }
        Ok(())
    }

    /// DE is the one order that drains on a pause: deliveries and polls
    /// keep running, because a deferred `Stamped` batch on the agenda is
    /// in no receiver yet and the capture takes only receivers and
    /// inboxes. Sources are parked without advancing virtual time; their
    /// firings are re-derived from `next_arrival` on resume. The drain is
    /// exact in virtual time, so no clock decides it.
    fn drain(&mut self, cx: &mut Cx<'_>) -> Result<bool> {
        while let Some(((time, _), agenda)) = self.agenda.pop_first() {
            if !matches!(agenda, Agenda::SourceFire(_)) {
                self.act(cx, time, agenda)?;
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl Director for DeDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let (run, mut contexts) = Run::open(
            workflow,
            self.telemetry.clone(),
            self.hook.clone(),
            self.clock.clone(),
        )?;
        let mut sim = Sim {
            clock: self.clock.clone(),
            channel_delay: self.channel_delay,
            agenda: BTreeMap::new(),
            seq: 0,
        };
        for id in workflow.sources() {
            let arrival = workflow.node(id).peek_actor().and_then(|a| a.next_arrival());
            sim.schedule(arrival.unwrap_or(Timestamp::ZERO), Agenda::SourceFire(id));
        }
        // Windows restored from a checkpoint (or formed by `initialize`)
        // are tied to no agenda entry: fire them now so their emissions
        // enter the agenda.
        sim.fire_ready(&mut Cx { run: &run, workflow, contexts: &mut contexts })?;
        run.drive(workflow, &mut contexts, &mut sim, Span::Whole)?;
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
        // Zero-delay channels: results appear at the event times.
        assert_eq!(items[0].received_at, Timestamp(100));
        assert_eq!(items[1].received_at, Timestamp(300));
        assert_eq!(probe.latencies()[0], Micros::ZERO);
        assert_eq!(d.now(), Timestamp(300));
    }

    #[test]
    fn channel_delay_shows_in_latency() {
        let probe = Collector::new();
        let mut b = WorkflowBuilder::new("delay");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![(Timestamp(100), Token::Int(1))]),
        );
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let mut d = DeDirector::new();
        d.channel_delay = Micros(50);
        d.run(&mut wf).unwrap();
        assert_eq!(probe.latencies()[0], Micros(50));
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
