//! Span and wave-trace models for the lineage tracer.

use crate::graph::ActorId;
use crate::time::{Micros, Timestamp};
use crate::wave::WaveTag;

/// The lifecycle stage one [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// An external event was stamped and entered the workflow (wave root).
    Admit,
    /// An event was admitted into an input-port queue.
    Enqueue,
    /// A formed window was popped for firing. The span runs from window
    /// formation to the pop, i.e. it covers the window's queue wait.
    Dequeue,
    /// A firing attempt at an actor (service time).
    Fire,
    /// A writer blocked on a full `Block`-policy input port before the
    /// admission that follows.
    Block,
}

impl SpanKind {
    /// Stable lower-case label (exports and tests).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Admit => "admit",
            SpanKind::Enqueue => "enqueue",
            SpanKind::Dequeue => "dequeue",
            SpanKind::Fire => "fire",
            SpanKind::Block => "block",
        }
    }
}

/// One recorded stage of one traced wave.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which lifecycle stage this span covers.
    pub kind: SpanKind,
    /// The actor the stage happened at (destination actor for enqueue /
    /// block spans, the firing actor for fire spans, the source for admit
    /// spans).
    pub actor: ActorId,
    /// The input port, for the port-scoped kinds (enqueue/dequeue/block).
    pub port: Option<usize>,
    /// The wave-tag the span is attributed to: the event's own tag for
    /// admit/enqueue spans, the window's trigger tag for dequeue spans,
    /// the firing's trigger tag for fire spans. `None` where the director
    /// could not attribute one (e.g. a block wait, attributed to the wave
    /// of the admission that follows it).
    pub tag: Option<WaveTag>,
    /// Span start (== `end` for the instantaneous kinds).
    pub start: Timestamp,
    /// Span end.
    pub end: Timestamp,
    /// Events involved: consumed events for fire spans, 1 for per-event
    /// kinds.
    pub events: u64,
    /// For fire spans, whether the actor actually fired.
    pub fired: bool,
}

impl Span {
    /// The span's duration (zero for instantaneous kinds).
    pub fn duration(&self) -> Micros {
        self.end.since(self.start)
    }
}

/// All recorded spans of one wave, in arrival order.
#[derive(Debug, Clone)]
pub struct WaveTrace {
    /// The wave's identity: the timestamp of its initiating external
    /// event.
    pub origin: Timestamp,
    /// Spans in the order the tracer observed them.
    pub spans: Vec<Span>,
}

impl WaveTrace {
    /// End-to-end latency of the wave: from its root's admission (the
    /// origin timestamp when the admit span was not observed) to the
    /// latest span end.
    pub fn end_to_end(&self) -> Micros {
        let admit = self.spans.iter().find(|s| s.kind == SpanKind::Admit);
        let admitted = admit.map_or(self.origin, |s| s.start);
        let last = self.spans.iter().map(|s| s.end).max();
        last.unwrap_or(self.origin).since(admitted)
    }

    /// A director-independent rendering of the wave's causal structure:
    /// one sorted line per span, with the origin timestamp normalized to
    /// zero so traces of the same workflow taken under different clocks
    /// compare equal. Timestamps and durations are deliberately excluded.
    pub fn structure(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let tag = match &s.tag {
                    Some(t) => {
                        let mut z = WaveTag::external(Timestamp::ZERO);
                        for step in t.path() {
                            z = z.child(step.index, step.last);
                        }
                        z.to_string()
                    }
                    None => "-".to_string(),
                };
                let port = s.port.map(|p| p.to_string()).unwrap_or_else(|| "-".into());
                format!("{} a{} p{} {}", s.kind.label(), s.actor.0, port, tag)
            })
            .collect();
        lines.sort();
        lines
    }
}
