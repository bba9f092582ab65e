//! Timestamped, wave-stamped events: the unit of data in a continuous
//! workflow.
//!
//! Raw [`Token`]s are encapsulated into [`CwEvent`]s when they enter a
//! receiver, as dictated by the timekeeping components: each event carries
//! the time it was produced and its [`WaveTag`] lineage. The timestamp of
//! the wave's initiating external event (`event.wave.origin()`) is what QoS
//! metrics such as response time are measured against.

use crate::time::Timestamp;
use crate::token::Token;
use crate::wave::WaveTag;

/// A token wrapped with timing and lineage metadata: 48 bytes, the 16 of
/// its token, 8 of its timestamp and 24 of its wave tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CwEvent {
    /// The payload.
    pub token: Token,
    /// When this event was produced (stamped by the director's clock).
    pub timestamp: Timestamp,
    /// Lineage: which external event this derives from, and how.
    pub wave: WaveTag,
}

const _: () = assert!(std::mem::size_of::<CwEvent>() == 48);

impl CwEvent {
    /// An external event entering the system at `ts`: it initiates a new
    /// wave whose tag is its own timestamp.
    pub fn external(token: Token, ts: Timestamp) -> Self {
        CwEvent {
            token,
            timestamp: ts,
            wave: WaveTag::external(ts),
        }
    }

    /// An internal event derived from `parent`'s wave: the `index`-th
    /// (1-based) event produced by one firing, `last` marking the firing's
    /// final production.
    pub fn derived(token: Token, produced_at: Timestamp, parent: &WaveTag, index: u32, last: bool) -> Self {
        CwEvent {
            token,
            timestamp: produced_at,
            wave: parent.child(index, last),
        }
    }

    /// Timestamp of the initiating external event — the reference point for
    /// response-time (latency) measurements.
    pub fn origin(&self) -> Timestamp {
        self.wave.origin()
    }

    /// Age of this event's wave at time `now` (response time if measured at
    /// an output actor).
    pub fn latency_at(&self, now: Timestamp) -> crate::time::Micros {
        now.since(self.origin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Micros;

    #[test]
    fn external_event_initiates_wave() {
        let e = CwEvent::external(Token::Int(1), Timestamp(100));
        assert_eq!(e.origin(), Timestamp(100));
        assert_eq!(e.timestamp, Timestamp(100));
        assert_eq!(e.wave.depth(), 0);
    }

    #[test]
    fn derived_event_extends_wave() {
        let root = CwEvent::external(Token::Unit, Timestamp(5));
        let d = CwEvent::derived(Token::Int(9), Timestamp(20), &root.wave, 2, true);
        assert_eq!(d.origin(), Timestamp(5)); // origin is inherited
        assert_eq!(d.timestamp, Timestamp(20)); // production time is new
        assert_eq!(d.wave.depth(), 1);
        assert!(d.wave.path()[0].last);
    }

    #[test]
    fn latency_measures_against_wave_origin() {
        let root = CwEvent::external(Token::Unit, Timestamp(1_000));
        let d = CwEvent::derived(Token::Unit, Timestamp(4_000), &root.wave, 1, true);
        assert_eq!(d.latency_at(Timestamp(6_000)), Micros(5_000));
    }
}
