//! Stream operators: deduplication and throttling.
//!
//! The building blocks monitoring workflows lean on beyond plain
//! filtering: suppressing duplicates and bounding downstream rates.

use std::collections::{HashSet, VecDeque};

use crate::actor::{Actor, FireContext, IoSignature};
use crate::error::Result;
use crate::time::{Micros, Timestamp};
use crate::token::Token;

/// Passes only the first event per key (bounded memory: evicts the oldest
/// remembered keys beyond `capacity`).
pub struct Dedup {
    key_fields: Vec<String>,
    capacity: usize,
    seen: HashSet<Token>,
    order: VecDeque<Token>,
}

impl Dedup {
    /// Deduplicate on the given record fields, remembering up to
    /// `capacity` keys.
    pub fn new(key_fields: &[&str], capacity: usize) -> Self {
        Dedup {
            key_fields: key_fields.iter().map(|s| s.to_string()).collect(),
            capacity: capacity.max(1),
            seen: HashSet::new(),
            order: VecDeque::new(),
        }
    }
}

impl Actor for Dedup {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                let key = t.project(&self.key_fields)?;
                if self.seen.insert(key.clone()) {
                    self.order.push_back(key);
                    if self.order.len() > self.capacity {
                        let evicted = self.order.pop_front().expect("non-empty");
                        self.seen.remove(&evicted);
                    }
                    ctx.emit(0, t.clone());
                }
            }
        }
        Ok(())
    }
}

/// Rate limiter: passes at most `max_events` per `per` of stream time
/// (measured on the events' wave-origin timestamps, so behaviour is
/// deterministic under any scheduler); excess events are dropped.
pub struct Throttle {
    max_events: u64,
    per: Micros,
    window_start: Timestamp,
    passed_in_window: u64,
    /// Total dropped (for diagnostics; readable after `wrapup`).
    pub dropped: u64,
}

impl Throttle {
    /// Allow `max_events` per `per`.
    pub fn new(max_events: u64, per: Micros) -> Self {
        Throttle {
            max_events: max_events.max(1),
            per: Micros(per.as_micros().max(1)),
            window_start: Timestamp::ZERO,
            passed_in_window: 0,
            dropped: 0,
        }
    }
}

impl Actor for Throttle {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for event in &w.events {
                let at = event.origin();
                if at.since(self.window_start) >= self.per {
                    // Align the new window to the event's own bucket.
                    let bucket = at.as_micros() / self.per.as_micros();
                    self.window_start = Timestamp(bucket * self.per.as_micros());
                    self.passed_in_window = 0;
                }
                if self.passed_in_window < self.max_events {
                    self.passed_in_window += 1;
                    ctx.emit(0, event.token.clone());
                } else {
                    self.dropped += 1;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MockContext;

    fn rec(id: i64, v: &str) -> Token {
        Token::record().field("id", id).field("v", v).build()
    }

    #[test]
    fn dedup_passes_first_per_key() {
        let mut d = Dedup::new(&["id"], 100);
        let mut ctx = MockContext::new(1);
        for (id, v) in [(1, "a"), (2, "b"), (1, "c"), (2, "d"), (3, "e")] {
            ctx.push_token(0, rec(id, v), Timestamp(1));
        }
        d.fire(&mut ctx).unwrap();
        let out = ctx.emitted_on(0);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get("v").unwrap().as_str().unwrap(), "a");
        assert_eq!(out[2].get("v").unwrap().as_str().unwrap(), "e");
    }

    #[test]
    fn dedup_capacity_evicts_oldest() {
        let mut d = Dedup::new(&["id"], 2);
        let mut ctx = MockContext::new(1);
        for id in [1, 2, 3, 1] {
            ctx.push_token(0, rec(id, "x"), Timestamp(1));
        }
        d.fire(&mut ctx).unwrap();
        // Key 1 was evicted when 3 arrived, so the second 1 passes again.
        assert_eq!(ctx.emitted_on(0).len(), 4);
    }

    #[test]
    fn throttle_caps_rate_per_window() {
        let mut th = Throttle::new(2, Micros(100));
        let mut ctx = MockContext::new(1);
        // 4 events in window [0,100), 1 in [100,200).
        for ts in [10, 20, 30, 40, 150] {
            ctx.push_token(0, Token::Int(ts as i64), Timestamp(ts));
        }
        th.fire(&mut ctx).unwrap();
        let out = ctx.emitted_on(0);
        assert_eq!(out.len(), 3, "2 from the first window + 1 from the second");
        assert_eq!(th.dropped, 2);
        assert_eq!(out[2], Token::Int(150));
    }
}
