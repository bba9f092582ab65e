//! Load shedding under overload (paper §4.3 discussion; refs [26, 27]).
//!
//! The paper notes that integrated stream sources can be tuned to shed
//! load under overload. [`LoadShedder`] is a self-managing shedding
//! operator placed right after a source: it watches the age of passing
//! events (how long after their external arrival they reach it — a direct
//! congestion signal in both real and virtual time) and adapts a drop
//! ratio to keep that age near a target. Dropping is deterministic
//! (error-diffusion on the ratio), so runs are reproducible.

use std::sync::Arc;

use parking_lot::Mutex;

use confluence_core::actor::{Actor, FireContext, IoSignature};
use confluence_core::error::Result;
use confluence_core::time::Micros;

/// Counters exposed by a shedder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShedStats {
    /// Events passed through.
    pub passed: u64,
    /// Events dropped.
    pub dropped: u64,
    /// Current drop ratio in `[0, max_ratio]`.
    pub drop_ratio: f64,
    /// Exponentially-weighted mean event age (µs).
    pub mean_age: f64,
}

impl ShedStats {
    /// Fraction of input events dropped so far.
    pub fn drop_fraction(&self) -> f64 {
        let total = self.passed + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

/// Handle for inspecting a [`LoadShedder`]'s behaviour after a run.
#[derive(Clone, Default)]
pub struct ShedderHandle {
    stats: Arc<Mutex<ShedStats>>,
}

impl ShedderHandle {
    /// Snapshot of the counters.
    pub fn stats(&self) -> ShedStats {
        *self.stats.lock()
    }
}

/// Upper bound on the drop ratio.
const MAX_RATIO: f64 = 0.9;

/// Adaptive random-drop load shedding operator.
pub struct LoadShedder {
    target_age: Micros,
    /// Ratio adjustment per observation batch.
    step: f64,
    ratio: f64,
    accumulator: f64,
    ewma_age: f64,
    stats: Arc<Mutex<ShedStats>>,
}

impl LoadShedder {
    /// A shedder keeping event age near `target_age`. Returns the actor
    /// and its inspection handle.
    pub fn new(target_age: Micros) -> (Self, ShedderHandle) {
        let handle = ShedderHandle::default();
        (
            LoadShedder {
                target_age,
                step: 0.05,
                ratio: 0.0,
                accumulator: 0.0,
                ewma_age: 0.0,
                stats: handle.stats.clone(),
            },
            handle,
        )
    }
}

impl Actor for LoadShedder {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let now = ctx.now();
        let mut passed = 0u64;
        let mut dropped = 0u64;
        while let Some(w) = ctx.get(0) {
            for event in &w.events {
                let age = event.latency_at(now).as_micros() as f64;
                // EWMA congestion estimate.
                self.ewma_age = if self.ewma_age == 0.0 {
                    age
                } else {
                    0.9 * self.ewma_age + 0.1 * age
                };
                if self.ewma_age > self.target_age.as_micros() as f64 {
                    self.ratio = (self.ratio + self.step).min(MAX_RATIO);
                } else {
                    self.ratio = (self.ratio - self.step).max(0.0);
                }
                // Error-diffusion drop decision: deterministic, hits the
                // ratio exactly in the long run.
                self.accumulator += self.ratio;
                if self.accumulator >= 1.0 {
                    self.accumulator -= 1.0;
                    dropped += 1;
                } else {
                    passed += 1;
                    ctx.emit(0, event.token.clone());
                }
            }
        }
        ctx.report_shed(dropped);
        let mut s = self.stats.lock();
        s.passed += passed;
        s.dropped += dropped;
        s.drop_ratio = self.ratio;
        s.mean_age = self.ewma_age;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_core::testing::MockContext;
    use confluence_core::time::Timestamp;
    use confluence_core::token::Token;

    #[test]
    fn no_shedding_when_fresh() {
        let (mut shed, handle) = LoadShedder::new(Micros(1_000));
        let mut ctx = MockContext::new(1).at(Timestamp(100));
        for i in 0..50 {
            ctx.push_token(0, Token::Int(i), Timestamp(95)); // age 5µs
        }
        shed.fire(&mut ctx).unwrap();
        let s = handle.stats();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.passed, 50);
        assert_eq!(s.drop_fraction(), 0.0);
        assert_eq!(ctx.emitted_on(0).len(), 50);
    }

    #[test]
    fn sheds_under_congestion() {
        let (mut shed, handle) = LoadShedder::new(Micros(10));
        let mut ctx = MockContext::new(1).at(Timestamp(1_000_000));
        for i in 0..200 {
            // Events are a full second old: massive congestion.
            ctx.push_token(0, Token::Int(i), Timestamp(0));
        }
        shed.fire(&mut ctx).unwrap();
        let s = handle.stats();
        assert!(s.dropped > 50, "should shed heavily: {s:?}");
        assert!(s.passed > 0, "max ratio keeps some flow: {s:?}");
        assert_eq!(ctx.shed_reported, s.dropped, "drops reported to runtime");
        assert!(s.drop_ratio > 0.5);
        assert!(s.mean_age > 100_000.0);
    }

    #[test]
    fn recovers_when_congestion_clears() {
        let (mut shed, handle) = LoadShedder::new(Micros(100));
        shed.step = 0.2;
        let mut ctx = MockContext::new(1).at(Timestamp(10_000));
        for i in 0..20 {
            ctx.push_token(0, Token::Int(i), Timestamp(0)); // old
        }
        shed.fire(&mut ctx).unwrap();
        assert!(handle.stats().drop_ratio > 0.0);
        // Fresh events arrive; the EWMA decays and the ratio relaxes.
        let mut ctx2 = MockContext::new(1).at(Timestamp(20_000));
        for i in 0..200 {
            ctx2.push_token(0, Token::Int(i), Timestamp(19_999));
        }
        shed.fire(&mut ctx2).unwrap();
        assert_eq!(handle.stats().drop_ratio, 0.0, "ratio fully relaxed");
    }
}
