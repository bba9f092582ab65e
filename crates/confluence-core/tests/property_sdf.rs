//! Property tests of the SDF balance-equation solver.

use proptest::prelude::*;

use confluence_core::actor::{Actor, FireContext, IoSignature, SdfRates};
use confluence_core::director::sdf::compile_schedule;
use confluence_core::error::Result;
use confluence_core::graph::WorkflowBuilder;

/// A rate-declaring pass-through actor.
struct Rated {
    consume: u32,
    produce: u32,
    source: bool,
}

impl Actor for Rated {
    fn signature(&self) -> IoSignature {
        if self.source {
            IoSignature::source("out")
        } else if self.produce == 0 {
            IoSignature::sink("in")
        } else {
            IoSignature::transform("in", "out")
        }
    }
    fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
        Ok(())
    }
    fn is_source(&self) -> bool {
        self.source
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: if self.source { vec![] } else { vec![self.consume] },
            produce: if self.produce == 0 { vec![] } else { vec![self.produce] },
        })
    }
}

proptest! {
    /// For any rate-labelled chain, the repetition vector satisfies the
    /// balance equations and is minimal (gcd 1).
    #[test]
    fn chain_repetitions_balance(rates in prop::collection::vec((1u32..7, 1u32..7), 1..6)) {
        // Build src →(p0,c1)→ a1 →(p1,c2)→ a2 → ... → sink.
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = b.add_actor(
            "src",
            Rated { consume: 0, produce: rates[0].0, source: true },
        );
        for (i, window) in rates.windows(2).enumerate() {
            let a = b.add_actor(
                format!("a{i}"),
                Rated { consume: window[0].1, produce: window[1].0, source: false },
            );
            b.link((prev, "out"), (a, "in")).unwrap();
            prev = a;
        }
        let sink = b.add_actor(
            "sink",
            Rated { consume: rates[rates.len() - 1].1, produce: 0, source: false },
        );
        b.link((prev, "out"), (sink, "in")).unwrap();
        let wf = b.build().unwrap();

        let sched = compile_schedule(&wf).unwrap();
        // Balance on every channel: q[from]·produce == q[to]·consume.
        for ch in wf.channels() {
            let from = ch.from.actor.index();
            let to = ch.to.actor.index();
            let p = wf.node(ch.from.actor).peek_actor().unwrap().rates().unwrap().produce[ch.from.port] as u64;
            let c = wf.node(ch.to.actor).peek_actor().unwrap().rates().unwrap().consume[ch.to.port] as u64;
            prop_assert_eq!(
                sched.repetitions[from] * p,
                sched.repetitions[to] * c,
                "channel {}→{} unbalanced", from, to
            );
        }
        // Minimality.
        let g = sched.repetitions.iter().fold(0u64, |acc, &r| {
            fn gcd(a: u64, b: u64) -> u64 { if b == 0 { a } else { gcd(b, a % b) } }
            gcd(acc, r)
        });
        prop_assert_eq!(g, 1, "repetition vector not minimal: {:?}", sched.repetitions);
        // All positive.
        prop_assert!(sched.repetitions.iter().all(|&r| r > 0));
        // Order is a topological order of the chain.
        prop_assert_eq!(&sched.order, &(0..wf.actor_count()).collect::<Vec<_>>());
    }
}
