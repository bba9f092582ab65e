//! Behavioural guarantees of the pool's ready-queue policies: every
//! policy is a pure *ordering* — it may reshuffle who waits, never what
//! flows — so all four must produce the identical event flow and toll
//! notifications on a deterministic Linear Road trace; and the priority
//! policies must stay starvation-free (a de-prioritized actor still
//! drains to quiescence on a single worker).

use std::sync::Arc;

use confluence::core::actors::{Collector, VecSource};
use confluence::core::graph::WorkflowBuilder;
use confluence::core::token::Token;
use confluence::prelude::{Engine, ExecConfig, OldestWave, PoolPolicy, Quantum, RateBased};
use confluence_bench::runner::{run_linear_road_realtime, RealtimeOptions, RealtimePolicy};
use confluence_linearroad::{Workload, WorkloadConfig};

/// A deterministic (no-accident) trace: all four policies must route the
/// same events through the same per-actor windows and emit the same toll
/// notifications as the FIFO control. Scheduling order is the *only*
/// degree of freedom a policy has.
#[test]
fn policies_agree_on_linear_road_event_flow() {
    let workload = Workload::generate(WorkloadConfig {
        duration_secs: 30,
        l_rating: 0.05,
        expressways: 1,
        seed: 7,
        base_initial_cars: 200,
        base_final_cars: 400,
        accident_every_secs: None,
        accident_duration_secs: 0,
    });
    let on = |policy| {
        let options = RealtimeOptions {
            policy,
            ..RealtimeOptions::new(Some(2), 100)
        };
        run_linear_road_realtime(&workload, &options)
    };
    let control = on(RealtimePolicy::Fifo);
    assert!(control.toll_count > 0, "trace must actually produce tolls");
    for policy in [
        RealtimePolicy::RateBased,
        RealtimePolicy::OldestWave,
        RealtimePolicy::Quantum { basic_quantum: 1_000 },
    ] {
        let run = on(policy);
        assert_eq!(
            control.events_routed,
            run.events_routed,
            "channel deliveries diverge under {}",
            policy.label()
        );
        assert_eq!(
            control.toll_count,
            run.toll_count,
            "toll outputs diverge under {}",
            policy.label()
        );
        for actor in &control.metrics.actors {
            let other = run.metrics.actor(&actor.name).expect("actor in both runs");
            assert_eq!(
                actor.events_in,
                other.events_in,
                "event intake diverges at `{}` under {}",
                actor.name,
                policy.label()
            );
            assert_eq!(
                actor.tokens_out,
                other.tokens_out,
                "emissions diverge at `{}` under {}",
                actor.name,
                policy.label()
            );
        }
    }
}

/// Run a fan-out with a strongly de-prioritized branch on a single
/// worker and return what the cold sink saw. Quiescence itself is the
/// starvation-freedom proof: `run()` only returns once every actor has
/// drained, so a policy that starved the cold branch would hang the
/// test rather than merely fail an assertion.
fn run_two_priority_fanout(policy: Arc<dyn PoolPolicy>) -> (Vec<Token>, Vec<Token>) {
    const N: i64 = 200;
    let hot = Collector::new();
    let cold = Collector::new();
    let mut b = WorkflowBuilder::new("two-priority");
    let s = b.add_actor("src", VecSource::new((0..N).map(Token::Int).collect()));
    let h = b.add_actor("hot", hot.actor());
    let c = b.add_actor("cold", cold.actor());
    b.link((s, "out"), (h, "in")).unwrap();
    b.link((s, "out"), (c, "in")).unwrap();
    // Most urgent vs. least urgent in the paper's priority band.
    b.set_priority(h, 5);
    b.set_priority(c, 39);
    let mut e = Engine::new(b.build().unwrap())
        .configure(ExecConfig::new().workers(1).pool_policy(policy));
    e.run().unwrap();
    (hot.tokens(), cold.tokens())
}

/// The de-prioritized branch must still see every token under each
/// priority policy — ordering policies defer work, they never drop it.
#[test]
fn priority_policies_do_not_starve_the_cold_branch() {
    let expected: Vec<Token> = (0..200).map(Token::Int).collect();
    let policies: [Arc<dyn PoolPolicy>; 3] = [
        Arc::new(RateBased),
        Arc::new(OldestWave),
        Arc::new(Quantum::new(500)),
    ];
    for policy in policies {
        let name = policy.name();
        let (hot, cold) = run_two_priority_fanout(policy);
        assert_eq!(hot, expected, "hot branch lost tokens under {name}");
        assert_eq!(cold, expected, "cold branch lost tokens under {name}");
    }
}
