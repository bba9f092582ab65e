//! Property tests of the STAFiLOS framework: conservation and liveness
//! across all policies — every event a source releases is delivered to
//! every sink exactly once, no matter which policy schedules the actors or
//! what the costs are.

use proptest::prelude::*;

use confluence_core::actors::{Collector, TimedSource};
use confluence_core::director::Director;
use confluence_core::graph::WorkflowBuilder;
use confluence_core::time::{Micros, Timestamp};
use confluence_core::token::Token;
use confluence_sched::cost::TableCostModel;
use confluence_sched::policies::{EdfScheduler, FifoScheduler, QbsScheduler, RbScheduler, RrScheduler};
use confluence_sched::{Scheduler, ScwfDirector};

/// Workload: (arrival µs, payload) pairs.
fn arrivals() -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0u64..100_000, 0i64..1_000_000), 1..120)
}

fn make_policy(which: u8, quantum: u64) -> Box<dyn Scheduler> {
    match which % 6 {
        0 => Box::new(FifoScheduler::new(5)),
        1 => Box::new(QbsScheduler::new(quantum.max(1), 5)),
        2 => Box::new(RrScheduler::new(quantum.max(1), 5)),
        3 => Box::new(RbScheduler::new()),
        4 => Box::new(EdfScheduler::new(5)),
        _ => Box::new(FifoScheduler::pncwf()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: a diamond workflow delivers every source event to
    /// both sinks exactly once under every policy and any cost scale.
    #[test]
    fn every_policy_conserves_events(
        mut events in arrivals(),
        which in 0u8..6,
        quantum in 1u64..50_000,
        cost_us in 0u64..2_000,
    ) {
        events.sort();
        let schedule: Vec<(Timestamp, Token)> = events
            .iter()
            .map(|(t, v)| (Timestamp(*t), Token::Int(*v)))
            .collect();
        let left = Collector::new();
        let right = Collector::new();
        let mut b = WorkflowBuilder::new("diamond");
        let s = b.add_actor("src", TimedSource::new(schedule));
        let k1 = b.add_actor("left", left.actor());
        let k2 = b.add_actor("right", right.actor());
        b.link((s, "out"), (k1, "in")).unwrap();
        b.link((s, "out"), (k2, "in")).unwrap();
        b.set_priority(k1, 5);
        b.set_priority(k2, 25);
        let mut wf = b.build().unwrap();

        let policy = make_policy(which, quantum);
        let cost = TableCostModel::uniform(Micros(cost_us), Micros(1));
        let mut d = ScwfDirector::virtual_time(policy, Box::new(cost));
        d.run(&mut wf).unwrap();

        let mut expected: Vec<i64> = events.iter().map(|(_, v)| *v).collect();
        expected.sort_unstable();
        for c in [&left, &right] {
            let mut got: Vec<i64> = c.tokens().iter().map(|t| t.as_int().unwrap()).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "policy {} lost or duplicated events", which % 5);
        }
    }

    /// Per-source FIFO order is preserved through any policy: a sink sees
    /// one source's events in their arrival order.
    #[test]
    fn per_source_order_preserved(
        mut events in arrivals(),
        which in 0u8..6,
        quantum in 1u64..50_000,
    ) {
        events.sort();
        events.dedup_by_key(|(t, _)| *t);
        let schedule: Vec<(Timestamp, Token)> = events
            .iter()
            .map(|(t, v)| (Timestamp(*t), Token::Int(*v)))
            .collect();
        let sink = Collector::new();
        let mut b = WorkflowBuilder::new("line");
        let s = b.add_actor("src", TimedSource::new(schedule));
        let k = b.add_actor("sink", sink.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut wf = b.build().unwrap();
        let mut d = ScwfDirector::virtual_time(
            make_policy(which, quantum),
            Box::new(TableCostModel::uniform(Micros(100), Micros(1))),
        );
        d.run(&mut wf).unwrap();
        let got: Vec<i64> = sink.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        let expected: Vec<i64> = events.iter().map(|(_, v)| *v).collect();
        prop_assert_eq!(got, expected);
    }
}
