//! A continuous workflow never ends, so what its receivers hold has to
//! follow what their windows currently cover, not what they have ever
//! seen. Counts, not bytes: the check is exact and the same on any machine.

use confluence::core::graph::Workflow;
use confluence::core::time::{Micros, Timestamp};
use confluence::linearroad::{self, LrOptions, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::scwf::{Progress, ScwfCore};

/// Run the workflow up to stream time `until`.
fn run_to(core: &mut ScwfCore, workflow: &mut Workflow, until: Timestamp) {
    loop {
        match core.run_for(workflow, None).unwrap() {
            Progress::IdleUntil(t) if t <= until => core.advance_to(workflow, t),
            Progress::IdleUntil(_) | Progress::Finished => return,
            other => panic!("unexpected progress {other:?}"),
        }
    }
}

/// Everything the receivers keep: buffered events, group states, and
/// expired events waiting for a handler.
fn retained(core: &ScwfCore, workflow: &Workflow) -> usize {
    let fabric = core.fabric().expect("the first slice built it");
    workflow
        .actor_ids()
        .flat_map(|id| fabric.receivers(id))
        .map(|port| port.pending_events() + port.group_count() + port.expired_len())
        .sum()
}

#[test]
fn linear_road_receivers_hold_a_constant_population_in_constant_space() {
    // The same 300 cars report for ten statistics minutes (the ones that
    // drive off the expressway's end are not replaced).
    let workload = Workload::generate(WorkloadConfig {
        duration_secs: 660,
        l_rating: 0.05,
        expressways: 1,
        seed: 11,
        base_initial_cars: 6_000,
        base_final_cars: 6_000,
        accident_every_secs: None,
        accident_duration_secs: 0,
    });
    let options = LrOptions {
        composite_subworkflows: false,
        ..LrOptions::default()
    };
    let mut lr = linearroad::build(&workload, &options).unwrap();
    let mut core = ScwfCore::new_virtual(
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(1), Micros(0))),
        Default::default(),
    );
    // A little past the minute, so that its windows have closed and the
    // next minute's first reports have arrived.
    run_to(&mut core, &mut lr.workflow, Timestamp::from_secs(3 * 60 + 5));
    let at_minute_3 = retained(&core, &lr.workflow);
    run_to(&mut core, &mut lr.workflow, Timestamp::from_secs(10 * 60 + 5));
    let at_minute_10 = retained(&core, &lr.workflow);
    assert!(at_minute_3 > 300, "the windows hold the population: {at_minute_3}");
    assert!(
        at_minute_10 * 10 <= at_minute_3 * 11,
        "receivers held {at_minute_3} items at minute 3 and {at_minute_10} at minute 10"
    );
}
