//! Linear Road's toll notification stream, and the events routed over
//! every channel, are the same under the wall-clock directors as under
//! virtual time, and the virtual-time emission order is reproducible.
//!
//! The trace runs 59 s at `l_rating: 1.0` (hundreds of reports, more than
//! a hundred tolls) and stays inside minute 0, so every toll reads the
//! never-written statistics of the minutes before 0 and is exact whatever
//! the thread timing; a toll in a later minute races, on the wall clock,
//! with the writers of the minute before it.

use std::collections::BTreeMap;
use std::sync::Arc;

use confluence::core::director::pool::PoolDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::telemetry::{MetricsRecorder, Telemetry};
use confluence::core::time::Micros;
use confluence::linearroad::{self, LrOptions, TollNotification, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

fn workload() -> Workload {
    Workload::generate(WorkloadConfig {
        duration_secs: 59,
        l_rating: 1.0,
        expressways: 1,
        seed: 7,
        base_initial_cars: 200,
        base_final_cars: 400,
        accident_every_secs: None,
        accident_duration_secs: 0,
    })
}

/// `(carid, time, seg, toll bits)` per notification, in emission order.
type Tolls = Vec<(i64, i64, i64, u64)>;

/// Routed events per channel, keyed by `(from, to, port)`.
type Edges = BTreeMap<(String, String, usize), u64>;

/// One flat-actor run; returns the tolls in emission order and the
/// routed events per channel.
fn run(director: &str, workload: &Workload) -> (Tolls, Edges) {
    let realtime = matches!(director, "threaded" | "pool");
    let mut lr = linearroad::build(
        workload,
        &LrOptions {
            composite_subworkflows: false,
            arrival_speedup: if realtime { 100 } else { 1 },
            ..LrOptions::default()
        },
    )
    .unwrap();
    let mut director: Box<dyn Director> = match director {
        "threaded" => Box::new(ThreadedDirector::new()),
        "pool" => Box::new(PoolDirector::new().with_workers(2)),
        "scwf" => {
            let cost = TableCostModel::uniform(Micros(20), Micros(2));
            Box::new(ScwfDirector::virtual_time(
                Box::new(FifoScheduler::new(5)),
                Box::new(cost),
            ))
        }
        other => panic!("unknown director {other}"),
    };
    let recorder = Arc::new(MetricsRecorder::for_workflow(&lr.workflow));
    director.instrument(Telemetry::new(recorder.clone()));
    director.run(&mut lr.workflow).unwrap();
    let tolls = lr
        .toll_output
        .items()
        .iter()
        .map(|i| {
            let n = TollNotification::from_token(&i.token).unwrap();
            (n.carid, n.time, n.seg, n.toll.to_bits())
        })
        .collect();
    let mut edges = Edges::new();
    for e in &recorder.snapshot().edges {
        *edges
            .entry((e.from_name.clone(), e.to_name.clone(), e.port))
            .or_insert(0) += e.events;
    }
    (tolls, edges)
}

fn assert_matches_virtual_time(director: &str) {
    let w = workload();
    let (mut reference, reference_edges) = run("scwf", &w);
    assert!(reference.len() >= 100, "trace must produce tolls");
    assert!(reference_edges.values().any(|&n| n > 0));
    let (mut tolls, edges) = run(director, &w);
    reference.sort_unstable();
    tolls.sort_unstable();
    assert_eq!(tolls, reference, "{director}: toll stream diverges");
    assert_eq!(edges, reference_edges, "{director}: routed events diverge");
}

#[test]
fn threaded_tolls_and_event_flow_equal_virtual_time() {
    assert_matches_virtual_time("threaded");
}

#[test]
fn pool_tolls_and_event_flow_equal_virtual_time() {
    assert_matches_virtual_time("pool");
}

#[test]
fn virtual_time_toll_emission_order_is_reproducible() {
    let w = workload();
    let (first, first_edges) = run("scwf", &w);
    assert!(first.len() >= 100, "trace must produce tolls");
    let (second, second_edges) = run("scwf", &w);
    assert_eq!(first, second, "emission order diverges between runs");
    assert_eq!(first_edges, second_edges);
}
