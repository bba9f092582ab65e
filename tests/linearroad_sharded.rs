//! Sharded Linear Road: splitting `TollCalculation` by carid behind the
//! generated splitter/ordered-merge pair must leave the workflow's
//! observable output — the toll notification stream, and the number of
//! events routed over every channel the unsharded workflow also has —
//! exactly as the unsharded run produces it, under every director that
//! runs the benchmark.

use std::collections::BTreeMap;
use std::sync::Arc;

use confluence::core::director::pool::PoolDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::telemetry::{MetricsRecorder, MetricsSnapshot, Telemetry};
use confluence::core::time::Micros;
use confluence::linearroad::{self, LrOptions, TollNotification, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

/// Deterministic (no-accident) trace with enough seg crossings to matter.
fn workload() -> Workload {
    Workload::generate(WorkloadConfig {
        duration_secs: 30,
        l_rating: 0.05,
        expressways: 1,
        seed: 7,
        base_initial_cars: 200,
        base_final_cars: 400,
        accident_every_secs: None,
        accident_duration_secs: 0,
    })
}

/// Routed events per shared channel, keyed by the channel's
/// shard-normalised `(from, to, port)`: a generated `base#<i>` /
/// `base#split` / `base#merge` name collapses onto its base actor, and
/// the channels inside a shard group (splitter → replica → merge, which
/// have no unsharded counterpart) drop out.
type SharedEdges = BTreeMap<(String, String, usize), u64>;

fn shared_edges(metrics: &MetricsSnapshot) -> SharedEdges {
    let base = |name: &str| name.split('#').next().unwrap_or(name).to_string();
    let mut out = SharedEdges::new();
    for e in &metrics.edges {
        let (from, to) = (base(&e.from_name), base(&e.to_name));
        if from != to {
            *out.entry((from, to, e.port)).or_insert(0) += e.events;
        }
    }
    out
}

/// One run; returns the toll stream as sorted `(carid, time, seg, toll)`
/// and the shared-channel event counts.
fn run(
    director: &str,
    workload: &Workload,
    shard: Option<usize>,
) -> (Vec<(i64, i64, i64, u64)>, SharedEdges) {
    let realtime = matches!(director, "threaded" | "pool");
    let mut lr = linearroad::build(
        workload,
        &LrOptions {
            composite_subworkflows: false,
            shard_toll: shard,
            arrival_speedup: if realtime { 100 } else { 1 },
            ..LrOptions::default()
        },
    )
    .unwrap();
    let mut director: Box<dyn Director> = match director {
        "threaded" => Box::new(ThreadedDirector::new()),
        "pool" => Box::new(PoolDirector::new().with_workers(4)),
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
    let mut tolls: Vec<(i64, i64, i64, u64)> = lr
        .toll_output
        .items()
        .iter()
        .map(|i| {
            let n = TollNotification::from_token(&i.token).unwrap();
            (n.carid, n.time, n.seg, n.toll.to_bits())
        })
        .collect();
    tolls.sort_unstable();
    (tolls, shared_edges(&recorder.snapshot()))
}

#[test]
fn sharded_toll_stream_is_identical_under_every_director() {
    let w = workload();
    for director in ["threaded", "pool", "scwf"] {
        let (plain, plain_edges) = run(director, &w, None);
        assert!(!plain.is_empty(), "{director}: trace must produce tolls");
        assert!(
            plain_edges.values().any(|&n| n > 0),
            "{director}: the recorder must see routed events"
        );
        for replicas in [2, 3] {
            let (sharded, sharded_edges) = run(director, &w, Some(replicas));
            assert_eq!(
                plain, sharded,
                "{director}: toll stream diverges at {replicas} replicas"
            );
            assert_eq!(
                plain_edges, sharded_edges,
                "{director}: shared-channel event counts diverge at {replicas} replicas"
            );
        }
    }
}

#[test]
fn sharded_merge_preserves_emission_order_in_virtual_time() {
    // Virtual time is fully deterministic, so here the comparison can be
    // order-exact and un-deduplicated: the merge must reproduce the
    // unsharded emission sequence, not just the same set.
    let w = workload();
    let seq = |shard: Option<usize>| -> Vec<(i64, i64, i64, u64)> {
        let mut lr = linearroad::build(
            &w,
            &LrOptions {
                composite_subworkflows: false,
                shard_toll: shard,
                ..LrOptions::default()
            },
        )
        .unwrap();
        let cost = TableCostModel::uniform(Micros(20), Micros(2));
        ScwfDirector::virtual_time(Box::new(FifoScheduler::new(5)), Box::new(cost))
            .run(&mut lr.workflow)
            .unwrap();
        lr.toll_output
            .items()
            .iter()
            .map(|i| {
                let n = TollNotification::from_token(&i.token).unwrap();
                (n.carid, n.time, n.seg, n.toll.to_bits())
            })
            .collect()
    };
    let plain = seq(None);
    assert!(!plain.is_empty());
    assert_eq!(plain, seq(Some(2)), "2-replica emission order diverges");
    assert_eq!(plain, seq(Some(4)), "4-replica emission order diverges");
}
