//! PR 3 perf trajectory: batched event routing vs the pre-PR per-event
//! delivery path, fan-out routing, window formation, record field
//! lookups, and a threaded-vs-pool Linear Road segment.
//!
//! Besides printing each timing, the harness writes a machine-readable
//! summary to `results/BENCH_pr3.json` (skipped under
//! `cargo bench -- --test` smoke mode) so the numbers backing this PR's
//! claims are checked in next to the code.

use criterion::{black_box, Criterion};

use confluence_bench::runner::run_linear_road_realtime;
use confluence_core::actors::{Collector, VecSource};
use confluence_core::director::Fabric;
use confluence_core::event::{CwEvent, WaveStamper};
use confluence_core::graph::{ActorId, WorkflowBuilder};
use confluence_core::time::Timestamp;
use confluence_core::token::Token;
use confluence_core::wave::WaveTag;
use confluence_core::window::{GroupBy, WindowOperator, WindowSpec};
use confluence_linearroad::{Workload, WorkloadConfig};

/// Emissions per simulated firing in the routing benches.
const BATCH: usize = 1_000;

/// A built fabric with one producer fanned out to `sinks` inboxes.
struct Fanout {
    fabric: Fabric,
    from: ActorId,
}

fn fanout_fabric(sinks: usize) -> Fanout {
    let mut b = WorkflowBuilder::new("routing-bench");
    let s = b.add_actor("src", VecSource::new(vec![]));
    for i in 0..sinks {
        let k = b.add_actor(format!("sink{i}"), Collector::new().actor());
        b.connect(s, "out", k, "in").unwrap();
    }
    let workflow = b.build().unwrap();
    Fanout {
        fabric: Fabric::build(&workflow).unwrap(),
        from: s,
    }
}

fn tokens() -> Vec<(usize, Token)> {
    (0..BATCH).map(|i| (0usize, Token::Int(i as i64))).collect()
}

/// One firing through the batched `Fabric::route` path. The fabric is
/// fresh per sample (see the `iter_with_setup` call sites) so the timed
/// section is routing only.
fn route_batched(f: &Fanout, parent: &WaveTag) -> u64 {
    f.fabric
        .route(f.from, tokens(), Some(parent), Timestamp(2))
        .unwrap()
}

/// The same firing through a faithful reconstruction of the pre-PR
/// `Fabric::route`: three intermediate `Vec`s (ports, tokens, stamped
/// events), then one receiver `put` — with its event clone, operator
/// lock, and inbox lock — per event per destination.
fn route_per_event(f: &Fanout, parent: &WaveTag) -> u64 {
    let emissions = tokens();
    let ports: Vec<usize> = emissions.iter().map(|(p, _)| *p).collect();
    let toks: Vec<Token> = emissions.into_iter().map(|(_, t)| t).collect();
    let stamped = WaveStamper::new(parent.clone()).stamp_all(toks, Timestamp(2));
    let events: Vec<(usize, CwEvent)> = ports.into_iter().zip(stamped).collect();
    let mut delivered = 0u64;
    for (port, event) in events {
        for dest in f.fabric.route_targets(f.from, port) {
            let receiver = &f.fabric.receivers(dest.actor)[dest.port];
            receiver.put(event.clone(), Timestamp(2)).unwrap();
            delivered += 1;
        }
    }
    delivered
}

fn bench_chain_routing(c: &mut Criterion) {
    let parent = WaveTag::external(Timestamp(1));
    let mut g = c.benchmark_group("chain_routing");
    g.bench_function("batched_route", |b| {
        b.iter_with_setup(|| fanout_fabric(1), |f| black_box(route_batched(&f, &parent)))
    });
    g.bench_function("per_event_deliver", |b| {
        b.iter_with_setup(|| fanout_fabric(1), |f| black_box(route_per_event(&f, &parent)))
    });
    g.finish();
}

fn bench_fanout_routing(c: &mut Criterion) {
    let parent = WaveTag::external(Timestamp(1));
    let mut g = c.benchmark_group("fanout_routing");
    g.bench_function("batched_route_x4", |b| {
        b.iter_with_setup(|| fanout_fabric(4), |f| black_box(route_batched(&f, &parent)))
    });
    g.bench_function("per_event_deliver_x4", |b| {
        b.iter_with_setup(|| fanout_fabric(4), |f| black_box(route_per_event(&f, &parent)))
    });
    g.finish();
}

fn report(carid: i64, ts: u64) -> confluence_core::event::CwEvent {
    confluence_core::event::CwEvent::external(lr_record(carid), Timestamp(ts))
}

fn lr_record(carid: i64) -> Token {
    Token::record()
        .field("time", 0)
        .field("carid", carid)
        .field("speed", 55.0)
        .field("xway", 0)
        .field("lane", 1)
        .field("dir", 0)
        .field("seg", carid % 100)
        .field("pos", carid * 20)
        .build()
}

fn bench_window_formation(c: &mut Criterion) {
    c.bench_function("window_formation/grouped_sliding_push", |b| {
        b.iter_with_setup(
            || {
                WindowOperator::new(
                    WindowSpec::tuples(4, 1).group_by(GroupBy::fields(&["carid"])),
                )
                .unwrap()
            },
            |mut op| {
                for i in 0..BATCH as u64 {
                    op.push(report((i % 50) as i64, i), Timestamp(i)).unwrap();
                    while op.pop_window().is_some() {}
                }
                black_box(op.pending_events())
            },
        )
    });
}

fn bench_record_lookup(c: &mut Criterion) {
    let token = lr_record(107);
    let rec = token.as_record().unwrap();
    let mut g = c.benchmark_group("record_get");
    g.bench_function("name_scan", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for _ in 0..BATCH {
                acc += rec.get("carid").unwrap().as_int().unwrap();
                acc += rec.get("seg").unwrap().as_int().unwrap();
                acc += rec.get("speed").unwrap().as_float().unwrap() as i64;
            }
            black_box(acc)
        })
    });
    g.bench_function("indexed", |b| {
        let carid = rec.index_of("carid").unwrap();
        let seg = rec.index_of("seg").unwrap();
        let speed = rec.index_of("speed").unwrap();
        b.iter(|| {
            let mut acc = 0i64;
            for _ in 0..BATCH {
                acc += rec.get_at(carid).unwrap().as_int().unwrap();
                acc += rec.get_at(seg).unwrap().as_int().unwrap();
                acc += rec.get_at(speed).unwrap().as_float().unwrap() as i64;
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_linear_road_segment(c: &mut Criterion) {
    // A short no-accident trace replayed 100x faster than real time:
    // both executors run the identical workflow wall-clock end to end.
    let workload = Workload::generate(WorkloadConfig {
        duration_secs: 60,
        l_rating: 0.05,
        expressways: 1,
        seed: 7,
        base_initial_cars: 600,
        base_final_cars: 1_200,
        accident_every_secs: None,
        accident_duration_secs: 0,
    });
    let mut g = c.benchmark_group("linear_road_segment");
    g.sample_size(1);
    g.bench_function("threaded", |b| {
        b.iter(|| black_box(run_linear_road_realtime(None, &workload, 100).firings))
    });
    g.bench_function("pool", |b| {
        b.iter(|| black_box(run_linear_road_realtime(Some(2), &workload, 100).firings))
    });
    g.finish();
}

fn mean_ns(results: &[criterion::BenchResult], name: &str) -> Option<u64> {
    results.iter().find(|r| r.name == name).map(|r| r.mean_ns)
}

fn main() {
    let _ = criterion::take_results();
    let mut c = Criterion::default();
    bench_chain_routing(&mut c);
    bench_fanout_routing(&mut c);
    bench_window_formation(&mut c);
    bench_record_lookup(&mut c);
    bench_linear_road_segment(&mut c);
    let results = criterion::take_results();
    if criterion::is_test_mode() {
        println!("smoke mode (--test): benches ran once each, skipping BENCH_pr3.json");
        return;
    }
    let ratio = |slow: &str, fast: &str| -> f64 {
        match (mean_ns(&results, slow), mean_ns(&results, fast)) {
            (Some(s), Some(f)) if f > 0 => s as f64 / f as f64,
            _ => 0.0,
        }
    };
    let chain_speedup = ratio("chain_routing/per_event_deliver", "chain_routing/batched_route");
    let fanout_speedup = ratio(
        "fanout_routing/per_event_deliver_x4",
        "fanout_routing/batched_route_x4",
    );
    let record_speedup = ratio("record_get/name_scan", "record_get/indexed");
    println!("\nchain routing speedup (batched vs per-event): {chain_speedup:.2}x");
    println!("fanout routing speedup (batched vs per-event): {fanout_speedup:.2}x");
    println!("record lookup speedup (indexed vs name scan): {record_speedup:.2}x");
    let mut json = String::from("{\n  \"pr\": 3,\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {}, \"iters\": {}}}",
            r.name, r.mean_ns, r.iters
        ));
    }
    json.push_str(&format!(
        "\n  ],\n  \"chain_routing_speedup\": {chain_speedup:.3},\n  \
         \"fanout_routing_speedup\": {fanout_speedup:.3},\n  \
         \"record_lookup_speedup\": {record_speedup:.3}\n}}\n"
    ));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/BENCH_pr3.json");
    std::fs::write(&path, json).expect("write BENCH_pr3.json");
    println!("wrote {}", path.display());
    assert!(
        chain_speedup >= 1.2,
        "batched routing must beat the per-event path by >= 20% (got {chain_speedup:.2}x)"
    );
}
