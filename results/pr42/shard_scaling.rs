//! Does sharding `TollCalculation` pay? Drains the 240-s Linear Road trace
//! (seed 1, accidents every 30 s, flat actors, `arrival_speedup` 100,000)
//! under `pool:1`, `pool:2` and `threaded`, each with `shard_toll` `None`
//! and `Some(2)`, ten rounds that alternate over the six configurations.
//!
//! Per run it prints wall time, process CPU time, reports/s, the toll count
//! and whether the run's crossings `(carid, time, seg)` equal the reference
//! run's (virtual-time SCWF, FIFO, `uniform(20 µs, 2 µs)`). Toll values are
//! not compared: on the wall clock they race with the statistics writers.
//!
//! Run it as a temporary example of a checkout that still has `shard_toll`:
//! copy it to `examples/probe_tmp.rs`, then
//! `cargo run --release --example probe_tmp > shard_scaling.txt`.

use std::time::Instant;

use confluence::core::director::pool::PoolDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::time::Micros;
use confluence::linearroad::{self, LrOptions, TollNotification, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds used by every thread of the process so far.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a writable `timespec` of the 64-bit Linux layout;
    // clock 2 is CLOCK_PROCESS_CPUTIME_ID.
    assert_eq!(unsafe { clock_gettime(2, &mut ts) }, 0);
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

type Crossings = Vec<(i64, i64, i64)>;

/// One drain: `(wall s, cpu s, crossings)`.
fn run(w: &Workload, director: &str, shard: Option<usize>) -> (f64, f64, Crossings) {
    let realtime = director != "scwf";
    let mut lr = linearroad::build(
        w,
        &LrOptions {
            composite_subworkflows: false,
            shard_toll: shard,
            arrival_speedup: if realtime { 100_000 } else { 1 },
            ..LrOptions::default()
        },
    )
    .unwrap();
    let mut d: Box<dyn Director> = match director {
        "pool:1" => Box::new(PoolDirector::new().with_workers(1)),
        "pool:2" => Box::new(PoolDirector::new().with_workers(2)),
        "threaded" => Box::new(ThreadedDirector::new()),
        _ => Box::new(ScwfDirector::virtual_time(
            Box::new(FifoScheduler::new(5)),
            Box::new(TableCostModel::uniform(Micros(20), Micros(2))),
        )),
    };
    let (t0, c0) = (Instant::now(), process_cpu_s());
    d.run(&mut lr.workflow).unwrap();
    let (wall, cpu) = (t0.elapsed().as_secs_f64(), process_cpu_s() - c0);
    let mut crossings: Crossings = lr
        .toll_output
        .items()
        .iter()
        .map(|i| {
            let n = TollNotification::from_token(&i.token).unwrap();
            (n.carid, n.time, n.seg)
        })
        .collect();
    crossings.sort_unstable();
    (wall, cpu, crossings)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 }
}

fn main() {
    let w = Workload::generate(WorkloadConfig {
        duration_secs: 240,
        accident_every_secs: Some(30),
        seed: 1,
        ..WorkloadConfig::default()
    });
    let reports = w.reports.len();
    let (_, _, reference) = run(&w, "scwf", None);
    println!("# 240-s trace, seed 1: {reports} reports; SCWF reference: {} crossings", reference.len());
    println!("round director shard wall_s cpu_s reports_per_s tolls crossings_equal");
    let configs: Vec<(&str, Option<usize>)> = ["pool:1", "pool:2", "threaded"]
        .into_iter()
        .flat_map(|d| [(d, None), (d, Some(2))])
        .collect();
    let mut walls = vec![Vec::new(); configs.len()];
    let mut cpus = vec![Vec::new(); configs.len()];
    for round in 0..10 {
        for (k, &(director, shard)) in configs.iter().enumerate() {
            let (wall, cpu, crossings) = run(&w, director, shard);
            let shard = shard.map_or("None".to_string(), |n| format!("Some({n})"));
            println!(
                "{round} {director} {shard} {wall:.3} {cpu:.3} {:.0} {} {}",
                reports as f64 / wall,
                crossings.len(),
                crossings == reference
            );
            walls[k].push(wall);
            cpus[k].push(cpu);
        }
    }
    println!("# medians over 10 runs");
    println!("director shard wall_s cpu_s reports_per_s");
    let mut med = Vec::new();
    for (k, &(director, shard)) in configs.iter().enumerate() {
        let (wall, cpu) = (median(walls[k].clone()), median(cpus[k].clone()));
        let shard = shard.map_or("None".to_string(), |n| format!("Some({n})"));
        println!("{director} {shard} {wall:.3} {cpu:.3} {:.0}", reports as f64 / wall);
        med.push(wall);
    }
    println!("# wall ratio Some(2)/None: pool:1 {:.2}x, pool:2 {:.2}x, threaded {:.2}x",
        med[1] / med[0], med[3] / med[2], med[5] / med[4]);
    println!("# pool:2 vs pool:1 (None): {:.2}x faster; threaded vs pool:2 (None): {:.2}x faster",
        med[0] / med[2], med[2] / med[4]);
}
