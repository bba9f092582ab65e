//! What recovering Linear Road holds at its peak, counted by a global
//! allocator: a run recovered from a checkpoint holds no more than one that
//! never crashed. A position report that four windows buffer is one shared
//! record live, so the checkpoint writes it once and recovery decodes it
//! once; spelled out per window, recovery held 11.7% more than the drain.
//!
//! One test function: the counters are process-wide, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::Arc;

use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::time::Micros;
use confluence::linearroad::{
    self, actors::NotificationOutput, LinearRoad, LrOptions, Workload, WorkloadConfig,
};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn grew(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters beside it touch no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes now, with the high-water mark restarted from them.
fn restart() -> isize {
    let live = LIVE_BYTES.load(Relaxed);
    PEAK_BYTES.store(live, Relaxed);
    live
}

/// Linear Road with flat actors on the single-thread virtual-time
/// director, its store registered for checkpoints, configured by `config`;
/// and its toll output.
fn engine(workload: &Workload, config: ExecConfig) -> (Engine, NotificationOutput) {
    let opts = LrOptions {
        composite_subworkflows: false,
        ..LrOptions::default()
    };
    let LinearRoad {
        workflow,
        store,
        toll_output,
        ..
    } = linearroad::build(workload, &opts).unwrap();
    let director = ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(1), Micros(0))),
    );
    let engine = Engine::new(workflow)
        .register_checkpoint_resource("relstore", Arc::new(store))
        .configure(config)
        .with_director(director);
    (engine, toll_output)
}

/// Peak live heap, above what was live before, of building and running
/// Linear Road to the end of its stream under `config`; and its firings.
fn peak_of_run(workload: &Workload, config: ExecConfig) -> (isize, u64) {
    let start = restart();
    let (mut engine, tolls) = engine(workload, config);
    let firings = engine.run().unwrap().firings;
    assert!(!tolls.items().is_empty(), "the run computed tolls");
    (PEAK_BYTES.load(Relaxed) - start, firings)
}

fn crash(workload: &Workload, dir: &Path, firings: u64) {
    let every = ExecConfig::new().checkpoint_every(StopCondition::Firings(firings / 8), dir);
    let (mut engine, _) = engine(workload, every);
    engine.run_until(StopCondition::Firings(firings * 9 / 16)).unwrap();
}

#[test]
fn recovery_holds_no_more_than_a_run_that_never_crashed() {
    // The benchmark's checkpoint workload: a 90-s trace, a checkpoint
    // every eighth of the firings, a kill at nine sixteenths.
    let workload = Workload::generate(WorkloadConfig {
        duration_secs: 90,
        seed: 1,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("confluence-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (drain, firings) = peak_of_run(&workload, ExecConfig::new());
    crash(&workload, &dir, firings);
    let (recovery, _) = peak_of_run(&workload, ExecConfig::new().recover_from(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        recovery <= drain + drain / 50,
        "recovery peaked at {recovery} live bytes, an uninterrupted run at {drain}"
    );
}
