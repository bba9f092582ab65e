//! Allocations per report while draining the 120-s trace (seed 1) under
//! virtual-time SCWF/FIFO with `uniform(20 µs, 2 µs)`, composite and flat.
//! Run it as a temporary root test: copy it to `tests/alloc_probe.rs` in a
//! checkout, then `cargo test --release --test alloc_probe -- --nocapture`.
//! The counting allocator is the one of `tests/event_footprint.rs`.
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use confluence::core::director::Director;
use confluence::core::time::Micros;
use confluence::linearroad::{self, LrOptions, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

struct Counting;
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn alloc_probe() {
    for (label, composite) in [("composite", true), ("flat", false)] {
        let workload = Workload::generate(WorkloadConfig { duration_secs: 120, seed: 1, ..Default::default() });
        let mut lr = linearroad::build(&workload, &LrOptions { composite_subworkflows: composite, ..LrOptions::default() }).unwrap();
        let mut director = ScwfDirector::virtual_time(
            Box::new(FifoScheduler::new(5)),
            Box::new(TableCostModel::uniform(Micros(20), Micros(2))),
        );
        let (a0, b0) = (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
        let report = director.run(&mut lr.workflow).unwrap();
        let (a, b) = (ALLOCS.load(Relaxed) - a0, ALLOC_BYTES.load(Relaxed) - b0);
        let n = workload.len() as f64;
        println!("ALLOC_PROBE {label}: reports {} firings {} allocs {a} ({:.3}/report) bytes {b} ({:.1}/report)",
            workload.len(), report.firings, a as f64 / n, b as f64 / n);
    }
}
