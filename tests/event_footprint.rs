//! What Linear Road holds at its peak, counted by a global allocator: the
//! live state of a continuous workflow is mostly buffered events, so the
//! bytes an event and a record field cost set the peak. The same allocator
//! counts the allocations a report costs while draining, and what building
//! the workflow costs, which must not depend on how long the trace is: the
//! source reads the reports in place.
//!
//! One test function: the counters are process-wide, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use confluence::core::director::Director;
use confluence::core::telemetry::{FireRecord, Observer, Telemetry};
use confluence::core::time::Micros;
use confluence::linearroad::{self, LrOptions, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Calls to `alloc` and `realloc`, and the bytes they asked for.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter beside it touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The highest live-byte count seen at the end of any firing.
#[derive(Default)]
struct PeakAtFireEnd(AtomicIsize);

impl Observer for PeakAtFireEnd {
    fn on_fire_end(&self, _: &FireRecord) {
        self.0.fetch_max(LIVE_BYTES.load(Relaxed), Relaxed);
    }
}

/// `(allocations, bytes)` that `linearroad::build` makes on `workload`.
fn build_cost(workload: &Workload) -> (usize, usize) {
    let (a0, b0) = (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    let lr = linearroad::build(workload, &LrOptions::default()).unwrap();
    let cost = (ALLOCS.load(Relaxed) - a0, ALLOC_BYTES.load(Relaxed) - b0);
    drop(lr);
    cost
}

#[test]
fn linear_road_peaks_at_what_its_buffered_events_carry() {
    let workload = Workload::generate(WorkloadConfig {
        duration_secs: 120,
        seed: 1,
        ..Default::default()
    });
    let baseline = LIVE_BYTES.load(Relaxed);
    let mut lr = linearroad::build(&workload, &LrOptions::default()).unwrap();
    let peak = Arc::new(PeakAtFireEnd::default());
    let mut director = ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(1), Micros(0))),
    );
    director.instrument(Telemetry::new(peak.clone()));
    let allocs_before = ALLOCS.load(Relaxed);
    director.run(&mut lr.workflow).unwrap();
    let allocs = (ALLOCS.load(Relaxed) - allocs_before) as f64 / workload.len() as f64;
    assert!(!lr.toll_output.items().is_empty(), "the drain computed tolls");
    // 70.6 allocations a report with the detection composites, now that a
    // window of its group's whole buffer takes the buffer. It was 71.8
    // while each such window allocated a `Vec` of its own, 77.9 while a new
    // group built a key record (two allocations) and a one-step wave path
    // was boxed, and 98.3 while each composite firing opened, closed and
    // wrapped up a whole inner run.
    assert!(allocs < 72.0, "{allocs:.1} allocations a report while draining");

    // The peak falls at the minute-2 window close, when the per-car windows
    // hold two minutes of reports: 650 B a report, as it was while each
    // window copied its events out of its group's buffer. A window that
    // takes the buffer must shrink it to its length: with the buffer's
    // doubling slack left in it, the peak read 672 B. It was 715 B while a
    // group held a key record of its own and a one-step wave path was
    // boxed, 739 B while the source kept a drained queue of 24-byte
    // `(Timestamp, Token)` slots, and 932 B with 24-byte tokens and 64-byte
    // events.
    let per_report = (peak.0.load(Relaxed) - baseline) as f64 / workload.len() as f64;
    assert!(per_report < 663.0, "peak live heap {per_report:.1} B a report above the pre-build baseline");

    // Building is a constant: the source holds the shared reports and turns
    // each into a token only when it releases it. Measured after the run
    // above, so one-time initialisation is not in either count.
    let tiny = Workload::generate(WorkloadConfig::tiny());
    let (small, large) = (build_cost(&tiny), build_cost(&workload));
    assert_eq!(
        small,
        large,
        "build (allocations, bytes): {} reports {small:?}, {} reports {large:?}",
        tiny.len(),
        workload.len()
    );
}
