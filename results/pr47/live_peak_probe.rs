//! Linear Road's peak live heap split by allocation size, the sizes named
//! by the sites that make them: the 120-s trace (seed 1) drained under
//! virtual-time SCWF/FIFO with `uniform(1 µs, 0)` and the detection
//! composites, as `tests/event_footprint.rs` drains it. The peak is read at
//! the end of a firing, as there.
//!
//! Run it as a temporary root test: copy it to `tests/live_peak_probe.rs`
//! in a checkout, then `cargo test --release --test live_peak_probe --
//! --nocapture`, and delete it.
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use confluence::core::director::Director;
use confluence::core::telemetry::{FireRecord, Observer, Telemetry};
use confluence::core::time::Micros;
use confluence::linearroad::{self, LrOptions, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

/// Live bytes by requested size; the last class holds every larger size.
const CLASSES: usize = 1025;
static LIVE: AtomicIsize = AtomicIsize::new(0);
static BY_SIZE: [AtomicIsize; CLASSES] = [const { AtomicIsize::new(0) }; CLASSES];

fn count(size: usize, sign: isize) {
    LIVE.fetch_add(sign * size as isize, Relaxed);
    BY_SIZE[size.min(CLASSES - 1)].fetch_add(sign * size as isize, Relaxed);
}

struct Counting;
// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters beside it touch no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), -1);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout.size(), -1);
        count(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
}
#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The live bytes by size at the highest end-of-firing live count.
#[derive(Default)]
struct Peak(Mutex<(isize, Vec<isize>)>);

impl Observer for Peak {
    fn on_fire_end(&self, _: &FireRecord) {
        let live = LIVE.load(Relaxed);
        let mut peak = self.0.lock().unwrap();
        if live > peak.0 {
            // Copy into the buffer reserved below: no allocation here.
            peak.0 = live;
            for (slot, class) in peak.1.iter_mut().zip(&BY_SIZE) {
                *slot = class.load(Relaxed);
            }
        }
    }
}

#[test]
fn live_peak_probe() {
    let workload = Workload::generate(WorkloadConfig { duration_secs: 120, seed: 1, ..Default::default() });
    let before: Vec<isize> = BY_SIZE.iter().map(|c| c.load(Relaxed)).collect();
    let base = LIVE.load(Relaxed);
    let mut lr = linearroad::build(&workload, &LrOptions::default()).unwrap();
    let peak = Arc::new(Peak(Mutex::new((0, vec![0; CLASSES]))));
    let mut director = ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(1), Micros(0))),
    );
    director.instrument(Telemetry::new(peak.clone()));
    director.run(&mut lr.workflow).unwrap();
    let (live, by_size) = peak.0.lock().unwrap().clone();
    let n = workload.len() as f64;
    println!("LIVE_PEAK {} B above the pre-build baseline, {:.1} B a report ({} reports)", live - base, (live - base) as f64 / n, workload.len());
    let mut classes: Vec<(usize, isize)> =
        by_size.iter().zip(&before).enumerate().map(|(size, (p, b))| (size, p - b)).filter(|(_, b)| *b != 0).collect();
    classes.sort_by_key(|(_, bytes)| -bytes);
    for (size, bytes) in classes.iter().take(16) {
        let size = if *size == CLASSES - 1 { format!(">{}", CLASSES - 2) } else { size.to_string() };
        println!("LIVE_PEAK size {size:>6} B: {bytes:>9} B live ({:.1} B a report)", *bytes as f64 / n);
    }
}
