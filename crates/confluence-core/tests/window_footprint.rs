//! What a window operator holds per group, counted by a global allocator:
//! the key once, a slot in the group arena, a position in the directory
//! and a buffer as long as its contents — and nothing for groups it has
//! let go of.
//!
//! One test function: the counters are process-wide, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use confluence_core::actors::{Collector, VecSource};
use confluence_core::director::Fabric;
use confluence_core::event::CwEvent;
use confluence_core::graph::WorkflowBuilder;
use confluence_core::time::{Micros, Timestamp};
use confluence_core::token::{Schema, Token};
use confluence_core::window::{GroupBy, WindowOperator, WindowSpec};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCS: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters beside it touch no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        LIVE_ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        LIVE_ALLOCS.fetch_sub(1, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> (isize, isize) {
    (LIVE_BYTES.load(Relaxed), LIVE_ALLOCS.load(Relaxed))
}

const GROUPS: i64 = 10_000;

/// One position report per car, each in a segment of its own: every event
/// opens a group under any of the Linear Road group-by clauses.
fn reports(shape: &std::sync::Arc<Schema>, second: u64) -> Vec<CwEvent> {
    (0..GROUPS)
        .map(|car| {
            let values: [Token; 5] = [car.into(), (car / 200 % 2).into(), (car % 2).into(), (car % 100).into(), 55.into()];
            CwEvent::external(shape.record(values), Timestamp::from_secs(second))
        })
        .collect()
}

/// Live bytes and live allocations per group once `spec` has been pushed
/// one event into each of [`GROUPS`] groups. The events' payloads exist
/// before the count starts and after it ends: what is counted is what the
/// operator adds to them.
fn per_group(spec: WindowSpec, shape: &std::sync::Arc<Schema>) -> (f64, f64) {
    let events = reports(shape, 1);
    let (bytes, allocs) = live();
    let mut op = WindowOperator::new(spec).unwrap();
    assert_eq!(live(), (bytes, allocs), "an operator with no groups has allocated nothing");
    for event in &events {
        assert_eq!(op.push(event.clone(), Timestamp::from_secs(1)).unwrap(), 0);
    }
    assert_eq!(op.group_count(), GROUPS as usize);
    let (held_bytes, held_allocs) = live();
    drop(op);
    ((held_bytes - bytes) as f64 / GROUPS as f64, (held_allocs - allocs) as f64 / GROUPS as f64)
}

#[test]
fn a_group_costs_its_key_its_events_and_a_position() {
    let shape = Schema::new(&["carid", "xway", "dir", "seg", "speed"]);
    let minute = Micros::from_secs(60);
    let by_segment = GroupBy::fields(&["carid", "xway", "dir", "seg"]);
    let by_car = || GroupBy::fields(&["carid"]);

    // 262 / 207 / 207 B: the 88-byte arena slot (key, counters, buffer
    // header; 90 with the last chunk's spare slots) + 13 B of directory
    // (16,384 eight-byte slots for 10,000 ids) + the key record (40 B and
    // 16 B a field) + one 48-byte event, and for the time port 7 B of ids
    // under the one deadline all its groups share. Three allocations a
    // group (the key record's two and the buffer) and a few dozen chunks.
    // With 24-byte tokens and 64-byte events they were 318 / 240 / 240 B;
    // with a 105-byte hash-map bucket at 61% load, a second copy of the key
    // and a four-slot buffer, 603 / 597 / 597 B.
    let (bytes, allocs) = per_group(WindowSpec::time(minute, minute).group_by(by_segment), &shape);
    assert!(bytes < 270.0, "time(60 s) by four fields: {bytes:.1} live bytes per group");
    assert!(allocs < 3.01, "time(60 s) by four fields: {allocs:.3} live allocations per group");
    let (bytes, allocs) = per_group(WindowSpec::tuples(2, 1).group_by(by_car()), &shape);
    assert!(bytes < 215.0, "tuples(2, 1) by carid: {bytes:.1} live bytes per group");
    assert!(allocs < 3.01, "tuples(2, 1) by carid: {allocs:.3} live allocations per group");
    let (bytes, allocs) = per_group(WindowSpec::tuples(4, 1).group_by(by_car()), &shape);
    assert!(bytes < 215.0, "tuples(4, 1) by carid: {bytes:.1} live bytes per group");
    assert!(allocs < 3.01, "tuples(4, 1) by carid: {allocs:.3} live allocations per group");

    // Ten minutes of an ordered port (one upstream channel), a thousand
    // new groups a minute: each minute's groups are evicted by the next
    // minute's first report, and their slots, directory positions and
    // queues serve the groups that follow.
    let mut b = WorkflowBuilder::new("minutes");
    let source = b.add_actor("source", VecSource::new(vec![]));
    let sink = b.add_actor("sink", Collector::new().actor());
    let spec = WindowSpec::time(minute, minute).group_by(by_car());
    b.link_windowed((source, "out"), (sink, "in"), spec).unwrap();
    let workflow = b.build().unwrap();
    let fabric = Fabric::build(&workflow).unwrap();
    let mut held = [0; 10];
    for minute in 0..10u64 {
        let burst: Vec<(usize, Token)> = reports(&shape, 0)
            .into_iter()
            .skip(minute as usize * 1_000)
            .take(1_000)
            .map(|event| (0, event.token))
            .collect();
        fabric.route(source, burst, None, Timestamp::from_secs(minute * 60 + 30)).unwrap();
        assert_eq!(fabric.receivers(sink)[0].group_count(), 1_000, "minute {minute}");
        assert_eq!(fabric.receivers(sink)[0].poll(Timestamp::from_secs(minute * 60 + 60)), 1_000);
        assert_eq!(fabric.inbox(sink).drain_windows().len(), 1_000);
        held[minute as usize] = live().0;
    }
    // The first eviction starts the list of vacant slots (four bytes an
    // id); from then on nothing grows.
    assert!(
        held[9] <= held[1] && held[1] - held[0] <= 4 * 1024,
        "live bytes after each minute's close: {held:?}"
    );
}
