//! What writing and reading a checkpoint holds beside the checkpoint
//! itself, counted by a global allocator: the write streams through bounded
//! buffers and never builds the whole image, the read decodes frame by frame
//! and never holds the whole file, records decoded from different frames
//! share one schema per field-name list, and a record that sits in several
//! groups is decoded once and shared again.
//!
//! One test function: the counters are process-wide, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::Arc;

use confluence_core::checkpoint::{ActorFabricState, Checkpoint, FabricState, SNAPSHOT_FILE};
use confluence_core::event::CwEvent;
use confluence_core::time::Timestamp;
use confluence_core::token::{Record, Schema, Token};
use confluence_core::window::{GroupSnapshot, OperatorSnapshot, Window};

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

const KIB: isize = 1024;

/// A fabric the shape of a Linear Road snapshot's: many small groups of
/// position reports, all of one record shape, beside a few queued windows,
/// a large source state and a store image.
fn checkpoint() -> Checkpoint {
    let report = Schema::new(&["carid", "xway", "dir", "seg", "speed"]);
    let key = Schema::new(&["carid"]);
    let event = |car: i64, second: u64| {
        let values: [Token; 5] =
            [car.into(), 0.into(), (car % 2).into(), (car % 100).into(), 55.into()];
        CwEvent::external(report.record(values), Timestamp::from_secs(second))
    };
    let window = |car: i64| Window {
        group: key.record([Token::Int(car)]),
        events: (0..8).map(|s| event(car, s)).collect(),
        formed_at: Timestamp::from_secs(8),
        timed_out: false,
    };
    let groups = (0..20_000)
        .map(|car| GroupSnapshot::Tuples {
            key: key.record([Token::Int(car)]),
            events: vec![event(car, 1), event(car, 2)],
            front_seq: 0,
            next_seq: 2,
            next_start: 0,
        })
        .collect();
    let port = OperatorSnapshot {
        groups,
        ready: (0..50).map(window).collect(),
        expired: (0..1_000).map(|car| event(car, 0)).collect(),
    };
    Checkpoint {
        actors: vec![("source".into(), vec![7; 300 << 10]), ("sink".into(), vec![1; 1_000])],
        fabric: FabricState {
            actors: vec![
                ActorFabricState {
                    inbox: (0..100).map(|car| (0, window(car))).collect(),
                    ports: vec![port],
                },
                ActorFabricState::default(),
            ],
        },
        resources: vec![("relstore".into(), vec![3; 200 << 10])],
    }
}

/// A fabric the shape of Linear Road's windowed receivers: four ports
/// group the same position reports by car, so each report sits in four
/// groups, and one ready window holds some of them a fifth time.
fn shared_checkpoint() -> Checkpoint {
    let report = Schema::new(&["carid", "xway", "dir", "seg", "speed"]);
    let key = Schema::new(&["carid"]);
    let reports: Vec<Vec<CwEvent>> = (0..5_000i64)
        .map(|car| {
            (0..4)
                .map(|second| {
                    let values: [Token; 5] =
                        [car.into(), 0.into(), (car % 2).into(), (car % 100).into(), 55.into()];
                    CwEvent::external(report.record(values), Timestamp::from_secs(second))
                })
                .collect()
        })
        .collect();
    let port = |_| OperatorSnapshot {
        groups: reports
            .iter()
            .enumerate()
            .map(|(car, events)| GroupSnapshot::Tuples {
                key: key.record([Token::Int(car as i64)]),
                events: events.clone(),
                front_seq: 0,
                next_seq: 4,
                next_start: 0,
            })
            .collect(),
        ready: vec![Window {
            group: Token::Unit,
            events: reports[..100].concat(),
            formed_at: Timestamp::from_secs(4),
            timed_out: false,
        }],
        expired: Vec::new(),
    };
    Checkpoint {
        actors: Vec::new(),
        fabric: FabricState {
            actors: vec![ActorFabricState {
                inbox: Vec::new(),
                ports: (0..4).map(port).collect(),
            }],
        },
        resources: Vec::new(),
    }
}

fn record_of(token: &Token) -> &Arc<Record> {
    match token {
        Token::Record(record) => record,
        other => panic!("not a record: {other:?}"),
    }
}

fn schema_of(token: &Token) -> &Arc<Schema> {
    record_of(token).schema()
}

#[test]
fn checkpoints_stream_through_bounded_buffers() {
    let dir =
        std::env::temp_dir().join(format!("confluence-ckpt-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let start = restart();
    let cp = checkpoint();
    let built = LIVE_BYTES.load(Relaxed) - start;

    // Writing holds a 64 KiB file buffer and one frame, and the image is
    // never built whole; the allowance for the largest actor state covers
    // nothing the writer does today.
    let start = restart();
    cp.write_to_dir(&dir).unwrap();
    let write_rise = PEAK_BYTES.load(Relaxed) - start;
    let file = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len() as isize;
    assert!(file >= 4 << 20, "the checkpoint is {file} bytes");
    let largest_state = cp.actors.iter().map(|(_, state)| state.len()).max().unwrap() as isize;
    assert!(
        write_rise <= 256 * KIB + largest_state,
        "writing a {file}-byte checkpoint held {write_rise} bytes at its peak"
    );

    // Reading holds what it returns, a 64 KiB file buffer, one frame and
    // the schema cache: the file never sits in memory whole.
    let start = restart();
    let back = Checkpoint::read_from_dir(&dir).unwrap();
    let decoded = LIVE_BYTES.load(Relaxed) - start;
    let read_rise = PEAK_BYTES.load(Relaxed) - start;
    assert!(
        read_rise <= decoded + 256 * KIB,
        "reading a {file}-byte checkpoint into {decoded} bytes held {read_rise} at its peak"
    );

    // Recovered state is as compact as live state: the decoder's schema
    // cache spans frames, so every report decoded shares one schema.
    assert!(
        decoded <= built + built / 20,
        "decoded {decoded} bytes from a checkpoint built in {built}"
    );
    let groups = &back.fabric.actors[0].ports[0].groups;
    let (GroupSnapshot::Tuples { events: first, .. }, GroupSnapshot::Tuples { events: last, .. }) =
        (&groups[0], &groups[groups.len() - 1])
    else {
        panic!("tuple groups round-trip as tuple groups");
    };
    assert!(Arc::ptr_eq(schema_of(&first[0].token), schema_of(&last[0].token)));
    assert_eq!(back, cp);
    drop((cp, back));

    // A record several groups share is written once and comes back shared,
    // so recovered state is as compact as live state here too.
    let start = restart();
    let cp = shared_checkpoint();
    let built = LIVE_BYTES.load(Relaxed) - start;
    cp.write_to_dir(&dir).unwrap();
    let start = restart();
    let back = Checkpoint::read_from_dir(&dir).unwrap();
    let decoded = LIVE_BYTES.load(Relaxed) - start;
    assert!(
        decoded <= built + built / 20,
        "decoded {decoded} bytes from a shared checkpoint built in {built}"
    );
    let group_events = |port: usize| match &back.fabric.actors[0].ports[port].groups[7] {
        GroupSnapshot::Tuples { events, .. } => events,
        other => panic!("tuple groups round-trip as tuple groups: {other:?}"),
    };
    assert!(Arc::ptr_eq(
        record_of(&group_events(0)[2].token),
        record_of(&group_events(3)[2].token)
    ));
    assert_eq!(back, cp);
    let _ = std::fs::remove_dir_all(&dir);
}
