//! What a table holds per row, counted by a global allocator: the rows
//! once, a typed 8-byte cell per column, and for each index a position per
//! row — no copy of a key, the ordered index's range value included.
//!
//! One test function: the counter is process-wide, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use confluence_relstore::{Schema, Table, ValueType};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter beside it touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The shape of Linear Road's `minute_speeds`: five integer columns, four
/// of them the primary key.
fn segment_table() -> Table {
    let schema = Schema::builder()
        .column("xway", ValueType::Int)
        .column("dir", ValueType::Int)
        .column("seg", ValueType::Int)
        .column("minute", ValueType::Int)
        .column("cars", ValueType::Int)
        .primary_key(&["xway", "dir", "seg", "minute"])
        .build()
        .unwrap();
    Table::new(schema)
}

#[test]
fn a_table_keeps_one_copy_of_each_row_and_positions_beside_it() {
    const ROWS: i64 = 50_000;
    let before = LIVE_BYTES.load(Relaxed);
    let mut table = segment_table();
    table
        .create_ordered_index(&["xway", "dir", "seg"], "minute")
        .unwrap();
    // Minute by minute, one row per segment, as the statistics arrive.
    for i in 0..ROWS {
        let (minute, seg) = (i / 800, i % 800);
        let row = vec![
            (seg / 200).into(),
            (seg / 100 % 2).into(),
            (seg % 100).into(),
            minute.into(),
            i.into(),
        ];
        table.insert(row).unwrap();
    }
    let per_row = (LIVE_BYTES.load(Relaxed) - before) as f64 / ROWS as f64;
    // 78 B here: 40 B of cells (five 8-byte integers, a vector per
    // column), which the doubling vectors hold 52 B of capacity for at this
    // row count (their slackest; 44 B at 60k rows), 21 B of primary-key
    // slots, and 5 B of ordered entries: a `u32` per row in a vector per
    // partition, with the vectors' own slack. With five 16-byte `Value`s a
    // row end to end it was 132 B; with 24-byte cells and a 32-byte
    // `(Value, u32)` B-tree entry per row, 241 B; with a key copy per row
    // in the primary-key index as well, 413 B.
    assert!(per_row < 81.0, "{per_row:.1} live bytes per row");
    assert_eq!(table.len(), ROWS as usize);
    drop(table);

    let mut table = segment_table();
    let bare = LIVE_BYTES.load(Relaxed);
    table.create_index(&["xway", "dir", "seg"]).unwrap();
    table
        .create_ordered_index(&["xway", "dir", "seg"], "minute")
        .unwrap();
    table
        .create_ordered_index(&["xway", "dir"], "minute")
        .unwrap();
    table.create_index(&["xway", "seg"]).unwrap();
    let declared = LIVE_BYTES.load(Relaxed) - bare;
    // Column lists and labels; nothing is set aside for entries to come.
    assert!(
        declared < 1024,
        "{declared} live bytes for four empty indexes"
    );
}
