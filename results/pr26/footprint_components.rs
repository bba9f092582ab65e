//! Live bytes per row by component, for DESIGN.md's "Relational store: what a
//! table keeps per row" table. Run it as a temporary integration test of
//! `confluence-relstore` on each side (it uses only the public API):
//!
//!     cp results/pr26/footprint_components.rs crates/confluence-relstore/tests/
//!     cargo test --release -p confluence-relstore --test footprint_components -- --nocapture
//!     rm crates/confluence-relstore/tests/footprint_components.rs
//!
//! A `minute_speeds`-shaped table (five integer columns, four of them the
//! primary key) of 96k rows, minute by minute as the statistics arrive; each
//! component is the difference between two builds of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use confluence_relstore::{Schema, Table, ValueType};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
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

const ROWS: i64 = 96_000;

/// Bytes per row of a filled table with the primary key if `pk`, and the
/// indexes `declare` adds.
fn per_row(pk: bool, declare: impl Fn(&mut Table)) -> f64 {
    let before = LIVE_BYTES.load(Relaxed);
    let mut schema = Schema::builder()
        .column("xway", ValueType::Int)
        .column("dir", ValueType::Int)
        .column("seg", ValueType::Int)
        .column("minute", ValueType::Int)
        .column("cars", ValueType::Int);
    if pk {
        schema = schema.primary_key(&["xway", "dir", "seg", "minute"]);
    }
    let mut table = Table::new(schema.build().unwrap());
    declare(&mut table);
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
    let bytes = (LIVE_BYTES.load(Relaxed) - before) as f64 / ROWS as f64;
    drop(table);
    bytes
}

#[test]
fn components() {
    let rows = per_row(false, |_| {});
    let pk = per_row(true, |_| {});
    let secondary = per_row(true, |t| t.create_index(&["xway", "dir", "seg"]).unwrap());
    let ordered = per_row(true, |t| {
        t.create_ordered_index(&["xway", "dir", "seg"], "minute").unwrap()
    });
    let all = per_row(true, |t| {
        t.create_index(&["xway", "dir", "seg"]).unwrap();
        t.create_ordered_index(&["xway", "dir", "seg"], "minute").unwrap();
    });
    println!("row storage            {rows:6.1} B");
    println!("primary key            {:6.1} B", pk - rows);
    println!("secondary (xway,dir,seg) {:6.1} B", secondary - pk);
    println!("ordered (xway,dir,seg)->minute {:6.1} B", ordered - pk);
    println!("all four               {all:6.1} B");
}
