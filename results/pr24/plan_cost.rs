//! Cost per call of the accident-notification read, in whichever formulation
//! the checkout it is built in has: the parent's 9-value IN-list over the
//! hash index `(xway, dir, seg)`, or this PR's `BETWEEN` over the ordered
//! index `(xway, dir) → seg`. Uses public names both sides have.
//!
//! Not part of the build: copy to `examples/plan_cost.rs` of a checkout and
//! `cargo run --release --offline --example plan_cost`.

use std::hint::black_box;
use std::time::Instant;

use confluence::linearroad::tables;
use confluence::relstore::{Query, StoreHandle};

const CALLS: u32 = 200_000;
const ROUNDS: usize = 7;

/// Median over rounds of the mean ns per call of `f(i)`.
fn ns_per_call(mut f: impl FnMut(i64)) -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..CALLS {
                f(i as i64);
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

fn main() {
    println!("accident rows | predicate build | + Table::plan | accident_nearby (whole call) | lav (whole call)");
    for rows in [0i64, 10, 1_000] {
        let store = StoreHandle::new();
        tables::create_tables(&store).expect("fresh store");
        for i in 0..rows {
            // Two expressways, both directions, all 100 segments, detection
            // times 0..rows: probes at time 60.. find some recent, some stale.
            let (xway, dir, seg) = (i % 2, i / 2 % 2, i * 7 % 100);
            tables::insert_accident(&store, xway, dir, seg, seg * 5_280 + i, i, 1, 2).expect("insert");
        }
        for minute in 0..10 {
            tables::write_minute_speed(&store, 0, 0, 7, minute, 40.0).expect("upsert");
        }
        let probe = |i: i64| (i % 2, i / 2 % 2, i * 13 % 100, 60 + i % 600);
        let build = ns_per_call(|i| {
            let (x, d, s, t) = probe(i);
            black_box(tables::accident_nearby_predicate(x, d, s, t));
        });
        let plan = ns_per_call(|i| {
            let (x, d, s, t) = probe(i);
            let pred = tables::accident_nearby_predicate(x, d, s, t);
            store.read(|st| black_box(st.table("accidents").expect("table").plan(Some(&pred))));
        });
        let call = ns_per_call(|i| {
            let (x, d, s, t) = probe(i);
            black_box(tables::accident_nearby(&store, x, d, s, t).expect("read"));
        });
        let lav = ns_per_call(|i| {
            black_box(tables::lav(&store, 0, 0, 7, 5 + i % 5).expect("read"));
        });
        println!("{rows:>13} | {build:>12.0} ns | {plan:>10.0} ns | {call:>25.0} ns | {lav:>13.0} ns");
        if rows == 1_000 {
            let q = Query::from("accidents").filter(tables::accident_nearby_predicate(0, 0, 8, 150));
            println!("{}", store.read(|st| q.explain(st)).expect("explain"));
        }
    }
}
