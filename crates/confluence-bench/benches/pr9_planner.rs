//! PR 9 planner guard: the cost-based query planner's index paths must
//! beat the full-scan fallback by at least 2x while returning byte-for-byte
//! identical answers. Three comparisons:
//!
//! 1. *OR/IN decomposition*: an IN-list over an indexed column, decomposed
//!    into per-value probes unioned positionally, vs the same query on an
//!    index-free table.
//! 2. *Grouped aggregation*: `group_by` streamed off a covering secondary
//!    index vs hash-grouping a full scan.
//! 3. *Cost-based choice*: a predicate binding two indexes where the first
//!    declared one is nearly useless (2 distinct keys); the cost model must
//!    pick the selective index and beat a table that only has the first.
//!
//! Besides printing each comparison, the harness writes a machine-readable
//! summary to `results/BENCH_pr9.json` (skipped under
//! `cargo bench -- --test` smoke mode, which also shrinks the tables; the
//! correctness cross-checks always run).

use std::time::Instant;

use confluence_relstore::expr::{col, lit};
use confluence_relstore::{Agg, PlanNode, Schema, Table, ValueType};

struct Comparison {
    label: &'static str,
    rows: usize,
    planned_us: f64,
    scan_us: f64,
    speedup: f64,
}

fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// `(k, seg, grp, val)` rows; `n` large enough that per-row work dominates.
fn fill(t: &mut Table, n: usize) {
    for i in 0..n as i64 {
        t.insert(vec![
            i.into(),
            (i % 1_000).into(),
            (i % 100).into(),
            (i % 97).into(),
        ])
        .unwrap();
    }
}

fn schema() -> Schema {
    Schema::builder()
        .column("k", ValueType::Int)
        .column("seg", ValueType::Int)
        .column("grp", ValueType::Int)
        .column("val", ValueType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap()
}

fn or_in_union(n: usize, iters: usize) -> Comparison {
    let mut indexed = Table::new(schema());
    indexed.create_index(&["seg"]).unwrap();
    let mut scan = Table::new(schema());
    fill(&mut indexed, n);
    fill(&mut scan, n);

    let segs = [3i64, 50, 120, 333, 421, 555, 700, 801, 930];
    let pred = col("seg").in_list(segs.iter().map(|&s| lit(s)).collect());

    let plan = indexed.plan(Some(&pred));
    match &plan.node {
        PlanNode::IndexUnion { arms } => assert_eq!(arms.len(), segs.len()),
        other => panic!("expected an IndexUnion plan, got {other}"),
    }
    let a = indexed.select(Some(&pred)).unwrap();
    let b = scan.select(Some(&pred)).unwrap();
    assert_eq!(a, b, "union answer diverges from scan");
    assert!(!a.is_empty());

    let planned_us = time_us(iters, || {
        indexed.select(Some(&pred)).unwrap();
    });
    let scan_us = time_us(iters, || {
        scan.select(Some(&pred)).unwrap();
    });
    Comparison {
        label: "or_in_union",
        rows: n,
        planned_us,
        scan_us,
        speedup: scan_us / planned_us,
    }
}

fn grouped_aggregate(n: usize, iters: usize) -> Comparison {
    let mut indexed = Table::new(schema());
    indexed.create_index(&["grp"]).unwrap();
    let mut scan = Table::new(schema());
    fill(&mut indexed, n);
    fill(&mut scan, n);

    let aggs = [Agg::Count, Agg::Sum("val".into()), Agg::Max("val".into())];
    let plan = indexed
        .plan_group_by(None, &["grp"])
        .expect("covering index fits");
    assert!(matches!(plan.node, PlanNode::GroupByIndex { .. }));
    let a = indexed.group_by(None, &["grp"], &aggs).unwrap();
    let b = scan.group_by(None, &["grp"], &aggs).unwrap();
    assert_eq!(a, b, "grouped answer diverges from scan");
    assert_eq!(a.len(), 100.min(n));

    let planned_us = time_us(iters, || {
        indexed.group_by(None, &["grp"], &aggs).unwrap();
    });
    let scan_us = time_us(iters, || {
        scan.group_by(None, &["grp"], &aggs).unwrap();
    });
    Comparison {
        label: "grouped_aggregate",
        rows: n,
        planned_us,
        scan_us,
        speedup: scan_us / planned_us,
    }
}

fn cost_based_choice(n: usize, iters: usize) -> Comparison {
    // `grp % 2` has 2 distinct values — a nearly useless bucket index —
    // and it is declared FIRST. A first-match planner would stop there;
    // the cost model must keep scoring and take the selective `seg` index.
    let coarse_pred = col("grp").eq(lit(1)).and(col("seg").eq(lit(777)));
    let mut costpick = Table::new(schema());
    costpick.create_index(&["grp"]).unwrap();
    costpick.create_index(&["seg"]).unwrap();
    let mut firstmatch = Table::new(schema());
    firstmatch.create_index(&["grp"]).unwrap();
    fill(&mut costpick, n);
    fill(&mut firstmatch, n);

    let plan = costpick.plan(Some(&coarse_pred));
    match &plan.node {
        PlanNode::IndexEq { label, .. } => {
            assert_eq!(&**label, "secondary(seg)", "cost model must skip the coarse index")
        }
        other => panic!("expected an IndexEq plan, got {other}"),
    }
    let a = costpick.select(Some(&coarse_pred)).unwrap();
    let b = firstmatch.select(Some(&coarse_pred)).unwrap();
    assert_eq!(a, b, "cost-picked answer diverges from coarse-index answer");

    let planned_us = time_us(iters, || {
        costpick.select(Some(&coarse_pred)).unwrap();
    });
    let scan_us = time_us(iters, || {
        firstmatch.select(Some(&coarse_pred)).unwrap();
    });
    Comparison {
        label: "cost_based_choice",
        rows: n,
        planned_us,
        scan_us,
        speedup: scan_us / planned_us,
    }
}

fn main() {
    let smoke = criterion::is_test_mode();
    let (n, iters) = if smoke { (5_000, 5) } else { (200_000, 40) };
    println!("pr9 planner guard: {n} rows per table, {iters} iters per measurement");
    println!(
        "{:<18}  {:>10}  {:>12}  {:>12}  {:>8}",
        "comparison", "rows", "planned_us", "scan_us", "speedup"
    );
    let comparisons = [
        or_in_union(n, iters),
        grouped_aggregate(n, iters),
        cost_based_choice(n, iters),
    ];
    for c in &comparisons {
        println!(
            "{:<18}  {:>10}  {:>12.1}  {:>12.1}  {:>7.2}x",
            c.label, c.rows, c.planned_us, c.scan_us, c.speedup
        );
    }
    println!("correctness: every planned path returned byte-identical answers");

    if smoke {
        println!("smoke mode (--test): shrunk tables, skipping BENCH_pr9.json and the 2x gates");
        return;
    }

    let mut json = String::from("{\n  \"pr\": 9,\n  \"comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"rows\": {}, \"planned_us\": {:.1}, \
             \"scan_us\": {:.1}, \"speedup\": {:.2}, \"answers_identical\": true}}",
            c.label, c.rows, c.planned_us, c.scan_us, c.speedup
        ));
    }
    json.push_str("\n  ],\n  \"gate\": \"each planner path >= 2x its scan fallback\"\n}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_pr9.json");
    std::fs::write(&path, json).expect("write BENCH_pr9.json");
    println!("wrote {}", path.display());

    for c in &comparisons {
        assert!(
            c.speedup >= 2.0,
            "{}: planner path must be >= 2x the fallback (got {:.2}x)",
            c.label,
            c.speedup
        );
    }
}
