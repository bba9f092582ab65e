//! Property tests of the query planner: for random tables, index sets, and
//! queries, every planned access path (point probes, range scans,
//! covering-index group-bys) and every residual (`OR`, `IN`) must return
//! byte-identical results — same rows, same order — as an index-free
//! full-scan reference table that went through the same mutations.

use proptest::prelude::*;

use confluence_relstore::expr::{col, lit};
use confluence_relstore::{Agg, Expr, Order, Query, Schema, Table, ValueType};

/// `index_config` is a bitmask selecting which of three indexes exist, so
/// the planner faces every subset of access paths.
fn make_table(index_config: u8) -> Table {
    let schema = Schema::builder()
        .column("k", ValueType::Int)
        .column("a", ValueType::Int)
        .column("b", ValueType::Int)
        .column("v", ValueType::Int)
        .primary_key(&["k"])
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    if index_config & 1 != 0 {
        t.create_index(&["a"]).unwrap();
    }
    if index_config & 2 != 0 {
        t.create_index(&["a", "b"]).unwrap();
    }
    if index_config & 4 != 0 {
        t.create_ordered_index(&["a"], "v").unwrap();
    }
    t
}

/// Upserts (small key space, so slot reuse happens) followed by a planned
/// delete, leaving both tables with identical storage layouts.
fn seed(t: &mut Table, rows: &[(i64, i64, i64, i64)], evict: &Expr) {
    for (k, a, b, v) in rows {
        t.upsert(vec![(*k).into(), (*a).into(), (*b).into(), (*v).into()])
            .unwrap();
    }
    t.delete_where(evict).unwrap();
}

fn rows() -> impl Strategy<Value = Vec<(i64, i64, i64, i64)>> {
    prop::collection::vec((0..40i64, 0..4i64, 0..6i64, 0..50i64), 1..60)
}

fn leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0..4i64).prop_map(|x| col("a").eq(lit(x))),
        (0..6i64).prop_map(|x| col("b").eq(lit(x))),
        (0..40i64).prop_map(|x| col("k").eq(lit(x))),
        (0..50i64, 0..30i64).prop_map(|(lo, w)| col("v").between(lit(lo), lit(lo + w))),
        (0..50i64).prop_map(|x| col("v").gt(lit(x))),
        (0..50i64).prop_map(|x| col("v").le(lit(x))),
        // IN-lists (duplicates allowed) and the ORs below are residuals:
        // filtered on whatever the rest of the predicate selected.
        (0..4i64, 0..4i64, 0..4i64)
            .prop_map(|(x, y, z)| col("a").in_list(vec![lit(x), lit(y), lit(z)])),
    ]
}

fn pred() -> impl Strategy<Value = Expr> {
    prop_oneof![
        leaf(),
        (leaf(), leaf()).prop_map(|(l, r)| l.and(r)),
        (leaf(), leaf()).prop_map(|(l, r)| l.or(r)),
        (leaf(), leaf(), leaf()).prop_map(|(p, q, r)| p.and(q).or(r)),
        (leaf(), leaf(), leaf()).prop_map(|(p, q, r)| p.or(q).and(r)),
    ]
}

const ALL_AGGS: [fn() -> Agg; 5] = [
    || Agg::Count,
    || Agg::Sum("v".into()),
    || Agg::Avg("v".into()),
    || Agg::Min("v".into()),
    || Agg::Max("v".into()),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `select` returns exactly the reference rows, in the same (storage)
    /// order, whatever access path the cost model picked — and the chosen
    /// plan always renders.
    #[test]
    fn planned_select_is_byte_identical(
        rows in rows(), config in 1..8u8, evict in leaf(), query in pred()
    ) {
        let mut indexed = make_table(config);
        let mut reference = make_table(0);
        seed(&mut indexed, &rows, &evict);
        seed(&mut reference, &rows, &evict);
        prop_assert_eq!(indexed.len(), reference.len());

        let a = indexed.select(Some(&query)).unwrap();
        let b = reference.select(Some(&query)).unwrap();
        prop_assert_eq!(a, b);
        prop_assert!(!indexed.plan(Some(&query)).to_string().is_empty());
    }

    /// Full queries — order_by, limit, projection — agree between planned
    /// and reference execution, including tie order under the stable sort.
    #[test]
    fn planned_query_matches_reference(
        rows in rows(), config in 1..8u8, evict in leaf(), query in pred(),
        order_col in 0..4usize, desc in 0..2u8, limit in 0..12usize, proj in 0..3u8
    ) {
        let mut indexed = make_table(config);
        let mut reference = make_table(0);
        seed(&mut indexed, &rows, &evict);
        seed(&mut reference, &rows, &evict);

        let cols = ["k", "a", "b", "v"];
        let order = if desc == 1 { Order::Desc } else { Order::Asc };
        let mut q = Query::from("t").filter(query).order_by(cols[order_col], order);
        if limit < 10 {
            q = q.limit(limit);
        }
        match proj {
            1 => q = q.project(&["v", "a"]),
            2 => q = q.project(&["a", "a"]),
            _ => {}
        }
        let a = q.execute_on(&indexed).unwrap();
        let b = q.execute_on(&reference).unwrap();
        prop_assert_eq!(a, b);
        prop_assert!(q.explain_on(&indexed).unwrap().starts_with("Query(t)"));
    }

    /// Aggregates (streamed off the planned path, residual-free or not)
    /// and grouped aggregates (with covering-index streaming) agree with
    /// the reference fold, including group emission order.
    #[test]
    fn planned_aggregates_match_reference(
        rows in rows(), config in 1..8u8, evict in leaf(), query in pred(), gsel in 0..3usize
    ) {
        let mut indexed = make_table(config);
        let mut reference = make_table(0);
        seed(&mut indexed, &rows, &evict);
        seed(&mut reference, &rows, &evict);

        for agg in ALL_AGGS {
            prop_assert_eq!(
                indexed.aggregate(Some(&query), &agg()).unwrap(),
                reference.aggregate(Some(&query), &agg()).unwrap()
            );
            prop_assert_eq!(
                indexed.aggregate(None, &agg()).unwrap(),
                reference.aggregate(None, &agg()).unwrap()
            );
        }

        let gcols: &[&str] = match gsel {
            0 => &["a"],
            1 => &["b"],
            _ => &["a", "b"],
        };
        let aggs = [Agg::Count, Agg::Sum("v".into()), Agg::Min("v".into())];
        prop_assert_eq!(
            indexed.group_by(Some(&query), gcols, &aggs).unwrap(),
            reference.group_by(Some(&query), gcols, &aggs).unwrap()
        );
        // Unfiltered group-by takes the covering-index path when one fits.
        prop_assert_eq!(
            indexed.group_by(None, gcols, &aggs).unwrap(),
            reference.group_by(None, gcols, &aggs).unwrap()
        );
    }
}
