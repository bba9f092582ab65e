//! Property tests of the relational store: index/scan equivalence, upsert
//! semantics, and aggregate consistency under random operation sequences.

use proptest::prelude::*;

use confluence_relstore::expr::{col, lit};
use confluence_relstore::{Agg, IndexRef, IndexStats, PlanNode, Schema, Table, Value, ValueType};

fn fresh_table(with_index: bool) -> Table {
    let schema = Schema::builder()
        .column("k", ValueType::Int)
        .column("g", ValueType::Int)
        .column("v", ValueType::Int)
        .nullable_column("w", ValueType::Float)
        .primary_key(&["k"])
        .build()
        .unwrap();
    let mut t = Table::new(schema);
    if with_index {
        t.create_index(&["g"]).unwrap();
        t.create_ordered_index(&["g"], "v").unwrap();
        t.create_ordered_index(&["g"], "w").unwrap();
    }
    t
}

/// A number for the `w` column: small ints, halves and whole floats that
/// tie with them, and both kinds around 2^53, where widening an int to f64
/// rounds.
fn number() -> impl Strategy<Value = Value> {
    const P: i64 = 1 << 53;
    prop_oneof![
        (0..8i64).prop_map(Value::Int),
        (0..16i64).prop_map(|n| Value::Float(n as f64 / 2.0)),
        (0..4i64).prop_map(|d| Value::Int(P + d)),
        (0..2i64).prop_map(|d| Value::Float((P + 2 * d) as f64)),
    ]
}

/// A `w` cell: NULL one time in five, else a [`number`].
fn w_value() -> impl Strategy<Value = Value> {
    (0..5, number()).prop_map(|(i, n)| if i == 0 { Value::Null } else { n })
}

/// Random operations over a small key space so collisions happen.
#[derive(Debug, Clone)]
enum Op {
    Upsert { k: i64, g: i64, v: i64, w: Value },
    Delete { g: i64 },
    UpdateV { g: i64, v: i64 },
    /// Moves rows between index keys in place.
    UpdateG { v: i64, g: i64 },
    /// Moves rows within the `w` index's partition.
    UpdateW { g: i64, w: Value },
    Clear,
    /// Fill keys `100..100 + rows`, then delete most of them: more than 64
    /// dead slots and more dead than live, which is what compacts a table.
    Churn { rows: i64, keep: i64 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..30i64, 0..5i64, 0..100i64, w_value()).prop_map(|(k, g, v, w)| Op::Upsert { k, g, v, w }),
            (0..5i64).prop_map(|g| Op::Delete { g }),
            (0..5i64, 0..100i64).prop_map(|(g, v)| Op::UpdateV { g, v }),
            (0..100i64, 0..5i64).prop_map(|(v, g)| Op::UpdateG { v, g }),
            (0..5i64, w_value()).prop_map(|(g, w)| Op::UpdateW { g, w }),
        ],
        0..80,
    )
}

/// Random operations around a compaction, now and then cleared.
fn churned_ops() -> impl Strategy<Value = Vec<Op>> {
    (ops(), 140..220i64, 0..40i64, 0..6usize, ops()).prop_map(|(before, rows, keep, clear, after)| {
        let mut all = before;
        all.push(Op::Churn { rows, keep });
        if clear == 0 {
            all.push(Op::Clear);
        }
        all.extend(after);
        all
    })
}

fn apply(t: &mut Table, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Upsert { k, g, v, w } => {
                t.upsert(vec![(*k).into(), (*g).into(), (*v).into(), w.clone()]).unwrap();
            }
            Op::Delete { g } => {
                t.delete_where(&col("g").eq(lit(*g))).unwrap();
            }
            Op::UpdateV { g, v } => {
                t.update_where(&col("g").eq(lit(*g)), &[("v", (*v).into())])
                    .unwrap();
            }
            Op::UpdateG { v, g } => {
                t.update_where(&col("v").ge(lit(*v)), &[("g", (*g).into())])
                    .unwrap();
            }
            Op::UpdateW { g, w } => {
                t.update_where(&col("g").eq(lit(*g)), &[("w", w.clone())]).unwrap();
            }
            Op::Clear => t.clear(),
            Op::Churn { rows, keep } => {
                for k in 100..100 + rows {
                    let w = [Value::Null, (k % 4).into(), (k as f64 % 4.0 + 0.5).into()];
                    t.upsert(vec![k.into(), (k % 5).into(), (k % 7).into(), w[k as usize % 3].clone()])
                        .unwrap();
                }
                let doomed = col("k").ge(lit(100 + keep));
                assert_eq!(t.delete_where(&doomed).unwrap() as i64, rows - keep);
            }
        }
    }
}

/// What `stats()` should say of `fresh_table(true)`, counted from its rows.
fn recount(t: &Table) -> (usize, [IndexStats; 3], usize) {
    let mut gs = std::collections::BTreeSet::new();
    let mut gvs = std::collections::BTreeSet::new();
    let mut gws = std::collections::BTreeSet::new();
    for row in t.iter() {
        gs.insert(row[1].clone());
        gvs.insert((row[1].clone(), row[2].clone()));
        gws.insert((row[1].clone(), row[3].clone()));
    }
    let entries = t.iter().count();
    let stats = |keys: usize| IndexStats { entries, distinct_keys: keys };
    (entries, [stats(gs.len()), stats(gvs.len()), stats(gws.len())], gs.len())
}

proptest! {
    /// A table with a secondary index and one without produce identical
    /// query results after any operation sequence — the index is purely an
    /// access path.
    #[test]
    fn indexed_and_unindexed_tables_agree(ops in ops(), probe_g in 0..5i64) {
        let mut indexed = fresh_table(true);
        let mut plain = fresh_table(false);
        apply(&mut indexed, &ops);
        apply(&mut plain, &ops);

        prop_assert_eq!(indexed.len(), plain.len());
        let pred = col("g").eq(lit(probe_g));
        let mut a = indexed.select(Some(&pred)).unwrap();
        let mut b = plain.select(Some(&pred)).unwrap();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);

        let agg_a = indexed.aggregate(Some(&pred), &Agg::Sum("v".into())).unwrap();
        let agg_b = plain.aggregate(Some(&pred), &Agg::Sum("v".into())).unwrap();
        prop_assert_eq!(agg_a, agg_b);
    }

    /// Across in-place key moves, a clear and a compaction, the indexed
    /// table answers like the unindexed one, row for row, and its
    /// maintained statistics equal a recount of its rows.
    #[test]
    fn indexes_and_stats_survive_churn(ops in churned_ops(), probe_g in 0..5i64, lo in 0..7i64) {
        let mut indexed = fresh_table(true);
        let mut plain = fresh_table(false);
        apply(&mut indexed, &ops);
        apply(&mut plain, &ops);

        for pred in [
            col("g").eq(lit(probe_g)),
            col("g").eq(lit(probe_g)).and(col("v").between(lit(lo), lit(lo + 2))),
            col("g").in_list(vec![lit(probe_g), lit(4 - probe_g)]),
        ] {
            prop_assert_eq!(indexed.select(Some(&pred)).unwrap(), plain.select(Some(&pred)).unwrap());
        }
        prop_assert_eq!(
            indexed.group_by(None, &["g"], &[Agg::Count, Agg::Max("v".into())]).unwrap(),
            plain.group_by(None, &["g"], &[Agg::Count, Agg::Max("v".into())]).unwrap()
        );
        let rows: Vec<&[Value]> = indexed.iter().collect();
        prop_assert_eq!(rows, plain.iter().collect::<Vec<_>>());
        for row in indexed.iter() {
            prop_assert_eq!(indexed.get(&row[..1]), Some(row));
        }

        let (entries, counted, partitions) = recount(&indexed);
        let stats = indexed.stats();
        prop_assert_eq!(stats.rows, entries);
        prop_assert_eq!(indexed.len(), entries);
        for (view, counted) in stats.indexes.iter().zip(counted) {
            prop_assert_eq!(view.stats, counted, "{}", view.label);
            prop_assert_eq!(view.partitions, partitions, "{}", view.label);
        }
    }

    /// An ordered index over a nullable column of mixed ints and floats
    /// answers bounded and one-sided ranges like a scan, serves the grouping
    /// over its columns like the plain table, and keeps its statistics.
    #[test]
    fn ordered_index_over_nullable_mixed_numbers(
        ops in churned_ops(),
        probe_g in 0..5i64,
        lo in number(),
        hi in number(),
    ) {
        let mut indexed = fresh_table(true);
        let mut plain = fresh_table(false);
        apply(&mut indexed, &ops);
        apply(&mut plain, &ops);

        let g = || col("g").eq(lit(probe_g));
        let (lo, hi) = (|| lit(lo.clone()), || lit(hi.clone()));
        for range in [
            col("w").between(lo(), hi()),
            col("w").gt(lo()).and(col("w").lt(hi())),
            col("w").ge(lo()),
            col("w").gt(lo()),
            col("w").le(hi()),
            col("w").lt(hi()),
        ] {
            let pred = g().and(range);
            // Beyond 16 rows a range over part of a partition beats both the
            // scan and the whole-partition probes.
            if indexed.len() > 16 {
                let node = indexed.plan(Some(&pred)).node;
                prop_assert!(matches!(node, PlanNode::IndexRange { index: 1, .. }), "{}", node);
            }
            prop_assert_eq!(indexed.select(Some(&pred)).unwrap(), plain.select(Some(&pred)).unwrap());
        }
        let pred = g().and(col("w").eq(lo()));
        prop_assert_eq!(indexed.select(Some(&pred)).unwrap(), plain.select(Some(&pred)).unwrap());

        let node = indexed.plan_group_by(None, &["g", "w"]).map(|p| p.node);
        prop_assert!(matches!(node, Some(PlanNode::GroupByIndex { index: IndexRef::Ordered(1), .. })));
        let aggs = [Agg::Count, Agg::Sum("v".into()), Agg::Min("w".into()), Agg::Max("w".into())];
        for pred in [None, Some(col("v").ge(lit(50)))] {
            prop_assert_eq!(
                indexed.group_by(pred.as_ref(), &["g", "w"], &aggs).unwrap(),
                plain.group_by(pred.as_ref(), &["g", "w"], &aggs).unwrap()
            );
        }

        let (entries, [_, _, by_w], partitions) = recount(&indexed);
        let view = &indexed.stats().indexes[2];
        prop_assert_eq!(view.stats, by_w);
        prop_assert_eq!(view.stats.entries, entries);
        prop_assert_eq!(view.partitions, partitions);
    }

    /// Upsert keeps exactly one row per key and the last write wins.
    #[test]
    fn upsert_last_write_wins(writes in prop::collection::vec((0..10i64, 0..100i64), 1..60)) {
        let mut t = fresh_table(true);
        let mut model: std::collections::HashMap<i64, i64> = Default::default();
        for (k, v) in &writes {
            t.upsert(vec![(*k).into(), 0.into(), (*v).into(), Value::Null]).unwrap();
            model.insert(*k, *v);
        }
        prop_assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            let row = t.get(&[(*k).into()]).expect("key present");
            prop_assert_eq!(row[2].clone(), Value::Int(*v));
        }
    }

    /// COUNT/SUM/AVG/MIN/MAX agree with a direct fold over `select`.
    #[test]
    fn aggregates_match_direct_fold(ops in ops()) {
        let mut t = fresh_table(true);
        apply(&mut t, &ops);
        let rows = t.select(None).unwrap();
        let vals: Vec<i64> = rows.iter().map(|r| r[2].as_int().unwrap()).collect();
        prop_assert_eq!(
            t.aggregate(None, &Agg::Count).unwrap(),
            Value::Int(vals.len() as i64)
        );
        if vals.is_empty() {
            prop_assert_eq!(t.aggregate(None, &Agg::Sum("v".into())).unwrap(), Value::Null);
            prop_assert_eq!(t.aggregate(None, &Agg::Min("v".into())).unwrap(), Value::Null);
        } else {
            let sum: i64 = vals.iter().sum();
            prop_assert_eq!(
                t.aggregate(None, &Agg::Sum("v".into())).unwrap(),
                Value::Float(sum as f64)
            );
            prop_assert_eq!(
                t.aggregate(None, &Agg::Avg("v".into())).unwrap(),
                Value::Float(sum as f64 / vals.len() as f64)
            );
            prop_assert_eq!(
                t.aggregate(None, &Agg::Min("v".into())).unwrap(),
                Value::Int(*vals.iter().min().unwrap())
            );
            prop_assert_eq!(
                t.aggregate(None, &Agg::Max("v".into())).unwrap(),
                Value::Int(*vals.iter().max().unwrap())
            );
        }
    }

    /// The ordered composite index answers eq+range queries identically to
    /// a plain scan after arbitrary mutations.
    #[test]
    fn ordered_index_matches_scan(ops in ops(), probe_g in 0..5i64, lo in 0..60i64, width in 0..60i64) {
        let mut indexed = fresh_table(true);
        let mut plain = fresh_table(false);
        apply(&mut indexed, &ops);
        apply(&mut plain, &ops);
        let pred = col("g")
            .eq(lit(probe_g))
            .and(col("v").between(lit(lo), lit(lo + width)));
        let mut a = indexed.select(Some(&pred)).unwrap();
        let mut b = plain.select(Some(&pred)).unwrap();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Group-by partitions `select`: group sizes sum to the table size and
    /// each group's aggregate matches a filtered aggregate.
    #[test]
    fn group_by_partitions(ops in ops()) {
        let mut t = fresh_table(true);
        apply(&mut t, &ops);
        let groups = t.group_by(None, &["g"], &[Agg::Count, Agg::Sum("v".into())]).unwrap();
        let total: i64 = groups.iter().map(|(_, aggs)| match aggs[0] {
            Value::Int(n) => n,
            _ => unreachable!(),
        }).sum();
        prop_assert_eq!(total as usize, t.len());
        for (key, aggs) in &groups {
            let pred = col("g").eq(confluence_relstore::expr::Expr::Lit(key[0].clone()));
            prop_assert_eq!(
                aggs[1].clone(),
                t.aggregate(Some(&pred), &Agg::Sum("v".into())).unwrap()
            );
        }
    }
}
