//! Property tests of the relational store: index/scan equivalence, upsert
//! semantics, aggregate consistency, failed mutations that change nothing,
//! and cells that come back exactly as written, under random operation
//! sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;

use confluence_core::checkpoint::CheckpointResource;
use confluence_core::token::Token;
use confluence_relstore::expr::{col, lit};
use confluence_relstore::{
    Agg, IndexRef, IndexStats, PlanNode, Row, Schema, StoreHandle, Table, ValueType,
};

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
fn number() -> impl Strategy<Value = Token> {
    const P: i64 = 1 << 53;
    prop_oneof![
        (0..8i64).prop_map(Token::Int),
        (0..16i64).prop_map(|n| Token::Float(n as f64 / 2.0)),
        (0..4i64).prop_map(|d| Token::Int(P + d)),
        (0..2i64).prop_map(|d| Token::Float((P + 2 * d) as f64)),
    ]
}

/// Integers at the edges of each width an integer column can store its
/// cells at: the last value an `i8`, `i16` or `i32` holds and the first it
/// cannot, on both sides, and the `i64` extremes.
const EDGES: [i64; 18] = [
    127,
    -127,
    128,
    -128,
    -129,
    32_767,
    -32_767,
    32_768,
    -32_768,
    -32_769,
    i32::MAX as i64,
    i32::MAX as i64 + 1,
    i32::MIN as i64,
    i32::MIN as i64 + 1,
    i32::MIN as i64 - 1,
    i32::MAX as i64 - 1,
    i64::MAX,
    i64::MIN,
];

fn edge() -> impl Strategy<Value = i64> {
    (0..EDGES.len()).prop_map(|i| EDGES[i])
}

/// A `v` cell: small mostly, an [`edge`] value one time in four.
fn v_value() -> impl Strategy<Value = i64> {
    prop_oneof![0..100i64, 0..100i64, 0..100i64, edge()]
}

/// A `w` cell: NULL one time in five, else a [`number`].
fn w_value() -> impl Strategy<Value = Token> {
    (0..5, number()).prop_map(|(i, n)| if i == 0 { Token::Unit } else { n })
}

/// A mutation that must fail and change nothing.
#[derive(Debug, Clone)]
enum Bad {
    /// Insert a row under the key of the `nth` live row (mod their count).
    DuplicateKey { nth: usize },
    /// Assign the primary-key column.
    AssignKey { g: i64 },
    /// Assign a string to the integer column `v`.
    MistypedAssign { g: i64 },
    /// Insert, or upsert, a row one column short.
    WrongWidth { k: i64, upsert: bool },
    /// Upsert into a table with no primary key.
    KeylessUpsert { k: i64 },
    /// Write a record, or an array when `array`, into the float column `w`:
    /// by insert (`how` 0), upsert (1), or `update_where` on group `k % 5` (2).
    NonScalar { k: i64, array: bool, how: usize },
}

fn bad() -> impl Strategy<Value = Bad> {
    prop_oneof![
        (0..64usize).prop_map(|nth| Bad::DuplicateKey { nth }),
        (0..5i64).prop_map(|g| Bad::AssignKey { g }),
        (0..5i64).prop_map(|g| Bad::MistypedAssign { g }),
        (0..30i64, 0..2usize).prop_map(|(k, u)| Bad::WrongWidth { k, upsert: u == 1 }),
        (0..30i64).prop_map(|k| Bad::KeylessUpsert { k }),
        (0..30i64, 0..2usize, 0..3usize)
            .prop_map(|(k, a, how)| Bad::NonScalar { k, array: a == 1, how }),
    ]
}

/// Random operations over a small key space so collisions happen.
#[derive(Debug, Clone)]
enum Op {
    Upsert { k: i64, g: i64, v: i64, w: Token },
    Delete { g: i64 },
    UpdateV { g: i64, v: i64 },
    /// Moves rows between index keys in place.
    UpdateG { v: i64, g: i64 },
    /// Moves rows within the `w` index's partition.
    UpdateW { g: i64, w: Token },
    Clear,
    /// Fill keys `100..100 + rows`, then delete most of them: more than 64
    /// dead slots and more dead than live, which is what compacts a table.
    Churn { rows: i64, keep: i64 },
    Fail(Bad),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..30i64, 0..5i64, v_value(), w_value()).prop_map(|(k, g, v, w)| Op::Upsert { k, g, v, w }),
            (0..5i64).prop_map(|g| Op::Delete { g }),
            (0..5i64, v_value()).prop_map(|(g, v)| Op::UpdateV { g, v }),
            (0..100i64, 0..5i64).prop_map(|(v, g)| Op::UpdateG { v, g }),
            (0..5i64, w_value()).prop_map(|(g, w)| Op::UpdateW { g, w }),
            bad().prop_map(Op::Fail),
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

/// Try a mutation that must fail.
fn attempt(t: &mut Table, bad: &Bad) -> confluence_core::error::Result<()> {
    let row = |k: i64| -> Row { vec![k.into(), 0.into(), 0.into(), Token::Unit] };
    match bad {
        Bad::DuplicateKey { nth } => {
            let taken = t.iter().nth(nth % t.len()).expect("a live row").cell(0);
            t.insert(vec![taken, 1.into(), 2.into(), 3.into()])
        }
        Bad::AssignKey { g } => t.update_where(&col("g").eq(lit(*g)), &[("k", 0.into())]).map(drop),
        Bad::MistypedAssign { g } => {
            t.update_where(&col("g").eq(lit(*g)), &[("v", Token::str("x"))]).map(drop)
        }
        Bad::WrongWidth { k, upsert: false } => t.insert(row(*k)[..3].to_vec()),
        Bad::WrongWidth { k, upsert: true } => t.upsert(row(*k)[..3].to_vec()).map(drop),
        Bad::KeylessUpsert { k } => {
            let mut schema = Schema::builder();
            for name in ["k", "g", "v"] {
                schema = schema.column(name, ValueType::Int);
            }
            let schema = schema.nullable_column("w", ValueType::Float).build().unwrap();
            let mut keyless = Table::new(schema);
            keyless.insert(row(*k)).unwrap();
            let before = (keyless.select(None).unwrap(), keyless.stats());
            let result = keyless.upsert(row(*k)).map(drop);
            assert_eq!((keyless.select(None).unwrap(), keyless.stats()), before, "{bad:?}");
            result
        }
        Bad::NonScalar { k, array, how } => {
            let cell = match array {
                true => Token::array(vec![1.into()]),
                false => Token::record().field("w", 1.5).build(),
            };
            let mut row = row(*k);
            row[3] = cell.clone();
            match how {
                0 => t.insert(row),
                1 => t.upsert(row).map(drop),
                _ => t.update_where(&col("g").eq(lit(k % 5)), &[("w", cell)]).map(drop),
            }
        }
    }
}

fn apply(t: &mut Table, ops: &[Op]) {
    for op in ops {
        step(t, op);
        // The statistics of `fresh_table(true)` are a recount after every step.
        if t.stats().indexes.len() == 3 {
            let (entries, counted, partitions) = recount(t);
            let stats = t.stats();
            assert_eq!(stats.rows, entries, "after {op:?}");
            for (view, counted) in stats.indexes.iter().zip(counted) {
                let label = &view.label;
                let counted = (counted, partitions);
                assert_eq!((view.stats, view.partitions), counted, "{label} after {op:?}");
            }
        }
    }
}

fn step(t: &mut Table, op: &Op) {
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
                let w = [Token::Unit, (k % 4).into(), (k as f64 % 4.0 + 0.5).into()];
                t.upsert(vec![k.into(), (k % 5).into(), (k % 7).into(), w[k as usize % 3].clone()])
                    .unwrap();
            }
            let doomed = col("k").ge(lit(100 + keep));
            assert_eq!(t.delete_where(&doomed).unwrap() as i64, rows - keep);
        }
        // Nothing to collide with.
        Op::Fail(Bad::DuplicateKey { .. }) if t.is_empty() => {}
        Op::Fail(bad) => {
            let before = (t.select(None).unwrap(), t.stats());
            assert!(attempt(t, bad).is_err(), "{bad:?} succeeded");
            assert_eq!((t.select(None).unwrap(), t.stats()), before, "{bad:?} changed the table");
        }
    }
}

/// What `stats()` should say of `fresh_table(true)`, counted from its rows.
fn recount(t: &Table) -> (usize, [IndexStats; 3], usize) {
    let mut gs = std::collections::BTreeSet::new();
    let mut gvs = std::collections::BTreeSet::new();
    let mut gws = std::collections::BTreeSet::new();
    for row in t.iter() {
        gs.insert(row.cell(1));
        gvs.insert((row.cell(1), row.cell(2)));
        gws.insert((row.cell(1), row.cell(3)));
    }
    let entries = t.iter().count();
    let stats = |keys: usize| IndexStats { entries, distinct_keys: keys };
    (entries, [stats(gs.len()), stats(gvs.len()), stats(gws.len())], gs.len())
}

/// A cell as the bits it holds. `Token`'s equality calls `Int 3` and
/// `Float 3.0` equal; this does not, nor `0.0` and `-0.0`.
#[derive(Debug, PartialEq)]
enum Exact {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(String),
}

fn exact(row: impl IntoIterator<Item = Token>) -> Vec<Exact> {
    let cell = |v| match v {
        Token::Unit => Exact::Null,
        Token::Bool(b) => Exact::Bool(b),
        Token::Int(i) => Exact::Int(i),
        Token::Float(f) => Exact::Float(f.to_bits()),
        Token::Str(s) => Exact::Str(s.to_string()),
        other => unreachable!("a table holds no {}", other.type_name()),
    };
    row.into_iter().map(cell).collect()
}

/// The columns of the exact table, `k` its primary key.
const EXACT: [(&str, ValueType); 5] = [
    ("k", ValueType::Int),
    ("i", ValueType::Int),
    ("f", ValueType::Float),
    ("s", ValueType::Str),
    ("b", ValueType::Bool),
];

/// A store holding the exact table, every other column nullable and in an
/// index: an upsert or update that changes one moves the row in it.
fn exact_store() -> StoreHandle {
    let mut schema = Schema::builder().column("k", ValueType::Int);
    for (name, ty) in &EXACT[1..] {
        schema = schema.nullable_column(name, *ty);
    }
    let h = StoreHandle::new();
    h.write(|s| {
        s.create_table("t", schema.primary_key(&["k"]).build()?)?;
        let t = s.table_mut("t")?;
        t.create_index(&["i"])?;
        t.create_index(&["s"])?;
        t.create_ordered_index(&["b"], "f")
    })
    .unwrap();
    h
}

const P: i64 = 1 << 53;

fn int_cell() -> impl Strategy<Value = Token> {
    prop_oneof![
        (-3..3i64).prop_map(Token::Int),
        edge().prop_map(Token::Int),
        Just(Token::Int(i64::MAX)),
        Just(Token::Int(P + 1)),
        Just(Token::Unit),
    ]
}

/// Ints a float column holds as ints (past 2^53 too, where a double would
/// round them), and floats that tie with them, −0.0, a NaN with a payload.
fn float_cell() -> impl Strategy<Value = Token> {
    prop_oneof![
        (0..3i64).prop_map(Token::Int),
        (0..2i64).prop_map(|d| Token::Int(P + 1 + 2 * d)),
        (0..6i64).prop_map(|n| Token::Float(n as f64 / 2.0)),
        Just(Token::Float(P as f64)),
        Just(Token::Float(-0.0)),
        Just(Token::Float(f64::from_bits(0x7ff8_0000_0000_0001))),
        Just(Token::Unit),
    ]
}

fn str_cell() -> impl Strategy<Value = Token> {
    let s = |s: &str| Just(Token::str(s));
    prop_oneof![s(""), s("a"), s("ünï"), Just(Token::Unit)]
}

fn bool_cell() -> impl Strategy<Value = Token> {
    prop_oneof![Just(Token::Bool(true)), Just(Token::Bool(false)), Just(Token::Unit)]
}

fn exact_row() -> impl Strategy<Value = Row> {
    (0..24i64, int_cell(), float_cell(), str_cell(), bool_cell())
        .prop_map(|(k, i, f, s, b)| vec![k.into(), i, f, s, b])
}

/// A write to the exact table, mirrored on a map by key.
#[derive(Debug, Clone)]
enum Write {
    Insert(Row),
    Upsert(Row),
    /// `UPDATE … SET column = value WHERE k < below`.
    Update { below: i64, column: usize, value: Token },
    /// `DELETE … WHERE k BETWEEN lo AND lo + 5`.
    Delete { lo: i64 },
    /// Fill keys `100..300` with `row`'s cells and delete them again, which
    /// compacts the table.
    Churn(Row),
    /// Save the store and restore it into a fresh one.
    SaveRestore,
}

fn writes() -> impl Strategy<Value = Vec<Write>> {
    let assignment = prop_oneof![
        int_cell().prop_map(|v| (1, v)),
        float_cell().prop_map(|v| (2, v)),
        str_cell().prop_map(|v| (3, v)),
        bool_cell().prop_map(|v| (4, v)),
    ];
    prop::collection::vec(
        prop_oneof![
            exact_row().prop_map(Write::Insert),
            exact_row().prop_map(Write::Upsert),
            exact_row().prop_map(Write::Upsert),
            (0..26i64, assignment)
                .prop_map(|(below, (column, value))| Write::Update { below, column, value }),
            (0..24i64).prop_map(|lo| Write::Delete { lo }),
            exact_row().prop_map(Write::Churn),
            Just(Write::SaveRestore),
        ],
        1..40,
    )
}

/// Run `f` on the exact table of `h`.
fn on_table<T>(h: &StoreHandle, f: impl FnOnce(&mut Table) -> T) -> T {
    h.write(|s| f(s.table_mut("t").unwrap()))
}

fn write(h: StoreHandle, model: &mut BTreeMap<i64, Row>, w: &Write) -> StoreHandle {
    let key = |row: &Row| row[0].as_int().unwrap();
    match w {
        Write::Insert(row) => {
            let taken = model.contains_key(&key(row));
            assert_eq!(on_table(&h, |t| t.insert(row.clone())).is_err(), taken);
            model.entry(key(row)).or_insert_with(|| row.clone());
        }
        Write::Upsert(row) => {
            on_table(&h, |t| t.upsert(row.clone()).unwrap());
            model.insert(key(row), row.clone());
        }
        Write::Update { below, column, value } => {
            let set = [(EXACT[*column].0, value.clone())];
            on_table(&h, |t| t.update_where(&col("k").lt(lit(*below)), &set).unwrap());
            model.range_mut(..below).for_each(|(_, row)| row[*column] = value.clone());
        }
        Write::Delete { lo } => {
            on_table(&h, |t| t.delete_where(&col("k").between(lit(*lo), lit(lo + 5))).unwrap());
            model.retain(|k, _| !(lo..=&(lo + 5)).contains(&k));
        }
        Write::Churn(row) => on_table(&h, |t| {
            for k in 100..300i64 {
                let mut row = row.clone();
                row[0] = k.into();
                t.insert(row).unwrap();
            }
            assert_eq!(t.delete_where(&col("k").ge(lit(100))).unwrap(), 200);
        }),
        Write::SaveRestore => {
            let fresh = exact_store();
            fresh.restore(&h.save().unwrap()).unwrap();
            return fresh;
        }
    }
    h
}

proptest! {
    /// Every cell comes back as it was written — variant and bits — through
    /// inserts, upserts, in-place updates, deletes, compaction and a
    /// checkpoint's save and restore.
    #[test]
    fn cells_come_back_exactly_as_written(ws in writes()) {
        let (mut h, mut model) = (exact_store(), BTreeMap::new());
        for w in &ws {
            h = write(h, &mut model, w);
            let mut rows = h.read(|s| s.table("t").unwrap().select(None)).unwrap();
            rows.sort_by_key(|r| r[0].as_int().unwrap());
            let want: Vec<Vec<Exact>> = model.values().map(|r| exact(r.iter().cloned())).collect();
            prop_assert_eq!(rows.into_iter().map(exact).collect::<Vec<_>>(), want, "after {:?}", w);
        }
    }

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
        let rows: Vec<Row> = indexed.iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(rows, plain.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        for row in indexed.iter() {
            prop_assert_eq!(indexed.get(&[row.cell(0)]).map(|r| r.to_vec()), Some(row.to_vec()));
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
            t.upsert(vec![(*k).into(), 0.into(), (*v).into(), Token::Unit]).unwrap();
            model.insert(*k, *v);
        }
        prop_assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            let row = t.get(&[(*k).into()]).expect("key present");
            prop_assert_eq!(row.cell(2), Token::Int(*v));
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
            Token::Int(vals.len() as i64)
        );
        if vals.is_empty() {
            prop_assert_eq!(t.aggregate(None, &Agg::Sum("v".into())).unwrap(), Token::Unit);
            prop_assert_eq!(t.aggregate(None, &Agg::Min("v".into())).unwrap(), Token::Unit);
        } else {
            // Summed as doubles in storage order, as the store sums; exact
            // while the values are small, where no `i64` sum overflows.
            let sum = vals.iter().fold(0.0, |sum, &v| sum + v as f64);
            prop_assert_eq!(t.aggregate(None, &Agg::Sum("v".into())).unwrap(), Token::Float(sum));
            prop_assert_eq!(
                t.aggregate(None, &Agg::Avg("v".into())).unwrap(),
                Token::Float(sum / vals.len() as f64)
            );
            prop_assert_eq!(
                t.aggregate(None, &Agg::Min("v".into())).unwrap(),
                Token::Int(*vals.iter().min().unwrap())
            );
            prop_assert_eq!(
                t.aggregate(None, &Agg::Max("v".into())).unwrap(),
                Token::Int(*vals.iter().max().unwrap())
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
            Token::Int(n) => n,
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
