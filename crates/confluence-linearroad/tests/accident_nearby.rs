//! `tables::accident_nearby` against a brute-force pass over the table:
//! for random accident tables it answers with the first row, in storage
//! order, that `model::accident_in_range` accepts — whatever predicate and
//! plan it reaches the store with. The file uses public names only, so it
//! runs unchanged against another formulation of the predicate.

use proptest::prelude::*;

use confluence_linearroad::model::accident_in_range;
use confluence_linearroad::tables::{accident_nearby, create_tables};
use confluence_relstore::expr::{col, lit};
use confluence_relstore::StoreHandle;

/// `(xway, dir, seg, time)`: two expressways, both directions, a dozen
/// segments (so `seg ± 4` is straddled constantly) and detection times
/// either side of every probe's `time − 120`.
type Accident = (i64, i64, i64, i64);

fn accidents() -> impl Strategy<Value = Vec<Accident>> {
    prop::collection::vec((0..2i64, 0..2i64, 0..12i64, 0..90i64), 0..40)
}

fn insert(store: &StoreHandle, first_pos: i64, batch: &[Accident]) {
    store.write(|s| {
        let t = s.table_mut("accidents").unwrap();
        for (i, &(xway, dir, seg, time)) in batch.iter().enumerate() {
            // `pos` only keeps the primary key `(xway, dir, pos, time)` unique.
            let pos = first_pos + i as i64;
            let row = [xway, dir, seg, pos, time, 1, 2].map(Into::into).to_vec();
            t.insert(row).unwrap();
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn accident_nearby_is_the_first_in_range_row_in_storage_order(
        early in accidents(),
        evict_before in 0..60i64,
        late in accidents(),
        probes in prop::collection::vec((0..2i64, 0..2i64, 0..12i64, 100..220i64), 1..24),
    ) {
        let store = StoreHandle::new();
        create_tables(&store).unwrap();
        // Holes and reused slots: storage order is not insertion order
        // of a fresh table.
        insert(&store, 0, &early);
        store.write(|s| {
            let stale = col("time").lt(lit(evict_before));
            s.table_mut("accidents").unwrap().delete_where(&stale).unwrap()
        });
        insert(&store, 1_000, &late);

        for (xway, dir, seg, time) in probes {
            let want = store.read(|s| {
                let mut rows = s.table("accidents").unwrap().iter();
                let hit = rows.find(|r| {
                    let at = |c: usize| r.cell(c).as_int().unwrap();
                    at(0) == xway
                        && at(1) == dir
                        && accident_in_range(dir, seg, at(2))
                        && at(4) >= time - 120
                });
                hit.map(|r| r.cell(2).as_int().unwrap())
            });
            prop_assert_eq!(accident_nearby(&store, xway, dir, seg, time).unwrap(), want);
        }
    }
}
