//! The relational tables backing the Linear Road workflow.
//!
//! The paper's implementation "requires the support of a relational
//! database to store statistics on the road congestion as well as the
//! recent accidents detected" (Appendix A). Three tables:
//!
//! * `segment_cars(xway, dir, seg, minute, cars)` — cars present per
//!   segment per minute (toll formula input `numOfCars`);
//! * `minute_speeds(xway, dir, seg, minute, avg_speed)` — per-minute
//!   average speed per segment; LAV is the average of the last five;
//! * `accidents(xway, dir, seg, pos, time, car1, car2)` — detected
//!   accidents with detection time.

use confluence_core::error::Result;
use confluence_relstore::expr::{col, lit};
use confluence_relstore::{Agg, Expr, Schema, StoreHandle, Value, ValueType};

use crate::model::{accident_segments, LAV_WINDOW_MINUTES};

/// Create the three Linear Road tables (with their indexes) in a store.
pub fn create_tables(store: &StoreHandle) -> Result<()> {
    store.write(|s| -> Result<()> {
        s.create_table(
            "segment_cars",
            Schema::builder()
                .column("xway", ValueType::Int)
                .column("dir", ValueType::Int)
                .column("seg", ValueType::Int)
                .column("minute", ValueType::Int)
                .column("cars", ValueType::Int)
                .primary_key(&["xway", "dir", "seg", "minute"])
                .build()?,
        )?;
        s.create_table(
            "minute_speeds",
            Schema::builder()
                .column("xway", ValueType::Int)
                .column("dir", ValueType::Int)
                .column("seg", ValueType::Int)
                .column("minute", ValueType::Int)
                .column("avg_speed", ValueType::Float)
                .primary_key(&["xway", "dir", "seg", "minute"])
                .build()?,
        )?;
        s.create_table(
            "accidents",
            Schema::builder()
                .column("xway", ValueType::Int)
                .column("dir", ValueType::Int)
                .column("seg", ValueType::Int)
                .column("pos", ValueType::Int)
                .column("time", ValueType::Int)
                .column("car1", ValueType::Int)
                .column("car2", ValueType::Int)
                .primary_key(&["xway", "dir", "pos", "time"])
                .build()?,
        )?;
        // `congestion_summary` groups by exactly these columns, and a
        // segment's expiry (`… AND minute < cutoff`) probes them.
        s.table_mut("segment_cars")?.create_index(&["xway", "dir", "seg"])?;
        // `lav`: `eq(xway,dir,seg) AND minute BETWEEN m−5 AND m−1`, and the
        // same segment's expiry, are one range scan each.
        s.table_mut("minute_speeds")?
            .create_ordered_index(&["xway", "dir", "seg"], "minute")?;
        // `insert_accident`'s episode check (`time > t−300`) and accident
        // expiry (`time < cutoff`) range on detection time per direction.
        s.table_mut("accidents")?
            .create_ordered_index(&["xway", "dir"], "time")?;
        // `accident_nearby` ranges on the segments ahead of the car.
        s.table_mut("accidents")?
            .create_ordered_index(&["xway", "dir"], "seg")?;
        Ok(())
    })
}

/// Predicate identifying a still-open accident episode at `(xway, dir,
/// pos)` as of `time`: any detection within the last five minutes.
pub fn accident_episode_predicate(xway: i64, dir: i64, pos: i64, time: i64) -> Expr {
    col("xway")
        .eq(lit(xway))
        .and(col("dir").eq(lit(dir)))
        .and(col("pos").eq(lit(pos)))
        .and(col("time").gt(lit(time - 300)))
}

/// Predicate selecting the LAV window: the five per-minute speed rows of a
/// segment before `minute`. Served by the ordered `(xway,dir,seg) → minute`
/// index as a single bounded range scan.
pub fn lav_predicate(xway: i64, dir: i64, seg: i64, minute: i64) -> Expr {
    col("xway")
        .eq(lit(xway))
        .and(col("dir").eq(lit(dir)))
        .and(col("seg").eq(lit(seg)))
        .and(col("minute").between(lit(minute - LAV_WINDOW_MINUTES), lit(minute - 1)))
}

/// Predicate selecting the recent accidents (last 2 minutes) that put a car
/// at `seg` traveling `dir` in notification range — exactly those:
/// [`accident_segments`] gives the bounds. Served by the ordered
/// `(xway,dir) → seg` index as a single bounded range scan.
pub fn accident_nearby_predicate(xway: i64, dir: i64, seg: i64, time: i64) -> Expr {
    let (lo, hi) = accident_segments(dir, seg);
    col("xway")
        .eq(lit(xway))
        .and(col("dir").eq(lit(dir)))
        .and(col("seg").between(lit(lo), lit(hi)))
        .and(col("time").ge(lit(time - 120)))
}

/// Upsert the car count of a segment-minute.
pub fn write_segment_cars(
    store: &StoreHandle,
    xway: i64,
    dir: i64,
    seg: i64,
    minute: i64,
    cars: i64,
) -> Result<()> {
    store.write(|s| {
        s.table_mut("segment_cars")?.upsert(vec![
            xway.into(),
            dir.into(),
            seg.into(),
            minute.into(),
            cars.into(),
        ])?;
        Ok(())
    })
}

/// Upsert the average speed of a segment-minute.
pub fn write_minute_speed(
    store: &StoreHandle,
    xway: i64,
    dir: i64,
    seg: i64,
    minute: i64,
    avg_speed: f64,
) -> Result<()> {
    store.write(|s| {
        s.table_mut("minute_speeds")?.upsert(vec![
            xway.into(),
            dir.into(),
            seg.into(),
            minute.into(),
            avg_speed.into(),
        ])?;
        Ok(())
    })
}

/// Record a detected accident.
#[allow(clippy::too_many_arguments)]
pub fn insert_accident(
    store: &StoreHandle,
    xway: i64,
    dir: i64,
    seg: i64,
    pos: i64,
    time: i64,
    car1: i64,
    car2: i64,
) -> Result<bool> {
    store.write(|s| {
        let t = s.table_mut("accidents")?;
        // The same stalled pair re-triggers detection on every further
        // report; keep one row per (xway, dir, pos) accident episode.
        let episode = accident_episode_predicate(xway, dir, pos, time);
        if t.aggregate(Some(&episode), &Agg::Count)? != Value::Int(0) {
            return Ok(false);
        }
        t.insert(vec![
            xway.into(),
            dir.into(),
            seg.into(),
            pos.into(),
            time.into(),
            car1.into(),
            car2.into(),
        ])?;
        Ok(true)
    })
}

/// Cars in the segment during `minute` (the toll formula's `numOfCars`).
pub fn cars_in_segment(
    store: &StoreHandle,
    xway: i64,
    dir: i64,
    seg: i64,
    minute: i64,
) -> Result<Option<i64>> {
    store.read(|s| {
        let row = s.table("segment_cars")?.get(&[
            xway.into(),
            dir.into(),
            seg.into(),
            minute.into(),
        ]);
        Ok(match row {
            Some(r) => Some(r.cell(4).as_int()?),
            None => None,
        })
    })
}

/// Latest Average Velocity: the mean of the per-minute average speeds over
/// the five minutes before `minute` (`None` when no statistics exist yet).
pub fn lav(store: &StoreHandle, xway: i64, dir: i64, seg: i64, minute: i64) -> Result<Option<f64>> {
    store.read(|s| {
        let pred = lav_predicate(xway, dir, seg, minute);
        let v = s
            .table("minute_speeds")?
            .aggregate(Some(&pred), &Agg::Avg("avg_speed".into()))?;
        Ok(match v {
            Value::Null => None,
            other => Some(other.as_float()?),
        })
    })
}

/// Whether a recent accident (within the last 2 minutes) lies in the
/// notification range of a car at `seg` traveling `dir` — the paper's toll
/// query subcondition, and the accident-notification check.
pub fn accident_nearby(
    store: &StoreHandle,
    xway: i64,
    dir: i64,
    seg: i64,
    time: i64,
) -> Result<Option<i64>> {
    store.read(|s| {
        let pred = accident_nearby_predicate(xway, dir, seg, time);
        let rows = s.table("accidents")?.select(Some(&pred))?;
        rows.first().map(|r| r[2].as_int()).transpose()
    })
}

/// Per-segment congestion summary over all recorded minutes:
/// `(xway, dir, seg) → (samples, mean cars)`. The grouping columns are
/// exactly the `segment_cars` secondary index, so the planner streams
/// per-partition aggregates off the index without materializing rows.
pub fn congestion_summary(store: &StoreHandle) -> Result<Vec<(Vec<Value>, Vec<Value>)>> {
    store.read(|s| {
        s.table("segment_cars")?.group_by(
            None,
            &["xway", "dir", "seg"],
            &[Agg::Count, Agg::Avg("cars".into())],
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_relstore::Query;

    fn store() -> StoreHandle {
        let h = StoreHandle::new();
        create_tables(&h).unwrap();
        h
    }

    /// A store seeded with enough volume that the cost model prefers the
    /// index paths each Linear Road query is designed around (tiny tables
    /// correctly plan full scans).
    fn seeded() -> StoreHandle {
        let h = store();
        h.write(|s| -> Result<()> {
            for xway in 0..2i64 {
                for dir in 0..2i64 {
                    for seg in 0..20i64 {
                        for minute in 0..10i64 {
                            s.table_mut("segment_cars")?.upsert(vec![
                                xway.into(),
                                dir.into(),
                                seg.into(),
                                minute.into(),
                                (seg + minute).into(),
                            ])?;
                            s.table_mut("minute_speeds")?.upsert(vec![
                                xway.into(),
                                dir.into(),
                                seg.into(),
                                minute.into(),
                                ((30 + minute) as f64).into(),
                            ])?;
                        }
                    }
                    for i in 0..500i64 {
                        s.table_mut("accidents")?.insert(vec![
                            xway.into(),
                            dir.into(),
                            (i % 100).into(),
                            (i * 10).into(),
                            i.into(),
                            1.into(),
                            2.into(),
                        ])?;
                    }
                }
            }
            Ok(())
        })
        .unwrap();
        h
    }

    /// The traffic table: every statement the repository issues outside
    /// tests, with the plan it gets on a populated store. None is a scan.
    #[test]
    fn planner_pins_for_linear_road_queries() {
        let seg7 = || col("xway").eq(lit(0)).and(col("dir").eq(lit(0))).and(col("seg").eq(lit(7)));
        let statements = [
            // `lav`: one bounded range scan of the segment's minute partition.
            (
                "minute_speeds",
                lav_predicate(0, 0, 7, 9),
                "IndexRange(ordered(xway,dir,seg→minute)) eq=[0, 0, 7] range=[4, 8] est=5.0",
            ),
            // `insert_accident`'s episode check: half-open time range per
            // direction, `pos` residual.
            (
                "accidents",
                accident_episode_predicate(0, 0, 52_900, 450),
                "IndexRange(ordered(xway,dir→time)) eq=[0, 0] range=(150, +∞) est=375.0",
            ),
            // `accident_nearby`: the five segments ahead, `time` residual.
            (
                "accidents",
                accident_nearby_predicate(0, 0, 8, 150),
                "IndexRange(ordered(xway,dir→seg)) eq=[0, 0] range=[8, 12] est=250.0",
            ),
            // numOfCars as a statement (`cars_in_segment` itself calls
            // `get`): the primary key beats the coarser secondary index
            // (cost 5 vs 14).
            (
                "segment_cars",
                seg7().and(col("minute").eq(lit(3))),
                "IndexEq(pk(xway,dir,seg,minute)) key=[0, 0, 7, 3] est=1.0",
            ),
            // The expiry statements of `benchmark/src/relmix.rs`:
            // `update_where` / `delete_where` on a segment's old minutes,
            // `delete_where` on a direction's old accidents.
            (
                "segment_cars",
                seg7().and(col("minute").lt(lit(5))),
                "IndexEq(secondary(xway,dir,seg)) key=[0, 0, 7] est=10.0",
            ),
            (
                "minute_speeds",
                seg7().and(col("minute").lt(lit(5))),
                "IndexRange(ordered(xway,dir,seg→minute)) eq=[0, 0, 7] range=(-∞, 5) est=7.5",
            ),
            (
                "accidents",
                col("xway").eq(lit(0)).and(col("dir").eq(lit(0))).and(col("time").lt(lit(100))),
                "IndexRange(ordered(xway,dir→time)) eq=[0, 0] range=(-∞, 100) est=375.0",
            ),
        ];
        let h = seeded();
        h.read(|s| {
            for (table, pred, plan) in statements {
                let explained = Query::from(table).filter(pred).explain(s).unwrap();
                assert!(!explained.contains("FullScan"), "{explained}");
                assert_eq!(explained, format!("Query({table})\n  plan: {plan}"));
            }
            // `congestion_summary`: grouping columns are exactly the
            // secondary index, so aggregation streams off its buckets.
            assert_eq!(
                s.table("segment_cars")
                    .unwrap()
                    .plan_group_by(None, &["xway", "dir", "seg"])
                    .unwrap()
                    .to_string(),
                "GroupByIndex(secondary(xway,dir,seg)) groups=[xway,dir,seg] est=80.0"
            );
        });
    }

    #[test]
    fn congestion_summary_matches_reference() {
        let h = seeded();
        let groups = congestion_summary(&h).unwrap();
        assert_eq!(groups.len(), 2 * 2 * 20);
        // Insertion order: (xway, dir, seg) ascending; cars = seg + minute
        // over minutes 0..10 → count 10, mean seg + 4.5.
        for (i, (key, aggs)) in groups.iter().enumerate() {
            let (xway, dir, seg) = (i as i64 / 40, (i as i64 / 20) % 2, i as i64 % 20);
            assert_eq!(key, &vec![xway.into(), dir.into(), seg.into()]);
            assert_eq!(aggs, &vec![10i64.into(), (seg as f64 + 4.5).into()]);
        }
    }

    #[test]
    fn tables_created_once() {
        let h = store();
        assert!(create_tables(&h).is_err(), "double create rejected");
        let names = h.read(|s| s.table_names().join(","));
        assert_eq!(names, "accidents,minute_speeds,segment_cars", "sorted by name");
    }

    #[test]
    fn segment_cars_round_trip_and_upsert() {
        let h = store();
        write_segment_cars(&h, 0, 0, 7, 3, 55).unwrap();
        assert_eq!(cars_in_segment(&h, 0, 0, 7, 3).unwrap(), Some(55));
        write_segment_cars(&h, 0, 0, 7, 3, 60).unwrap();
        assert_eq!(cars_in_segment(&h, 0, 0, 7, 3).unwrap(), Some(60));
        assert_eq!(cars_in_segment(&h, 0, 0, 7, 4).unwrap(), None);
    }

    #[test]
    fn lav_averages_last_five_minutes() {
        let h = store();
        for (minute, speed) in [(1, 30.0), (2, 40.0), (3, 50.0)] {
            write_minute_speed(&h, 0, 0, 7, minute, speed).unwrap();
        }
        // At minute 4: minutes −1..3 → mean(30, 40, 50) = 40.
        assert_eq!(lav(&h, 0, 0, 7, 4).unwrap(), Some(40.0));
        // At minute 8: minutes 3..7 → only minute 3 (50).
        assert_eq!(lav(&h, 0, 0, 7, 8).unwrap(), Some(50.0));
        // At minute 20: nothing in range.
        assert_eq!(lav(&h, 0, 0, 7, 20).unwrap(), None);
        // Other segment: nothing.
        assert_eq!(lav(&h, 0, 0, 9, 4).unwrap(), None);
    }

    #[test]
    fn accident_insert_dedup_and_range_query() {
        let h = store();
        assert!(insert_accident(&h, 0, 0, 10, 52_900, 100, 1, 2).unwrap());
        // Re-detection of the same episode is deduplicated.
        assert!(!insert_accident(&h, 0, 0, 10, 52_900, 130, 1, 2).unwrap());
        // dir=0 cars in segments [6, 10] are in range.
        assert_eq!(accident_nearby(&h, 0, 0, 8, 150).unwrap(), Some(10));
        assert_eq!(accident_nearby(&h, 0, 0, 10, 150).unwrap(), Some(10));
        assert_eq!(accident_nearby(&h, 0, 0, 5, 150).unwrap(), None);
        assert_eq!(accident_nearby(&h, 0, 0, 11, 150).unwrap(), None);
        // Wrong direction: unaffected.
        assert_eq!(accident_nearby(&h, 0, 1, 8, 150).unwrap(), None);
        // Stale accidents (older than 2 minutes) no longer notify.
        assert_eq!(accident_nearby(&h, 0, 0, 8, 400).unwrap(), None);
    }
}
