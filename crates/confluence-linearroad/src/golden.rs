//! The golden model: a direct, single-pass reference implementation of the
//! Linear Road semantics, independent of the workflow engine.
//!
//! Integration tests run the continuous workflow at sub-saturation rates
//! and compare its outputs against this model. The comparison tolerates
//! boundary races that the real system has too (a toll computed from a
//! segment statistic an instant before the statistics writer committed the
//! new minute), so agreement is asserted as a fraction, not exact.

use std::collections::{BTreeMap, HashMap};

use crate::model::{accident_in_range, toll_formula, PositionReport, TollNotification};
use crate::gen::Workload;

/// A detected accident in the golden model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenAccident {
    /// The accident row's `time` column: the first stopped report's time
    /// (the engine forwards the first of the four identical reports).
    pub row_time: i64,
    /// When the detection pipeline can know about it: the confirming
    /// (fourth) report's time.
    pub detected_at: i64,
    /// Expressway.
    pub xway: i64,
    /// Direction.
    pub dir: i64,
    /// Segment.
    pub seg: i64,
    /// Exact position.
    pub pos: i64,
}

/// One segment-minute's statistics: what its `segment_cars` and
/// `minute_speeds` rows hold once the minute has closed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentMinute {
    /// Distinct cars that reported from the segment in the minute.
    pub cars: i64,
    /// The mean over those cars of each car's mean reported speed.
    pub avg_speed: f64,
}

/// Reference outputs for a workload.
#[derive(Debug, Clone, Default)]
pub struct GoldenResult {
    /// Expected toll notifications, one per segment crossing, in stream
    /// order.
    pub tolls: Vec<TollNotification>,
    /// Detected accidents.
    pub accidents: Vec<GoldenAccident>,
    /// Expected accident alerts as `(carid, time)` pairs.
    pub alerts: Vec<(i64, i64)>,
    /// Statistics per `(xway, dir, seg, minute)` with at least one report.
    pub segments: BTreeMap<(i64, i64, i64, i64), SegmentMinute>,
}

impl GoldenResult {
    /// Index the tolls by `(carid, time)` for comparison.
    pub fn toll_index(&self) -> HashMap<(i64, i64), f64> {
        self.tolls
            .iter()
            .map(|t| ((t.carid, t.time), t.toll))
            .collect()
    }
}

/// Compute the reference outputs for a workload.
pub fn compute(workload: &Workload) -> GoldenResult {
    let reports = &*workload.reports;

    // --- Segment statistics (exact, per minute) ---------------------------
    // (xway, dir, seg, minute) → per-car speed sums and counts.
    type SegMinute = (i64, i64, i64, i64);
    let mut car_speeds: BTreeMap<SegMinute, HashMap<i64, (f64, u32)>> = BTreeMap::new();
    for r in reports {
        let entry = car_speeds
            .entry((r.xway, r.dir, r.seg, r.minute()))
            .or_default();
        let (sum, n) = entry.entry(r.carid).or_insert((0.0, 0));
        *sum += r.speed;
        *n += 1;
    }
    // Per segment-minute: distinct car count and mean of per-car means.
    let segments: BTreeMap<SegMinute, SegmentMinute> = car_speeds
        .iter()
        .map(|(key, cars)| {
            let mean_of_means: f64 = cars
                .values()
                .map(|(sum, n)| sum / *n as f64)
                .sum::<f64>()
                / cars.len() as f64;
            let n = cars.len() as i64;
            (*key, SegmentMinute { cars: n, avg_speed: mean_of_means })
        })
        .collect();
    let lav = |xway: i64, dir: i64, seg: i64, minute: i64| -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0;
        for m in (minute - crate::model::LAV_WINDOW_MINUTES)..minute {
            if let Some(v) = segments.get(&(xway, dir, seg, m)) {
                sum += v.avg_speed;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    };

    // --- Accident detection ------------------------------------------------
    // A car is stopped once 4 consecutive reports share a position; an
    // accident exists once two distinct cars are stopped at one position.
    let mut consecutive: HashMap<i64, (i64, i64, u32, PositionReport)> = HashMap::new(); // car → (pos, dir, run, first-of-run)
    let mut stopped_at: HashMap<(i64, i64, i64), Vec<(i64, i64)>> = HashMap::new(); // (xway,dir,pos) → (car, first_time)
    let mut accidents: Vec<GoldenAccident> = Vec::new();
    let mut last_accident_at: HashMap<(i64, i64, i64), i64> = HashMap::new();
    for r in reports {
        let entry = consecutive
            .entry(r.carid)
            .or_insert((r.pos, r.dir, 0, *r));
        if entry.0 == r.pos && entry.1 == r.dir {
            entry.2 += 1;
        } else {
            *entry = (r.pos, r.dir, 1, *r);
        }
        if entry.2 >= 4 && !r.in_exit_lane() {
            let key = (r.xway, r.dir, r.pos);
            let first_time = entry.3.time;
            let cars = stopped_at.entry(key).or_default();
            if !cars.iter().any(|(c, _)| *c == r.carid) {
                cars.push((r.carid, first_time));
            }
            if cars.len() >= 2 {
                // The engine stores the max of the two forwarded (first
                // stopped) reports' times in the accident row, and
                // deduplicates episodes within a 300 s horizon.
                let row_time = cars.iter().map(|(_, t)| *t).max().expect("two cars");
                let fresh = last_accident_at
                    .get(&key)
                    .map(|&t| row_time - t >= 300)
                    .unwrap_or(true);
                if fresh {
                    last_accident_at.insert(key, row_time);
                    accidents.push(GoldenAccident {
                        row_time,
                        detected_at: r.time,
                        xway: r.xway,
                        dir: r.dir,
                        seg: r.seg,
                        pos: r.pos,
                    });
                }
            }
        }
    }

    let accident_nearby = |xway: i64, dir: i64, seg: i64, time: i64| -> bool {
        accidents.iter().any(|a| {
            a.xway == xway
                && a.dir == dir
                // The pipeline can only know once the fourth report landed…
                && a.detected_at <= time
                // …and the engine's recency filter runs on the row time.
                && a.row_time >= time - 120
                && accident_in_range(dir, seg, a.seg)
        })
    };

    // --- Alerts -------------------------------------------------------------
    let mut alerts = Vec::new();
    for r in reports {
        if !r.in_exit_lane() && accident_nearby(r.xway, r.dir, r.seg, r.time) {
            alerts.push((r.carid, r.time));
        }
    }

    // --- Tolls ---------------------------------------------------------------
    let mut prev_seg: HashMap<i64, i64> = HashMap::new();
    let mut tolls = Vec::new();
    for r in reports {
        let crossed = match prev_seg.get(&r.carid) {
            Some(&s) => s != r.seg,
            None => false,
        };
        prev_seg.insert(r.carid, r.seg);
        if !crossed {
            continue;
        }
        let minute = r.minute();
        let cars = segments.get(&(r.xway, r.dir, r.seg, minute - 1)).map(|s| s.cars);
        let lav_v = lav(r.xway, r.dir, r.seg, minute);
        let toll = toll_formula(lav_v, cars, accident_nearby(r.xway, r.dir, r.seg, r.time));
        tolls.push(TollNotification {
            carid: r.carid,
            time: r.time,
            seg: r.seg,
            toll,
        });
    }

    GoldenResult {
        tolls,
        accidents,
        alerts,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadConfig;

    #[test]
    fn golden_detects_scheduled_accidents() {
        let w = Workload::generate(WorkloadConfig::tiny());
        let g = compute(&w);
        // tiny schedules accident pairs every 50 s; confirmation needs 4
        // reports (90 s), so the t=50 pair confirms at t=140 within the
        // 180 s run.
        assert!(!g.accidents.is_empty(), "scheduled accidents detected");
        for a in &g.accidents {
            assert!(a.detected_at >= 50 + 90, "4th report confirms, got {}", a.detected_at);
            assert!(a.row_time <= a.detected_at - 90, "row carries the first report's time");
        }
        assert!(!g.alerts.is_empty(), "cars near the accident get alerts");
    }

    #[test]
    fn golden_tolls_only_on_segment_change() {
        let w = Workload::generate(WorkloadConfig::tiny());
        let g = compute(&w);
        assert!(!g.tolls.is_empty());
        // No car is tolled twice at the same time.
        let idx = g.toll_index();
        assert_eq!(idx.len(), g.tolls.len());
    }

    #[test]
    fn no_accidents_config_produces_no_alerts() {
        let w = Workload::generate(WorkloadConfig {
            accident_every_secs: None,
            ..WorkloadConfig::tiny()
        });
        let g = compute(&w);
        assert!(g.accidents.is_empty());
        assert!(g.alerts.is_empty());
    }

    #[test]
    fn deterministic() {
        let w = Workload::generate(WorkloadConfig::tiny());
        let a = compute(&w);
        let b = compute(&w);
        assert_eq!(a.tolls, b.tolls);
        assert_eq!(a.accidents, b.accidents);
        assert_eq!(a.alerts, b.alerts);
    }
}
