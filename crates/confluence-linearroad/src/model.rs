//! The Linear Road data model.
//!
//! Linear Road simulates a variable-tolling system for the motor-vehicle
//! expressways of a fictional metropolitan area (paper Appendix A; Arasu
//! et al., VLDB 2004). The stream consists of car **position reports**:
//! every car reports its position every 30 seconds, including its
//! expressway, direction, lane, segment, absolute position, and speed.

use std::sync::Arc;

use confluence_core::error::Result;
use confluence_core::time::Timestamp;
use confluence_core::token::Token;

/// The record shapes the Linear Road activities emit: one schema each for
/// the life of the process, so a record costs its values and no names.
pub(crate) mod shape {
    use std::sync::{Arc, OnceLock};

    use confluence_core::token::Schema;

    macro_rules! shape {
        ($name:ident: $($field:literal),+) => {
            pub(crate) fn $name() -> &'static Arc<Schema> {
                static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
                SCHEMA.get_or_init(|| Schema::new(&[$($field),+]))
            }
        };
    }

    shape!(position_report: "time", "carid", "speed", "xway", "lane", "dir", "seg", "pos");
    shape!(toll: "carid", "time", "seg", "toll");
    shape!(accident: "xway", "dir", "seg", "pos", "time", "car1", "car2");
    shape!(accident_alert: "carid", "time", "seg", "accident_seg");
    shape!(car_speed: "xway", "dir", "seg", "minute", "carid", "avg_speed");
    shape!(segment_speed: "xway", "dir", "seg", "minute", "avg_speed");
    shape!(segment_cars: "xway", "dir", "seg", "minute", "cars");
}

/// Seconds between consecutive position reports of one car.
pub const REPORT_INTERVAL_SECS: u64 = 30;
/// Segments per expressway direction.
pub const SEGMENTS: i64 = 100;
/// Feet per segment (one mile).
pub const SEGMENT_FEET: i64 = 5280;
/// Number of travel lanes (0 = entry, 1..=3 travel, 4 = exit).
pub const EXIT_LANE: i64 = 4;
/// Tolls apply when the latest average velocity is below this (mph).
pub const TOLL_LAV_THRESHOLD: f64 = 40.0;
/// Tolls apply when the previous minute had more cars than this.
pub const TOLL_CAR_THRESHOLD: i64 = 50;
/// An accident affects this many segments upstream of it.
pub const ACCIDENT_RANGE_SEGS: i64 = 4;
/// LAV is the average over this many past minutes.
pub const LAV_WINDOW_MINUTES: i64 = 5;

/// A car position report (stream record type 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionReport {
    /// Report time, in seconds since the start of the run.
    pub time: i64,
    /// Car identifier.
    pub carid: i64,
    /// Current speed in mph.
    pub speed: f64,
    /// Expressway id.
    pub xway: i64,
    /// Lane (0 entry, 1–3 travel, 4 exit).
    pub lane: i64,
    /// Direction (0 = increasing position, 1 = decreasing).
    pub dir: i64,
    /// Segment number (0..SEGMENTS).
    pub seg: i64,
    /// Absolute position in feet.
    pub pos: i64,
}

impl PositionReport {
    /// The report's minute number (for segment statistics).
    pub fn minute(&self) -> i64 {
        self.time / 60
    }

    /// Whether the car is in the exit lane (excluded from accident
    /// detection and notification).
    pub fn in_exit_lane(&self) -> bool {
        self.lane == EXIT_LANE
    }

    /// Encode as a workflow record token.
    pub fn to_token(&self) -> Token {
        shape::position_report().record([
            self.time.into(),
            self.carid.into(),
            self.speed.into(),
            self.xway.into(),
            self.lane.into(),
            self.dir.into(),
            self.seg.into(),
            self.pos.into(),
        ])
    }

    /// Decode from a workflow record token. A record of the shared shape
    /// (one [`PositionReport::to_token`] built) is read by position; any
    /// other (recovered, re-stamped, hand-built) by field name.
    pub fn from_token(token: &Token) -> Result<PositionReport> {
        let rec = token.as_record()?;
        let shaped = Arc::ptr_eq(rec.schema(), shape::position_report());
        let field = |at: usize, name: &str| match rec.get_at(at).filter(|_| shaped) {
            Some(value) => Ok(value),
            None => token.get(name),
        };
        Ok(PositionReport {
            time: field(0, "time")?.as_int()?,
            carid: field(1, "carid")?.as_int()?,
            speed: field(2, "speed")?.as_float()?,
            xway: field(3, "xway")?.as_int()?,
            lane: field(4, "lane")?.as_int()?,
            dir: field(5, "dir")?.as_int()?,
            seg: field(6, "seg")?.as_int()?,
            pos: field(7, "pos")?.as_int()?,
        })
    }

    /// The stream timestamp at which this report enters the system.
    pub fn arrival(&self) -> Timestamp {
        Timestamp::from_secs(self.time as u64)
    }
}

/// A toll notification produced by the workflow output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TollNotification {
    /// Notified car.
    pub carid: i64,
    /// Report time that triggered the notification.
    pub time: i64,
    /// Segment the car just entered.
    pub seg: i64,
    /// The toll charged (0 when conditions do not hold).
    pub toll: f64,
}

impl TollNotification {
    /// Encode as a record token.
    pub fn to_token(&self) -> Token {
        shape::toll().record([
            self.carid.into(),
            self.time.into(),
            self.seg.into(),
            self.toll.into(),
        ])
    }

    /// Decode from a record token.
    pub fn from_token(token: &Token) -> Result<TollNotification> {
        Ok(TollNotification {
            carid: token.int_field("carid")?,
            time: token.int_field("time")?,
            seg: token.int_field("seg")?,
            toll: token.float_field("toll")?,
        })
    }
}

/// The variable-toll formula: `2·(cars − 50)²` when the segment was slow
/// and busy and has no accident nearby, else 0.
pub fn toll_formula(lav: Option<f64>, cars: Option<i64>, accident_nearby: bool) -> f64 {
    match (lav, cars) {
        (Some(lav), Some(cars))
            if lav < TOLL_LAV_THRESHOLD && cars > TOLL_CAR_THRESHOLD && !accident_nearby =>
        {
            2.0 * ((cars - TOLL_CAR_THRESHOLD) as f64).powi(2)
        }
        _ => 0.0,
    }
}

/// The accident segments, as inclusive bounds, that put a car at `seg`
/// traveling `dir` in notification range: the accident lies at most
/// [`ACCIDENT_RANGE_SEGS`] ahead of the car (the paper's SQL range check).
pub fn accident_segments(dir: i64, seg: i64) -> (i64, i64) {
    if dir == 1 {
        (seg - ACCIDENT_RANGE_SEGS, seg)
    } else {
        (seg, seg + ACCIDENT_RANGE_SEGS)
    }
}

/// Whether a car at `seg` traveling `dir` is in the notification range of
/// an accident at `acc_seg`.
pub fn accident_in_range(dir: i64, seg: i64, acc_seg: i64) -> bool {
    let (lo, hi) = accident_segments(dir, seg);
    lo <= acc_seg && acc_seg <= hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PositionReport {
        PositionReport {
            time: 95,
            carid: 42,
            speed: 57.5,
            xway: 0,
            lane: 2,
            dir: 0,
            seg: 17,
            pos: 17 * SEGMENT_FEET + 100,
        }
    }

    #[test]
    fn token_round_trip() {
        let r = report();
        let t = r.to_token();
        assert_eq!(PositionReport::from_token(&t).unwrap(), r);
        assert!(PositionReport::from_token(&Token::Int(1)).is_err());
        // A record of another schema, fields in another order: by name.
        let reversed: Vec<_> = t.as_record().unwrap().iter().collect();
        let reversed = reversed.iter().rev().fold(Token::record(), |b, (n, v)| b.field(n, (*v).clone()));
        assert_eq!(PositionReport::from_token(&reversed.build()).unwrap(), r);
        let short = Token::record().field("time", 95).build();
        assert!(PositionReport::from_token(&short).is_err());
    }

    #[test]
    fn derived_fields() {
        let r = report();
        assert_eq!(r.minute(), 1);
        assert!(!r.in_exit_lane());
        assert_eq!(r.arrival(), Timestamp::from_secs(95));
        let mut exiting = r;
        exiting.lane = EXIT_LANE;
        assert!(exiting.in_exit_lane());
    }

    #[test]
    fn toll_notification_round_trip() {
        let n = TollNotification {
            carid: 1,
            time: 2,
            seg: 3,
            toll: 128.0,
        };
        assert_eq!(TollNotification::from_token(&n.to_token()).unwrap(), n);
    }

    #[test]
    fn toll_formula_cases() {
        // Slow + busy + no accident → charged.
        assert_eq!(toll_formula(Some(30.0), Some(60), false), 200.0);
        // Fast segment → free.
        assert_eq!(toll_formula(Some(50.0), Some(60), false), 0.0);
        // Few cars → free.
        assert_eq!(toll_formula(Some(30.0), Some(50), false), 0.0);
        // Accident nearby → free (cars should exit instead).
        assert_eq!(toll_formula(Some(30.0), Some(60), true), 0.0);
        // Missing statistics → free.
        assert_eq!(toll_formula(None, Some(60), false), 0.0);
        assert_eq!(toll_formula(Some(30.0), None, false), 0.0);
    }

    #[test]
    fn accident_range_matches_paper_sql() {
        // dir=0: affected segments are [acc−4, acc].
        assert!(accident_in_range(0, 10, 10));
        assert!(accident_in_range(0, 6, 10));
        assert!(!accident_in_range(0, 5, 10));
        assert!(!accident_in_range(0, 11, 10));
        // dir=1: affected segments are [acc, acc+4].
        assert!(accident_in_range(1, 10, 10));
        assert!(accident_in_range(1, 14, 10));
        assert!(!accident_in_range(1, 15, 10));
        assert!(!accident_in_range(1, 9, 10));
        // Seen from the car: the accident is at most four segments ahead.
        assert_eq!(accident_segments(0, 6), (6, 10));
        assert_eq!(accident_segments(1, 14), (10, 14));
    }
}
