//! The Linear Road domain actors (paper Appendix A, Figures 10–15).

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;

use confluence_core::actor::{Actor, FireContext, IoSignature};
use confluence_core::error::Result;
use confluence_core::time::{Micros, Timestamp};
use confluence_core::token::Token;
use confluence_core::window::Window;
use confluence_relstore::StoreHandle;

use crate::model::{shape, toll_formula, PositionReport, TollNotification};
use crate::tables;

/// Detects stopped cars: a car reporting the same location in 4
/// consecutive position reports is considered stopped; the first of those
/// reports is forwarded (Figure 11). Input window semantics:
/// `{Size: 4, Step: 1, Group-by: carid}`.
pub struct StoppedCarDetector;

impl StoppedCarDetector {
    /// Evaluate one window (shared with the composite sub-workflow form).
    pub fn evaluate(window: &Window) -> Result<Option<Token>> {
        if window.len() < 4 {
            return Ok(None);
        }
        let reports: Vec<PositionReport> = window
            .tokens()
            .map(PositionReport::from_token)
            .collect::<Result<_>>()?;
        let first = reports[0];
        if reports.iter().all(|r| r.pos == first.pos && r.dir == first.dir) {
            Ok(Some(first.to_token()))
        } else {
            Ok(None)
        }
    }
}

impl Actor for StoppedCarDetector {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            if let Some(t) = Self::evaluate(&w)? {
                ctx.emit(0, t);
            }
        }
        Ok(())
    }
}

/// Detects accidents: two stopped-car reports for the same position with
/// different car ids, not in an exit lane (Figure 12). Input window
/// semantics: `{Size: 2, Step: 1, Group-by: position}`.
pub struct AccidentDetector;

impl AccidentDetector {
    /// Evaluate one window; returns the accident record token.
    pub fn evaluate(window: &Window) -> Result<Option<Token>> {
        if window.len() < 2 {
            return Ok(None);
        }
        let a = PositionReport::from_token(&window.events[0].token)?;
        let b = PositionReport::from_token(&window.events[1].token)?;
        if a.carid != b.carid && !a.in_exit_lane() && !b.in_exit_lane() && a.pos == b.pos {
            Ok(Some(shape::accident().record([
                a.xway.into(),
                a.dir.into(),
                a.seg.into(),
                a.pos.into(),
                a.time.max(b.time).into(),
                a.carid.into(),
                b.carid.into(),
            ])))
        } else {
            Ok(None)
        }
    }
}

impl Actor for AccidentDetector {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            if let Some(t) = Self::evaluate(&w)? {
                ctx.emit(0, t);
            }
        }
        Ok(())
    }
}

/// Records detected accidents into the relational store (the paper's
/// `Insert Accident` actor: constructs the INSERT and submits it).
pub struct AccidentRecorder {
    store: StoreHandle,
}

impl AccidentRecorder {
    /// Recorder writing to `store`.
    pub fn new(store: StoreHandle) -> Self {
        AccidentRecorder { store }
    }
}

impl Actor for AccidentRecorder {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                tables::insert_accident(
                    &self.store,
                    t.int_field("xway")?,
                    t.int_field("dir")?,
                    t.int_field("seg")?,
                    t.int_field("pos")?,
                    t.int_field("time")?,
                    t.int_field("car1")?,
                    t.int_field("car2")?,
                )?;
            }
        }
        Ok(())
    }
}

/// For each position report, checks the store for an accident within four
/// segments downstream and emits an alert (Figure 13). The application
/// requires the alert within 5 seconds of the position report.
pub struct AccidentNotifier {
    store: StoreHandle,
}

impl AccidentNotifier {
    /// Notifier reading from `store`.
    pub fn new(store: StoreHandle) -> Self {
        AccidentNotifier { store }
    }
}

impl Actor for AccidentNotifier {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                let r = PositionReport::from_token(t)?;
                if r.in_exit_lane() {
                    continue;
                }
                if let Some(acc_seg) =
                    tables::accident_nearby(&self.store, r.xway, r.dir, r.seg, r.time)?
                {
                    ctx.emit(
                        0,
                        shape::accident_alert().record([
                            r.carid.into(),
                            r.time.into(),
                            r.seg.into(),
                            acc_seg.into(),
                        ]),
                    );
                }
            }
        }
        Ok(())
    }
}

/// Per-car per-segment average speed over one minute (Figure 14, `Avgsv`).
/// Input window semantics: `{Size: 1 min, Step: 1 min, Group-by: carid,
/// xway, dir, seg}`.
pub struct CarSpeedAvg;

impl Actor for CarSpeedAvg {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            if w.is_empty() {
                continue;
            }
            let first = PositionReport::from_token(&w.events[0].token)?;
            let mut sum = 0.0;
            for t in w.tokens() {
                sum += t.float_field("speed")?;
            }
            ctx.emit(
                0,
                shape::car_speed().record([
                    first.xway.into(),
                    first.dir.into(),
                    first.seg.into(),
                    first.minute().into(),
                    first.carid.into(),
                    (sum / w.len() as f64).into(),
                ]),
            );
        }
        Ok(())
    }
}

/// Per-segment average of the car averages for one minute (Figure 14,
/// `Avgs`). Input window semantics: `{Size: 1 min, Step: 1 min, Group-by:
/// xway, dir, seg}` over `Avgsv` outputs.
pub struct SegmentSpeedAvg;

impl Actor for SegmentSpeedAvg {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            if w.is_empty() {
                continue;
            }
            let first = &w.events[0].token;
            let mut sum = 0.0;
            for t in w.tokens() {
                sum += t.float_field("avg_speed")?;
            }
            ctx.emit(
                0,
                shape::segment_speed().record([
                    first.int_field("xway")?.into(),
                    first.int_field("dir")?.into(),
                    first.int_field("seg")?.into(),
                    first.int_field("minute")?.into(),
                    (sum / w.len() as f64).into(),
                ]),
            );
        }
        Ok(())
    }
}

/// Writes per-minute segment speeds into the store.
pub struct MinuteSpeedWriter {
    store: StoreHandle,
}

impl MinuteSpeedWriter {
    /// Writer into `store`.
    pub fn new(store: StoreHandle) -> Self {
        MinuteSpeedWriter { store }
    }
}

impl Actor for MinuteSpeedWriter {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                tables::write_minute_speed(
                    &self.store,
                    t.int_field("xway")?,
                    t.int_field("dir")?,
                    t.int_field("seg")?,
                    t.int_field("minute")?,
                    t.float_field("avg_speed")?,
                )?;
            }
        }
        Ok(())
    }
}

/// Counts the distinct cars present in a segment during one minute
/// (Figure 15, `cars`). Input window semantics: `{Size: 1 min, Step: 1
/// min, Group-by: xway, dir, seg}`.
pub struct CarCounter;

impl Actor for CarCounter {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            if w.is_empty() {
                continue;
            }
            let first = PositionReport::from_token(&w.events[0].token)?;
            let mut cars: BTreeSet<i64> = BTreeSet::new();
            for t in w.tokens() {
                cars.insert(t.int_field("carid")?);
            }
            ctx.emit(
                0,
                shape::segment_cars().record([
                    first.xway.into(),
                    first.dir.into(),
                    first.seg.into(),
                    first.minute().into(),
                    (cars.len() as i64).into(),
                ]),
            );
        }
        Ok(())
    }
}

/// Writes per-minute segment car counts into the store.
pub struct SegmentCarsWriter {
    store: StoreHandle,
}

impl SegmentCarsWriter {
    /// Writer into `store`.
    pub fn new(store: StoreHandle) -> Self {
        SegmentCarsWriter { store }
    }
}

impl Actor for SegmentCarsWriter {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                tables::write_segment_cars(
                    &self.store,
                    t.int_field("xway")?,
                    t.int_field("dir")?,
                    t.int_field("seg")?,
                    t.int_field("minute")?,
                    t.int_field("cars")?,
                )?;
            }
        }
        Ok(())
    }
}

/// Computes the toll when a car crosses into a new segment, using the
/// store's segment statistics (the paper's SQL toll query). Input window
/// semantics: `{Size: 2, Step: 1, Group-by: carid}`.
pub struct TollCalculator {
    store: StoreHandle,
}

impl TollCalculator {
    /// Calculator reading from `store`.
    pub fn new(store: StoreHandle) -> Self {
        TollCalculator { store }
    }
}

impl Actor for TollCalculator {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            if w.len() < 2 {
                continue;
            }
            let prev = PositionReport::from_token(&w.events[0].token)?;
            let cur = PositionReport::from_token(&w.events[1].token)?;
            if prev.seg == cur.seg {
                continue;
            }
            let minute = cur.minute();
            let cars =
                tables::cars_in_segment(&self.store, cur.xway, cur.dir, cur.seg, minute - 1)?;
            let lav = tables::lav(&self.store, cur.xway, cur.dir, cur.seg, minute)?;
            let accident =
                tables::accident_nearby(&self.store, cur.xway, cur.dir, cur.seg, cur.time)?;
            let toll = toll_formula(lav, cars, accident.is_some());
            ctx.emit(
                0,
                TollNotification {
                    carid: cur.carid,
                    time: cur.time,
                    seg: cur.seg,
                    toll,
                }
                .to_token(),
            );
        }
        Ok(())
    }

    fn replicate(&self) -> Option<Box<dyn Actor>> {
        // Toll state lives per-car in the input window and in the shared
        // store (reads only), so replicas over a carid-keyed split are safe.
        Some(Box::new(TollCalculator::new(self.store.clone())))
    }
}

/// A received notification with its QoS measurements.
#[derive(Debug, Clone)]
pub struct NotifiedItem {
    /// Director time at receipt.
    pub at: Timestamp,
    /// Response time relative to the triggering external event.
    pub latency: Micros,
    /// The notification payload.
    pub token: Token,
}

/// Handle to a [`NotificationSink`]'s storage: the workflow output where
/// the paper measures response time (TollNotification /
/// AccidentNotificationOut).
#[derive(Clone, Default)]
pub struct NotificationOutput {
    items: Arc<Mutex<Vec<NotifiedItem>>>,
}

impl NotificationOutput {
    /// A fresh output probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sink actor feeding this output.
    pub fn actor(&self) -> NotificationSink {
        NotificationSink {
            items: self.items.clone(),
        }
    }

    /// Everything received.
    pub fn items(&self) -> Vec<NotifiedItem> {
        self.items.lock().clone()
    }

    /// Number of notifications received.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether nothing was received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(receipt second, response time)` samples, for time-series plots.
    pub fn latency_samples(&self) -> Vec<(Timestamp, Micros)> {
        self.items.lock().iter().map(|i| (i.at, i.latency)).collect()
    }

    /// Mean response time, if any notifications arrived.
    pub fn mean_latency(&self) -> Option<Micros> {
        let items = self.items.lock();
        if items.is_empty() {
            return None;
        }
        let total: u64 = items.iter().map(|i| i.latency.as_micros()).sum();
        Some(Micros(total / items.len() as u64))
    }
}

/// The sink actor behind [`NotificationOutput`].
pub struct NotificationSink {
    items: Arc<Mutex<Vec<NotifiedItem>>>,
}

impl Actor for NotificationSink {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let now = ctx.now();
        while let Some(w) = ctx.get(0) {
            let mut items = self.items.lock();
            for event in &w.events {
                items.push(NotifiedItem {
                    at: now,
                    latency: event.latency_at(now),
                    token: event.token.clone(),
                });
            }
        }
        Ok(())
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = confluence_core::checkpoint::codec::Encoder::new();
        e.seq(self.items.lock().iter(), |e, i| {
            e.timestamp(i.at);
            e.micros(i.latency);
            e.token(&i.token);
        });
        Ok(Some(e.into_bytes()))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = confluence_core::checkpoint::codec::Decoder::new(bytes);
        *self.items.lock() = d.seq(|d| {
            Ok(NotifiedItem {
                at: d.timestamp()?,
                latency: d.micros()?,
                token: d.token()?,
            })
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confluence_core::event::CwEvent;
    use confluence_core::testing::MockContext;

    fn report(carid: i64, time: i64, seg: i64, pos: i64, speed: f64) -> PositionReport {
        PositionReport {
            time,
            carid,
            speed,
            xway: 0,
            lane: 2,
            dir: 0,
            seg,
            pos,
        }
    }

    fn window_of(reports: &[PositionReport]) -> Window {
        Window {
            group: Token::Unit,
            events: reports
                .iter()
                .map(|r| CwEvent::external(r.to_token(), r.arrival()))
                .collect(),
            formed_at: Timestamp::ZERO,
            timed_out: false,
        }
    }

    #[test]
    fn stopped_car_detected_on_four_same_positions() {
        let stopped = [
            report(1, 0, 5, 26_400, 0.0),
            report(1, 30, 5, 26_400, 0.0),
            report(1, 60, 5, 26_400, 0.0),
            report(1, 90, 5, 26_400, 0.0),
        ];
        let out = StoppedCarDetector::evaluate(&window_of(&stopped)).unwrap();
        assert!(out.is_some());
        assert_eq!(out.unwrap().int_field("time").unwrap(), 0, "first report");
        // Moving car → no detection.
        let moving = [
            report(1, 0, 5, 26_400, 60.0),
            report(1, 30, 5, 29_040, 60.0),
            report(1, 60, 6, 31_680, 60.0),
            report(1, 90, 6, 34_320, 60.0),
        ];
        assert!(StoppedCarDetector::evaluate(&window_of(&moving))
            .unwrap()
            .is_none());
        // Short window (flush) → no detection.
        assert!(StoppedCarDetector::evaluate(&window_of(&stopped[..2]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn accident_needs_two_distinct_cars() {
        let a = report(1, 0, 5, 26_400, 0.0);
        let b = report(2, 30, 5, 26_400, 0.0);
        let acc = AccidentDetector::evaluate(&window_of(&[a, b])).unwrap();
        let acc = acc.expect("two distinct stopped cars collide");
        assert_eq!(acc.int_field("car1").unwrap(), 1);
        assert_eq!(acc.int_field("car2").unwrap(), 2);
        assert_eq!(acc.int_field("seg").unwrap(), 5);
        // Same car twice: not an accident.
        assert!(AccidentDetector::evaluate(&window_of(&[a, a]))
            .unwrap()
            .is_none());
        // Exit lane excluded.
        let mut exit_a = a;
        exit_a.lane = crate::model::EXIT_LANE;
        let mut exit_b = b;
        exit_b.lane = crate::model::EXIT_LANE;
        assert!(AccidentDetector::evaluate(&window_of(&[exit_a, exit_b]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn recorder_and_notifier_round_trip_through_store() {
        let store = StoreHandle::new();
        tables::create_tables(&store).unwrap();
        let a = report(1, 100, 10, 52_900, 0.0);
        let b = report(2, 100, 10, 52_900, 0.0);
        let acc = AccidentDetector::evaluate(&window_of(&[a, b]))
            .unwrap()
            .unwrap();

        let mut rec = AccidentRecorder::new(store.clone());
        let mut ctx = MockContext::new(1).at(Timestamp::from_secs(100));
        ctx.push_token(0, acc, Timestamp::from_secs(100));
        rec.fire(&mut ctx).unwrap();

        // A car approaching the accident (dir 0, seg 8) is notified.
        let mut notifier = AccidentNotifier::new(store.clone());
        let mut ctx = MockContext::new(1).at(Timestamp::from_secs(110));
        ctx.push_token(0, report(7, 110, 8, 44_000, 55.0).to_token(), Timestamp::from_secs(110));
        notifier.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0).len(), 1);
        let alert = &ctx.emitted_on(0)[0];
        assert_eq!(alert.int_field("carid").unwrap(), 7);
        assert_eq!(alert.int_field("accident_seg").unwrap(), 10);

        // A car past the accident is not notified.
        let mut ctx = MockContext::new(1).at(Timestamp::from_secs(110));
        ctx.push_token(0, report(8, 110, 11, 58_100, 55.0).to_token(), Timestamp::from_secs(110));
        notifier.fire(&mut ctx).unwrap();
        assert!(ctx.emitted_on(0).is_empty());
    }

    #[test]
    fn car_speed_avg_emits_minute_average() {
        let mut actor = CarSpeedAvg;
        let mut ctx = MockContext::new(1);
        let w = window_of(&[
            report(1, 60, 5, 26_400, 50.0),
            report(1, 90, 5, 27_000, 60.0),
        ]);
        ctx.push_window(0, w);
        actor.fire(&mut ctx).unwrap();
        let out = &ctx.emitted_on(0)[0];
        assert_eq!(out.float_field("avg_speed").unwrap(), 55.0);
        assert_eq!(out.int_field("minute").unwrap(), 1);
        assert_eq!(out.int_field("carid").unwrap(), 1);
    }

    #[test]
    fn segment_speed_avg_averages_car_averages() {
        let mut actor = SegmentSpeedAvg;
        let mut ctx = MockContext::new(1);
        let mk = |car: i64, v: f64| {
            Token::record()
                .field("xway", 0)
                .field("dir", 0)
                .field("seg", 5)
                .field("minute", 2)
                .field("carid", car)
                .field("avg_speed", v)
                .build()
        };
        ctx.push_window(
            0,
            Window {
                group: Token::Unit,
                events: vec![
                    CwEvent::external(mk(1, 30.0), Timestamp::from_secs(120)),
                    CwEvent::external(mk(2, 50.0), Timestamp::from_secs(121)),
                ],
                formed_at: Timestamp::from_secs(180),
                timed_out: false,
            },
        );
        actor.fire(&mut ctx).unwrap();
        let out = &ctx.emitted_on(0)[0];
        assert_eq!(out.float_field("avg_speed").unwrap(), 40.0);
        assert_eq!(out.int_field("minute").unwrap(), 2);
    }

    #[test]
    fn car_counter_counts_distinct() {
        let mut actor = CarCounter;
        let mut ctx = MockContext::new(1);
        let w = window_of(&[
            report(1, 60, 5, 26_400, 50.0),
            report(2, 70, 5, 26_500, 55.0),
            report(1, 90, 5, 27_000, 60.0),
        ]);
        ctx.push_window(0, w);
        actor.fire(&mut ctx).unwrap();
        let out = &ctx.emitted_on(0)[0];
        assert_eq!(out.int_field("cars").unwrap(), 2, "car 1 counted once");
    }

    #[test]
    fn toll_charged_on_segment_change_with_bad_stats() {
        let store = StoreHandle::new();
        tables::create_tables(&store).unwrap();
        // Minute 2 stats for segment 6: slow (30 mph) and busy (60 cars).
        tables::write_segment_cars(&store, 0, 0, 6, 2, 60).unwrap();
        for m in [0, 1, 2] {
            tables::write_minute_speed(&store, 0, 0, 6, m, 30.0).unwrap();
        }
        let mut toll = TollCalculator::new(store.clone());
        let mut ctx = MockContext::new(1).at(Timestamp::from_secs(185));
        // Car crosses from segment 5 into 6 at t=185 (minute 3).
        let w = window_of(&[
            report(9, 150, 5, 31_000, 30.0),
            report(9, 185, 6, 32_000, 30.0),
        ]);
        ctx.push_window(0, w);
        toll.fire(&mut ctx).unwrap();
        let out = TollNotification::from_token(&ctx.emitted_on(0)[0]).unwrap();
        assert_eq!(out.carid, 9);
        assert_eq!(out.seg, 6);
        assert_eq!(out.toll, 200.0, "2·(60−50)²");
        // No segment change → no notification.
        let mut ctx = MockContext::new(1).at(Timestamp::from_secs(200));
        ctx.push_window(
            0,
            window_of(&[
                report(9, 185, 6, 32_000, 30.0),
                report(9, 215, 6, 33_000, 30.0),
            ]),
        );
        toll.fire(&mut ctx).unwrap();
        assert!(ctx.emitted_on(0).is_empty());
    }

    #[test]
    fn toll_zero_when_accident_nearby() {
        let store = StoreHandle::new();
        tables::create_tables(&store).unwrap();
        tables::write_segment_cars(&store, 0, 0, 6, 2, 60).unwrap();
        tables::write_minute_speed(&store, 0, 0, 6, 2, 30.0).unwrap();
        tables::insert_accident(&store, 0, 0, 7, 37_000, 170, 1, 2).unwrap();
        let mut toll = TollCalculator::new(store);
        let mut ctx = MockContext::new(1).at(Timestamp::from_secs(185));
        ctx.push_window(
            0,
            window_of(&[
                report(9, 150, 5, 31_000, 30.0),
                report(9, 185, 6, 32_000, 30.0),
            ]),
        );
        toll.fire(&mut ctx).unwrap();
        let out = TollNotification::from_token(&ctx.emitted_on(0)[0]).unwrap();
        assert_eq!(out.toll, 0.0, "accident at seg 7 covers segs 3..7 for dir 0... seg 6 in range");
    }

    #[test]
    fn notification_output_records_latency() {
        let out = NotificationOutput::new();
        let mut sink = out.actor();
        let mut ctx = MockContext::new(1).at(Timestamp(2_000_000));
        ctx.push_token(0, Token::Int(1), Timestamp(1_500_000));
        sink.fire(&mut ctx).unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out.is_empty());
        assert_eq!(out.items()[0].latency, Micros(500_000));
        assert_eq!(out.mean_latency(), Some(Micros(500_000)));
        assert_eq!(out.latency_samples()[0].0, Timestamp(2_000_000));
        assert_eq!(NotificationOutput::new().mean_latency(), None);
    }

    #[test]
    fn notification_sink_state_round_trips() {
        let out = NotificationOutput::new();
        let mut sink = out.actor();
        let mut ctx = MockContext::new(1).at(Timestamp(2_000_000));
        ctx.push_token(0, Token::Int(41), Timestamp(1_500_000));
        ctx.push_token(0, Token::Int(42), Timestamp(1_750_000));
        sink.fire(&mut ctx).unwrap();
        let bytes = sink.save_state().unwrap().expect("sink is stateful");

        // A recovering process starts with an empty output and restores.
        let out2 = NotificationOutput::new();
        let mut sink2 = out2.actor();
        sink2.restore_state(&bytes).unwrap();
        assert_eq!(out2.len(), 2);
        let items = out2.items();
        assert_eq!(items[0].token, Token::Int(41));
        assert_eq!(items[0].latency, Micros(500_000));
        assert_eq!(items[1].token, Token::Int(42));
        assert_eq!(items[1].at, Timestamp(2_000_000));
    }

    #[test]
    fn minute_writers_persist() {
        let store = StoreHandle::new();
        tables::create_tables(&store).unwrap();
        let mut w1 = MinuteSpeedWriter::new(store.clone());
        let mut ctx = MockContext::new(1);
        ctx.push_token(
            0,
            Token::record()
                .field("xway", 0)
                .field("dir", 0)
                .field("seg", 3)
                .field("minute", 1)
                .field("avg_speed", 42.0)
                .build(),
            Timestamp::ZERO,
        );
        w1.fire(&mut ctx).unwrap();
        assert_eq!(tables::lav(&store, 0, 0, 3, 2).unwrap(), Some(42.0));

        let mut w2 = SegmentCarsWriter::new(store.clone());
        let mut ctx = MockContext::new(1);
        ctx.push_token(
            0,
            Token::record()
                .field("xway", 0)
                .field("dir", 0)
                .field("seg", 3)
                .field("minute", 1)
                .field("cars", 77)
                .build(),
            Timestamp::ZERO,
        );
        w2.fire(&mut ctx).unwrap();
        assert_eq!(tables::cars_in_segment(&store, 0, 0, 3, 1).unwrap(), Some(77));
    }
}
