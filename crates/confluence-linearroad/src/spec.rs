//! The Linear Road workflow as a declarative specification.
//!
//! The same Figure-10 topology as [`crate::workflow::build`], written in
//! the `confluence-core::spec` language and instantiated through an actor
//! registry — demonstrating the specification/execution decoupling at the
//! benchmark's full scale. (The spec form uses flat detection actors; the
//! composite sub-workflow variant is constructed programmatically.)

use confluence_core::error::Result;
use confluence_core::graph::Workflow;
use confluence_core::spec::{parse, ActorRegistry};
use confluence_relstore::StoreHandle;

use crate::actors::{
    AccidentDetector, AccidentNotifier, AccidentRecorder, CarCounter, CarSpeedAvg,
    MinuteSpeedWriter, NotificationOutput, SegmentCarsWriter, SegmentSpeedAvg, StoppedCarDetector,
    TollCalculator,
};
use crate::gen::Workload;
use crate::tables;

/// The Figure-10 workflow, in the specification language.
pub const LINEAR_ROAD_SPEC: &str = r#"
workflow linear-road {
    actor source   = position_feed()

    # --- accidents ------------------------------------------------------
    actor StoppedCarDetection      = stopped_car_detector()
    actor AccidentDetection        = accident_detector()
    actor InsertAccident           = accident_recorder()
    actor AccidentNotification     = accident_notifier()
    actor AccidentNotificationOut  = accident_output()

    connect source.out -> StoppedCarDetection.in
        window tuples(4, 1) group_by(carid)
    connect StoppedCarDetection.out -> AccidentDetection.in
        window tuples(2, 1) group_by(xway, dir, pos)
    connect AccidentDetection.out -> InsertAccident.in
    connect source.out -> AccidentNotification.in
        window each
    connect AccidentNotification.out -> AccidentNotificationOut.in

    # --- segment statistics ----------------------------------------------
    actor Avgsv       = car_speed_avg()
    actor Avgs        = segment_speed_avg()
    actor SpeedWriter = minute_speed_writer()
    actor cars        = car_counter()
    actor CarsWriter  = segment_cars_writer()

    connect source.out -> Avgsv.in
        window time(60s, 60s) group_by(carid, xway, dir, seg)
    connect Avgsv.out -> Avgs.in
        window time(60s, 60s) group_by(xway, dir, seg)
    connect Avgs.out -> SpeedWriter.in
    connect source.out -> cars.in
        window time(60s, 60s) group_by(xway, dir, seg)
    connect cars.out -> CarsWriter.in

    # --- tolls -------------------------------------------------------------
    actor TollCalculation  = toll_calculator()
    actor TollNotification = toll_output()

    connect source.out -> TollCalculation.in
        window tuples(2, 1) group_by(carid)
    connect TollCalculation.out -> TollNotification.in

    # Table 3 priorities: outputs 5, statistics/detection 10.
    priority TollCalculation         = 5
    priority TollNotification        = 5
    priority AccidentNotification    = 5
    priority AccidentNotificationOut = 5
    priority StoppedCarDetection     = 10
    priority AccidentDetection       = 10
    priority InsertAccident          = 10
    priority Avgsv                   = 10
    priority Avgs                    = 10
    priority SpeedWriter             = 10
    priority cars                    = 10
    priority CarsWriter              = 10
}
"#;

/// Build the Linear Road workflow by parsing [`LINEAR_ROAD_SPEC`].
///
/// Returns the same observable handles as [`crate::workflow::build`].
pub fn build_from_spec(workload: &Workload) -> Result<crate::workflow::LinearRoad> {
    let store = StoreHandle::new();
    tables::create_tables(&store)?;
    let toll_output = NotificationOutput::new();
    let accident_output = NotificationOutput::new();

    let mut reg = ActorRegistry::new();
    {
        let schedule = std::sync::Mutex::new(Some(workload.schedule()));
        reg.register("position_feed", move |_| {
            let data = schedule.lock().unwrap().take().unwrap_or_default();
            Ok(Box::new(confluence_core::actors::TimedSource::new(data)))
        });
        reg.register("stopped_car_detector", |_| Ok(Box::new(StoppedCarDetector)));
        reg.register("accident_detector", |_| Ok(Box::new(AccidentDetector)));
        let s = store.clone();
        reg.register("accident_recorder", move |_| {
            Ok(Box::new(AccidentRecorder::new(s.clone())))
        });
        let s = store.clone();
        reg.register("accident_notifier", move |_| {
            Ok(Box::new(AccidentNotifier::new(s.clone())))
        });
        let out = accident_output.clone();
        reg.register("accident_output", move |_| Ok(Box::new(out.actor())));
        reg.register("car_speed_avg", |_| Ok(Box::new(CarSpeedAvg)));
        reg.register("segment_speed_avg", |_| Ok(Box::new(SegmentSpeedAvg)));
        let s = store.clone();
        reg.register("minute_speed_writer", move |_| {
            Ok(Box::new(MinuteSpeedWriter::new(s.clone())))
        });
        reg.register("car_counter", |_| Ok(Box::new(CarCounter)));
        let s = store.clone();
        reg.register("segment_cars_writer", move |_| {
            Ok(Box::new(SegmentCarsWriter::new(s.clone())))
        });
        let s = store.clone();
        reg.register("toll_calculator", move |_| {
            Ok(Box::new(TollCalculator::new(s.clone())))
        });
        let out = toll_output.clone();
        reg.register("toll_output", move |_| Ok(Box::new(out.actor())));
    }

    let workflow: Workflow = parse(LINEAR_ROAD_SPEC, &reg)?;
    Ok(crate::workflow::LinearRoad {
        workflow,
        store,
        toll_output,
        accident_output,
        shedder: None,
    })
}
