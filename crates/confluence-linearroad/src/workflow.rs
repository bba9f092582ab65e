//! The Linear Road continuous workflow (paper Appendix A, Figure 10).
//!
//! Two levels of hierarchy: the top level wires the major tasks under a
//! continuous-workflow director (STAFiLOS SCWF or the thread-based PNCWF);
//! selected tasks (detecting stopped cars, detecting accidents) are
//! sub-workflows wrapped in composite actors governed by DDF directors —
//! their consumption/production rates are fluid (decision points).
//!
//! Three areas: accidents (detection + notification), segment statistics
//! (LAV + car counts), and tolls (calculation + notification).
//!
//! The top level is written once, as text in the `confluence_core::spec`
//! language ([`spec_text`]); [`build`] registers the domain actors and
//! parses it.

use std::sync::Arc;

use confluence_core::actor::{Actor, IoSignature};
use confluence_core::actors::{Collector, FnActor, TimedSource, Timetable};
use confluence_core::director::composite::{CompositeActor, Entry};
use confluence_core::error::{Error, Result};
use confluence_core::graph::{Workflow, WorkflowBuilder};
use confluence_core::spec::{parse, ActorRegistry, Params};
use confluence_core::time::{Micros, Timestamp};
use confluence_core::token::Token;
use confluence_core::window::{Window, WindowSpec};
use confluence_relstore::StoreHandle;
use confluence_sched::shedding::{LoadShedder, ShedderHandle};
use parking_lot::Mutex;

use crate::actors::{
    AccidentDetector, AccidentNotifier, AccidentRecorder, CarCounter, CarSpeedAvg,
    MinuteSpeedWriter, NotificationOutput, SegmentCarsWriter, SegmentSpeedAvg, StoppedCarDetector,
    TollCalculator,
};
use crate::gen::Workload;
use crate::model::PositionReport;
use crate::tables;

/// Construction options.
#[derive(Debug, Clone)]
pub struct LrOptions {
    /// Wrap stopped-car and accident detection in composite sub-workflows
    /// (the paper's two-level hierarchy). `false` uses flat actors —
    /// functionally identical, useful for ablations.
    pub composite_subworkflows: bool,
    /// Insert an adaptive load shedder after the source targeting this
    /// response time (paper §4.3: integrated sources can be tuned to shed
    /// load under overloading situations). `None` = no shedding.
    pub shed_target: Option<Micros>,
    /// Compress the workload timetable by this factor (arrival timestamps
    /// are divided by it), so real-time directors replay a long trace in a
    /// fraction of its wall-clock duration. `1` replays in real time.
    pub arrival_speedup: u64,
}

impl Default for LrOptions {
    fn default() -> Self {
        LrOptions {
            composite_subworkflows: true,
            shed_target: None,
            arrival_speedup: 1,
        }
    }
}

/// The assembled benchmark: workflow plus its observable outputs.
pub struct LinearRoad {
    /// The top-level workflow, ready for any director.
    pub workflow: Workflow,
    /// The shared relational store.
    pub store: StoreHandle,
    /// TollNotification output (where the paper measures response time).
    pub toll_output: NotificationOutput,
    /// AccidentNotificationOut output.
    pub accident_output: NotificationOutput,
    /// Load-shedder diagnostics, when shedding was requested.
    pub shedder: Option<ShedderHandle>,
}

/// The Figure-10 workflow in the spec language: the one definition of its
/// topology, parsed by [`build`]. One option adds lines and nothing else:
/// `shed_target` puts a `LoadShedder` between the source and its five
/// consumers. The other options change what the registered factories
/// construct, not the text.
pub fn spec_text(opts: &LrOptions) -> String {
    // The shedder keeps the default priority on purpose: queueing delay in
    // *its* input is the congestion signal it sheds on.
    let (feed, shedder) = match opts.shed_target {
        Some(_) => (
            "LoadShedder",
            "\n    actor LoadShedder = load_shedder()\n    connect source.out -> LoadShedder.in\n",
        ),
        None => ("source", ""),
    };
    format!(
        r#"workflow linear-road {{
    actor source = position_feed(){shedder}

    # --- accidents ------------------------------------------------------
    actor StoppedCarDetection      = stopped_car_detector()
    actor AccidentDetection        = accident_detector()
    actor InsertAccident           = accident_recorder()
    actor AccidentNotification     = accident_notifier()
    actor AccidentNotificationOut  = accident_output()

    # Stopped cars: the last 4 reports of each car; accidents: two
    # stopped-car reports at the same position.
    connect {feed}.out -> StoppedCarDetection.in
        window tuples(4, 1) group_by(carid)
    connect StoppedCarDetection.out -> AccidentDetection.in
        window tuples(2, 1) group_by(xway, dir, pos)
    connect AccidentDetection.out -> InsertAccident.in
    connect {feed}.out -> AccidentNotification.in
        window each
    connect AccidentNotification.out -> AccidentNotificationOut.in

    # --- segment statistics ----------------------------------------------
    actor Avgsv       = car_speed_avg()
    actor Avgs        = segment_speed_avg()
    actor SpeedWriter = minute_speed_writer()
    actor cars        = car_counter()
    actor CarsWriter  = segment_cars_writer()

    connect {feed}.out -> Avgsv.in
        window time(60s, 60s) group_by(carid, xway, dir, seg)
    connect Avgsv.out -> Avgs.in
        window time(60s, 60s) group_by(xway, dir, seg)
    connect Avgs.out -> SpeedWriter.in
    connect {feed}.out -> cars.in
        window time(60s, 60s) group_by(xway, dir, seg)
    connect cars.out -> CarsWriter.in

    # --- tolls -------------------------------------------------------------
    actor TollCalculation  = toll_calculator()
    actor TollNotification = toll_output()

    connect {feed}.out -> TollCalculation.in
        window tuples(2, 1) group_by(carid)
    connect TollCalculation.out -> TollNotification.in

    # Designer priorities (paper Table 3): 5 for the actors handling the
    # immediate output of the workflow, 10 for statistics maintenance and
    # accident detection.
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
}}
"#
    )
}

/// The reports as the source's [`Timetable`], arrivals divided by
/// `arrival_speedup`: a report becomes a token when it is released.
struct Feed(Arc<[PositionReport]>, u64);

impl Timetable for Feed {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn arrival(&self, i: usize) -> Timestamp {
        Timestamp(self.0[i].arrival().as_micros() / self.1)
    }

    fn token(&self, i: usize) -> Token {
        self.0[i].to_token()
    }
}

/// Build the Linear Road workflow over a generated workload: register the
/// domain actors, with the options they depend on, and parse
/// [`spec_text`].
pub fn build(workload: &Workload, opts: &LrOptions) -> Result<LinearRoad> {
    let store = StoreHandle::new();
    tables::create_tables(&store)?;
    let toll_output = NotificationOutput::new();
    let accident_output = NotificationOutput::new();
    let mut reg = ActorRegistry::new();

    let feed = Feed(workload.reports.clone(), opts.arrival_speedup.max(1));
    reg.register("position_feed", once(TimedSource::over(Arc::new(feed))));
    let shedder = opts.shed_target.map(|target| {
        let (shed, handle) = LoadShedder::new(target);
        reg.register("load_shedder", once(shed));
        handle
    });

    let composite = opts.composite_subworkflows;
    reg.register("stopped_car_detector", move |_| {
        Ok(if composite {
            let evaluate = StoppedCarDetector::evaluate;
            Box::new(detection_composite(
                "stopped-car-subworkflow",
                "compare-positions",
                4,
                evaluate,
            )?)
        } else {
            Box::new(StoppedCarDetector)
        })
    });
    reg.register("accident_detector", move |_| {
        Ok(if composite {
            let evaluate = AccidentDetector::evaluate;
            Box::new(detection_composite("accident-subworkflow", "compare-cars", 2, evaluate)?)
        } else {
            Box::new(AccidentDetector)
        })
    });
    reg.register("accident_recorder", over(&store, AccidentRecorder::new));
    reg.register("accident_notifier", over(&store, AccidentNotifier::new));
    reg.register("minute_speed_writer", over(&store, MinuteSpeedWriter::new));
    reg.register("segment_cars_writer", over(&store, SegmentCarsWriter::new));
    reg.register("toll_calculator", over(&store, TollCalculator::new));
    reg.register("car_speed_avg", |_| Ok(Box::new(CarSpeedAvg)));
    reg.register("segment_speed_avg", |_| Ok(Box::new(SegmentSpeedAvg)));
    reg.register("car_counter", |_| Ok(Box::new(CarCounter)));
    for (name, output) in [("accident_output", &accident_output), ("toll_output", &toll_output)] {
        let output = output.clone();
        reg.register(name, move |_| Ok(Box::new(output.actor())));
    }

    Ok(LinearRoad {
        workflow: parse(&spec_text(opts), &reg)?,
        store,
        toll_output,
        accident_output,
        shedder,
    })
}

/// A factory for an actor over the shared store.
fn over<A: Actor + 'static>(
    store: &StoreHandle,
    new: fn(StoreHandle) -> A,
) -> impl Fn(&Params) -> Result<Box<dyn Actor>> + Send + Sync {
    let store = store.clone();
    move |_| Ok(Box::new(new(store.clone())))
}

/// A factory that hands out `actor` to the first declaration of its type;
/// a second declaration is an error.
fn once(actor: impl Actor + 'static) -> impl Fn(&Params) -> Result<Box<dyn Actor>> + Send + Sync {
    let slot = Mutex::new(Some(actor));
    move |_| match slot.lock().take() {
        Some(actor) => Ok(Box::new(actor)),
        None => Err(Error::Graph("the source and the shedder are declared once".into())),
    }
}

/// A detection sub-workflow (Figures 11 and 12): a composite whose inner
/// graph re-chunks the `n` reports each outer `{n, 1}` firing injects
/// into one consuming `n`-window and runs `evaluate` over it in DDF's
/// firing order.
fn detection_composite(
    name: &str,
    compare: &str,
    n: usize,
    evaluate: fn(&Window) -> Result<Option<Token>>,
) -> Result<CompositeActor> {
    let exit = Collector::new();
    let mut ib = WorkflowBuilder::new(name);
    let src = ib.add_actor("entry", Entry);
    let cmp = ib.add_actor(
        compare,
        FnActor::new(IoSignature::transform("in", "out"), move |w, emit| {
            if let Some(t) = evaluate(w)? {
                emit(0, t);
            }
            Ok(())
        }),
    );
    let k = ib.add_actor("exit", exit.actor());
    ib.link_windowed((src, "out"), (cmp, "in"), WindowSpec::tuples(n, n).delete_used(true))?;
    ib.link((cmp, "out"), (k, "in"))?;
    CompositeActor::new(
        IoSignature::transform("in", "out"),
        ib.build()?,
        vec![src],
        vec![exit],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadConfig;

    #[test]
    fn builds_with_and_without_composites() {
        let w = Workload::generate(WorkloadConfig::tiny());
        for composite in [true, false] {
            let lr = build(
                &w,
                &LrOptions {
                    composite_subworkflows: composite,
                    ..LrOptions::default()
                },
            )
            .unwrap();
            assert_eq!(lr.workflow.actor_count(), 13);
            let toll = lr.workflow.find("TollCalculation").unwrap();
            assert_eq!(lr.workflow.node(toll).priority, 5);
            let stats = lr.workflow.find("Avgsv").unwrap();
            assert_eq!(lr.workflow.node(stats).priority, 10);
            assert_eq!(lr.workflow.sources().len(), 1);
        }
    }

    #[test]
    fn source_fans_out_to_four_areas() {
        let w = Workload::generate(WorkloadConfig::tiny());
        let lr = build(&w, &LrOptions::default()).unwrap();
        let src = lr.workflow.find("source").unwrap();
        let downstream = lr.workflow.downstream_actors(src);
        assert_eq!(
            downstream.len(),
            5,
            "stopped cars, accident notify, avgsv, cars, toll"
        );
    }
}
