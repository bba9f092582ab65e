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

use confluence_core::actor::IoSignature;
use confluence_core::actors::FnActor;
use confluence_core::actors::TimedSource;
use confluence_core::director::composite::{CompositeActor, InjectHandle, InnerDirector};
use confluence_core::error::Result;
use confluence_core::graph::{Shard, Workflow, WorkflowBuilder};
use confluence_core::time::Micros;
use confluence_core::token::Token;
use confluence_core::window::{GroupBy, Window, WindowSpec};
use confluence_relstore::StoreHandle;
use confluence_sched::shedding::{LoadShedder, ShedderHandle};

use crate::actors::{
    AccidentDetector, AccidentNotifier, AccidentRecorder, CarCounter, CarSpeedAvg,
    MinuteSpeedWriter, NotificationOutput, SegmentCarsWriter, SegmentSpeedAvg, StoppedCarDetector,
    TollCalculator,
};
use crate::gen::Workload;
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
    pub shed_target: Option<confluence_core::time::Micros>,
    /// Compress the workload timetable by this factor (arrival timestamps
    /// are divided by it), so real-time directors replay a long trace in a
    /// fraction of its wall-clock duration. `1` replays in real time.
    pub arrival_speedup: u64,
    /// Shard `TollCalculation` by `carid` into this many replicas behind a
    /// generated splitter and ordered merge (see
    /// [`confluence_core::shard`]). `None` (or `Some(1)`) keeps the single
    /// toll actor.
    pub shard_toll: Option<usize>,
    /// Artificial service time per toll-calculation firing (a blocking
    /// sleep; see [`TollCalculator::with_cost`]), for scaling experiments
    /// where the real per-firing cost is negligible.
    pub toll_cost: Option<Micros>,
}

impl Default for LrOptions {
    fn default() -> Self {
        LrOptions {
            composite_subworkflows: true,
            shed_target: None,
            arrival_speedup: 1,
            shard_toll: None,
            toll_cost: None,
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

/// Build the Linear Road workflow over a generated workload.
pub fn build(workload: &Workload, opts: &LrOptions) -> Result<LinearRoad> {
    let store = StoreHandle::new();
    tables::create_tables(&store)?;
    let toll_output = NotificationOutput::new();
    let accident_output = NotificationOutput::new();

    let mut b = WorkflowBuilder::new("linear-road");
    let mut schedule = workload.schedule();
    if opts.arrival_speedup > 1 {
        for (at, _) in &mut schedule {
            *at = confluence_core::time::Timestamp(at.as_micros() / opts.arrival_speedup);
        }
    }
    let real_source = b.add_actor("source", TimedSource::new(schedule));
    // With shedding enabled, every consumer hangs off the shedder instead
    // of the raw source.
    let (source, shedder) = match opts.shed_target {
        Some(target) => {
            let (shed, handle) = LoadShedder::new(target);
            let shed_id = b.add_actor("LoadShedder", shed);
            b.link((real_source, "out"), (shed_id, "in"))?;
            (shed_id, Some(handle))
        }
        None => (real_source, None),
    };

    // --- Accident detection and notification ------------------------------
    let stopped = if opts.composite_subworkflows {
        let inner = detection_composite(
            "stopped-car-subworkflow",
            "compare-positions",
            4,
            StoppedCarDetector::evaluate,
        )?;
        b.add_boxed_actor("StoppedCarDetection", Box::new(inner))
    } else {
        b.add_actor("StoppedCarDetection", StoppedCarDetector)
    };
    let detect = if opts.composite_subworkflows {
        let inner =
            detection_composite("accident-subworkflow", "compare-cars", 2, AccidentDetector::evaluate)?;
        b.add_boxed_actor("AccidentDetection", Box::new(inner))
    } else {
        b.add_actor("AccidentDetection", AccidentDetector)
    };
    let insert = b.add_actor("InsertAccident", AccidentRecorder::new(store.clone()));
    let notify = b.add_actor("AccidentNotification", AccidentNotifier::new(store.clone()));
    let notify_out = b.add_actor("AccidentNotificationOut", accident_output.actor());

    // Stopped cars: the last 4 reports of each car.
    b.link_windowed(
        (source, "out"),
        (stopped, "in"),
        WindowSpec::tuples(4, 1).group_by(GroupBy::fields(&["carid"])),
    )?;
    // Accidents: two stopped-car reports at the same position.
    b.link_windowed(
        (stopped, "out"),
        (detect, "in"),
        WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["xway", "dir", "pos"])),
    )?;
    b.link((detect, "out"), (insert, "in"))?;
    b.link_windowed((source, "out"), (notify, "in"), WindowSpec::each_event())?;
    b.link((notify, "out"), (notify_out, "in"))?;

    // --- Segment statistics ------------------------------------------------
    let avgsv = b.add_actor("Avgsv", CarSpeedAvg);
    let avgs = b.add_actor("Avgs", SegmentSpeedAvg);
    let speed_writer = b.add_actor("SpeedWriter", MinuteSpeedWriter::new(store.clone()));
    let cars = b.add_actor("cars", CarCounter);
    let cars_writer = b.add_actor("CarsWriter", SegmentCarsWriter::new(store.clone()));
    let minute = Micros::from_secs(60);
    b.link_windowed(
        (source, "out"),
        (avgsv, "in"),
        WindowSpec::time(minute, minute)
            .group_by(GroupBy::fields(&["carid", "xway", "dir", "seg"])),
    )?;
    b.link_windowed(
        (avgsv, "out"),
        (avgs, "in"),
        WindowSpec::time(minute, minute).group_by(GroupBy::fields(&["xway", "dir", "seg"])),
    )?;
    b.link((avgs, "out"), (speed_writer, "in"))?;
    b.link_windowed(
        (source, "out"),
        (cars, "in"),
        WindowSpec::time(minute, minute).group_by(GroupBy::fields(&["xway", "dir", "seg"])),
    )?;
    b.link((cars, "out"), (cars_writer, "in"))?;

    // --- Toll calculation and notification ----------------------------------
    let mut toll_actor = TollCalculator::new(store.clone());
    if let Some(cost) = opts.toll_cost {
        toll_actor = toll_actor.with_cost(cost);
    }
    let toll = b.add_actor("TollCalculation", toll_actor);
    let toll_out = b.add_actor("TollNotification", toll_output.actor());
    b.link_windowed(
        (source, "out"),
        (toll, "in"),
        WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"])),
    )?;
    b.link((toll, "out"), (toll_out, "in"))?;
    if let Some(n) = opts.shard_toll {
        // The toll window groups by carid, so a carid-keyed split keeps
        // every window whole on one replica; the generated merge restores
        // global dispatch order at the notification output.
        b.shard(toll, Shard::by_fields(&["carid"]).replicas(n))?;
    }

    // Designer priorities (paper Table 3): 5 for the actors handling the
    // immediate output of the workflow, 10 for statistics maintenance and
    // accident detection.
    b.set_priority(toll, 5);
    b.set_priority(toll_out, 5);
    b.set_priority(notify, 5);
    b.set_priority(notify_out, 5);
    b.set_priority(stopped, 10);
    b.set_priority(detect, 10);
    b.set_priority(insert, 10);
    b.set_priority(avgsv, 10);
    b.set_priority(avgs, 10);
    b.set_priority(speed_writer, 10);
    b.set_priority(cars, 10);
    b.set_priority(cars_writer, 10);

    // Note: the shedder keeps the default priority on purpose — queueing
    // delay in *its* input is the congestion signal it sheds on.

    Ok(LinearRoad {
        workflow: b.build()?,
        store,
        toll_output,
        accident_output,
        shedder,
    })
}

/// A detection sub-workflow (Figures 11 and 12): a composite whose inner
/// graph re-chunks the `n` reports each outer `{n, 1}` firing injects
/// into one consuming `n`-window and runs `evaluate` over it under a DDF
/// director.
fn detection_composite(
    name: &str,
    compare: &str,
    n: usize,
    evaluate: fn(&Window) -> Result<Option<Token>>,
) -> Result<CompositeActor> {
    let entry = InjectHandle::new();
    let exit = confluence_core::actors::Collector::new();
    let mut ib = WorkflowBuilder::new(name);
    let src = ib.add_actor("entry", entry.source());
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
        InnerDirector::Ddf,
        vec![entry],
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
    fn sharded_toll_expands_behind_split_and_merge() {
        let w = Workload::generate(WorkloadConfig::tiny());
        let lr = build(
            &w,
            &LrOptions {
                shard_toll: Some(3),
                ..LrOptions::default()
            },
        )
        .unwrap();
        // 13 base actors: the toll slot becomes the splitter, plus 3
        // replicas and the merge.
        assert_eq!(lr.workflow.actor_count(), 17);
        let groups = lr.workflow.shard_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].base, "TollCalculation");
        assert_eq!(groups[0].replicas.len(), 3);
        // Replicas inherit the toll priority (paper Table 3: 5).
        for &rid in &groups[0].replicas {
            assert_eq!(lr.workflow.node(rid).priority, 5);
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
