//! Shared experiment runner: one Linear Road run under one scheduler.

use std::sync::Arc;

use confluence_core::director::pool::PoolDirector;
use confluence_core::director::pool_policy::{
    Fifo as PoolFifo, OldestWave, PoolPolicy, Quantum, RateBased,
};
use confluence_core::engine::{Engine, ExecConfig};
use confluence_core::telemetry::{
    MetricsSnapshot, TimeSeriesRecorder, TraceConfig, TraceReport, Tracer,
};
use confluence_core::time::{Micros, Timestamp};
use confluence_linearroad::cost::{pncwf_cost_model, staf_cost_model};
use confluence_linearroad::{build, LrOptions, ResponseSeries, Workload};
use confluence_sched::cost::CostModel;
use confluence_sched::policies::{EdfScheduler, FifoScheduler, QbsScheduler, RbScheduler, RrScheduler};
use confluence_sched::{Scheduler, ScwfDirector};

use crate::config::ExperimentConfig;

/// Which scheduler to run (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Quantum Priority Based with the given basic quantum (µs).
    Qbs {
        /// Basic quantum `b` in µs.
        basic_quantum: u64,
    },
    /// Round-Robin with the given slice (µs).
    Rr {
        /// Per-period slice in µs.
        slice: u64,
    },
    /// Rate-Based (Highest Rate).
    Rb,
    /// The thread-based PNCWF baseline (simulated: arrival-order policy
    /// plus thread-overhead costs).
    Pncwf,
    /// Plain FIFO (not in the paper; used as an extra baseline).
    Fifo,
    /// Earliest-deadline-first on wave origins (extension policy).
    Edf,
}

impl PolicyKind {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Qbs { basic_quantum } => format!("QBS-q{basic_quantum}"),
            PolicyKind::Rr { slice } => format!("RR-q{slice}"),
            PolicyKind::Rb => "RB".to_string(),
            PolicyKind::Pncwf => "PNCWF".to_string(),
            PolicyKind::Fifo => "FIFO".to_string(),
            PolicyKind::Edf => "EDF".to_string(),
        }
    }
}

/// A cost model scaled by a constant factor (used to down-scale workloads
/// while preserving the saturation dynamics).
pub(crate) struct ScaledCost<M> {
    inner: M,
    factor: f64,
}

impl<M> ScaledCost<M> {
    /// `inner` scaled for `workload`: down-scaled workloads get
    /// proportionally inflated costs so the capacity-vs-ramp crossover
    /// lands at the same run time.
    pub(crate) fn for_workload(inner: M, workload: &Workload) -> Self {
        let factor = 0.5 / workload.config.l_rating.max(1e-9);
        ScaledCost { inner, factor }
    }
}

impl<M: CostModel> CostModel for ScaledCost<M> {
    fn firing_cost(&self, actor: usize, name: &str, consumed: u64, produced: u64) -> Micros {
        let base = self.inner.firing_cost(actor, name, consumed, produced);
        Micros((base.as_micros() as f64 * self.factor).round() as u64)
    }
}

/// Knobs beyond the scheduler choice (ablations, extensions, tracing).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Per-decision scheduler overhead charged in virtual time (the cost
    /// of the scheduling framework itself — ablation knob).
    pub scheduler_overhead: Micros,
    /// Use flat actors instead of composite sub-workflows (ablation knob).
    pub flat_subworkflows: bool,
    /// Enable adaptive load shedding with this response-time target.
    pub shed_target: Option<Micros>,
    /// Attach a wave-lineage [`Tracer`] with this configuration; its
    /// report comes back in [`LrRun::trace`].
    pub trace: Option<TraceConfig>,
}

/// Results of one Linear Road run.
pub struct LrRun {
    /// Scheduler label.
    pub label: String,
    /// Response-time series at the TollNotification output.
    pub toll_series: ResponseSeries,
    /// Response-time series at AccidentNotificationOut.
    pub accident_series: ResponseSeries,
    /// Thrash point (seconds), if the scheduler saturated.
    pub thrash_secs: Option<u64>,
    /// Total actor firings.
    pub firings: u64,
    /// Number of toll notifications produced.
    pub toll_count: usize,
    /// Fraction of position reports dropped by the shedder (0 when
    /// shedding is off).
    pub shed_fraction: f64,
    /// Backpressure blocks observed at full bounded channels.
    pub channel_blocks: u64,
    /// Total time writers spent blocked on full channels.
    pub channel_block_time: Micros,
    /// Events shed by drop channel policies at full channels.
    pub channel_shed: u64,
    /// Highest inbox depth observed anywhere in the fabric.
    pub queue_high_water: u64,
    /// Per-actor metrics from the core telemetry recorder.
    pub metrics: MetricsSnapshot,
    /// The recorded wave lineage, when [`RunOptions::trace`] was set.
    pub trace: Option<TraceReport>,
}

/// Run the Linear Road workflow under one scheduler in virtual time.
///
/// The run is cut off shortly after the experiment duration: once the
/// offered load exceeds capacity, the backlog would otherwise keep the
/// virtual clock crawling long past the window the paper plots.
pub fn run_linear_road(
    kind: PolicyKind,
    workload: &Workload,
    config: &ExperimentConfig,
    options: &RunOptions,
) -> LrRun {
    let lr = build(
        workload,
        &LrOptions {
            composite_subworkflows: !options.flat_subworkflows,
            shed_target: options.shed_target,
            ..LrOptions::default()
        },
    )
    .expect("workflow builds");
    let interval = config.qbs_source_interval;
    let policy: Box<dyn Scheduler> = match kind {
        PolicyKind::Qbs { basic_quantum } => Box::new(QbsScheduler::new(basic_quantum, interval)),
        PolicyKind::Rr { slice } => Box::new(RrScheduler::new(slice, interval)),
        PolicyKind::Rb => Box::new(RbScheduler::new()),
        PolicyKind::Pncwf => Box::new(FifoScheduler::pncwf()),
        PolicyKind::Fifo => Box::new(FifoScheduler::new(interval)),
        PolicyKind::Edf => Box::new(EdfScheduler::new(interval)),
    };
    let cost: Box<dyn CostModel> = if kind == PolicyKind::Pncwf {
        Box::new(ScaledCost::for_workload(pncwf_cost_model(), workload))
    } else {
        Box::new(ScaledCost::for_workload(staf_cost_model(), workload))
    };
    let director = ScwfDirector::virtual_time(policy, cost)
        .with_scheduler_overhead(options.scheduler_overhead)
        .with_deadline(Timestamp::from_secs(config.duration_secs + 20));
    let mut engine = traced(Engine::new(lr.workflow), &options.trace).with_director(director);
    let report = engine.run().expect("run succeeds");

    let toll_series = ResponseSeries::new(lr.toll_output.latency_samples());
    let accident_series = ResponseSeries::new(lr.accident_output.latency_samples());
    let thrash_secs = toll_series.thrash_point(config.bucket_secs, config.thrash_threshold_secs, 2);
    let shed_fraction = lr
        .shedder
        .as_ref()
        .map(|h| h.stats().drop_fraction())
        .unwrap_or(0.0);
    let metrics = engine.snapshot();
    LrRun {
        label: kind.label(),
        toll_count: lr.toll_output.len(),
        toll_series,
        accident_series,
        thrash_secs,
        firings: report.firings,
        shed_fraction,
        channel_blocks: metrics.total_blocks(),
        channel_block_time: metrics.total_block_time(),
        channel_shed: metrics.total_shed(),
        queue_high_water: metrics.max_queue_high_water(),
        metrics,
        trace: engine.trace_report(),
    }
}

/// `engine` with a [`Tracer`] attached when `trace` asks for one.
fn traced(engine: Engine, trace: &Option<TraceConfig>) -> Engine {
    match trace {
        Some(cfg) => {
            let tracer = Arc::new(Tracer::for_workflow(engine.workflow(), cfg.clone()));
            engine.with_tracer(tracer)
        }
        None => engine,
    }
}

/// Ready-queue policy for the wall-clock pool executor (the STAFiLOS §3
/// policies ported to the work-stealing pool, `--fig8 --director pool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealtimePolicy {
    /// Arrival order (PR 3 behavior; the control).
    Fifo,
    /// Rate-Based (`gSel/gCost` from live statistics).
    RateBased,
    /// EDF on wave origins (oldest pending tuple first).
    OldestWave,
    /// Stride scheduling over the QBS Equation 1 allotments.
    Quantum {
        /// Basic quantum `b` in µs.
        basic_quantum: u64,
    },
}

impl RealtimePolicy {
    /// Every policy at its default configuration, FIFO (the control)
    /// first.
    pub fn all() -> [RealtimePolicy; 4] {
        [
            RealtimePolicy::Fifo,
            RealtimePolicy::RateBased,
            RealtimePolicy::OldestWave,
            RealtimePolicy::Quantum { basic_quantum: 1_000 },
        ]
    }

    /// Parse a CLI spelling: `fifo`, `rb`, `edf`, `qbs`, or `qbs:<µs>`.
    pub fn parse(s: &str) -> Option<RealtimePolicy> {
        match s {
            "fifo" => Some(RealtimePolicy::Fifo),
            "rb" => Some(RealtimePolicy::RateBased),
            "edf" => Some(RealtimePolicy::OldestWave),
            "qbs" => Some(RealtimePolicy::Quantum { basic_quantum: 1_000 }),
            _ => {
                let bq = s.strip_prefix("qbs:")?.parse().ok()?;
                Some(RealtimePolicy::Quantum { basic_quantum: bq })
            }
        }
    }

    /// Stable lower-case label (CSV/CLI).
    pub fn label(&self) -> String {
        match self {
            RealtimePolicy::Fifo => "fifo".to_string(),
            RealtimePolicy::RateBased => "rb".to_string(),
            RealtimePolicy::OldestWave => "edf".to_string(),
            RealtimePolicy::Quantum { basic_quantum } => format!("qbs:{basic_quantum}"),
        }
    }

    /// Instantiate the pool policy.
    pub fn build(&self) -> Arc<dyn PoolPolicy> {
        match self {
            RealtimePolicy::Fifo => Arc::new(PoolFifo),
            RealtimePolicy::RateBased => Arc::new(RateBased),
            RealtimePolicy::OldestWave => Arc::new(OldestWave),
            RealtimePolicy::Quantum { basic_quantum } => Arc::new(Quantum::new(*basic_quantum)),
        }
    }
}

/// What one wall-clock Linear Road run executes on and records.
#[derive(Debug, Clone)]
pub struct RealtimeOptions {
    /// `None` runs the thread-per-actor executor, `Some(n)` the pooled
    /// work-stealing executor with `n` workers.
    pub pool_workers: Option<usize>,
    /// Pool ready-queue policy (ignored for the threaded executor, which
    /// has no ready queue).
    pub policy: RealtimePolicy,
    /// Compress the workload timetable by this factor.
    pub arrival_speedup: u64,
    /// Attach a wave-lineage [`Tracer`] with this configuration; its
    /// report comes back in [`RealtimeRun::trace`].
    pub trace: Option<TraceConfig>,
    /// Sample time series every this much wall time (per-actor inbox
    /// depths, cumulative firings, latency p95 — the `--fig8 --timeline`
    /// data); the recorder comes back in [`RealtimeRun::series`].
    pub series_interval: Option<Micros>,
}

impl RealtimeOptions {
    /// FIFO, untraced, unsampled run on `pool_workers` with the timetable
    /// compressed by `arrival_speedup`.
    pub fn new(pool_workers: Option<usize>, arrival_speedup: u64) -> Self {
        RealtimeOptions {
            pool_workers,
            policy: RealtimePolicy::Fifo,
            arrival_speedup,
            trace: None,
            series_interval: None,
        }
    }
}

/// Results of one wall-clock Linear Road run under a PN executor
/// (threaded or pooled) — the head-to-head `--fig5`/`--fig8 --director`
/// modes.
pub struct RealtimeRun {
    /// Executor label (`threaded`, `pool-N`, or `pool-N-<policy>`).
    pub label: String,
    /// Total successful firings.
    pub firings: u64,
    /// Total channel deliveries.
    pub events_routed: u64,
    /// Toll notifications produced.
    pub toll_count: usize,
    /// Wall-clock response-time series at the TollNotification output.
    pub toll_series: ResponseSeries,
    /// Wall-clock run time.
    pub elapsed: Micros,
    /// Per-actor (and, for the pool, per-worker) metrics.
    pub metrics: MetricsSnapshot,
    /// The recorded wave lineage, when [`RealtimeOptions::trace`] was set.
    pub trace: Option<TraceReport>,
    /// The sampled series, when [`RealtimeOptions::series_interval`] was
    /// set.
    pub series: Option<Arc<TimeSeriesRecorder>>,
}

/// Run Linear Road in real time under the thread-per-actor or the pooled
/// work-stealing executor.
pub fn run_linear_road_realtime(workload: &Workload, options: &RealtimeOptions) -> RealtimeRun {
    let lr = build(
        workload,
        &LrOptions {
            arrival_speedup: options.arrival_speedup,
            ..LrOptions::default()
        },
    )
    .expect("workflow builds");
    // The engine's default director is the threaded one.
    let mut label = "threaded".to_string();
    let mut engine = Engine::new(lr.workflow);
    if let Some(n) = options.pool_workers {
        label = if options.policy == RealtimePolicy::Fifo {
            format!("pool-{n}")
        } else {
            format!("pool-{n}-{}", options.policy.label())
        };
        let pool = PoolDirector::new().with_workers(n).with_policy(options.policy.build());
        engine = engine.with_director(pool);
    }
    let mut exec = ExecConfig::new();
    if let Some(interval) = options.series_interval {
        exec = exec.sample_series(interval);
    }
    let mut engine = traced(engine, &options.trace).configure(exec);
    let report = engine.run().expect("run succeeds");
    RealtimeRun {
        label,
        firings: report.firings,
        events_routed: report.events_routed,
        toll_count: lr.toll_output.len(),
        toll_series: ResponseSeries::new(lr.toll_output.latency_samples()),
        elapsed: report.elapsed,
        metrics: engine.snapshot(),
        trace: engine.trace_report(),
        series: engine.series(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(PolicyKind::Qbs { basic_quantum: 500 }.label(), "QBS-q500");
        assert_eq!(PolicyKind::Rr { slice: 40_000 }.label(), "RR-q40000");
        assert_eq!(PolicyKind::Rb.label(), "RB");
        assert_eq!(PolicyKind::Pncwf.label(), "PNCWF");
        assert_eq!(PolicyKind::Fifo.label(), "FIFO");
        assert_eq!(PolicyKind::Edf.label(), "EDF");
    }

    #[test]
    fn realtime_policy_parses_cli_spellings() {
        assert_eq!(RealtimePolicy::parse("fifo"), Some(RealtimePolicy::Fifo));
        assert_eq!(RealtimePolicy::parse("rb"), Some(RealtimePolicy::RateBased));
        assert_eq!(RealtimePolicy::parse("edf"), Some(RealtimePolicy::OldestWave));
        assert_eq!(
            RealtimePolicy::parse("qbs"),
            Some(RealtimePolicy::Quantum { basic_quantum: 1_000 })
        );
        assert_eq!(
            RealtimePolicy::parse("qbs:5000"),
            Some(RealtimePolicy::Quantum { basic_quantum: 5_000 })
        );
        assert_eq!(RealtimePolicy::parse("nope"), None);
        assert_eq!(RealtimePolicy::parse("qbs:x"), None);
        for p in RealtimePolicy::all() {
            assert_eq!(RealtimePolicy::parse(&p.label()), Some(p), "round-trip");
        }
    }

    #[test]
    fn quick_run_produces_series() {
        let config = ExperimentConfig::quick();
        let workload = Workload::generate(config.workload());
        let run = run_linear_road(PolicyKind::Fifo, &workload, &config, &RunOptions::default());
        assert!(run.toll_count > 0);
        assert!(run.firings > 1_000);
        assert!(!run.toll_series.is_empty());
    }
}
