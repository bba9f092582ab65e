//! Structured telemetry for workflow execution.
//!
//! The paper's STAFiLOS schedulers are driven entirely by runtime
//! statistics — queue backlogs, per-actor costs, tuple response times
//! (Table 2's scheduler inputs). This module is the engine-wide surface
//! those statistics flow through: every director reports its execution
//! through an [`Observer`], and the stock [`MetricsRecorder`] turns the
//! hook stream into per-actor counters and latency histograms without
//! taking a lock on the hot path.
//!
//! * [`Observer`] — the hook trait (`on_fire_start`/`on_fire_end`,
//!   `on_route_edge`, `on_window_close`, `on_expire`, `on_run_phase`);
//! * [`MetricsRecorder`] — atomics-only implementation collecting fire
//!   counts, busy time, token throughput, queue high-water marks, and
//!   end-to-end tuple latency;
//! * [`MetricsSnapshot`] — a point-in-time view exportable as JSON or
//!   Prometheus text exposition format;
//! * [`Telemetry`] — what a director is instrumented with: the observer,
//!   the series recorder, and the stop bound the
//!   [`Engine`](crate::engine::Engine) sets for `run_until`;
//! * [`StatsModule`] — STAFiLOS' runtime statistics, which the run keeps
//!   for the directors whose policies read them (SCWF, the pool). The
//!   recorder counts fires, busy time and events again from the hooks,
//!   because it accumulates across runs and checkpoint segments.

pub mod estimator;
mod json;
mod recorder;
pub mod series;
pub mod sketch;
mod stats;
pub mod trace;

pub use recorder::{
    ActorMetrics, EdgeMetrics, MetricsRecorder, MetricsSnapshot, PortDepthMetrics, WorkerMetrics,
};
pub use series::{SeriesPoint, TimeSeriesRecorder};
pub use sketch::{QuantileSketch, SketchSnapshot};
pub use stats::StatsModule;
pub use trace::{SpanKind, TraceConfig, TraceReport, Tracer, WaveTrace};

use std::sync::{Arc, Weak};

use crate::engine::StopCondition;
use crate::graph::ActorId;
use crate::receiver::ActorInbox;
use crate::time::{Micros, Timestamp};
use crate::wave::WaveTag;

/// Phases of a workflow run, reported through [`Observer::on_run_phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Execution begins (fabric built, actors initialized or about to be).
    Start,
    /// Sources exhausted; output closure / partial-window flushing begins.
    Close,
    /// Actors are being wrapped up.
    Wrapup,
    /// The run is over.
    End,
}

impl RunPhase {
    /// Stable lower-case label (used in exports).
    pub fn label(self) -> &'static str {
        match self {
            RunPhase::Start => "start",
            RunPhase::Close => "close",
            RunPhase::Wrapup => "wrapup",
            RunPhase::End => "end",
        }
    }
}

/// Everything known about one completed firing attempt.
#[derive(Debug, Clone)]
pub struct FireRecord {
    /// The actor that fired.
    pub actor: ActorId,
    /// Director time when the firing began.
    pub started: Timestamp,
    /// Director time when the firing (and its routing) completed.
    pub ended: Timestamp,
    /// Cost charged to the firing: wall time under real-time directors,
    /// model cost under the scheduled virtual-time director, zero under
    /// the instantaneous-firing directors (SDF/DDF/DE).
    pub busy: Micros,
    /// Events consumed from input windows.
    pub events_in: u64,
    /// Tokens emitted on output ports.
    pub tokens_out: u64,
    /// Origin timestamp of the wave that triggered the firing (`None` for
    /// source firings and non-firings). `ended - origin` is the end-to-end
    /// response time of the triggering tuple at this actor.
    pub origin: Option<Timestamp>,
    /// Full wave-tag of the window that triggered the firing (`None` for
    /// source firings and non-firings). Where [`FireRecord::origin`] only
    /// identifies the wave, `trigger` identifies the exact position in
    /// its lineage tree — the span id tracing stitches causal chains
    /// from.
    pub trigger: Option<WaveTag>,
    /// Whether the actor actually fired (prefire returned true).
    pub fired: bool,
}

/// One actor's slot in a [`TopologySnapshot`]: identity plus a weak
/// handle to its live inbox so observers can sample per-port queue
/// depths mid-run without keeping the fabric alive past the run.
#[derive(Debug, Clone)]
pub struct ActorTopology {
    /// The actor.
    pub id: ActorId,
    /// The actor's workflow name.
    pub name: String,
    /// Number of input ports.
    pub ports: usize,
    /// Weak handle to the actor's inbox (dead once the fabric drops).
    pub inbox: Weak<ActorInbox>,
}

/// The actor/inbox wiring of a freshly-built fabric, reported once per
/// run through [`Observer::on_topology`] before execution begins.
#[derive(Debug, Clone, Default)]
pub struct TopologySnapshot {
    /// One entry per actor, in [`ActorId`] order.
    pub actors: Vec<ActorTopology>,
}

/// Execution hooks. All methods default to no-ops so observers implement
/// only what they need. Implementations must be cheap and thread-safe:
/// the threaded director invokes them concurrently from actor threads.
pub trait Observer: Send + Sync {
    /// A run phase boundary was crossed.
    fn on_run_phase(&self, phase: RunPhase, at: Timestamp) {
        let _ = (phase, at);
    }

    /// An actor is about to attempt a firing: reported before every
    /// `prefire` call, under every director, and always followed by exactly
    /// one [`Observer::on_fire_end`] for the same actor — a refused
    /// `prefire` ends with `fired: false`, so attempts count refusals.
    fn on_fire_start(&self, actor: ActorId, at: Timestamp) {
        let _ = (actor, at);
    }

    /// A firing attempt completed (whether or not the actor fired).
    fn on_fire_end(&self, record: &FireRecord) {
        let _ = record;
    }

    /// `windows` ready windows formed on `actor`'s input `port`;
    /// `queue_depth` is the actor's inbox length after formation.
    fn on_window_close(&self, actor: ActorId, port: usize, windows: usize, queue_depth: usize, at: Timestamp) {
        let _ = (actor, port, windows, queue_depth, at);
    }

    /// `events` expired out of `actor`'s input `port` windows and were
    /// handed to an expired-items handler.
    fn on_expire(&self, actor: ActorId, port: usize, events: u64, at: Timestamp) {
        let _ = (actor, port, events, at);
    }

    /// A writer hit `actor`'s full input `port` under a `Block` channel
    /// policy and spent `waited` blocked before the event was admitted
    /// (zero under cooperative directors, which admit over capacity
    /// instead of blocking).
    fn on_block(&self, actor: ActorId, port: usize, waited: Micros, at: Timestamp) {
        let _ = (actor, port, waited, at);
    }

    /// `events` were shed at `actor`'s full input `port` under a drop
    /// channel policy.
    fn on_shed(&self, actor: ActorId, port: usize, events: u64, at: Timestamp) {
        let _ = (actor, port, events, at);
    }

    /// End-of-run counters for one worker thread of a pooled executor.
    fn on_worker(&self, metrics: &WorkerMetrics) {
        let _ = metrics;
    }

    /// The fabric for a run was built: `topology` carries every actor's
    /// name, port count, and a weak handle to its live inbox. Reported
    /// once per run (per checkpoint segment), before [`RunPhase::Start`].
    fn on_topology(&self, topology: &TopologySnapshot) {
        let _ = topology;
    }

    /// An external event entered the workflow: `from`'s firing produced a
    /// freshly-stamped root wave `wave` (depth 0). Fine-grained — only
    /// delivered when [`Observer::wants_event_hooks`] returns true.
    fn on_admit(&self, from: ActorId, wave: &WaveTag, at: Timestamp) {
        let _ = (from, wave, at);
    }

    /// An event carrying `wave` was admitted into `actor`'s input `port`
    /// queue. Fine-grained — only delivered when
    /// [`Observer::wants_event_hooks`] returns true.
    fn on_enqueue(&self, actor: ActorId, port: usize, wave: &WaveTag, at: Timestamp) {
        let _ = (actor, port, wave, at);
    }

    /// A formed window was popped from `actor`'s inbox for firing. `wave`
    /// is the window's trigger wave-tag (`None` for empty flush windows),
    /// `formed_at` when the window closed. Reported per window (not per
    /// event), so it is always delivered.
    fn on_dequeue(
        &self,
        actor: ActorId,
        port: usize,
        wave: Option<&WaveTag>,
        formed_at: Timestamp,
        at: Timestamp,
    ) {
        let _ = (actor, port, wave, formed_at, at);
    }

    /// One destination batch of a routing pass: `events` deliveries went
    /// from `from` to `to`'s input `port`. Reported per edge per firing
    /// (twice when a `Block` port parks the batch between two calls),
    /// coarser than per-event; the deliveries of all calls sum to the
    /// firing's.
    fn on_route_edge(&self, from: ActorId, to: ActorId, port: usize, events: u64, at: Timestamp) {
        let _ = (from, to, port, events, at);
    }

    /// Whether this observer wants the per-event hooks ([`Observer::on_admit`] and
    /// [`Observer::on_enqueue`]).
    /// The fabric skips those calls entirely when no observer asks, so a
    /// metrics-only (or disabled-tracer) run pays nothing per event.
    fn wants_event_hooks(&self) -> bool {
        false
    }
}

/// Fans hooks out to several observers in registration order.
#[derive(Default)]
pub struct MultiObserver {
    observers: Vec<Arc<dyn Observer>>,
    /// Lifecycle-only observers: they receive run phases, topology and
    /// worker reports, but none of the
    /// per-firing/per-route hooks — so adding one leaves the hot-path
    /// dispatch count untouched. The series recorder, which reads its
    /// counters from the metrics recorder at sample time, rides here.
    quiet: Vec<Arc<dyn Observer>>,
}

impl MultiObserver {
    /// An empty fan-out.
    pub fn new(observers: Vec<Arc<dyn Observer>>) -> Self {
        MultiObserver {
            observers,
            quiet: Vec::new(),
        }
    }

    /// Attach lifecycle-only observers (no per-event hooks).
    pub fn with_quiet(mut self, quiet: Vec<Arc<dyn Observer>>) -> Self {
        self.quiet = quiet;
        self
    }

    /// Append an observer.
    pub fn push(&mut self, observer: Arc<dyn Observer>) {
        self.observers.push(observer);
    }
}

impl Observer for MultiObserver {
    fn on_run_phase(&self, phase: RunPhase, at: Timestamp) {
        for o in self.observers.iter().chain(&self.quiet) {
            o.on_run_phase(phase, at);
        }
    }
    fn on_fire_start(&self, actor: ActorId, at: Timestamp) {
        for o in &self.observers {
            o.on_fire_start(actor, at);
        }
    }
    fn on_fire_end(&self, record: &FireRecord) {
        for o in &self.observers {
            o.on_fire_end(record);
        }
    }
    fn on_window_close(&self, actor: ActorId, port: usize, windows: usize, queue_depth: usize, at: Timestamp) {
        for o in &self.observers {
            o.on_window_close(actor, port, windows, queue_depth, at);
        }
    }
    fn on_expire(&self, actor: ActorId, port: usize, events: u64, at: Timestamp) {
        for o in &self.observers {
            o.on_expire(actor, port, events, at);
        }
    }
    fn on_block(&self, actor: ActorId, port: usize, waited: Micros, at: Timestamp) {
        for o in &self.observers {
            o.on_block(actor, port, waited, at);
        }
    }
    fn on_shed(&self, actor: ActorId, port: usize, events: u64, at: Timestamp) {
        for o in &self.observers {
            o.on_shed(actor, port, events, at);
        }
    }
    fn on_worker(&self, metrics: &WorkerMetrics) {
        for o in self.observers.iter().chain(&self.quiet) {
            o.on_worker(metrics);
        }
    }
    fn on_topology(&self, topology: &TopologySnapshot) {
        for o in self.observers.iter().chain(&self.quiet) {
            o.on_topology(topology);
        }
    }
    fn on_admit(&self, from: ActorId, wave: &WaveTag, at: Timestamp) {
        for o in &self.observers {
            o.on_admit(from, wave, at);
        }
    }
    fn on_enqueue(&self, actor: ActorId, port: usize, wave: &WaveTag, at: Timestamp) {
        for o in &self.observers {
            o.on_enqueue(actor, port, wave, at);
        }
    }
    fn on_dequeue(
        &self,
        actor: ActorId,
        port: usize,
        wave: Option<&WaveTag>,
        formed_at: Timestamp,
        at: Timestamp,
    ) {
        for o in &self.observers {
            o.on_dequeue(actor, port, wave, formed_at, at);
        }
    }
    fn on_route_edge(&self, from: ActorId, to: ActorId, port: usize, events: u64, at: Timestamp) {
        for o in &self.observers {
            o.on_route_edge(from, to, port, events, at);
        }
    }
    fn wants_event_hooks(&self) -> bool {
        self.observers.iter().any(|o| o.wants_event_hooks())
    }
}

/// The bundle a director receives from [`Director::instrument`](crate::director::Director::instrument):
/// where to send hooks, and how far the run may go.
#[derive(Clone)]
pub struct Telemetry {
    /// Hook sink (often a [`MultiObserver`]).
    pub observer: Arc<dyn Observer>,
    /// The run's stop bound, measured from the segment's start: `Run::boundary`
    /// answers `Stop` once it is met (`None` = run to the end of the stream).
    pub stop: Option<StopCondition>,
    /// Continuous time-series recorder sampled by the directors at their
    /// timer / firing boundaries (`None` = no sampling).
    pub series: Option<Arc<TimeSeriesRecorder>>,
    /// A shared end-to-end latency sketch. No engine code reads it and
    /// the [`Engine`](crate::engine::Engine) does not set it; it stays
    /// until the benchmark drops its [`Telemetry::with_latency`] call.
    pub latency: Option<Arc<QuantileSketch>>,
}

impl Telemetry {
    /// Telemetry around one observer with no stop bound and no
    /// continuous sampling.
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        Telemetry {
            observer,
            stop: None,
            series: None,
            latency: None,
        }
    }

    /// Set [`Telemetry::latency`] (read by nothing in the engine).
    pub fn with_latency(mut self, latency: Arc<QuantileSketch>) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Offer the time-series recorder a sampling opportunity at director
    /// time `now`. Cheap no-op without a recorder; otherwise one relaxed
    /// atomic load unless the sampling interval elapsed. Directors call
    /// this at timer ticks and firing boundaries so sampling follows the
    /// director's own clock (virtual time under cooperative directors).
    /// Returns whether a sample point was actually taken, so directors
    /// with extra per-sample gauges (e.g. pool worker occupancy) can
    /// piggy-back on the same cadence.
    pub fn sample(&self, now: Timestamp) -> bool {
        match &self.series {
            Some(series) => series.maybe_sample(now),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counting {
        fires: AtomicU64,
        phases: AtomicU64,
    }

    impl Observer for Counting {
        fn on_fire_start(&self, _actor: ActorId, _at: Timestamp) {
            self.fires.fetch_add(1, Ordering::Relaxed);
        }
        fn on_run_phase(&self, _phase: RunPhase, _at: Timestamp) {
            self.phases.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn multi_observer_fans_out() {
        let a = Arc::new(Counting::default());
        let b = Arc::new(Counting::default());
        let multi = MultiObserver::new(vec![a.clone(), b.clone()]);
        multi.on_fire_start(ActorId(0), Timestamp::ZERO);
        multi.on_run_phase(RunPhase::Start, Timestamp::ZERO);
        multi.on_run_phase(RunPhase::End, Timestamp(5));
        // Default no-op hooks are callable through the fan-out too.
        multi.on_window_close(ActorId(0), 0, 1, 2, Timestamp(1));
        multi.on_expire(ActorId(0), 0, 4, Timestamp(1));
        multi.on_block(ActorId(0), 0, Micros(7), Timestamp(1));
        multi.on_shed(ActorId(0), 0, 2, Timestamp(1));
        let wave = crate::wave::WaveTag::external(Timestamp(1));
        multi.on_admit(ActorId(0), &wave, Timestamp(1));
        multi.on_enqueue(ActorId(1), 0, &wave, Timestamp(1));
        multi.on_dequeue(ActorId(1), 0, Some(&wave), Timestamp(1), Timestamp(2));
        multi.on_route_edge(ActorId(0), ActorId(1), 0, 3, Timestamp(1));
        assert!(!multi.wants_event_hooks());
        multi.on_worker(&WorkerMetrics {
            worker: 0,
            fires: 3,
            steals: 1,
            queue_depth: 2,
            busy_micros: 40,
        });
        multi.on_topology(&TopologySnapshot::default());
        multi.on_fire_end(&FireRecord {
            actor: ActorId(0),
            started: Timestamp::ZERO,
            ended: Timestamp(1),
            busy: Micros(1),
            events_in: 1,
            tokens_out: 1,
            origin: None,
            trigger: None,
            fired: true,
        });
        for o in [&a, &b] {
            assert_eq!(o.fires.load(Ordering::Relaxed), 1);
            assert_eq!(o.phases.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn phase_labels_are_stable() {
        assert_eq!(RunPhase::Start.label(), "start");
        assert_eq!(RunPhase::Close.label(), "close");
        assert_eq!(RunPhase::Wrapup.label(), "wrapup");
        assert_eq!(RunPhase::End.label(), "end");
    }
}
