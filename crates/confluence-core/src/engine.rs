//! The engine facade: the one-stop entry point for running a workflow.
//!
//! ```no_run
//! # use confluence_core::actors::{Collector, VecSource};
//! # use confluence_core::graph::WorkflowBuilder;
//! # use confluence_core::window::WindowSpec;
//! # use confluence_core::Token;
//! use confluence_core::engine::Engine;
//! use confluence_core::director::sdf::SdfDirector;
//!
//! # let collector = Collector::new();
//! # let mut b = WorkflowBuilder::new("demo");
//! # let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
//! # let k = b.add_actor("sink", collector.actor());
//! # b.link_windowed((s, "out"), (k, "in"), WindowSpec::each_event()).unwrap();
//! # let workflow = b.build().unwrap();
//! let mut engine = Engine::new(workflow).with_director(SdfDirector::new());
//! let report = engine.run().unwrap();
//! let metrics = engine.snapshot();
//! println!("{}", metrics.render_table());
//! println!("{}", metrics.to_prometheus());
//! ```
//!
//! [`Engine`] owns the workflow, a director (thread-based PNCWF by
//! default), and a [`MetricsRecorder`]; every run is instrumented so
//! [`Engine::snapshot`] always has per-actor statistics to report.
//! [`Director::run`] remains available as the thin un-instrumented path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::channel::ChannelPolicy;
use crate::checkpoint::{self, Checkpoint, CheckpointResource, LoggedSource, QuiesceHook};
use crate::director::pool::PoolDirector;
use crate::director::pool_policy::PoolPolicy;
use crate::director::threaded::ThreadedDirector;
use crate::director::{Director, RunReport};
use crate::error::{Error, Result};
use crate::graph::Workflow;
use crate::telemetry::{
    FireRecord, MetricsRecorder, MetricsSnapshot, MultiObserver, Observer, RunControl, RunPhase,
    Telemetry, TimeSeriesRecorder, TraceReport, Tracer,
};
use crate::time::{Micros, Timestamp};

/// A bound on how far [`Engine::run_until`] lets a run progress before
/// requesting a cooperative stop. Counters are evaluated against this
/// run's activity only, not totals accumulated over earlier runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Stop after this many successful firings.
    Firings(u64),
    /// Stop after this many channel deliveries.
    EventsRouted(u64),
    /// Stop once director time has advanced this far past run start.
    Elapsed(Micros),
}

/// Observer that trips `action` when a [`StopCondition`] is met: a
/// cooperative stop for [`Engine::run_until`]'s bound (one watcher spans
/// the whole run), a checkpoint quiesce for
/// [`ExecConfig::checkpoint_every`] (built fresh for each segment, so its
/// counters measure segment activity, not run totals).
struct Watcher<F> {
    condition: StopCondition,
    action: F,
    fires: AtomicU64,
    routed: AtomicU64,
    started: AtomicU64,
}

impl<F: Fn()> Watcher<F> {
    fn new(condition: StopCondition, action: F) -> Self {
        Watcher {
            condition,
            action,
            fires: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            started: AtomicU64::new(0),
        }
    }

    fn check_elapsed(&self, at: Timestamp) {
        if let StopCondition::Elapsed(limit) = self.condition {
            let started = Timestamp(self.started.load(Ordering::Relaxed));
            if at.since(started) >= limit {
                (self.action)();
            }
        }
    }
}

impl<F: Fn() + Send + Sync> Observer for Watcher<F> {
    fn on_run_phase(&self, phase: RunPhase, at: Timestamp) {
        if phase == RunPhase::Start {
            // Set-once: a checkpointed run re-runs the director per
            // segment, but the stop bound spans the whole run, so elapsed
            // time counts from the *first* segment's start (a per-segment
            // watcher sees only its own segment's).
            let _ = self.started.compare_exchange(
                0,
                at.as_micros().max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    fn on_fire_end(&self, record: &FireRecord) {
        if record.fired {
            let n = self.fires.fetch_add(1, Ordering::Relaxed) + 1;
            if let StopCondition::Firings(limit) = self.condition {
                if n >= limit {
                    (self.action)();
                }
            }
        }
        self.check_elapsed(record.ended);
    }

    fn on_route(&self, _from: crate::graph::ActorId, delivered: u64, at: Timestamp) {
        let n = self.routed.fetch_add(delivered, Ordering::Relaxed) + delivered;
        if let StopCondition::EventsRouted(limit) = self.condition {
            if n >= limit {
                (self.action)();
            }
        }
        self.check_elapsed(at);
    }
}

/// Declarative execution configuration, applied in one step with
/// [`Engine::configure`]. Folds what used to be a scattered `with_*`
/// chain — worker count, pool scheduling policy, and the workflow-wide
/// channel policy — into a single value that can be built, stored, and
/// passed around:
///
/// ```ignore
/// let engine = Engine::new(workflow).configure(
///     ExecConfig::new()
///         .workers(4)
///         .channel_policy(ChannelPolicy::bounded(1024, OnFull::Block)),
/// );
/// ```
///
/// Setting `workers` or a pool policy selects the pooled work-stealing
/// director; a config with neither leaves the current director in place.
#[derive(Default)]
pub struct ExecConfig {
    workers: Option<usize>,
    pool_policy: Option<Arc<dyn PoolPolicy>>,
    channel_policy: Option<ChannelPolicy>,
    checkpoint: Option<CheckpointPlan>,
    recover: Option<PathBuf>,
    series: Option<Micros>,
}

/// Where and how often to checkpoint a run (see
/// [`ExecConfig::checkpoint_every`]).
#[derive(Clone)]
struct CheckpointPlan {
    every: StopCondition,
    dir: PathBuf,
}

impl ExecConfig {
    /// An empty configuration: applying it changes nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run on the pooled work-stealing director with `n` worker threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Order the pooled director's ready queues by `policy` (see
    /// [`pool_policy`](crate::director::pool_policy): FIFO, Rate-Based,
    /// EDF on wave origins, or stride-scheduled quantum allotments).
    pub fn pool_policy(mut self, policy: Arc<dyn PoolPolicy>) -> Self {
        self.pool_policy = Some(policy);
        self
    }

    /// Workflow-wide channel capacity policy (bounded queues with
    /// backpressure). Ports with an explicit per-port policy keep their
    /// override.
    pub fn channel_policy(mut self, policy: ChannelPolicy) -> Self {
        self.channel_policy = Some(policy);
        self
    }

    /// Checkpoint the run into `dir` every time `every` is met: the
    /// engine quiesces the director at a firing boundary, snapshots every
    /// actor's state, the in-flight queue contents, and registered
    /// resources, then resumes. Source emissions are journaled to
    /// per-source event logs in `dir` so a crashed run recovers with
    /// [`ExecConfig::recover_from`] and replays exactly the events emitted
    /// after the snapshot.
    pub fn checkpoint_every(mut self, every: StopCondition, dir: impl AsRef<Path>) -> Self {
        self.checkpoint = Some(CheckpointPlan {
            every,
            dir: dir.as_ref().to_path_buf(),
        });
        self
    }

    /// Start the run from the last checkpoint written to `dir`: actor and
    /// resource state is restored from the snapshot, in-flight windows are
    /// re-injected, and each source replays its event log from the
    /// snapshot's offset before emitting anything new. Composes with
    /// [`ExecConfig::checkpoint_every`] (recovered runs usually keep
    /// checkpointing into the same directory).
    pub fn recover_from(mut self, dir: impl AsRef<Path>) -> Self {
        self.recover = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Sample engine time series every `interval` of director time: each
    /// attached [`TimeSeriesRecorder`] point carries per-actor inbox
    /// depths and cumulative firings plus the end-to-end latency p95.
    /// Under real-time directors the interval is wall time; under the
    /// scheduled virtual-time director it is virtual time, so sampled
    /// series are deterministic in tests. Read the series back through
    /// [`Engine::series`].
    pub fn sample_series(mut self, interval: Micros) -> Self {
        self.series = Some(interval);
        self
    }
}

/// The redesigned run API: owns a workflow plus a director and executes
/// instrumented runs. Build with [`Engine::new`], configure with
/// [`Engine::configure`] / [`Engine::with_director`] /
/// [`Engine::with_observer`], then call [`Engine::run`] or
/// [`Engine::run_until`]; [`Engine::snapshot`] exposes the accumulated
/// [`MetricsSnapshot`] at any point.
pub struct Engine {
    workflow: Workflow,
    director: Box<dyn Director>,
    extra_observers: Vec<Arc<dyn Observer>>,
    /// Lifecycle-only observers (the series recorder): they ride
    /// [`MultiObserver::with_quiet`] so per-firing dispatch stays as
    /// cheap as an uninstrumented run.
    quiet_observers: Vec<Arc<dyn Observer>>,
    recorder: Arc<MetricsRecorder>,
    /// Pool configuration memo: successive [`Engine::configure`] calls
    /// compose by rebuilding one `PoolDirector` from these fields.
    /// Cleared when an explicit director is installed.
    pool_workers: Option<usize>,
    pool_policy: Option<Arc<dyn PoolPolicy>>,
    checkpoint: Option<CheckpointPlan>,
    recover: Option<PathBuf>,
    /// Named durable resources (e.g. relational stores) snapshotted into
    /// every checkpoint and restored on recovery.
    resources: Vec<(String, Arc<dyn CheckpointResource>)>,
    /// Whether source actors have been wrapped in [`LoggedSource`]s (done
    /// lazily on the first checkpointed or recovered run).
    sources_logged: bool,
    /// The time-series recorder ([`ExecConfig::sample_series`]).
    series: Option<Arc<TimeSeriesRecorder>>,
    /// The tracer ([`Engine::with_tracer`]).
    tracer: Option<Arc<Tracer>>,
}

impl Engine {
    /// An engine executing `workflow` under the default thread-based
    /// continuous-workflow director.
    pub fn new(workflow: Workflow) -> Self {
        let recorder = Arc::new(MetricsRecorder::for_workflow(&workflow));
        Engine {
            workflow,
            director: Box::new(ThreadedDirector::new()),
            extra_observers: Vec::new(),
            quiet_observers: Vec::new(),
            recorder,
            pool_workers: None,
            pool_policy: None,
            checkpoint: None,
            recover: None,
            resources: Vec::new(),
            sources_logged: false,
            series: None,
            tracer: None,
        }
    }

    /// Replace the director (any model of computation implementing
    /// [`Director`]).
    pub fn with_director(mut self, director: impl Director + 'static) -> Self {
        self.director = Box::new(director);
        self.pool_workers = None;
        self.pool_policy = None;
        self
    }

    /// Apply a declarative [`ExecConfig`] in one step: worker count, pool
    /// scheduling policy, and the workflow-wide channel policy.
    pub fn configure(mut self, config: ExecConfig) -> Self {
        if let Some(policy) = config.channel_policy {
            self.workflow.set_default_channel_policy(policy);
        }
        let reselect = config.workers.is_some() || config.pool_policy.is_some();
        if let Some(workers) = config.workers {
            self.pool_workers = Some(workers);
        }
        if let Some(policy) = config.pool_policy {
            self.pool_policy = Some(policy);
        }
        if reselect {
            self.rebuild_pool();
        }
        if let Some(plan) = config.checkpoint {
            self.checkpoint = Some(plan);
        }
        if let Some(dir) = config.recover {
            self.recover = Some(dir);
        }
        if let Some(interval) = config.series {
            let series = Arc::new(TimeSeriesRecorder::new(interval, self.recorder.clone()));
            self.quiet_observers.push(series.clone() as Arc<dyn Observer>);
            self.series = Some(series);
        }
        self
    }

    /// Reinstall the pool director from the worker/policy memo.
    fn rebuild_pool(&mut self) {
        let mut pool = PoolDirector::new();
        if let Some(workers) = self.pool_workers {
            pool = pool.with_workers(workers);
        }
        if let Some(policy) = &self.pool_policy {
            pool = pool.with_policy(policy.clone());
        }
        self.director = Box::new(pool);
    }

    /// Attach an additional [`Observer`]; hooks fan out to every attached
    /// observer plus the engine's own recorder.
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.extra_observers.push(observer);
        self
    }

    /// Register a named durable resource (e.g. a relational store handle)
    /// whose contents belong in every checkpoint: `resource.save()` is
    /// captured alongside the actor snapshots, and `resource.restore()`
    /// replays it on [`ExecConfig::recover_from`]. Names must match
    /// between the writing and the recovering engine.
    pub fn register_checkpoint_resource(
        mut self,
        name: impl Into<String>,
        resource: Arc<dyn CheckpointResource>,
    ) -> Self {
        self.resources.push((name.into(), resource));
        self
    }

    /// Attach a wave-lineage [`Tracer`]; it observes every subsequent run
    /// and [`Engine::trace_report`] exposes the recorded traces. An
    /// enabled tracer turns on the fine-grained per-event hooks, so only
    /// attach one when the lineage detail is wanted.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.extra_observers.push(tracer.clone() as Arc<dyn Observer>);
        self.tracer = Some(tracer);
        self
    }

    /// The tracer attached via [`Engine::with_tracer`], if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.clone()
    }

    /// The traces recorded so far by the attached tracer (`None` without
    /// [`Engine::with_tracer`]).
    pub fn trace_report(&self) -> Option<TraceReport> {
        self.tracer().map(|t| t.report())
    }

    /// The metrics recorder backing [`Engine::snapshot`].
    pub fn recorder(&self) -> &Arc<MetricsRecorder> {
        &self.recorder
    }

    /// The time-series recorder, when [`ExecConfig::sample_series`] is
    /// on. Safe to read mid-run from another thread (via a clone).
    pub fn series(&self) -> Option<Arc<TimeSeriesRecorder>> {
        self.series.clone()
    }

    /// The workflow being executed.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// Point-in-time metrics accumulated over every run so far. Under the
    /// threaded director this is safe to call from another thread mid-run
    /// (via a clone of [`Engine::recorder`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.recorder.snapshot()
    }

    /// Run the workflow to quiescence. The returned [`RunReport`] is the
    /// recorder's view of this run.
    pub fn run(&mut self) -> Result<RunReport> {
        self.run_inner(None)
    }

    /// Run until quiescence *or* until `stop` is met, whichever comes
    /// first. Stops are cooperative: the director winds down cleanly at
    /// the next firing boundary, so slightly more work than the bound may
    /// be performed.
    pub fn run_until(&mut self, stop: StopCondition) -> Result<RunReport> {
        self.run_inner(Some(stop))
    }

    /// The run loop: each director run is one *segment*, ended either by
    /// the workflow quiescing naturally (done), the outer stop condition
    /// (done), or the per-segment checkpoint condition — in which case
    /// the director pauses at a firing boundary, the engine snapshots
    /// everything, and the loop resumes the next segment from the
    /// captured state. With neither [`ExecConfig::checkpoint_every`] nor
    /// [`ExecConfig::recover_from`] there is no hook, journal or restore
    /// step, and the run is exactly one segment.
    fn run_inner(&mut self, stop: Option<StopCondition>) -> Result<RunReport> {
        let plan = self.checkpoint.clone();
        let recover = self.recover.clone();
        let durable = match plan.as_ref().map(|p| p.dir.clone()).or_else(|| recover.clone()) {
            Some(dir) => Some((self.open_durable(&dir, recover.as_deref())?, dir)),
            None => None,
        };

        let control = Arc::new(RunControl::new());
        // A stop that lands while a checkpoint pause is pending waits for
        // the snapshot: a stop outranks a pause inside the director, so
        // issuing it now would trade the capture for the end-of-stream tail.
        let stop_after_checkpoint = Arc::new(AtomicBool::new(false));
        let outer = stop.map(|condition| {
            let control = control.clone();
            let pausing = durable.as_ref().map(|(hook, _)| hook.clone());
            let deferred = stop_after_checkpoint.clone();
            Arc::new(Watcher::new(condition, move || {
                if pausing.as_ref().is_some_and(|hook| hook.pause_requested()) {
                    deferred.store(true, Ordering::SeqCst);
                } else {
                    control.request_stop();
                }
            })) as Arc<dyn Observer>
        });
        let before = self.recorder.snapshot();
        let mut elapsed = Micros(0);
        loop {
            let mut observers: Vec<Arc<dyn Observer>> =
                vec![self.recorder.clone() as Arc<dyn Observer>];
            observers.extend(self.extra_observers.iter().cloned());
            observers.extend(outer.clone());
            if let Some((hook, _)) = &durable {
                hook.reset();
                if let Some(plan) = &plan {
                    let hook = hook.clone();
                    observers.push(Arc::new(Watcher::new(plan.every, move || hook.request_pause())));
                }
            }
            self.director.instrument(Telemetry {
                observer: Arc::new(
                    MultiObserver::new(observers).with_quiet(self.quiet_observers.clone()),
                ),
                control: control.clone(),
                series: self.series(),
                latency: None,
            });
            let segment = self.director.run(&mut self.workflow)?;
            elapsed = Micros(elapsed.0 + segment.elapsed.0);
            let Some((hook, dir)) = &durable else { break };
            let Some(state) = hook.take_captured() else { break };
            // The captured state is written out and then handed, as is,
            // to the next segment's fresh fabric.
            hook.stage_restore(self.write_checkpoint(state, dir)?);
            hook.set_resuming(true);
            if stop_after_checkpoint.load(Ordering::SeqCst) {
                control.request_stop();
            }
        }
        // The recorder accumulates across runs; report this run's delta.
        let after = self.recorder.snapshot();
        Ok(RunReport {
            firings: after.total_fires() - before.total_fires(),
            events_routed: after.events_routed - before.events_routed,
            elapsed,
        })
    }

    /// What only a checkpointed or recovered run does before its first
    /// segment: attach a quiesce hook to the director, journal the sources
    /// into `dir`, and — recovering — restore actors and resources from
    /// the snapshot in `recover` and stage its in-flight state.
    fn open_durable(&mut self, dir: &Path, recover: Option<&Path>) -> Result<Arc<QuiesceHook>> {
        let hook = QuiesceHook::new();
        self.director.attach_checkpoint(hook.clone());
        self.wrap_sources(dir, recover.is_none())?;
        if let Some(from) = recover {
            // Each saved state is let go of once it is restored.
            let cp = Checkpoint::read_from_dir(from)?;
            for (name, bytes) in cp.actors {
                let id = self.workflow.find(&name).ok_or_else(|| {
                    Error::Checkpoint(format!("snapshot actor {name:?} is not in the workflow"))
                })?;
                let mut actor = self.workflow.node_mut(id).take_actor();
                let restored = actor.restore_state(&bytes);
                self.workflow.node_mut(id).return_actor(actor);
                restored?;
            }
            for (name, bytes) in cp.resources {
                let resource = self
                    .resources
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, r)| r.clone())
                    .ok_or_else(|| {
                        Error::Checkpoint(format!(
                            "snapshot resource {name:?} is not registered on this engine"
                        ))
                    })?;
                resource.restore(&bytes)?;
            }
            hook.stage_restore(cp.fabric);
            hook.set_resuming(true);
        }
        Ok(hook)
    }

    /// Wrap every source actor in a [`LoggedSource`] journaling to `dir`.
    /// `fresh` truncates existing logs (a run starting from scratch);
    /// recovery keeps them for replay.
    fn wrap_sources(&mut self, dir: &Path, fresh: bool) -> Result<()> {
        if self.sources_logged {
            return Ok(());
        }
        std::fs::create_dir_all(dir).map_err(|e| {
            Error::Checkpoint(format!("create checkpoint dir {}: {e}", dir.display()))
        })?;
        let ids: Vec<_> = self.workflow.actor_ids().collect();
        for id in ids {
            let node = self.workflow.node_mut(id);
            if !node.is_source {
                continue;
            }
            let name = node.name.clone();
            let inner = node.take_actor();
            let wrapped = LoggedSource::new(inner, checkpoint::log_path(dir, &name), fresh);
            match wrapped {
                Ok(w) => self.workflow.node_mut(id).return_actor(Box::new(w)),
                Err(e) => return Err(e),
            }
        }
        self.sources_logged = true;
        Ok(())
    }

    /// Snapshot every actor's durable state plus registered resources and
    /// write the checkpoint atomically into `dir`; hands `fabric` back.
    fn write_checkpoint(
        &mut self,
        fabric: checkpoint::FabricState,
        dir: &Path,
    ) -> Result<checkpoint::FabricState> {
        let mut actors = Vec::new();
        let ids: Vec<_> = self.workflow.actor_ids().collect();
        for id in ids {
            let node = self.workflow.node_mut(id);
            let name = node.name.clone();
            let actor = node.take_actor();
            let state = actor.save_state();
            self.workflow.node_mut(id).return_actor(actor);
            if let Some(bytes) = state? {
                actors.push((name, bytes));
            }
        }
        let mut resources = Vec::new();
        for (name, resource) in &self.resources {
            resources.push((name.clone(), resource.save()?));
        }
        let checkpoint = Checkpoint {
            actors,
            fabric,
            resources,
        };
        checkpoint.write_to_dir(dir)?;
        Ok(checkpoint.fabric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, FireContext, IoSignature};
    use crate::actors::{Collector, VecSource};
    use crate::graph::WorkflowBuilder;
    use crate::token::Token;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "confluence-engine-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Running-sum transform: stateful, so a recovery that loses or
    /// replays state shows up as wrong sums, not just missing tokens.
    #[derive(Default)]
    struct RunningSum {
        sum: i64,
    }

    impl Actor for RunningSum {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            while let Some(w) = ctx.get(0) {
                for t in w.tokens() {
                    self.sum += t.as_int()?;
                    ctx.emit(0, Token::Int(self.sum));
                }
            }
            Ok(())
        }
        fn save_state(&self) -> Result<Option<Vec<u8>>> {
            let mut e = crate::checkpoint::codec::Encoder::new();
            e.i64(self.sum);
            Ok(Some(e.into_bytes()))
        }
        fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
            self.sum = crate::checkpoint::codec::Decoder::new(bytes).i64()?;
            Ok(())
        }
    }

    fn build() -> (Workflow, Collector) {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("ckpt");
        let s = b.add_actor("src", VecSource::new((1..=20).map(Token::Int).collect()));
        let a = b.add_actor("sum", RunningSum::default());
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (a, "in")).unwrap();
        b.link((a, "out"), (k, "in")).unwrap();
        (b.build().unwrap(), c)
    }

    /// An actor that declares SDF rates of one window per port per firing
    /// (every actor of `build()` fires on one window and emits one token).
    struct Rated<A>(A);

    impl<A: Actor> Actor for Rated<A> {
        fn signature(&self) -> IoSignature {
            self.0.signature()
        }
        fn prefire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
            self.0.prefire(ctx)
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            self.0.fire(ctx)
        }
        fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
            self.0.postfire(ctx)
        }
        fn save_state(&self) -> Result<Option<Vec<u8>>> {
            self.0.save_state()
        }
        fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
            self.0.restore_state(bytes)
        }
        fn is_source(&self) -> bool {
            self.0.is_source()
        }
        fn next_arrival(&self) -> Option<Timestamp> {
            self.0.next_arrival()
        }
        fn rates(&self) -> Option<crate::actor::SdfRates> {
            let sig = self.0.signature();
            Some(crate::actor::SdfRates {
                consume: vec![1; sig.inputs.len()],
                produce: vec![1; sig.outputs.len()],
            })
        }
    }

    /// `build()` with every actor declaring its rates, for SDF.
    fn build_rated() -> (Workflow, Collector) {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("ckpt");
        let src = VecSource::new((1..=20).map(Token::Int).collect());
        let s = b.add_actor("src", Rated(src));
        let a = b.add_actor("sum", Rated(RunningSum::default()));
        let k = b.add_actor("sink", Rated(c.actor()));
        b.link((s, "out"), (a, "in")).unwrap();
        b.link((a, "out"), (k, "in")).unwrap();
        (b.build().unwrap(), c)
    }

    fn expected() -> Vec<Token> {
        (1..=20)
            .scan(0i64, |s, i| {
                *s += i;
                Some(Token::Int(*s))
            })
            .collect()
    }

    #[test]
    fn checkpointing_run_completes_with_correct_output() {
        let dir = tmpdir("inline");
        let (wf, c) = build();
        let mut engine = Engine::new(wf).configure(
            ExecConfig::new().checkpoint_every(StopCondition::Firings(5), &dir),
        );
        engine.run().unwrap();
        assert_eq!(c.tokens(), expected());
        assert!(dir.join(checkpoint::SNAPSHOT_FILE).exists());
        let log = checkpoint::EventLog::read_all(&checkpoint::log_path(&dir, "src")).unwrap();
        assert_eq!(log.len(), 20, "every source emission journaled");
    }

    #[test]
    fn killed_run_recovers_to_identical_output() {
        let dir = tmpdir("recover");
        // Killed run: checkpoint every 5 firings, stop mid-stream and
        // discard everything in memory (engine, collector, workflow).
        {
            let (wf, _c) = build();
            let mut engine = Engine::new(wf).configure(
                ExecConfig::new().checkpoint_every(StopCondition::Firings(5), &dir),
            );
            engine.run_until(StopCondition::Firings(30)).unwrap();
        }
        assert!(dir.join(checkpoint::SNAPSHOT_FILE).exists());
        // Recovered run: a fresh process would rebuild the same workflow
        // and recover. The collector must end with the complete stream —
        // checkpointed prefix plus replayed/live suffix, nothing doubled.
        let (wf, c) = build();
        let mut engine =
            Engine::new(wf).configure(ExecConfig::new().recover_from(&dir));
        engine.run().unwrap();
        assert_eq!(c.tokens(), expected());
    }

    #[test]
    fn stop_during_a_checkpoint_drain_still_writes_the_snapshot() {
        // DE parks its sources on a pause while deliveries keep firing, so
        // the third firing — the stop bound — lands inside the drain the
        // second one started.
        let dir = tmpdir("stop-in-drain");
        let de = |wf: Workflow| Engine::new(wf).with_director(crate::director::de::DeDirector::new());
        {
            let (wf, _c) = build();
            let mut engine = de(wf).configure(
                ExecConfig::new().checkpoint_every(StopCondition::Firings(2), &dir),
            );
            engine.run_until(StopCondition::Firings(3)).unwrap();
        }
        assert!(dir.join(checkpoint::SNAPSHOT_FILE).exists());
        let (wf, c) = build();
        let mut engine = de(wf).configure(ExecConfig::new().recover_from(&dir));
        engine.run().unwrap();
        assert_eq!(c.tokens(), expected());
    }

    #[test]
    fn killed_run_recovers_under_pool_sdf_ddf_and_de() {
        for name in ["pool", "sdf", "ddf", "de"] {
            let dir = tmpdir(&format!("recover-{name}"));
            let build = if name == "sdf" { build_rated } else { build };
            let mk = |wf: Workflow| -> Engine {
                match name {
                    "pool" => Engine::new(wf).configure(ExecConfig::new().workers(2)),
                    "sdf" => {
                        Engine::new(wf).with_director(crate::director::sdf::SdfDirector::new())
                    }
                    "ddf" => {
                        Engine::new(wf).with_director(crate::director::ddf::DdfDirector::new())
                    }
                    "de" => Engine::new(wf).with_director(crate::director::de::DeDirector::new()),
                    _ => unreachable!(),
                }
            };
            {
                let (wf, _c) = build();
                let mut engine = mk(wf).configure(
                    ExecConfig::new().checkpoint_every(StopCondition::Firings(5), &dir),
                );
                engine.run_until(StopCondition::Firings(30)).unwrap();
            }
            assert!(
                dir.join(checkpoint::SNAPSHOT_FILE).exists(),
                "director {name} wrote a snapshot"
            );
            let (wf, c) = build();
            let mut engine = mk(wf).configure(ExecConfig::new().recover_from(&dir));
            engine.run().unwrap();
            assert_eq!(c.tokens(), expected(), "director {name} reconverges");
        }
    }
}
