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
//!
//! Observers only observe. A run's bounds travel with it instead:
//! [`Engine::run_until`]'s [`StopCondition`] in [`Telemetry::stop`], and
//! [`ExecConfig::checkpoint_every`]'s on the [`QuiesceHook`].
//! [`Run::boundary`](crate::director::firing::Run::boundary) checks both
//! against the segment's own counters.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::checkpoint::{self, Checkpoint, CheckpointResource, LoggedSource, QuiesceHook};
use crate::director::threaded::ThreadedDirector;
use crate::director::{Director, RunReport};
use crate::error::{Error, Result};
use crate::graph::Workflow;
use crate::telemetry::{
    MetricsRecorder, MetricsSnapshot, MultiObserver, Observer, Telemetry, TimeSeriesRecorder,
    TraceReport, Tracer,
};
use crate::time::Micros;

/// A bound on how far a run goes: [`Engine::run_until`]'s stop and
/// [`ExecConfig::checkpoint_every`]'s cadence. `Run::boundary` checks it
/// against the segment's own firing, delivery and clock counters.
/// Counters are evaluated against this run's activity only, not totals
/// accumulated over earlier runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Stop after this many successful firings.
    Firings(u64),
    /// Stop after this many channel deliveries.
    EventsRouted(u64),
    /// Stop once director time has advanced this far past run start.
    Elapsed(Micros),
}

impl StopCondition {
    /// What is left of the bound once `done` has been run.
    fn after(self, done: &RunReport) -> StopCondition {
        match self {
            StopCondition::Firings(n) => StopCondition::Firings(n.saturating_sub(done.firings)),
            StopCondition::EventsRouted(n) => {
                StopCondition::EventsRouted(n.saturating_sub(done.events_routed))
            }
            StopCondition::Elapsed(t) => StopCondition::Elapsed(t - done.elapsed),
        }
    }
}

/// Declarative execution configuration, applied in one step with
/// [`Engine::configure`]: what the engine itself owns — checkpointing,
/// recovery and time-series sampling.
///
/// ```ignore
/// let engine = Engine::new(workflow).configure(
///     ExecConfig::new()
///         .checkpoint_every(StopCondition::Firings(1_000), &dir)
///         .sample_series(Micros(10_000)),
/// );
/// ```
///
/// The director, its workers and its ready-queue policy are the director's
/// own ([`Engine::with_director`], e.g. `PoolDirector::new().with_workers(4)`),
/// and channel capacity is the workflow's
/// ([`Workflow::set_default_channel_policy`]).
#[derive(Default)]
pub struct ExecConfig {
    checkpoint: Option<CheckpointPlan>,
    recover: Option<PathBuf>,
    series: Option<Micros>,
}

/// Where and how often to checkpoint a run (see
/// [`ExecConfig::checkpoint_every`]).
struct CheckpointPlan {
    every: StopCondition,
    dir: PathBuf,
}

impl ExecConfig {
    /// An empty configuration: applying it changes nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checkpoint the run into `dir` every time `every` is met: the
    /// engine quiesces the director at a firing boundary, snapshots every
    /// actor's state, the in-flight queue contents, and registered
    /// resources, then resumes. A source's saved state is its offset, from
    /// which a crashed run resumes with [`ExecConfig::recover_from`]; only
    /// a source that saves no state (a push source) has its emissions
    /// journaled, to an event log in `dir`.
    pub fn checkpoint_every(mut self, every: StopCondition, dir: impl AsRef<Path>) -> Self {
        self.checkpoint = Some(CheckpointPlan {
            every,
            dir: dir.as_ref().to_path_buf(),
        });
        self
    }

    /// Start the run from the last checkpoint written to `dir`: actor and
    /// resource state is restored from the snapshot, in-flight windows are
    /// re-injected, and a source resumes from its saved offset. A
    /// journaled source emits its logged tail past the snapshot ahead of
    /// its new emissions, and drops none of them. Composes with
    /// [`ExecConfig::checkpoint_every`]: a recovered run usually keeps
    /// checkpointing into the same directory; into another one, it first
    /// copies the journals there.
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
    checkpoint: Option<CheckpointPlan>,
    recover: Option<PathBuf>,
    /// Named durable resources (e.g. relational stores) snapshotted into
    /// every checkpoint and restored on recovery.
    resources: Vec<(String, Arc<dyn CheckpointResource>)>,
    /// Whether the sources that save no state have been wrapped in
    /// [`LoggedSource`]s (done lazily on the first checkpointed or
    /// recovered run).
    sources_wrapped: bool,
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
            checkpoint: None,
            recover: None,
            resources: Vec::new(),
            sources_wrapped: false,
            series: None,
            tracer: None,
        }
    }

    /// Replace the director (any model of computation implementing
    /// [`Director`]).
    pub fn with_director(mut self, director: impl Director + 'static) -> Self {
        self.director = Box::new(director);
        self
    }

    /// Apply a declarative [`ExecConfig`] in one step: checkpointing,
    /// recovery and time-series sampling.
    pub fn configure(mut self, config: ExecConfig) -> Self {
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

    /// Run the workflow to quiescence. The returned [`RunReport`] sums the
    /// run's own counters over its segments — what a [`StopCondition`]
    /// bounds, expired-items hand-overs included in `events_routed`. The
    /// recorder's `events_routed` counts channel deliveries only.
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
    /// the workflow quiescing naturally (done), the stop bound (done), or
    /// the checkpoint cadence — in which case the director pauses at a
    /// firing boundary, the engine snapshots everything, and the loop
    /// resumes the next segment from the captured state. Each segment is
    /// handed what is left of `stop` after the earlier ones; a stop met at
    /// a checkpoint's boundary leaves nothing, so the next segment stops at
    /// its first. With neither [`ExecConfig::checkpoint_every`] nor
    /// [`ExecConfig::recover_from`] there is no hook, journal or restore
    /// step, and the run is exactly one segment.
    fn run_inner(&mut self, stop: Option<StopCondition>) -> Result<RunReport> {
        let recover = self.recover.clone();
        let dir = self.checkpoint.as_ref().map(|p| p.dir.clone()).or_else(|| recover.clone());
        let durable = match dir {
            Some(dir) => Some((self.open_durable(&dir, recover.as_deref())?, dir)),
            None => None,
        };

        let mut observers: Vec<Arc<dyn Observer>> = vec![self.recorder.clone()];
        observers.extend(self.extra_observers.iter().cloned());
        let observer = MultiObserver::new(observers).with_quiet(self.quiet_observers.clone());
        let observer: Arc<dyn Observer> = Arc::new(observer);
        let mut done = RunReport::default();
        loop {
            self.director.instrument(Telemetry {
                observer: observer.clone(),
                stop: stop.map(|stop| stop.after(&done)),
                series: self.series(),
                latency: None,
                checkpoint: durable.as_ref().map(|(hook, _)| hook.clone()),
            });
            let segment = self.director.run(&mut self.workflow)?;
            done.firings += segment.firings;
            done.events_routed += segment.events_routed;
            done.elapsed += segment.elapsed;
            let Some((hook, dir)) = &durable else { break };
            let Some(state) = hook.take() else { break };
            // The captured state is written out and then put back, as is,
            // for the next segment's fresh fabric.
            hook.put(self.write_checkpoint(state, dir)?);
        }
        Ok(done)
    }

    /// What only a checkpointed or recovered run does before its first
    /// segment: make the quiesce hook carrying the checkpoint cadence that
    /// each segment's telemetry passes to the director, journal the
    /// sources that save no state into `dir`, and — recovering — restore
    /// actors and resources
    /// from the snapshot in `recover` and put its in-flight state in the
    /// hook's slot.
    fn open_durable(&mut self, dir: &Path, recover: Option<&Path>) -> Result<Arc<QuiesceHook>> {
        let hook = QuiesceHook::new(self.checkpoint.as_ref().map(|p| p.every));
        self.wrap_sources(dir, recover)?;
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
            hook.put(cp.fabric);
        }
        Ok(hook)
    }

    /// Wrap every source that saves no state in a [`LoggedSource`]
    /// journaling to `dir`: a source whose
    /// [`save_state`](crate::actor::Actor::save_state) is `Some`
    /// resumes from that state alone. A run starting from scratch
    /// truncates existing logs; recovery keeps them for their tails, and
    /// recovery `from` another directory first copies each log from there
    /// (a missing one as empty), so `dir`'s journal is whole.
    fn wrap_sources(&mut self, dir: &Path, recover: Option<&Path>) -> Result<()> {
        if self.sources_wrapped {
            return Ok(());
        }
        std::fs::create_dir_all(dir).map_err(|e| {
            Error::Checkpoint(format!("create checkpoint dir {}: {e}", dir.display()))
        })?;
        // A log copied onto itself would be emptied.
        let canonical = |d: &Path| std::fs::canonicalize(d).ok();
        let elsewhere = recover.filter(|from| canonical(from) != canonical(dir));
        let ids: Vec<_> = self.workflow.actor_ids().collect();
        for id in ids {
            let node = self.workflow.node_mut(id);
            if !node.is_source || node.actor_mut().save_state()?.is_some() {
                continue;
            }
            let path = checkpoint::log_path(dir, &node.name);
            if let Some(from) = elsewhere {
                let copied = match std::fs::copy(checkpoint::log_path(from, &node.name), &path) {
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => std::fs::write(&path, []),
                    copied => copied.map(drop),
                };
                copied.map_err(|e| Error::Checkpoint(format!("copy the event log of {:?}: {e}", node.name)))?;
            }
            let logged = LoggedSource::new(node.take_actor(), path, recover.is_none())?;
            self.workflow.node_mut(id).return_actor(Box::new(logged));
        }
        self.sources_wrapped = true;
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
    use crate::time::Timestamp;
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
        let log = checkpoint::log_path(&dir, "src");
        assert!(!log.exists(), "a source that saves its offset keeps no journal");
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
    fn de_and_ddf_pause_on_the_cadence_firing() {
        // One firing per step: src, sum, sink, src, sum. The pause lands on
        // the fifth firing and captures what it left queued.
        let directors: [(&str, Box<dyn Director>); 2] = [
            ("de", Box::new(crate::director::de::DeDirector::new())),
            ("ddf", Box::new(crate::director::ddf::DdfDirector::new())),
        ];
        for (name, mut director) in directors {
            let (mut wf, _c) = build();
            let hook = QuiesceHook::new(Some(StopCondition::Firings(5)));
            director.instrument(Telemetry {
                checkpoint: Some(hook.clone()),
                ..Telemetry::new(Arc::new(MultiObserver::default()))
            });
            let report = director.run(&mut wf).unwrap();
            let captured = hook.take().expect("the segment paused");
            assert_eq!(report.firings, 5, "{name}");
            assert_eq!(captured.item_count(), 3, "{name}");
        }
    }

    #[test]
    fn a_stop_on_the_first_firing_after_a_checkpoint_keeps_the_snapshot() {
        // Under DE the cadence pauses the first segment on its second
        // firing; the second segment's stop budget is one firing, so the
        // stop lands on the first firing after the snapshot.
        let dir = tmpdir("stop-after-pause");
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
    fn an_idle_threaded_run_stops_on_its_elapsed_bound() {
        // The source's one event is 5 s away and nothing else can fire, so
        // only the run's own clock can end it early.
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("idle");
        let at = Timestamp(5_000_000);
        let s = b.add_actor("src", crate::actors::TimedSource::new(vec![(at, Token::Int(1))]));
        let k = b.add_actor("sink", c.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        let mut engine = Engine::new(b.build().unwrap());
        let began = std::time::Instant::now();
        engine.run_until(StopCondition::Elapsed(Micros::from_millis(50))).unwrap();
        let waited = began.elapsed();
        assert!(waited < std::time::Duration::from_secs(2), "stopped after {waited:?}");
        assert!(c.tokens().is_empty());
    }

    #[test]
    fn killed_run_recovers_under_pool_sdf_ddf_and_de() {
        for name in ["pool", "sdf", "ddf", "de"] {
            let dir = tmpdir(&format!("recover-{name}"));
            let build = if name == "sdf" { build_rated } else { build };
            let mk = |wf: Workflow| -> Engine {
                match name {
                    "pool" => Engine::new(wf)
                        .with_director(crate::director::pool::PoolDirector::new().with_workers(2)),
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
