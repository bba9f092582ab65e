//! The adaptive runtime end-to-end: elastic pool workers, hot-swappable
//! scheduling policy, and admission-side load shedding, all driven by the
//! control loop on the pool's timer thread.
//!
//! The invariants under test:
//!
//! * With shedding never engaged, adaptation is *observably free*: the
//!   Linear Road toll stream is byte-identical to a static run.
//! * Worker grow/shrink mid-run loses no firings and keeps per-worker
//!   attribution exact (retired incarnations' fires survive the resize).
//! * A policy hot-swap mid-run keeps every queued entry (starvation-free:
//!   all outputs still arrive).
//! * Checkpoint/recover composes with `ExecConfig::adaptive`.
//! * When shedding does engage, every dropped event is counted against
//!   the destination actor's `events_shed` — admitted + shed = offered.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, TimedSource, VecSource};
use confluence::core::checkpoint;
use confluence::core::director::adaptive::AdaptivePolicy;
use confluence::core::director::pool_policy::{Quantum, RateBased};
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::error::Result;
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::telemetry::MetricsSnapshot;
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::linearroad::{self, LrOptions, TollNotification, Workload, WorkloadConfig};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Deterministic (no-accident) Linear Road trace — the configuration the
/// cross-director tests pin as byte-identical.
fn lr_workload() -> Workload {
    Workload::generate(WorkloadConfig {
        duration_secs: 30,
        l_rating: 0.05,
        expressways: 1,
        seed: 7,
        base_initial_cars: 200,
        base_final_cars: 400,
        accident_every_secs: None,
        accident_duration_secs: 0,
    })
}

/// Sorted `(carid, time, seg, toll-bits)` tuples — a byte-exact fingerprint
/// of the toll stream.
fn toll_fingerprint(out: &linearroad::actors::NotificationOutput) -> Vec<(i64, i64, i64, u64)> {
    let mut tolls: Vec<_> = out
        .items()
        .iter()
        .map(|i| {
            let n = TollNotification::from_token(&i.token).unwrap();
            (n.carid, n.time, n.seg, n.toll.to_bits())
        })
        .collect();
    tolls.sort_unstable();
    tolls
}

/// One Linear Road run on the pool; `adaptive` optionally arms the control
/// loop. Returns the toll fingerprint and the metrics snapshot.
fn lr_run(adaptive: Option<AdaptivePolicy>) -> (Vec<(i64, i64, i64, u64)>, MetricsSnapshot) {
    let lr = linearroad::build(
        &lr_workload(),
        &LrOptions {
            composite_subworkflows: false,
            arrival_speedup: 100,
            ..LrOptions::default()
        },
    )
    .expect("workflow builds");
    let toll_output = lr.toll_output.clone();
    let mut cfg = ExecConfig::new().workers(2);
    if let Some(a) = adaptive {
        cfg = cfg.adaptive(a);
    }
    let mut engine = Engine::new(lr.workflow).configure(cfg);
    engine.run().expect("run succeeds");
    (toll_fingerprint(&toll_output), engine.snapshot())
}

/// Transform that dwells on every window, forcing upstream backlog, then
/// forwards each token doubled.
struct SlowDouble {
    delay: Duration,
}

impl Actor for SlowDouble {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            thread::sleep(self.delay);
            for t in w.tokens() {
                ctx.emit(0, Token::Int(t.as_int()? * 2));
            }
        }
        Ok(())
    }
}

/// Sink that dwells per window so waves age visibly at the sink, counting
/// the events it admits.
struct DwellSink {
    delay: Duration,
    seen: Arc<AtomicU64>,
}

impl Actor for DwellSink {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            thread::sleep(self.delay);
            self.seen.fetch_add(w.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// A burst of `n` integers through a slow transform into a collector,
/// followed by a paced trickle (spread over ~240 ms, well past the burst's
/// drain time) that keeps the run alive with near-zero backlog so the idle
/// levers get a chance to act. Trickle tokens are tagged `>= 1_000_000` to
/// separate the phases.
fn burst_then_trickle(n: i64) -> (Workflow, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("burst-trickle");
    let burst = b.add_actor("burst", VecSource::new((0..n).map(Token::Int).collect()));
    let trickle = b.add_actor(
        "trickle",
        TimedSource::new(
            (0..30)
                .map(|i| (Timestamp(i * 8_000), Token::Int(1_000_000 + i as i64)))
                .collect(),
        ),
    );
    let t = b.add_actor(
        "slow",
        SlowDouble {
            delay: Duration::from_micros(200),
        },
    );
    let k = b.add_actor("sink", c.actor());
    b.link((burst, "out"), (t, "in")).unwrap();
    b.link((trickle, "out"), (t, "in")).unwrap();
    b.link((t, "out"), (k, "in")).unwrap();
    (b.build().unwrap(), c)
}

/// The doubled outputs expected from [`burst_then_trickle`], as multisets
/// (the two sources interleave nondeterministically).
fn expected_doubles(n: i64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n)
        .map(|i| i * 2)
        .chain((0..30).map(|i| (1_000_000 + i) * 2))
        .collect();
    v.sort_unstable();
    v
}

fn collected_ints(c: &Collector) -> Vec<i64> {
    let mut v: Vec<i64> = c.tokens().iter().map(|t| t.as_int().unwrap()).collect();
    v.sort_unstable();
    v
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "confluence-adaptive-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Observably-free adaptation
// ---------------------------------------------------------------------------

/// With no latency target, shedding never engages, and elastic resizing /
/// policy swaps must not change *what* is computed: the adaptive toll
/// stream is byte-identical to the static 2-worker run.
#[test]
fn adaptive_toll_stream_matches_static_when_shedding_never_engages() {
    let (static_tolls, _) = lr_run(None);
    assert!(!static_tolls.is_empty(), "trace must produce tolls");
    let adaptive = AdaptivePolicy::new()
        .worker_bounds(1, 4)
        .grow_backlog_per_worker(4)
        .sustain_ticks(2)
        .resize_cooldown(Micros::from_millis(10))
        .swap_cooldown(Micros::from_millis(20))
        .tick_every(Micros::from_millis(2))
        .overload_policy(Quantum::new(1_000));
    let (adaptive_tolls, snap) = lr_run(Some(adaptive));
    assert_eq!(
        adaptive_tolls, static_tolls,
        "adaptation with shedding disarmed must be observably free"
    );
    assert_eq!(snap.total_shed(), 0, "no latency target => nothing shed");
    assert_eq!(snap.adapt.shed_engagements, 0);

    // Inert configuration: the control loop ticks, but every lever is out
    // of reach (worker bounds pinned to the pool size, a backlog threshold
    // no queue reaches, no latency target) — it must never act at all.
    let inert = AdaptivePolicy::new()
        .worker_bounds(2, 2)
        .grow_backlog_per_worker(u64::MAX / 2)
        .tick_every(Micros::from_millis(2));
    let (inert_tolls, snap) = lr_run(Some(inert));
    assert_eq!(inert_tolls, static_tolls, "an inert control loop changes nothing");
    assert!(!snap.adapt.any(), "inert config must never act: {:?}", snap.adapt);
    assert_eq!(snap.total_shed(), 0, "inert config must never shed");
}

// ---------------------------------------------------------------------------
// Elastic workers
// ---------------------------------------------------------------------------

/// Sustained backlog grows the worker set; the idle trickle tail shrinks
/// it back. Nothing is lost or duplicated across either transition, and
/// per-worker fire attribution stays exact: the sum over every reported
/// worker incarnation equals the run's total firings.
#[test]
fn workers_grow_and_shrink_mid_run_without_losing_firings() {
    let (wf, c) = burst_then_trickle(150);
    let mut engine = Engine::new(wf).configure(
        ExecConfig::new().workers(1).adaptive(
            AdaptivePolicy::new()
                .worker_bounds(1, 4)
                .grow_backlog_per_worker(1)
                .shrink_backlog(0)
                .sustain_ticks(1)
                .resize_cooldown(Micros::from_millis(5))
                .tick_every(Micros::from_millis(1)),
        ),
    );
    engine.run().unwrap();
    assert_eq!(
        collected_ints(&c),
        expected_doubles(150),
        "resizing must not lose or duplicate events"
    );
    let snap = engine.snapshot();
    assert!(
        snap.adapt.worker_grows >= 1,
        "sustained backlog must grow the pool: {:?}",
        snap.adapt
    );
    assert!(
        snap.adapt.worker_shrinks >= 1,
        "the idle trickle tail must shrink the pool: {:?}",
        snap.adapt
    );
    let worker_fires: u64 = snap.workers.iter().map(|w| w.fires).sum();
    assert_eq!(
        worker_fires,
        snap.total_fires(),
        "per-worker attribution must survive resizes exactly"
    );
    let mut ids: Vec<usize> = snap.workers.iter().map(|w| w.worker).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        snap.workers.len(),
        "worker ids are never reused within a run"
    );
}

// ---------------------------------------------------------------------------
// Policy hot-swap
// ---------------------------------------------------------------------------

/// Overload swaps the ready-queue policy; the drained tail swaps it back.
/// Re-keying must preserve every queued entry: all outputs still arrive.
#[test]
fn policy_hot_swap_mid_run_keeps_every_output() {
    let (wf, c) = burst_then_trickle(400);
    let mut engine = Engine::new(wf).configure(
        ExecConfig::new().workers(1).adaptive(
            AdaptivePolicy::new()
                .worker_bounds(1, 1) // isolate the swap lever
                .grow_backlog_per_worker(1)
                .sustain_ticks(1)
                .swap_cooldown(Micros::from_millis(5))
                .tick_every(Micros::from_millis(1))
                .overload_policy(RateBased),
        ),
    );
    engine.run().unwrap();
    assert_eq!(
        collected_ints(&c),
        expected_doubles(400),
        "re-keying on swap must preserve every ready entry"
    );
    let snap = engine.snapshot();
    assert!(
        snap.adapt.policy_swaps >= 1,
        "sustained backlog must trigger a policy swap: {:?}",
        snap.adapt
    );
    assert_eq!(snap.adapt.worker_resizes(), 0, "bounds (1,1) pin the pool size");
}

// ---------------------------------------------------------------------------
// Load shedding
// ---------------------------------------------------------------------------

/// A sink far slower than the source pushes sink latency over the target:
/// admission-side shedding engages, and every dropped event is counted on
/// the destination actor — admitted plus shed equals offered.
#[test]
fn shedding_engages_under_sink_latency_and_counts_drops() {
    const N: i64 = 250;
    let seen = Arc::new(AtomicU64::new(0));
    let mut b = WorkflowBuilder::new("shed");
    let s = b.add_actor("src", VecSource::new((0..N).map(Token::Int).collect()));
    let k = b.add_actor(
        "sink",
        DwellSink {
            delay: Duration::from_millis(1),
            seen: seen.clone(),
        },
    );
    b.link((s, "out"), (k, "in")).unwrap();
    let mut engine = Engine::new(b.build().unwrap()).configure(
        ExecConfig::new().workers(1).adaptive(
            AdaptivePolicy::new()
                .worker_bounds(1, 1)
                .latency_target(Micros(500))
                .shed_ratio_ppm(500_000)
                .sustain_ticks(1)
                .shed_cooldown(Micros::from_millis(2))
                .tick_every(Micros::from_millis(1)),
        ),
    );
    engine.run().unwrap();
    let snap = engine.snapshot();
    assert!(
        snap.adapt.shed_engagements >= 1,
        "sink latency far over target must engage shedding: {:?}",
        snap.adapt
    );
    let shed = snap.actor("sink").unwrap().events_shed;
    assert!(shed > 0, "an engaged gate must actually drop events");
    assert_eq!(
        seen.load(Ordering::Relaxed) + shed,
        N as u64,
        "admitted + shed must equal offered"
    );
}

// ---------------------------------------------------------------------------
// Checkpoint / recover
// ---------------------------------------------------------------------------

/// `ExecConfig::adaptive` composes with checkpointing: a run killed
/// mid-stream recovers under the same adaptive config and reconverges on
/// the uninterrupted outputs.
#[test]
fn checkpoint_and_recover_compose_with_adaptive() {
    let adaptive = || {
        AdaptivePolicy::new()
            .worker_bounds(1, 4)
            .grow_backlog_per_worker(1)
            .sustain_ticks(1)
            .resize_cooldown(Micros::from_millis(5))
            .tick_every(Micros::from_millis(1))
            .overload_policy(Quantum::new(1_000))
    };
    let dir = tmpdir("ckpt");
    {
        // The run checkpoints every 60 firings and then completes; the
        // recovery below restores the *last* snapshot and replays the
        // journaled tail. (A Firings stop condition would race the quiesce
        // drain — consumer firings during the drain can trip it before the
        // capture lands — so the kill-style variant lives in
        // tests/failure_injection.rs; this test pins composition with the
        // adaptive runtime.)
        let (wf, _c) = burst_then_trickle(200);
        let mut engine = Engine::new(wf).configure(
            ExecConfig::new()
                .workers(2)
                .adaptive(adaptive())
                .checkpoint_every(StopCondition::Firings(60), &dir),
        );
        engine.run().unwrap();
    }
    assert!(
        dir.join(checkpoint::SNAPSHOT_FILE).exists(),
        "checkpointed run wrote a snapshot"
    );
    let (wf, c) = burst_then_trickle(200);
    let mut engine = Engine::new(wf).configure(
        ExecConfig::new()
            .workers(2)
            .adaptive(adaptive())
            .recover_from(&dir),
    );
    engine.run().unwrap();
    assert_eq!(
        collected_ints(&c),
        expected_doubles(200),
        "recovery under the adaptive runtime reconverges exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
