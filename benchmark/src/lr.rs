//! The three Linear Road workloads: the same workflow and plumbing under
//! a closed-loop virtual-time SCWF drain, an open-loop paced two-worker
//! pool, and an SCWF crash-and-recover cycle.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use confluence_core::checkpoint::{self, codec::Decoder, Checkpoint, EventLog};
use confluence_core::director::pool::PoolDirector;
use confluence_core::director::Director;
use confluence_core::engine::{Engine, ExecConfig, StopCondition};
use confluence_core::graph::ActorId;
use confluence_core::telemetry::{FireRecord, MetricsRecorder, MultiObserver, Observer, Telemetry};
use confluence_core::time::{Micros, WallClock};
use confluence_linearroad::actors::NotificationOutput;
use confluence_linearroad::{
    build, golden, LinearRoad, LrOptions, TollNotification, Workload, WorkloadConfig,
};
use confluence_sched::cost::TableCostModel;
use confluence_sched::policies::FifoScheduler;
use confluence_sched::ScwfDirector;

use crate::harness::{fnv1a, timed, with_peak_rss, Outcome, RunConfig, SetupBatch, Timing};
use crate::stats;
use crate::trace::{count_allocs, write_chrome_json, Span, SpanObserver};

/// Timetable compression of the paced workload: 50x turns the trace's 100
/// reports/s into 5,000 reports/s, arriving as one burst per trace second
/// (every 20 ms).
const PACED_SPEEDUP: u64 = 50;
/// The checkpoint workload snapshots every eighth of the reference run's
/// firings and kills its first process at nine sixteenths: four snapshots,
/// then half an interval of journaled reports to replay. The 90-s stream
/// ends near eleven sixteenths (the rest is the window flush tail), so a
/// later crash would leave recovery no toll to emit.
const CRASH_AT_16THS: u64 = 9;
/// Linear Road's response-time limit; a later toll counts as failed.
const LR_LIMIT_MS: f64 = 5_000.0;

/// When a report stamped `time` (trace seconds) is due on the paced pool's
/// clock, in µs.
fn paced_due_us(time: i64) -> u64 {
    time as u64 * 1_000_000 / PACED_SPEEDUP
}

/// The 13 actors of the Linear Road workflow, by their workflow names.
pub const ACTORS: [&str; 13] = [
    "source",
    "StoppedCarDetection",
    "AccidentDetection",
    "InsertAccident",
    "AccidentNotification",
    "AccidentNotificationOut",
    "Avgsv",
    "Avgs",
    "SpeedWriter",
    "cars",
    "CarsWriter",
    "TollCalculation",
    "TollNotification",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Drain,
    Paced,
    Checkpoint,
}

impl Kind {
    pub fn config(self, seed: u64, smoke: bool) -> WorkloadConfig {
        let full = self.full_config(seed);
        WorkloadConfig {
            // The checkpoint workload needs stream left after its crash.
            duration_secs: match (smoke, self) {
                (false, _) => full.duration_secs,
                (true, Kind::Checkpoint) => 60,
                (true, _) => 30,
            },
            ..full
        }
    }

    fn full_config(self, seed: u64) -> WorkloadConfig {
        match self {
            Kind::Drain => WorkloadConfig {
                duration_secs: 120,
                seed,
                ..WorkloadConfig::default()
            },
            // A constant population: the arrival rate is flat, so every
            // burst meets the same load and the latency samples pool.
            //
            // Trace seconds 0..=59, one statistics minute and no more. A toll
            // reads the statistics of the minutes before its report's, and
            // on the pool those rows are written when the stream ends, by
            // actors that run beside `TollCalculation`: with a second minute
            // in the trace, a worker held up ~10 ms on the last burst is
            // overtaken by the writers and computes other tolls than the
            // single-thread reference. Minute-0 reports read minute -1,
            // which nobody writes, so the toll stream cannot depend on timing.
            Kind::Paced => WorkloadConfig {
                duration_secs: 59,
                base_initial_cars: 6_000,
                base_final_cars: 6_000,
                seed,
                ..WorkloadConfig::default()
            },
            Kind::Checkpoint => WorkloadConfig {
                duration_secs: 90,
                seed,
                ..WorkloadConfig::default()
            },
        }
    }

    pub fn options(self) -> LrOptions {
        match self {
            Kind::Drain => LrOptions::default(),
            Kind::Paced => LrOptions {
                arrival_speedup: PACED_SPEEDUP,
                ..LrOptions::default()
            },
            Kind::Checkpoint => LrOptions {
                composite_subworkflows: false,
                ..LrOptions::default()
            },
        }
    }
}

/// The single-thread virtual-time director every reference output (and
/// two of the three workloads) runs under.
pub fn scwf() -> ScwfDirector {
    ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(1), Micros(0))),
    )
}

/// `(carid, time, seg, toll bits)`, sorted: the toll multiset.
pub type TollTuple = (i64, i64, i64, u64);

fn toll_tuples(out: &NotificationOutput) -> Vec<TollTuple> {
    let mut tolls: Vec<TollTuple> = out
        .items()
        .iter()
        .map(|i| {
            let n = TollNotification::from_token(&i.token).expect("toll token decodes");
            (n.carid, n.time, n.seg, n.toll.to_bits())
        })
        .collect();
    tolls.sort_unstable();
    tolls
}

/// Accident alerts as sorted debug strings (few, and schema-free).
fn alert_strings(out: &NotificationOutput) -> Vec<String> {
    let mut alerts: Vec<String> = out
        .items()
        .iter()
        .map(|i| format!("{:?}", i.token))
        .collect();
    alerts.sort_unstable();
    alerts
}

/// Size of the symmetric difference of two sorted multisets: expected
/// outputs that are missing plus produced outputs that are wrong.
pub fn multiset_diff<T: Ord>(want: &[T], got: &[T]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < want.len() && j < got.len() {
        match want[i].cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (want.len() - i) as u64 + (got.len() - j) as u64
}

/// The two notification outputs of one built workflow (shared handles, so
/// they stay readable after an engine has taken the workflow).
struct Outputs {
    tolls: NotificationOutput,
    alerts: NotificationOutput,
}

impl Outputs {
    fn of(lr: &LinearRoad) -> Outputs {
        Outputs {
            tolls: lr.toll_output.clone(),
            alerts: lr.accident_output.clone(),
        }
    }
}

/// What a correct unit must produce.
struct Reference {
    tolls: Vec<TollTuple>,
    alerts: Vec<String>,
    firings: u64,
}

impl Reference {
    fn expected(&self) -> u64 {
        (self.tolls.len() + self.alerts.len()) as u64
    }

    fn hash(&self) -> u64 {
        fnv1a(
            self.tolls
                .iter()
                .flat_map(|t| [t.0 as u64, t.1 as u64, t.2 as u64, t.3])
                .flat_map(u64::to_le_bytes)
                .chain(self.alerts.iter().flat_map(|a| a.bytes())),
        )
    }

    /// Missing or wrong outputs of one unit.
    fn failures(&self, out: &Outputs) -> u64 {
        let (tolls, alerts) = (toll_tuples(&out.tolls), alert_strings(&out.alerts));
        let (toll_diff, alert_diff) = (
            multiset_diff(&self.tolls, &tolls),
            multiset_diff(&self.alerts, &alerts),
        );
        if toll_diff + alert_diff > 0 {
            // Say what went wrong where the one who reads a failed run looks.
            eprintln!(
                "outputs differ from the reference: tolls {} produced of {} expected ({toll_diff} differ), alerts {} of {} ({alert_diff} differ)",
                tolls.len(),
                self.tolls.len(),
                alerts.len(),
                self.alerts.len()
            );
            let stray = |a: &[TollTuple], b: &[TollTuple]| -> Vec<TollTuple> {
                a.iter()
                    .filter(|t| b.binary_search(t).is_err())
                    .take(5)
                    .copied()
                    .collect()
            };
            eprintln!("  expected and missing: {:?}", stray(&self.tolls, &tolls));
            eprintln!("  produced and unexpected: {:?}", stray(&tolls, &self.tolls));
        }
        toll_diff + alert_diff
    }
}

/// Everything a unit needs that does not change between units.
struct Prepared {
    kind: Kind,
    workload: Workload,
    opts: LrOptions,
    reference: Reference,
    /// Crossings the golden model expects and the reference lacks, plus
    /// reference tolls the golden model does not know.
    golden_mismatch: u64,
}

fn build_lr(p: &Prepared) -> LinearRoad {
    build(&p.workload, &p.opts).expect("Linear Road workflow builds")
}

fn prepare(kind: Kind, cfg: &RunConfig) -> Prepared {
    let workload = Workload::generate(kind.config(cfg.seed, cfg.smoke));
    let opts = kind.options();
    // The reference is a single-thread SCWF drain of the same trace, which
    // is also the warm-up for the two SCWF workloads.
    let mut lr = build(&workload, &opts).expect("Linear Road workflow builds");
    let report = scwf().run(&mut lr.workflow).expect("reference drain runs");
    let reference = Reference {
        tolls: toll_tuples(&lr.toll_output),
        alerts: alert_strings(&lr.accident_output),
        firings: report.firings,
    };
    let gold: BTreeSet<(i64, i64)> = golden::compute(&workload)
        .tolls
        .iter()
        .map(|t| (t.carid, t.time))
        .collect();
    let keys: BTreeSet<(i64, i64)> = reference.tolls.iter().map(|t| (t.0, t.1)).collect();
    let golden_mismatch = gold.symmetric_difference(&keys).count() as u64;
    Prepared {
        kind,
        workload,
        opts,
        reference,
        golden_mismatch,
    }
}

/// `n` back-to-back set-ups: workflow build plus director (or engine)
/// construction.
fn setup_batch(p: &Prepared, n: usize) -> SetupBatch {
    let (batch, _) = SetupBatch::time(n, || -> Box<dyn std::any::Any> {
        let lr = build_lr(p);
        match p.kind {
            Kind::Drain => Box::new((lr, scwf())),
            Kind::Paced => {
                let recorder = MetricsRecorder::for_workflow(&lr.workflow);
                let pool = PoolDirector::new().with_workers(2);
                Box::new((lr, pool, recorder))
            }
            Kind::Checkpoint => Box::new(checkpoint_engine(lr, ExecConfig::new())),
        }
    });
    batch
}

/// What the traced units of a run accumulate: per-actor span totals, and
/// the first unit's spans for the span file.
#[derive(Default)]
struct TraceAcc {
    names: Vec<String>,
    busy_ns: Vec<u64>,
    fires: Vec<u64>,
    wall_ns: u64,
    reports: u64,
    first_unit_spans: Option<Vec<Span>>,
}

impl TraceAcc {
    fn add(&mut self, obs: &SpanObserver, wall_s: f64, reports: usize) {
        if self.first_unit_spans.is_none() {
            self.names = obs.names().to_vec();
            self.busy_ns = vec![0; self.names.len()];
            self.fires = vec![0; self.names.len()];
            self.first_unit_spans = Some(obs.all_spans());
        }
        for a in 0..self.names.len() {
            for s in obs.spans_of(a) {
                self.busy_ns[a] += s.dur_ns();
                self.fires[a] += 1;
            }
        }
        self.wall_ns += (wall_s * 1e9) as u64;
        self.reports += reports as u64;
    }

    /// Emit `actor.*`, and `sched.self_share` when one thread ran it all.
    fn finish(&self, out: &mut Outcome, single_thread: bool, span_file: &Path) {
        if self.wall_ns == 0 {
            return;
        }
        let mut busy_total = 0u64;
        for (a, name) in self.names.iter().enumerate() {
            busy_total += self.busy_ns[a];
            if ACTORS.contains(&name.as_str()) {
                out.layer(
                    format!("actor.{name}.busy_share"),
                    self.busy_ns[a] as f64 / self.wall_ns as f64,
                );
                out.layer(
                    format!("actor.{name}.fires_per_op"),
                    self.fires[a] as f64 / self.reports as f64,
                );
            }
        }
        if single_thread {
            out.layer(
                "sched.self_share",
                1.0 - busy_total as f64 / self.wall_ns as f64,
            );
        }
        if let Some(spans) = &self.first_unit_spans {
            match write_chrome_json(span_file, &self.names, spans) {
                Ok(()) => out.note("span_file", span_file.display()),
                Err(e) => out.note("span_file_error", e),
            }
            out.note("spans_written", spans.len());
        }
    }
}

fn span_file(cfg: &RunConfig, workload: &str) -> PathBuf {
    cfg.out_dir.join(format!("{workload}.trace.json"))
}

/// Shared bookkeeping of the correctness totals.
fn account(out: &mut Outcome, p: &Prepared, failures: u64) {
    out.attempted += p.reference.expected();
    out.failed += failures;
}

fn common_notes(out: &mut Outcome, p: &Prepared) {
    out.ops_per_unit = p.workload.len() as f64;
    out.note("reports_per_unit", p.workload.len());
    out.note("tolls_per_unit", p.reference.tolls.len());
    out.note("alerts_per_unit", p.reference.alerts.len());
    out.note("firings_per_unit", p.reference.firings);
    out.note("reference_hash", format!("{:016x}", p.reference.hash()));
    out.note("golden_key_mismatch", p.golden_mismatch);
    // A reference that disagrees with the golden model fails the run once,
    // not once per unit.
    out.attempted += p.reference.tolls.len() as u64;
    out.failed += p.golden_mismatch;
}

// ---------------------------------------------------------------------------
// lr_drain_scwf
// ---------------------------------------------------------------------------

fn drain_unit(p: &Prepared, traced: bool) -> (Outputs, Timing, Option<Arc<SpanObserver>>) {
    let mut lr = build_lr(p);
    let mut director = scwf();
    let obs = traced.then(|| Arc::new(SpanObserver::new(&lr.workflow)));
    if let Some(o) = &obs {
        director.instrument(Telemetry::new(o.clone()));
    }
    let (report, timing) = timed(|| director.run(&mut lr.workflow));
    report.expect("drain runs");
    (Outputs::of(&lr), timing, obs)
}

pub fn run_drain(cfg: &RunConfig) -> Outcome {
    let p = prepare(Kind::Drain, cfg);
    let mut out = Outcome::default();
    common_notes(&mut out, &p);
    let mut acc = TraceAcc::default();
    for _ in 0..cfg.units {
        out.setups.push(setup_batch(&p, cfg.setups_per_unit));
        let ((lr, timing, _), peak_mb) = with_peak_rss(|| drain_unit(&p, false));
        out.unit_peak_rss_mb.push(peak_mb);
        account(&mut out, &p, p.reference.failures(&lr));
        out.units.push(timing);
        if cfg.trace {
            let (lr, traced, obs) = drain_unit(&p, true);
            account(&mut out, &p, p.reference.failures(&lr));
            out.trace_pairs.push((timing.wall_s, traced.wall_s));
            acc.add(
                &obs.expect("traced unit has spans"),
                traced.wall_s,
                p.workload.len(),
            );
        }
    }
    if cfg.trace {
        acc.finish(&mut out, true, &span_file(cfg, "lr_drain_scwf"));
        // One more drain with the allocator armed and no observer: the
        // engine's own allocations, exact on this single thread.
        let ((lr, _, _), allocs, bytes) = count_allocs(|| drain_unit(&p, false));
        account(&mut out, &p, p.reference.failures(&lr));
        out.alloc_layers(allocs, bytes, p.workload.len());
    }
    out
}

// ---------------------------------------------------------------------------
// lr_paced_pool2
// ---------------------------------------------------------------------------

struct PacedUnit {
    lr: Outputs,
    timing: Timing,
    /// Due time of the report → emission of its toll, per toll, in ms.
    latency_ms: Vec<f64>,
    /// Director time of the last toll emission, in seconds.
    last_emission_s: f64,
    obs: Option<Arc<SpanObserver>>,
}

fn paced_unit(p: &Prepared, traced: bool) -> PacedUnit {
    let mut lr = build_lr(p);
    let recorder = Arc::new(MetricsRecorder::for_workflow(&lr.workflow));
    let obs = traced.then(|| Arc::new(SpanObserver::new(&lr.workflow)));
    let mut observers: Vec<Arc<dyn Observer>> = vec![recorder.clone()];
    if let Some(o) = &obs {
        observers.push(o.clone());
    }
    // The pool's clock starts now: report due times are offsets from it.
    let mut director = PoolDirector::new()
        .with_workers(2)
        .with_clock(Arc::new(WallClock::new()));
    director.instrument(
        Telemetry::new(Arc::new(MultiObserver::new(observers)))
            .with_latency(recorder.latency_sketch()),
    );
    let (report, timing) = timed(|| director.run(&mut lr.workflow));
    report.expect("paced run completes");
    let mut latency_ms = Vec::new();
    let mut last_us = 0u64;
    for item in lr.toll_output.items() {
        let n = TollNotification::from_token(&item.token).expect("toll token decodes");
        let late_us = item.at.as_micros().saturating_sub(paced_due_us(n.time));
        latency_ms.push(late_us as f64 / 1e3);
        last_us = last_us.max(item.at.as_micros());
    }
    PacedUnit {
        lr: Outputs::of(&lr),
        timing,
        latency_ms,
        last_emission_s: last_us as f64 / 1e6,
        obs,
    }
}

pub fn run_paced(cfg: &RunConfig) -> Outcome {
    let p = prepare(Kind::Paced, cfg);
    let mut out = Outcome::default();
    common_notes(&mut out, &p);
    out.note("arrival_speedup", PACED_SPEEDUP);
    // Warm-up unit: spawns the pool once and is checked like the rest.
    let warm = paced_unit(&p, false);
    account(&mut out, &p, p.reference.failures(&warm.lr));
    drop(warm);

    let mut acc = TraceAcc::default();
    let mut tails_ms = Vec::new();
    let mut pooled_ms: Vec<f64> = Vec::new();
    let mut lag_ms: Vec<f64> = Vec::new();
    let (mut steals, mut fires, mut skew, mut high_water) = (0u64, 0u64, Vec::new(), 0u64);
    let record = |out: &mut Outcome, u: &PacedUnit| {
        let late = u.latency_ms.iter().filter(|&&l| l > LR_LIMIT_MS).count() as u64;
        if late > 0 {
            let worst = u.latency_ms.iter().copied().fold(0.0, f64::max);
            eprintln!("{late} tolls later than {LR_LIMIT_MS} ms, the latest by {worst:.1} ms");
        }
        account(out, &p, p.reference.failures(&u.lr) + late);
    };
    for _ in 0..cfg.units {
        out.setups.push(setup_batch(&p, cfg.setups_per_unit));
        let (u, peak_mb) = with_peak_rss(|| paced_unit(&p, false));
        out.unit_peak_rss_mb.push(peak_mb);
        record(&mut out, &u);
        // Throughput is reports over the time to the last toll: the pool's
        // fixed quiesce patience after it is not the engine's work.
        out.units.push(Timing {
            wall_s: u.last_emission_s,
            ..u.timing
        });
        pooled_ms.extend_from_slice(&u.latency_ms);
        tails_ms.push((u.timing.wall_s - u.last_emission_s) * 1e3);
        if cfg.trace {
            let untraced_cpu_s = u.timing.cpu_s;
            let u = paced_unit(&p, true);
            record(&mut out, &u);
            // The timetable fixes a paced unit's duration; what tracing
            // costs shows in the CPU it burns.
            out.trace_pairs.push((untraced_cpu_s, u.timing.cpu_s));
            let obs = u.obs.as_ref().expect("traced unit has spans");
            acc.add(obs, u.timing.wall_s, p.workload.len());
            // Source lateness: the k-th emitted report against its due time.
            let src = obs.actor("source").expect("source actor");
            let mut reports = p.workload.reports.iter();
            for s in obs.spans_of(src) {
                for r in reports.by_ref().take(s.tokens_out as usize) {
                    let late_us = (s.start_ns / 1_000).saturating_sub(paced_due_us(r.time));
                    lag_ms.push(late_us as f64 / 1e3);
                }
            }
            let workers = obs.workers();
            let per_worker: Vec<u64> = workers.iter().map(|w| w.fires).collect();
            let total: u64 = per_worker.iter().sum();
            fires += total;
            steals += workers.iter().map(|w| w.steals).sum::<u64>();
            high_water = high_water.max(workers.iter().map(|w| w.queue_depth).max().unwrap_or(0));
            if total > 0 {
                let mean = total as f64 / per_worker.len() as f64;
                let max = *per_worker.iter().max().expect("non-empty") as f64;
                skew.push(max / mean - 1.0);
            }
        }
    }
    // Due time of a report to the emission of its toll, pooled over the
    // untraced units.
    let pooled = stats::sorted(&pooled_ms);
    out.layer(
        "sink.latency_p50_ms",
        stats::percentile_sorted(&pooled, 0.50),
    );
    out.layer(
        "sink.latency_p95_ms",
        stats::percentile_sorted(&pooled, 0.95),
    );
    out.layer("pool.quiesce_tail_ms", stats::median(&tails_ms));
    out.note("latency_samples", pooled.len());
    if cfg.trace {
        acc.finish(&mut out, false, &span_file(cfg, "lr_paced_pool2"));
        out.layer(
            "pool.steals_per_kfire",
            steals as f64 * 1e3 / fires.max(1) as f64,
        );
        out.layer("pool.worker_fire_skew", stats::median(&skew));
        out.layer("pool.queue_high_water", high_water as f64);
        out.layer(
            "source.lag_p95_ms",
            stats::percentile_sorted(&stats::sorted(&lag_ms), 0.95),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// lr_checkpoint_scwf
// ---------------------------------------------------------------------------

/// Stamps the first toll notification of a run, from outside the engine.
struct FirstToll {
    sink: ActorId,
    epoch: Instant,
    first_ns: AtomicU64,
}

impl Observer for FirstToll {
    fn on_fire_end(&self, record: &FireRecord) {
        if record.fired && record.actor == self.sink {
            // Relaxed: a lone statistic, read after the run has joined.
            let _ = self.first_ns.compare_exchange(
                u64::MAX,
                self.epoch.elapsed().as_nanos() as u64,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }
}

struct CheckpointUnit {
    lr: Outputs,
    timing: Timing,
    recover_ms: f64,
    obs: Option<Arc<SpanObserver>>,
    snapshot_bytes: u64,
    replayed_events: u64,
}

fn checkpoint_engine(lr: LinearRoad, config: ExecConfig) -> Engine {
    let store = lr.store.clone();
    Engine::new(lr.workflow)
        .register_checkpoint_resource("relstore", Arc::new(store))
        .configure(config)
        .with_director(scwf())
}

fn checkpoint_unit(p: &Prepared, dir: &Path, traced: bool) -> CheckpointUnit {
    let _ = std::fs::remove_dir_all(dir);
    let total = p.reference.firings.max(16);
    let crashed = build_lr(p);
    let recovering = build_lr(p);
    let outputs = Outputs::of(&recovering);
    let sink = recovering
        .workflow
        .find("TollNotification")
        .expect("toll sink");
    let obs = traced.then(|| Arc::new(SpanObserver::new(&recovering.workflow)));
    let (mut snapshot_bytes, mut replayed_events) = (0, 0);

    let (recover_ms, timing) = timed(|| {
        {
            // The doomed process: snapshots every eighth of the run, dies
            // mid-stream, and everything in memory goes with it.
            let mut engine = checkpoint_engine(
                crashed,
                ExecConfig::new().checkpoint_every(StopCondition::Firings(total / 8), dir),
            );
            engine
                .run_until(StopCondition::Firings(total * CRASH_AT_16THS / 16))
                .expect("pre-crash segment runs");
        }
        if traced {
            // Read from outside what recovery is about to read.
            snapshot_bytes = std::fs::metadata(dir.join(checkpoint::SNAPSHOT_FILE))
                .map(|m| m.len())
                .unwrap_or(0);
            let logged = EventLog::read_all(&checkpoint::log_path(dir, "source"))
                .map(|e| e.len() as u64)
                .unwrap_or(0);
            let saved = Checkpoint::read_from_dir(dir)
                .ok()
                .and_then(|cp| {
                    cp.actors
                        .iter()
                        .find(|(name, _)| name == "source")
                        .and_then(|(_, bytes)| Decoder::new(bytes).u64().ok())
                })
                .unwrap_or(logged);
            replayed_events = logged.saturating_sub(saved);
        }
        let first = Arc::new(FirstToll {
            sink,
            epoch: Instant::now(),
            first_ns: AtomicU64::new(u64::MAX),
        });
        let mut engine = checkpoint_engine(recovering, ExecConfig::new().recover_from(dir))
            .with_observer(first.clone());
        if let Some(o) = &obs {
            engine = engine.with_observer(o.clone());
        }
        // Recovery is timed from `Engine::run()`, not from construction.
        let run_started_ns = first.epoch.elapsed().as_nanos() as u64;
        engine.run().expect("recovery run completes");
        match first.first_ns.load(Ordering::Relaxed) {
            u64::MAX => f64::NAN,
            ns => ns.saturating_sub(run_started_ns) as f64 / 1e6,
        }
    });
    CheckpointUnit {
        lr: outputs,
        timing,
        recover_ms,
        obs,
        snapshot_bytes,
        replayed_events,
    }
}

pub fn run_checkpoint(cfg: &RunConfig) -> Outcome {
    let p = prepare(Kind::Checkpoint, cfg);
    let mut out = Outcome::default();
    common_notes(&mut out, &p);
    // A run may write only inside its checkout, so snapshots are fsynced to
    // whatever disk holds it and that wait is part of every unit.
    let dir = cfg.out_dir.join(format!("ckpt-{}", std::process::id()));
    out.note("checkpoint_dir", dir.display());
    let warm = checkpoint_unit(&p, &dir, false);
    account(&mut out, &p, p.reference.failures(&warm.lr));
    drop(warm);

    let mut acc = TraceAcc::default();
    let (mut recover_ms, mut snapshot_bytes, mut replayed) = (Vec::new(), Vec::new(), Vec::new());
    let record = |out: &mut Outcome, u: &CheckpointUnit| {
        // A recovery that never reached a toll has failed outright.
        let lost = u64::from(u.recover_ms.is_nan());
        account(out, &p, p.reference.failures(&u.lr) + lost);
    };
    for _ in 0..cfg.units {
        out.setups.push(setup_batch(&p, cfg.setups_per_unit));
        let (u, peak_mb) = with_peak_rss(|| checkpoint_unit(&p, &dir, false));
        out.unit_peak_rss_mb.push(peak_mb);
        record(&mut out, &u);
        out.units.push(u.timing);
        recover_ms.push(u.recover_ms);
        if cfg.trace {
            let untraced_wall_s = u.timing.wall_s;
            let u = checkpoint_unit(&p, &dir, true);
            record(&mut out, &u);
            out.trace_pairs.push((untraced_wall_s, u.timing.wall_s));
            // Spans cover the recovering engine only, so shares are of
            // the whole crash-and-recover unit.
            acc.add(
                u.obs.as_ref().expect("traced unit has spans"),
                u.timing.wall_s,
                p.workload.len(),
            );
            snapshot_bytes.push(u.snapshot_bytes as f64);
            replayed.push(u.replayed_events as f64);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.layer("checkpoint.recover_ms", stats::median(&recover_ms));
    if cfg.trace {
        acc.finish(&mut out, false, &span_file(cfg, "lr_checkpoint_scwf"));
        out.layer("checkpoint.snapshot_bytes", stats::median(&snapshot_bytes));
        out.layer("checkpoint.replayed_events", stats::median(&replayed));
    }
    out
}

/// A small deterministic set of position reports for the layer replays.
pub fn replay_reports(seed: u64) -> Workload {
    Workload::generate(WorkloadConfig {
        duration_secs: 60,
        seed,
        ..WorkloadConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_diff_counts_missing_and_extra() {
        assert_eq!(multiset_diff(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(multiset_diff(&[1, 2, 3], &[1, 3]), 1);
        assert_eq!(multiset_diff(&[1, 2, 2], &[1, 2, 4]), 2);
        assert_eq!(multiset_diff::<i32>(&[], &[5, 6]), 2);
    }

    #[test]
    fn workload_kinds_are_sized_as_documented() {
        let drain = Workload::generate(Kind::Drain.config(1, false));
        assert!((12_000..20_000).contains(&drain.len()), "{}", drain.len());
        let paced = Workload::generate(Kind::Paced.config(1, false));
        assert!((5_000..7_000).contains(&paced.len()), "{}", paced.len());
        // One statistics minute only: see `Kind::full_config`.
        assert!(paced.reports.iter().all(|r| r.minute() == 0));
        assert_eq!(Kind::Paced.options().arrival_speedup, PACED_SPEEDUP);
        assert!(!Kind::Checkpoint.options().composite_subworkflows);
    }
}
