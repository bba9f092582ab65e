//! Wave-lineage tracing across directors: the same deterministic
//! workflow must yield structurally identical causal traces under every
//! model of computation, sampling must keep whole waves, the flight
//! recorder must evict oldest-wave-first without tearing spans, and the
//! critical-path decomposition must telescope to the wave's end-to-end
//! latency in virtual time.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use confluence::core::actor::{Actor, FireContext, IoSignature, SdfRates};
use confluence::core::actors::Collector;
use confluence::core::director::ddf::DdfDirector;
use confluence::core::director::de::DeDirector;
use confluence::core::director::sdf::SdfDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::engine::{Engine, ExecConfig};
use confluence::core::error::Result;
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::telemetry::{TraceConfig, TraceReport, Tracer};
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

/// Source emitting one token per firing, with each arrival scheduled
/// `period` µs after the previous one — so timestamped directors give
/// every root wave a distinct origin.
struct ScheduledSource {
    emitted: usize,
    total: usize,
    period: u64,
}

impl ScheduledSource {
    fn new(total: usize, period: u64) -> Self {
        ScheduledSource {
            emitted: 0,
            total,
            period,
        }
    }
}

impl Actor for ScheduledSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }
    fn prefire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(self.emitted < self.total)
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        ctx.emit(0, Token::Int(self.emitted as i64));
        self.emitted += 1;
        Ok(())
    }
    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(self.emitted < self.total)
    }
    fn is_source(&self) -> bool {
        true
    }
    fn next_arrival(&self) -> Option<Timestamp> {
        if self.emitted < self.total {
            Some(Timestamp(self.emitted as u64 * self.period))
        } else {
            None
        }
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![],
            produce: vec![1],
        })
    }
}

/// Rate-declaring doubler (one event in, one out) so the graph also
/// runs under SDF.
struct Double;

impl Actor for Double {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                ctx.emit(0, Token::Int(t.as_int()? * 2));
            }
        }
        Ok(())
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![1],
        })
    }
}

struct RatedCollector(confluence::core::actors::CollectorActor);

impl Actor for RatedCollector {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.0.fire(ctx)
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![],
        })
    }
}

/// src ─→ double ─→ sinkA, with src also fanned out directly to sinkB:
/// one external event becomes a three-actor wave with a fan-out edge.
fn fanout_pipeline(tokens: usize, period: u64) -> Workflow {
    let mut b = WorkflowBuilder::new("traced-pipeline");
    let s = b.add_actor("src", ScheduledSource::new(tokens, period));
    let d = b.add_actor("double", Double);
    let a = b.add_actor("sinkA", RatedCollector(Collector::new().actor()));
    let x = b.add_actor("sinkB", RatedCollector(Collector::new().actor()));
    b.link((s, "out"), (d, "in")).unwrap();
    b.link((s, "out"), (x, "in")).unwrap();
    b.link((d, "out"), (a, "in")).unwrap();
    b.build().unwrap()
}

/// Run `workflow` under a director chosen by `engine_for`, with a
/// sample-everything tracer attached, and return the trace report.
fn traced_run(
    workflow: Workflow,
    config: TraceConfig,
    engine_for: impl FnOnce(Engine) -> Engine,
) -> TraceReport {
    let tracer = Arc::new(Tracer::for_workflow(&workflow, config));
    let mut engine = engine_for(Engine::new(workflow)).with_tracer(tracer);
    engine.run().unwrap();
    engine.trace_report().unwrap()
}

fn scwf() -> ScwfDirector {
    ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(10), Micros(1))),
    )
}

/// One single-event fan-out wave traced under every director.
fn traced_under_every_director() -> Vec<(&'static str, TraceReport)> {
    vec![
        (
            "threaded",
            traced_run(fanout_pipeline(1, 1_000), TraceConfig::default(), |e| {
                e.with_director(ThreadedDirector::new())
            }),
        ),
        (
            "pool",
            traced_run(fanout_pipeline(1, 1_000), TraceConfig::default(), |e| {
                e.configure(ExecConfig::new().workers(2))
            }),
        ),
        (
            "sdf",
            traced_run(fanout_pipeline(1, 1_000), TraceConfig::default(), |e| {
                e.with_director(SdfDirector::new())
            }),
        ),
        (
            "ddf",
            traced_run(fanout_pipeline(1, 1_000), TraceConfig::default(), |e| {
                e.with_director(DdfDirector::new())
            }),
        ),
        (
            "de",
            traced_run(fanout_pipeline(1, 1_000), TraceConfig::default(), |e| {
                e.with_director(DeDirector::new())
            }),
        ),
        (
            "scwf",
            traced_run(fanout_pipeline(1, 1_000), TraceConfig::default(), |e| {
                e.with_director(scwf())
            }),
        ),
    ]
}

/// The satellite acceptance test: a deterministic workload traced under
/// every director yields the same origin-normalized wave structure.
#[test]
fn trace_structure_is_director_independent() {
    let runs = traced_under_every_director();
    let (ref_name, ref_report) = &runs[0];
    assert_eq!(
        ref_report.waves.len(),
        1,
        "{ref_name}: one external event must form exactly one wave"
    );
    let reference = ref_report.waves[0].structure();
    assert!(
        reference.iter().any(|l| l.starts_with("admit")),
        "{ref_name}: wave must start with an admit span: {reference:#?}"
    );
    assert!(
        reference.iter().any(|l| l.starts_with("dequeue")),
        "{ref_name}: wave must include queue-wait spans: {reference:#?}"
    );
    for (name, report) in &runs[1..] {
        assert_eq!(report.waves.len(), 1, "{name}: expected exactly one wave");
        assert_eq!(
            report.waves[0].structure(),
            reference,
            "{name}: wave structure diverged from {ref_name}"
        );
    }
}

/// The unsigned integer after `"key":` on one line of a Chrome export.
fn field(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The Chrome export (one event a line) holds where a viewer looks, under
/// every director: each flow end follows the start with its id, every
/// actor with spans names its two tracks once, and every slice lasts at
/// least 1 µs.
#[test]
fn chrome_export_binds_flows_and_names_tracks_under_every_director() {
    for (name, report) in traced_under_every_director() {
        let json = report.to_chrome_json();
        let mut started = HashSet::new();
        let mut named = BTreeSet::new();
        let mut flows = 0;
        for line in json.lines().filter(|l| l.contains("\"ph\":")) {
            if line.contains("\"ph\":\"s\"") {
                started.insert(field(line, "id").unwrap());
            } else if line.contains("\"ph\":\"f\"") {
                let id = field(line, "id").unwrap();
                assert!(
                    started.contains(&id),
                    "{name}: flow end {id} before its start"
                );
                flows += 1;
            } else if line.contains("\"name\":\"thread_name\"") {
                let tid = field(line, "tid").unwrap();
                assert!(named.insert(tid), "{name}: track {tid} named twice");
            } else if line.contains("\"ph\":\"X\"") {
                assert!(field(line, "dur").unwrap() >= 1, "{name}: {line}");
            }
        }
        let tracks: BTreeSet<u64> = report
            .waves
            .iter()
            .flat_map(|w| &w.spans)
            .flat_map(|s| [2 * s.actor.0 as u64, 2 * s.actor.0 as u64 + 1])
            .collect();
        assert_eq!(
            named, tracks,
            "{name}: one thread_name pair per actor with spans"
        );
        assert!(flows > 0, "{name}: the wave's firings are linked");
    }
}

/// 1-in-N head sampling keeps whole waves: a sampled root's lineage is
/// recorded end to end, unsampled roots leave no spans at all.
#[test]
fn sampling_keeps_full_lineage_per_wave() {
    let full = traced_run(fanout_pipeline(4, 1_000), TraceConfig::default(), |e| {
        e.with_director(DeDirector::new())
    });
    assert_eq!(full.waves.len(), 4);
    let reference = full.waves[0].structure();

    let sampled = traced_run(fanout_pipeline(4, 1_000), TraceConfig::sampled(2), |e| {
        e.with_director(DeDirector::new())
    });
    assert_eq!(sampled.roots_seen, 4);
    assert_eq!(sampled.sampled_roots, 2);
    assert_eq!(sampled.waves.len(), 2);
    // Roots are sampled by head position (0 and 2), and DE admits them at
    // their scheduled arrival times.
    let origins: Vec<u64> = sampled.waves.iter().map(|w| w.origin.as_micros()).collect();
    assert_eq!(origins, vec![0, 2_000]);
    for wave in &sampled.waves {
        assert_eq!(
            wave.structure(),
            reference,
            "sampled wave {} lost part of its lineage",
            wave.origin.as_micros()
        );
    }
}

/// The flight recorder evicts oldest-wave-first and never tears a wave:
/// the surviving traces are a contiguous suffix of the newest waves,
/// each still structurally complete.
#[test]
fn flight_recorder_evicts_whole_oldest_waves() {
    const ROOTS: usize = 8;
    let full = traced_run(
        fanout_pipeline(ROOTS, 1_000),
        TraceConfig::default(),
        |e| e.with_director(DeDirector::new()),
    );
    assert_eq!(full.waves.len(), ROOTS);
    let reference = full.waves[0].structure();
    let spans_per_wave = full.waves[0].spans.len();

    // Room for roughly three waves out of eight.
    let config = TraceConfig {
        sample_every: 1,
        max_spans: 3 * spans_per_wave + 1,
    };
    let budget = config.max_spans;
    let report = traced_run(fanout_pipeline(ROOTS, 1_000), config, |e| {
        e.with_director(DeDirector::new())
    });
    assert!(
        report.evicted_waves > 0,
        "the bounded recorder must have evicted something"
    );
    assert!(
        report.waves.iter().map(|w| w.spans.len()).sum::<usize>() <= budget,
        "recorder exceeded its span budget"
    );
    // Survivors are the newest waves, in order, with nothing missing
    // in between.
    let origins: Vec<u64> = report.waves.iter().map(|w| w.origin.as_micros()).collect();
    let expected: Vec<u64> = (ROOTS - report.waves.len()..ROOTS)
        .map(|i| i as u64 * 1_000)
        .collect();
    assert_eq!(origins, expected, "survivors must be the newest waves");
    for wave in &report.waves {
        assert_eq!(
            wave.structure(),
            reference,
            "evicting must not tear surviving wave {}",
            wave.origin.as_micros()
        );
    }
}

/// In virtual time the per-wave critical path telescopes exactly: the
/// route/wait/service segments sum to the wave's end-to-end latency.
#[test]
fn critical_path_sums_to_end_to_end_latency_in_virtual_time() {
    let report = traced_run(fanout_pipeline(3, 1_000), TraceConfig::default(), |e| {
        e.with_director(scwf())
    });
    assert_eq!(report.waves.len(), 3);
    let paths = report.critical_paths();
    assert_eq!(paths.len(), 3);
    for (wave, path) in report.waves.iter().zip(&paths) {
        assert_eq!(path.origin, wave.origin);
        assert!(
            path.total > Micros(0),
            "costed virtual-time run must show nonzero latency"
        );
        assert_eq!(
            path.total,
            wave.end_to_end(),
            "critical path total must equal the wave's end-to-end latency"
        );
        let segment_sum: u64 = path.segments.iter().map(|s| s.duration.as_micros()).sum();
        assert_eq!(
            Micros(segment_sum),
            path.total,
            "critical-path segments must telescope with no gaps or overlaps"
        );
    }
}
