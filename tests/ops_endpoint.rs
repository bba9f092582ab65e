//! The live ops endpoint end-to-end: an engine configured with
//! `ops_endpoint("127.0.0.1:0")` serves all five routes over real
//! telemetry, `/metrics` is byte-identical to the in-process Prometheus
//! exposition, and `/healthz` flips to 503 when an active run stalls.

use std::sync::Arc;
use std::time::Duration;

use confluence::core::actors::{Collector, VecSource};
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::engine::{Engine, ExecConfig};
use confluence::core::graph::Workflow;
use confluence::core::telemetry::ops::{http_get, scrape_all};
use confluence::core::telemetry::{Observer, OpsConfig, RunPhase, TraceConfig, Tracer};
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;

fn pipeline() -> (Workflow, Collector) {
    use confluence::core::actor::{Actor, FireContext, IoSignature};
    use confluence::core::error::Result;
    use confluence::core::graph::WorkflowBuilder;

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
    }

    let c = Collector::new();
    let mut b = WorkflowBuilder::new("pipeline");
    let s = b.add_actor("src", VecSource::new((1..=30).map(Token::Int).collect()));
    let d = b.add_actor("double", Double);
    let k = b.add_actor("sink", c.actor());
    b.chain(&[s, d, k]).unwrap();
    (b.build().unwrap(), c)
}

/// All five routes answer from one engine, and the `/metrics` scrape is
/// byte-identical to the in-process `snapshot().to_prometheus()`.
#[test]
fn all_five_routes_serve_live_telemetry() {
    let (wf, _c) = pipeline();
    let tracer = Arc::new(Tracer::new(TraceConfig::default()));
    let mut e = Engine::new(wf)
        .with_director(ThreadedDirector::new())
        .with_tracer(tracer)
        .configure(
            ExecConfig::new()
                .sample_series(Micros(1))
                .ops_endpoint("127.0.0.1:0"),
        );
    e.run().unwrap();
    let addr = e.ops_addr().expect("ops endpoint is serving");

    let pages = scrape_all(addr).unwrap();
    for (path, (status, _)) in &pages {
        assert_eq!(*status, 200, "route {path} must answer 200");
    }

    let (_, metrics) = &pages["/metrics"];
    assert_eq!(
        metrics,
        &e.snapshot().to_prometheus(),
        "/metrics is byte-identical to the in-process exposition"
    );
    for needle in [
        "confluence_actor_fires_total{actor=\"double\"}",
        "confluence_latency_us_bucket",
        "confluence_port_depth",
    ] {
        assert!(metrics.contains(needle), "/metrics misses `{needle}`");
    }

    let (_, snapshot) = &pages["/snapshot"];
    assert_eq!(snapshot, &e.snapshot().to_json(), "/snapshot serves the JSON export");

    let (_, series) = &pages["/series"];
    assert!(series.starts_with("tick_us,key,value\n"));
    assert!(series.contains("fires:sink"), "/series carries the sampled keys");

    // A single key, percent-encoded, comes back as a two-column CSV.
    let (status, one) = http_get(addr, "/series?key=fires%3Asink").unwrap();
    assert_eq!(status, 200);
    assert_eq!(one, e.series().unwrap().to_csv("fires:sink"));

    let (_, trace) = &pages["/trace"];
    assert!(
        trace.contains("traceEvents") || trace.starts_with('['),
        "/trace serves Chrome-trace JSON, got: {trace}"
    );

    let (_, health) = &pages["/healthz"];
    assert!(health.contains("\"healthy\":true"), "idle engine is healthy: {health}");

    // Unknown routes and non-GETs are rejected, not crashed on.
    let (status, _) = http_get(addr, "/nope").unwrap();
    assert_eq!(status, 404);
}

/// The endpoint serves whatever the engine has by the time of the request:
/// a tracer attached, or series sampling configured, *after* the endpoint
/// was bound are served like ones attached before it.
#[test]
fn optional_routes_do_not_depend_on_builder_order() {
    let (wf, _c) = pipeline();
    let mut e = Engine::new(wf)
        .with_director(ThreadedDirector::new())
        .configure(ExecConfig::new().ops_endpoint("127.0.0.1:0"))
        .with_tracer(Arc::new(Tracer::new(TraceConfig::default())))
        .configure(ExecConfig::new().sample_series(Micros(1)));
    let addr = e.ops_addr().expect("the endpoint is bound before the run");
    e.run().unwrap();
    let (status, trace) = http_get(addr, "/trace").unwrap();
    assert_eq!(status, 200, "/trace after a late with_tracer: {trace}");
    let (status, series) = http_get(addr, "/series").unwrap();
    assert_eq!(status, 200, "/series after a late sample_series: {series}");
    assert_eq!(series, e.series().unwrap().to_csv_all());
}

/// Without series sampling or a tracer the optional routes answer 404
/// while the mandatory three keep serving.
#[test]
fn optional_routes_degrade_to_404() {
    let (wf, _c) = pipeline();
    let mut e = Engine::new(wf)
        .with_director(ThreadedDirector::new())
        .configure(ExecConfig::new().ops_endpoint("127.0.0.1:0"));
    e.run().unwrap();
    let addr = e.ops_addr().unwrap();
    assert_eq!(http_get(addr, "/series").unwrap().0, 404);
    assert_eq!(http_get(addr, "/trace").unwrap().0, 404);
    assert_eq!(http_get(addr, "/metrics").unwrap().0, 200);
    assert_eq!(http_get(addr, "/snapshot").unwrap().0, 200);
    assert_eq!(http_get(addr, "/healthz").unwrap().0, 200);
}

/// `/healthz` flips to 503 when a run is active but nothing progresses
/// past the configured stall threshold, and recovers when the run ends.
#[test]
fn healthz_flips_on_an_injected_stall() {
    let (wf, _c) = pipeline();
    let mut e = Engine::new(wf)
        .with_director(ThreadedDirector::new())
        .configure(
            ExecConfig::new().ops(
                OpsConfig::new("127.0.0.1:0")
                    .progress_stall(Duration::from_millis(40))
                    .actor_stall(Duration::from_secs(60)),
            ),
        );
    e.run().unwrap();
    let addr = e.ops_addr().unwrap();
    let watchdog = e.watchdog().unwrap().clone();

    // The completed run left the watchdog idle, hence healthy.
    let (status, _) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);

    // Inject a stall: declare a run started, then make no progress past
    // the 40 ms threshold. The watchdog is an ordinary observer, so the
    // injection uses the same hooks the directors call.
    watchdog.on_run_phase(RunPhase::Start, Timestamp::ZERO);
    std::thread::sleep(Duration::from_millis(80));
    let (status, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 503, "stalled run reports unhealthy: {body}");
    assert!(body.contains("\"progress_stalled\":true"), "diagnosis names the stall: {body}");

    // Ending the run restores health unconditionally.
    watchdog.on_run_phase(RunPhase::End, Timestamp::ZERO);
    let (status, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "idle engine is healthy again: {body}");
}
