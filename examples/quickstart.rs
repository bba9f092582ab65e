//! Quickstart: build a small continuous workflow and run it under the
//! STAFiLOS scheduled director in virtual time.
//!
//! A sensor stream of temperature readings flows into a sliding window
//! average; readings above a threshold raise alerts. Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use confluence::core::actor::IoSignature;
use confluence::core::actors::{Collector, FnActor, TimedSource};
use confluence::core::graph::WorkflowBuilder;
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::core::window::WindowSpec;
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::QbsScheduler;
use confluence::sched::ScwfDirector;
use confluence::Engine;

fn main() -> confluence::prelude::Result<()> {
    // 1. An external stream: one temperature reading every 100 ms.
    let readings: Vec<(Timestamp, Token)> = (0..50)
        .map(|i| {
            let temp = 20.0 + (i as f64 * 0.7).sin() * 8.0 + i as f64 * 0.2;
            (
                Timestamp::from_millis(i * 100),
                Token::record().field("sensor", 1).field("temp", temp).build(),
            )
        })
        .collect();

    // 2. The workflow: source → sliding average → alert filter → sink.
    let alerts = Collector::new();
    let averages = Collector::new();
    let mut b = WorkflowBuilder::new("quickstart");
    let src = b.add_actor("sensor", TimedSource::new(readings));
    let avg = b.add_actor(
        "avg",
        FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
            let mut sum = 0.0;
            for t in w.tokens() {
                sum += t.float_field("temp")?;
            }
            emit(0, Token::Float(sum / w.len() as f64));
            Ok(())
        }),
    );
    let alarm = b.add_actor(
        "alarm",
        confluence::core::actors::Filter::new(|t: &Token| Ok(t.as_float()? > 27.0)),
    );
    let avg_sink = b.add_actor("avg_sink", averages.actor());
    let alert_sink = b.add_actor("alert_sink", alerts.actor());

    // The paper's window semantics, on the avg actor's input:
    // {Size: 5 tokens, Step: 1 token}.
    b.link_windowed((src, "out"), (avg, "in"), WindowSpec::tuples(5, 1))?;
    b.link((avg, "out"), (alarm, "in"))?;
    b.link((avg, "out"), (avg_sink, "in"))?;
    b.link((alarm, "out"), (alert_sink, "in"))?;
    b.set_priority(alert_sink, 5); // alerts are the urgent output
    let workflow = b.build()?;

    // 3. Run under the QBS scheduler in virtual time, through the engine
    // facade: telemetry is collected automatically.
    let policy = Box::new(QbsScheduler::new(500, 5));
    let cost = Box::new(TableCostModel::uniform(Micros(50), Micros(5)));
    let mut engine = Engine::new(workflow).with_director(ScwfDirector::virtual_time(policy, cost));
    let report = engine.run()?;

    println!("firings: {}, events routed: {}", report.firings, report.events_routed);
    println!("window averages: {}", averages.len());
    println!("alerts: {}", alerts.len());
    for t in alerts.tokens().iter().take(5) {
        println!("  ALERT: rolling average {t}");
    }

    // 4. Per-actor metrics come from the same run, no extra plumbing.
    println!("\n{}", engine.snapshot().render_table());
    assert!(!averages.is_empty());
    Ok(())
}
