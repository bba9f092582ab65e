//! A business-domain monitoring workflow (paper §1's motivating class):
//! stock ticks stream in over push communication; a per-symbol sliding
//! VWAP (volume-weighted average price) is maintained, and crossings of a
//! trading band emit signals — all executed in *real time* under the
//! thread-based PNCWF director with data pushed from a producer thread.
//!
//! A monitoring workflow deserves monitoring of its own: the run also
//! turns on the continuous-telemetry layer — a 1 ms time-series
//! recorder — and a supervisor thread reads the engine's firing count
//! mid-run from a clone of its metrics recorder.
//!
//! ```text
//! cargo run --example stock_monitor
//! ```

use std::thread;
use std::time::Duration;

use confluence::core::actor::IoSignature;
use confluence::core::actors::{Collector, FnActor, PushSource, Router};
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::graph::WorkflowBuilder;
use confluence::core::token::Token;
use confluence::core::window::{GroupBy, WindowSpec};
use confluence::prelude::Micros;
use confluence::{Engine, ExecConfig};

fn tick(symbol: &str, price: f64, volume: i64) -> Token {
    Token::record()
        .field("symbol", symbol)
        .field("price", price)
        .field("volume", volume)
        .build()
}

fn main() -> confluence::prelude::Result<()> {
    let (source, feed) = PushSource::new();
    let buys = Collector::new();
    let sells = Collector::new();

    let mut b = WorkflowBuilder::new("stock-monitor");
    let src = b.add_actor("ticks", source);
    let vwap = b.add_actor(
        "vwap",
        FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
            let mut pv = 0.0;
            let mut vol = 0.0;
            for t in w.tokens() {
                pv += t.float_field("price")? * t.int_field("volume")? as f64;
                vol += t.int_field("volume")? as f64;
            }
            let last = w.events.last().expect("non-empty window");
            let symbol = last.token.get("symbol")?.clone();
            let price = last.token.float_field("price")?;
            emit(
                0,
                Token::record()
                    .field("symbol", symbol)
                    .field("vwap", pv / vol)
                    .field("price", price)
                    .build(),
            );
            Ok(())
        }),
    );
    let signal = b.add_actor(
        "signal",
        Router::new(&["buy", "sell"], |t: &Token| {
            let price = t.float_field("price")?;
            let vwap = t.float_field("vwap")?;
            Ok(if price < vwap * 0.99 {
                Some(0) // cheap vs the band: buy signal
            } else if price > vwap * 1.01 {
                Some(1) // rich: sell signal
            } else {
                None
            })
        }),
    );
    let buy_sink = b.add_actor("buys", buys.actor());
    let sell_sink = b.add_actor("sells", sells.actor());

    // Per-symbol sliding window of the last 8 ticks.
    b.link_windowed(
        (src, "out"),
        (vwap, "in"),
        WindowSpec::tuples(8, 1).group_by(GroupBy::fields(&["symbol"])),
    )?;
    b.link((vwap, "out"), (signal, "in"))?;
    // Ports resolve by name or by index: the router's outputs are
    // "buy" (#0) and "sell" (#1).
    b.link((signal, 0), (buy_sink, "in"))?;
    b.link((signal, "sell"), (sell_sink, 0))?;
    let workflow = b.build()?;

    // The producer: a market feed pushing ticks from another thread while
    // the workflow is live (the push-communication model of CWfs).
    let producer = thread::spawn(move || {
        let symbols = ["CWF", "STAF"];
        for i in 0..200u32 {
            let base = if i % 2 == 0 { 100.0 } else { 40.0 };
            let wobble = ((i as f64) * 0.9).sin() * 3.0;
            let spike = if i % 37 == 0 { 4.0 } else { 0.0 };
            feed.push(tick(
                symbols[(i % 2) as usize],
                base + wobble + spike,
                100 + (i as i64 % 7) * 10,
            ));
            if i % 20 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        // Dropping the handle ends the stream and the run.
    });

    // Continuous telemetry for the monitor itself: sample per-actor
    // inbox depths / firings / latency p95 every 1 ms of wall time.
    let mut engine = Engine::new(workflow)
        .with_director(ThreadedDirector::new())
        .configure(ExecConfig::new().sample_series(Micros(1_000)));

    // A supervisor thread reads the live counters mid-run through a
    // clone of the engine's recorder: the in-process view of progress.
    let recorder = engine.recorder().clone();
    let supervisor = thread::spawn(move || {
        thread::sleep(Duration::from_millis(2));
        recorder.total_fires()
    });

    engine.run()?;
    producer.join().expect("producer finishes");
    let mid_run = supervisor.join().expect("supervisor finishes");
    let total = engine.snapshot().total_fires();
    println!("firings seen by the supervisor mid-run: {mid_run} (of {total})");

    if let Some(series) = engine.series() {
        let depths = series.series("depth:vwap");
        println!(
            "sampled {} points of depth:vwap (keys: {})",
            depths.len(),
            series.keys().len()
        );
    }

    println!("buy signals:  {}", buys.len());
    println!("sell signals: {}", sells.len());
    for t in buys.tokens().iter().take(3) {
        println!("  BUY  {t}");
    }
    for t in sells.tokens().iter().take(3) {
        println!("  SELL {t}");
    }
    println!("\n{}", engine.snapshot().render_table());
    assert!(buys.len() + sells.len() > 0, "the band was crossed");
    Ok(())
}
