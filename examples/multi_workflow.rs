//! Multiple continuous workflows under two-level scheduling (paper §5,
//! Figure 9): each workflow runs its own local STAFiLOS policy while a
//! global scheduler distributes CPU capacity between the instances — and
//! the ConnectionController-style interface pauses/resumes them.
//!
//! ```text
//! cargo run --example multi_workflow
//! ```

use std::sync::Arc;

use confluence::core::actors::{Collector, TimedSource};
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::sched::cost::TableCostModel;
use confluence::sched::multi::MultiWorkflowExecutor;
use confluence::sched::policies::{FifoScheduler, QbsScheduler};
use confluence::{MetricsRecorder, Telemetry};

fn stream_workflow(events: u64, period_us: u64) -> (Workflow, Collector) {
    let probe = Collector::new();
    let schedule: Vec<(Timestamp, Token)> = (0..events)
        .map(|i| (Timestamp(i * period_us), Token::Int(i as i64)))
        .collect();
    let mut b = WorkflowBuilder::new("stream");
    let s = b.add_actor("src", TimedSource::new(schedule));
    let k = b.add_actor("probe", probe.actor());
    b.chain(&[s, k]).unwrap();
    (b.build().unwrap(), probe)
}

fn main() -> confluence::prelude::Result<()> {
    let mut exec = MultiWorkflowExecutor::new(Micros(1_000));

    // Two overloaded monitoring workflows compete for one (virtual) CPU;
    // the premium instance holds 4× the capacity share.
    let (wf_premium, p_premium) = stream_workflow(2_000, 100);
    let (wf_basic, p_basic) = stream_workflow(2_000, 100);
    let recorder = Arc::new(MetricsRecorder::for_workflow(&wf_premium));
    let premium = exec.add_workflow(
        "premium",
        wf_premium,
        Box::new(QbsScheduler::new(500, 5)),
        Box::new(TableCostModel::uniform(Micros(140), Micros::ZERO)),
        4,
    );
    let basic = exec.add_workflow(
        "basic",
        wf_basic,
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(140), Micros::ZERO)),
        1,
    );

    // Observe the premium instance: per-actor metrics flow into a
    // recorder while the global scheduler slices CPU between instances.
    exec.instrument(premium, Telemetry::new(recorder.clone()))?;

    exec.run()?;

    let m_premium = p_premium.mean_latency().expect("premium produced output");
    let m_basic = p_basic.mean_latency().expect("basic produced output");
    println!("premium (share 4, {}): mean response {m_premium}", exec.manager(premium).policy_name());
    println!("basic   (share 1, {}): mean response {m_basic}", exec.manager(basic).policy_name());
    println!(
        "capacity shares bite: premium is {:.1}x faster",
        m_basic.as_micros() as f64 / m_premium.as_micros() as f64
    );
    println!("\npremium instance metrics:\n{}", recorder.snapshot().render_table());
    assert!(m_premium < m_basic);
    Ok(())
}
