//! Experiments beyond the paper's evaluation: the §4.3/§5 extensions.
//!
//! * **Load shedding** — the paper's discussion notes that integrated
//!   sources "can potentially be tuned to also support load shedding under
//!   overloading situations"; here an adaptive shedder keeps the Linear
//!   Road response time bounded past the capacity wall, at the price of
//!   dropped position reports.
//! * **Multi-workflow scheduling** — the paper's §5 hypothesis: two-level
//!   scheduling can "handle workflows with different priorities and
//!   different optimization metrics". Two Linear Road instances share one
//!   virtual CPU with weighted capacity.
//! * **Ablations** — the cost of the scheduling framework itself, and of
//!   the two-level workflow hierarchy.

use confluence_core::time::Micros;
use confluence_linearroad::cost::staf_cost_model;
use confluence_linearroad::{build, LrOptions, ResponseSeries, Workload};
use confluence_sched::multi::MultiWorkflowExecutor;
use confluence_sched::policies::QbsScheduler;

use crate::config::ExperimentConfig;
use crate::runner::{run_linear_road, PolicyKind, RunOptions};

/// Result of the shedding comparison.
pub struct SheddingResult {
    /// Mean response in the saturated tail (last 150 s) without shedding.
    pub tail_mean_no_shed: f64,
    /// Same with shedding.
    pub tail_mean_shed: f64,
    /// Fraction of reports dropped by the shedder.
    pub shed_fraction: f64,
    /// Toll notifications with / without shedding.
    pub tolls: (usize, usize),
}

/// Run QBS with and without the adaptive shedder and compare the
/// saturated tail.
pub fn shedding_experiment(config: &ExperimentConfig) -> SheddingResult {
    let workload = Workload::generate(config.workload());
    let kind = PolicyKind::Qbs { basic_quantum: 500 };
    let base = run_linear_road(kind, &workload, config, &RunOptions::default());
    let shed = run_linear_road(
        kind,
        &workload,
        config,
        &RunOptions {
            shed_target: Some(Micros::from_millis(500)),
            ..RunOptions::default()
        },
    );
    let tail_from = config.duration_secs.saturating_sub(150);
    let tail = |s: &ResponseSeries| {
        let all = s.mean_secs();
        let pre = s.mean_secs_before(tail_from);
        let n = s.len() as f64;
        // Tail mean from totals (avoids re-bucketing): solve
        // all·n = pre·n_pre + tail·n_tail with bucket counts.
        let _ = (all, pre, n);
        // Simpler: recompute from buckets.
        let buckets = s.bucketed(10);
        let tail_buckets: Vec<_> = buckets
            .iter()
            .filter(|b| b.start_secs >= tail_from && b.count > 0)
            .collect();
        if tail_buckets.is_empty() {
            0.0
        } else {
            tail_buckets.iter().map(|b| b.mean_response_secs).sum::<f64>() / tail_buckets.len() as f64
        }
    };
    SheddingResult {
        tail_mean_no_shed: tail(&base.toll_series),
        tail_mean_shed: tail(&shed.toll_series),
        shed_fraction: shed.shed_fraction,
        tolls: (shed.toll_count, base.toll_count),
    }
}

/// Render the shedding comparison.
pub fn render_shedding(r: &SheddingResult) -> String {
    format!(
        "Load shedding under overload (QBS-q500, saturated tail):\n\
         \x20 tail mean response without shedding: {:>8.3} s\n\
         \x20 tail mean response with shedding:    {:>8.3} s\n\
         \x20 reports dropped: {:.1}%   tolls produced: {} (vs {} unshed)\n",
        r.tail_mean_no_shed,
        r.tail_mean_shed,
        r.shed_fraction * 100.0,
        r.tolls.0,
        r.tolls.1
    )
}

/// Result of the multi-workflow experiment.
pub struct MultiResult {
    /// Mean response of the high-share instance.
    pub premium_mean: f64,
    /// Mean response of the low-share instance.
    pub basic_mean: f64,
}

/// Two Linear Road instances on one virtual CPU with 4:1 capacity shares,
/// each under its own local QBS scheduler (two-level scheduling, §5).
pub fn multi_workflow_experiment(config: &ExperimentConfig) -> MultiResult {
    let workload = Workload::generate(config.workload());
    let scale = 0.5 / workload.config.l_rating.max(1e-9);
    let make = || {
        build(&workload, &LrOptions::default()).expect("workflow builds")
    };
    let cost = move || -> Box<dyn confluence_sched::cost::CostModel> {
        Box::new(Scaled(staf_cost_model(), scale))
    };
    let mut exec = MultiWorkflowExecutor::new(Micros(5_000));
    let premium = make();
    let basic = make();
    let premium_out = premium.toll_output.clone();
    let basic_out = basic.toll_output.clone();
    exec.add_workflow(
        "premium",
        premium.workflow,
        Box::new(QbsScheduler::new(500, config.qbs_source_interval)),
        cost(),
        4,
    );
    exec.add_workflow(
        "basic",
        basic.workflow,
        Box::new(QbsScheduler::new(500, config.qbs_source_interval)),
        cost(),
        1,
    );
    exec.run().expect("multi run succeeds");
    MultiResult {
        premium_mean: ResponseSeries::new(premium_out.latency_samples()).mean_secs(),
        basic_mean: ResponseSeries::new(basic_out.latency_samples()).mean_secs(),
    }
}

struct Scaled(confluence_sched::cost::TableCostModel, f64);
impl confluence_sched::cost::CostModel for Scaled {
    fn firing_cost(&self, actor: usize, name: &str, consumed: u64, produced: u64) -> Micros {
        let base = self.0.firing_cost(actor, name, consumed, produced);
        Micros((base.as_micros() as f64 * self.1).round() as u64)
    }
}

/// Render the multi-workflow comparison.
pub fn render_multi(r: &MultiResult) -> String {
    format!(
        "Two Linear Road instances, 4:1 capacity shares (two-level scheduling):\n\
         \x20 premium (share 4) mean response: {:>8.3} s\n\
         \x20 basic   (share 1) mean response: {:>8.3} s\n",
        r.premium_mean, r.basic_mean
    )
}

/// One ablation row: label and mean pre-saturation response.
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Mean response before 400 s.
    pub mean_pre_secs: f64,
    /// Thrash point.
    pub thrash_secs: Option<u64>,
}

/// Ablations: scheduler-overhead sweep and composite-vs-flat hierarchy.
pub fn ablations(config: &ExperimentConfig) -> Vec<AblationRow> {
    let workload = Workload::generate(config.workload());
    let kind = PolicyKind::Qbs { basic_quantum: 500 };
    let mut rows = Vec::new();
    for overhead in [0u64, 100, 500] {
        let run = run_linear_road(
            kind,
            &workload,
            config,
            &RunOptions {
                scheduler_overhead: Micros(overhead),
                ..RunOptions::default()
            },
        );
        rows.push(AblationRow {
            label: format!("scheduler overhead {overhead}µs"),
            mean_pre_secs: run.toll_series.mean_secs_before(400),
            thrash_secs: run.thrash_secs,
        });
    }
    for (label, flat) in [("composite sub-workflows", false), ("flat actors", true)] {
        let run = run_linear_road(
            kind,
            &workload,
            config,
            &RunOptions {
                flat_subworkflows: flat,
                ..RunOptions::default()
            },
        );
        rows.push(AblationRow {
            label: label.to_string(),
            mean_pre_secs: run.toll_series.mean_secs_before(400),
            thrash_secs: run.thrash_secs,
        });
    }
    rows
}

/// Render the ablation table.
pub fn render_ablations(rows: &[AblationRow]) -> String {
    let mut out = String::from("Ablations (QBS-q500):\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<28} mean<400s {:>7.3}s   thrash {}\n",
            r.label,
            r.mean_pre_secs,
            match r.thrash_secs {
                Some(t) => format!("at {t}s"),
                None => "never".to_string(),
            }
        ));
    }
    out
}

/// Run QBS over the Linear Road workflow and render the statistics
/// module's per-actor table — the runtime observability surface the
/// framework exposes to scheduler developers.
pub fn actor_stats_experiment(config: &ExperimentConfig) -> String {
    use confluence_core::director::Director;
    let workload = Workload::generate(config.workload());
    let mut lr = build(&workload, &LrOptions::default()).expect("workflow builds");
    let scale = 0.5 / workload.config.l_rating.max(1e-9);
    let mut director = confluence_sched::ScwfDirector::virtual_time(
        Box::new(QbsScheduler::new(500, config.qbs_source_interval)),
        Box::new(Scaled(staf_cost_model(), scale)),
    )
    .with_deadline(confluence_core::time::Timestamp::from_secs(
        config.duration_secs + 20,
    ));
    director.run(&mut lr.workflow).expect("run succeeds");
    let names: Vec<String> = lr
        .workflow
        .actor_ids()
        .map(|id| lr.workflow.node(id).name.clone())
        .collect();
    let stats = director.last_stats().expect("stats recorded");
    format!(
        "Actor runtime statistics (QBS-q500, full run):\n{}",
        stats.render(&names)
    )
}

/// Extra scheduler comparison: the paper's best (QBS) against the EDF
/// extension and plain FIFO.
pub fn extras_experiment(config: &ExperimentConfig) -> String {
    let workload = Workload::generate(config.workload());
    let mut out = String::from("Extra schedulers (pre-saturation, first 400 s):\n");
    for kind in [
        PolicyKind::Qbs { basic_quantum: 500 },
        PolicyKind::Edf,
        PolicyKind::Fifo,
    ] {
        let run = run_linear_road(kind, &workload, config, &RunOptions::default());
        out.push_str(&format!(
            "  {:<12} mean<400s {:>7.3}s   p95 {:>7.3}s   thrash {}\n",
            run.label,
            run.toll_series.mean_secs_before(400),
            run.toll_series.percentile_secs(95.0),
            match run.thrash_secs {
                Some(t) => format!("at {t}s"),
                None => "never".to_string(),
            }
        ));
    }
    out
}
