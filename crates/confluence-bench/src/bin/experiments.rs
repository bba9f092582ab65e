//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--table1] [--table2] [--table3]
//!             [--fig5] [--fig6] [--fig7] [--fig8]
//!             [--shedding] [--multi] [--ablations] [--extras] [--stats] [--all]
//!             [--csv DIR] [--trace FILE]
//!             [--director pool[:N]|threaded] [--policy fifo|rb|edf|qbs[:US]]
//!             [--timeline FILE]
//! ```
//!
//! With no selection, `--all` is assumed. `--quick` runs a down-scaled
//! workload with proportionally inflated costs (same crossover shape,
//! ~1/4 the events). `--csv DIR` additionally writes each figure's data
//! as a CSV file under DIR (plot-ready artifacts). An unknown flag, or a
//! value flag without its value, prints the usage and exits non-zero.
//!
//! `--fig5 --director pool[:N]` (or `--director threaded`) switches the
//! figure-5 run from the virtual-time scheduler comparison to a
//! wall-clock head-to-head of the PN executors: the selected executor
//! runs the fig5 workload in real time (timetable compressed 100×) next
//! to the thread-per-actor baseline, printing firing/routing/latency
//! numbers side by side.

use std::path::{Path, PathBuf};

use confluence_bench::config::ExperimentConfig;
use confluence_bench::runner::{
    run_linear_road, run_linear_road_realtime, PolicyKind, RealtimeOptions, RealtimePolicy,
    RunOptions,
};
use confluence_bench::{extensions, figures};
use confluence_core::director::taxonomy;
use confluence_core::telemetry::{TraceConfig, TraceReport};
use confluence_core::time::Micros;
use confluence_linearroad::Workload;

/// Wave sampling rate for `--trace` runs: 1-in-N root waves.
const TRACE_SAMPLE_EVERY: u64 = 16;

const USAGE: &str = "usage: experiments [--quick] [--table1] [--table2] [--table3]
                   [--fig5] [--fig6] [--fig7] [--fig8]
                   [--shedding] [--multi] [--ablations] [--extras] [--stats] [--all]
                   [--csv DIR] [--trace FILE]
                   [--director pool[:N]|threaded] [--policy fifo|rb|edf|qbs[:US]]
                   [--timeline FILE]";

/// Flags that select what runs; with none of them given, `--all` is
/// assumed.
const SELECTIONS: &[&str] = &[
    "--all",
    "--table1",
    "--table2",
    "--table3",
    "--fig5",
    "--fig6",
    "--fig7",
    "--fig8",
    "--shedding",
    "--multi",
    "--ablations",
    "--extras",
    "--stats",
];

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    quick: bool,
    /// The [`SELECTIONS`] flags given, as spelled.
    selected: Vec<String>,
    csv: Option<PathBuf>,
    trace: Option<PathBuf>,
    director: Option<String>,
    policy: Option<String>,
    timeline: Option<PathBuf>,
}

impl Cli {
    /// Parse the arguments after the program name. Anything that is not
    /// a known flag, and a value flag without its value, is an error.
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let mut value = || match rest.next() {
                Some(v) if !v.starts_with("--") => Ok(v.clone()),
                _ => Err(format!("{arg} needs a value")),
            };
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--csv" => cli.csv = Some(value()?.into()),
                "--trace" => cli.trace = Some(value()?.into()),
                "--director" => cli.director = Some(value()?),
                "--policy" => cli.policy = Some(value()?),
                "--timeline" => cli.timeline = Some(value()?.into()),
                flag if SELECTIONS.contains(&flag) => cli.selected.push(flag.to_string()),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cli)
    }

    /// Whether `flag` was given by name.
    fn names(&self, flag: &str) -> bool {
        self.selected.iter().any(|s| s == flag)
    }

    /// Whether the experiment `flag` selects runs: named, covered by
    /// `--all`, or nothing was selected at all.
    fn runs(&self, flag: &str) -> bool {
        self.selected.is_empty() || self.names("--all") || self.names(flag)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let config = if cli.quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    if let Some(dir) = &cli.csv {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    let write_csv = |name: &str, content: String| {
        if let Some(dir) = &cli.csv {
            let path = dir.join(name);
            std::fs::write(&path, content).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    };
    let trace_path = cli.trace.as_deref();

    if cli.runs("--table1") {
        println!("Table 1: Taxonomy of directors (Kepler / PtolemyII / CWf)\n");
        println!("{}", taxonomy::render_table());
    }
    if cli.runs("--table2") {
        println!("{}", render_table2());
    }
    if cli.runs("--table3") {
        println!("{}", config.render_table3());
    }
    if let Some(mode) = cli.director.as_deref() {
        if cli.names("--fig5") {
            run_fig5_head_to_head(&config, mode, trace_path);
            return;
        }
        if cli.names("--fig8") {
            run_fig8_realtime(
                &config,
                mode,
                cli.policy.as_deref(),
                &write_csv,
                trace_path,
                cli.timeline.as_deref(),
            );
            return;
        }
    }
    if cli.runs("--fig5") {
        let series = figures::fig5_workload(&config);
        println!("{}", figures::render_fig5(&series));
        write_csv("fig5_workload.csv", figures::fig5_to_csv(&series));
        // One representative run over the fig5 workload, with the
        // telemetry layer's per-actor metrics table.
        let workload = Workload::generate(config.workload());
        let run = run_linear_road(
            PolicyKind::Qbs { basic_quantum: 500 },
            &workload,
            &config,
            &RunOptions {
                trace: trace_path.map(|_| TraceConfig::sampled(TRACE_SAMPLE_EVERY)),
                ..RunOptions::default()
            },
        );
        println!(
            "Per-actor metrics over the Figure 5 workload ({}):\n\n{}",
            run.label,
            run.metrics.render_table()
        );
        println!(
            "backpressure: blocks={} block_time={} shed={} queue_high_water={}",
            run.channel_blocks, run.channel_block_time, run.channel_shed, run.queue_high_water
        );
        write_csv("fig5_actor_metrics.json", run.metrics.to_json());
        if let (Some(path), Some(report)) = (trace_path, &run.trace) {
            emit_trace(path, report);
        }
    } else if cli.names("--fig8") && trace_path.is_some() {
        // `--fig8 --trace` without `--director`: the fig8 curves are many
        // virtual-time runs, so trace one representative QBS run instead.
        let workload = Workload::generate(config.workload());
        let run = run_linear_road(
            PolicyKind::Qbs { basic_quantum: 500 },
            &workload,
            &config,
            &RunOptions {
                trace: Some(TraceConfig::sampled(TRACE_SAMPLE_EVERY)),
                ..RunOptions::default()
            },
        );
        println!("Wave-lineage trace over the Figure 8 workload ({})", run.label);
        if let (Some(path), Some(report)) = (trace_path, &run.trace) {
            emit_trace(path, report);
        }
    }
    if cli.runs("--fig6") {
        let curves = figures::fig6_rr_sensitivity(&config);
        println!(
            "{}",
            figures::render_curves(
                "Figure 6: Response Times of the RR scheduler (varying basic quantum)",
                &curves
            )
        );
        write_csv("fig6_rr_sensitivity.csv", figures::curves_to_csv(&curves));
    }
    if cli.runs("--fig7") {
        let curves = figures::fig7_qbs_sensitivity(&config);
        println!(
            "{}",
            figures::render_curves(
                "Figure 7: Response Times of the QBS scheduler (varying basic quantum)",
                &curves
            )
        );
        write_csv("fig7_qbs_sensitivity.csv", figures::curves_to_csv(&curves));
    }
    if cli.runs("--fig8") {
        let curves = figures::fig8_all_schedulers(&config);
        println!(
            "{}",
            figures::render_curves("Figure 8: Response Times of all the main schedulers", &curves)
        );
        write_csv("fig8_all_schedulers.csv", figures::curves_to_csv(&curves));
    }
    if cli.runs("--shedding") {
        println!(
            "{}",
            extensions::render_shedding(&extensions::shedding_experiment(&config))
        );
    }
    if cli.runs("--multi") {
        println!(
            "{}",
            extensions::render_multi(&extensions::multi_workflow_experiment(&config))
        );
    }
    if cli.runs("--ablations") {
        println!("{}", extensions::render_ablations(&extensions::ablations(&config)));
    }
    if cli.runs("--extras") {
        println!("{}", extensions::extras_experiment(&config));
    }
    if cli.runs("--stats") {
        println!("{}", extensions::actor_stats_experiment(&config));
    }
}

/// `--fig5 --director <pool[:N]|threaded>`: wall-clock Linear Road over
/// the fig5 workload, selected executor vs. the threaded baseline.
fn run_fig5_head_to_head(config: &ExperimentConfig, mode: &str, trace_path: Option<&Path>) {
    // Compress the timetable so the 600 s trace replays in seconds of
    // wall time; both executors see the identical workflow.
    const SPEEDUP: u64 = 100;
    let workload = Workload::generate(config.workload());
    let pool_workers = match mode.split_once(':') {
        Some(("pool", n)) => Some(n.parse().expect("worker count after pool:")),
        None if mode == "pool" => Some(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        ),
        None if mode == "threaded" => None,
        _ => panic!("unknown --director mode {mode:?} (expected pool[:N] or threaded)"),
    };
    println!(
        "Figure 5 workload, wall-clock head-to-head (timetable compressed {SPEEDUP}x)\n"
    );
    // The trace rides on the selected executor's run (the baseline when
    // the comparison is threaded-only).
    let mut runs = Vec::new();
    if pool_workers.is_some() {
        runs.push(run_linear_road_realtime(&workload, &RealtimeOptions::new(None, SPEEDUP)));
    }
    runs.push(run_linear_road_realtime(
        &workload,
        &RealtimeOptions {
            trace: trace_path.map(|_| TraceConfig::sampled(TRACE_SAMPLE_EVERY)),
            ..RealtimeOptions::new(pool_workers, SPEEDUP)
        },
    ));
    println!(
        "{:<12}  {:>10}  {:>12}  {:>8}  {:>12}",
        "executor", "firings", "routed", "tolls", "elapsed_us"
    );
    for run in &runs {
        println!(
            "{:<12}  {:>10}  {:>12}  {:>8}  {:>12}",
            run.label,
            run.firings,
            run.events_routed,
            run.toll_count,
            run.elapsed.as_micros()
        );
    }
    for run in &runs {
        println!("\nPer-actor metrics ({}):\n\n{}", run.label, run.metrics.render_table());
    }
    let selected = runs.last().expect("the selected executor ran");
    if let (Some(path), Some(report)) = (trace_path, &selected.trace) {
        emit_trace(path, report);
    }
}

/// `--fig8 --director pool[:N] [--policy fifo|rb|edf|qbs[:µs]]`: the
/// figure-8 scheduler comparison in *wall-clock* form — the pool executor
/// replays the fig8 workload in real time under each ready-queue policy
/// and reports the toll-notification response-time distribution. With
/// `--policy`, only that policy runs next to the FIFO control; otherwise
/// all four run. Worker count defaults to 2 so the replay is actually
/// overloaded (the point of a scheduling policy); `pool:N` overrides.
/// `--timeline PATH` additionally samples the last policy's run into a
/// `tick_us,key,value` time-series CSV (per-actor inbox depth and
/// cumulative firings, latency p95, worker occupancy).
fn run_fig8_realtime(
    config: &ExperimentConfig,
    mode: &str,
    policy: Option<&str>,
    write_csv: &dyn Fn(&str, String),
    trace_path: Option<&Path>,
    timeline_path: Option<&Path>,
) {
    /// Timeline sampling interval (wall time) for `--timeline`.
    const TIMELINE_INTERVAL_US: u64 = 10_000;
    // Compress the timetable harder than fig5's head-to-head: the policies
    // only separate once the ready queues actually back up.
    const SPEEDUP: u64 = 200;
    let workload = Workload::generate(config.workload());
    let workers = match mode.split_once(':') {
        Some(("pool", n)) => n.parse().expect("worker count after pool:"),
        None if mode == "pool" => 2,
        _ => panic!("unknown --director mode {mode:?} for --fig8 (expected pool[:N])"),
    };
    let policies: Vec<RealtimePolicy> = match policy {
        Some(p) => {
            let selected = RealtimePolicy::parse(p)
                .unwrap_or_else(|| panic!("unknown --policy {p:?} (fifo|rb|edf|qbs[:µs])"));
            if selected == RealtimePolicy::Fifo {
                vec![selected]
            } else {
                vec![RealtimePolicy::Fifo, selected]
            }
        }
        None => RealtimePolicy::all().to_vec(),
    };
    println!(
        "Figure 8 workload, wall-clock pool executor ({workers} workers, \
         timetable compressed {SPEEDUP}x), toll response times per ready-queue policy\n"
    );
    println!(
        "{:<10}  {:>10}  {:>12}  {:>8}  {:>12}  {:>9}  {:>9}  {:>9}",
        "policy", "firings", "routed", "tolls", "elapsed_us", "mean_ms", "p95_ms", "p99_ms"
    );
    let mut csv = String::from(
        "policy,workers,speedup,firings,events_routed,tolls,elapsed_us,mean_ms,p95_ms,p99_ms\n",
    );
    // The trace and the timeline ride on the last policy's run (the
    // selected one when a `--policy` was given, since FIFO runs first as
    // the control).
    let last = *policies.last().expect("at least one policy");
    let mut last_trace = None;
    for p in policies {
        let trace_path = trace_path.filter(|_| p == last);
        let timeline_path = timeline_path.filter(|_| p == last);
        let run = run_linear_road_realtime(
            &workload,
            &RealtimeOptions {
                policy: p,
                trace: trace_path.map(|_| TraceConfig::sampled(TRACE_SAMPLE_EVERY)),
                series_interval: timeline_path.map(|_| Micros(TIMELINE_INTERVAL_US)),
                ..RealtimeOptions::new(Some(workers), SPEEDUP)
            },
        );
        if let (Some(path), Some(series)) = (timeline_path, &run.series) {
            std::fs::write(path, series.to_csv_all()).expect("write timeline");
            eprintln!("wrote {}", path.display());
        }
        let mean_ms = run.toll_series.mean_secs() * 1e3;
        let p95_ms = run.toll_series.percentile_secs(95.0) * 1e3;
        let p99_ms = run.toll_series.percentile_secs(99.0) * 1e3;
        println!(
            "{:<10}  {:>10}  {:>12}  {:>8}  {:>12}  {:>9.2}  {:>9.2}  {:>9.2}",
            p.label(),
            run.firings,
            run.events_routed,
            run.toll_count,
            run.elapsed.as_micros(),
            mean_ms,
            p95_ms,
            p99_ms
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{:.3},{:.3},{:.3}\n",
            p.label(),
            workers,
            SPEEDUP,
            run.firings,
            run.events_routed,
            run.toll_count,
            run.elapsed.as_micros(),
            mean_ms,
            p95_ms,
            p99_ms
        ));
        last_trace = run.trace;
    }
    write_csv("fig8_realtime.csv", csv);
    if let (Some(path), Some(report)) = (trace_path, last_trace) {
        emit_trace(path, &report);
    }
}

/// Write a [`TraceReport`] as Chrome/Perfetto JSON and print a bounded
/// lineage summary: flight-recorder counters and the head of the per-wave
/// critical-path table.
fn emit_trace(path: &Path, report: &TraceReport) {
    std::fs::write(path, report.to_chrome_json()).expect("write trace");
    eprintln!("wrote {}", path.display());
    println!(
        "\nWave-lineage trace: {} roots seen, {} sampled, {} waves recorded, \
         {} evicted, {} spans dropped",
        report.roots_seen,
        report.sampled_roots,
        report.waves.len(),
        report.evicted_waves,
        report.dropped_spans
    );
    const MAX_LINES: usize = 16;
    let summary = report.render_critical_paths();
    for line in summary.lines().take(MAX_LINES) {
        println!("{line}");
    }
    if summary.lines().count() > MAX_LINES {
        println!("... ({} waves total; full detail is in the JSON)", report.waves.len());
    }
}

/// Table 2: the realized actor-state conditions, printed from the living
/// policy implementations (asserted in each policy's unit tests).
fn render_table2() -> String {
    let mut out =
        String::from("Table 2: State conditions for an actor A in the different schedulers\n\n");
    out.push_str("QBS and RR schedulers:\n");
    out.push_str("  ACTIVE   (internal) events queued AND positive quantum/slice\n");
    out.push_str("  ACTIVE   (source)   due arrival (scheduled at regular intervals)\n");
    out.push_str("  WAITING  (internal) events queued AND non-positive quantum/slice\n");
    out.push_str("  WAITING  (source)   no due arrival\n");
    out.push_str("  INACTIVE (internal) no events queued (quantum preserved under QBS,\n");
    out.push_str("                      fresh slice on new events under RR)\n\n");
    out.push_str("RB scheduler:\n");
    out.push_str("  ACTIVE   (internal) events in the current-period queue\n");
    out.push_str("  ACTIVE   (source)   has not yet fired in the current period\n");
    out.push_str("  WAITING  (internal) no current events, events in the next-period buffer\n");
    out.push_str("  WAITING  (source)   has fired in the current period\n");
    out.push_str("  INACTIVE (internal) no events in queue or buffer (sources never inactive)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn option_flags_are_not_selections() {
        for args in [&[][..], &["--quick"], &["--quick", "--csv", "out"], &["--all", "--fig5"]] {
            let cli = parse(args).unwrap();
            assert!(cli.runs("--fig5") && cli.runs("--stats"), "{args:?} runs everything");
        }
        let cli = parse(&["--quick", "--csv", "out"]).unwrap();
        assert!(cli.quick && cli.selected.is_empty());
        assert_eq!(cli.csv.as_deref(), Some(Path::new("out")));
    }

    #[test]
    fn a_selection_runs_only_what_it_names() {
        let cli = parse(&["--fig8", "--director", "pool:2", "--timeline", "t.csv"]).unwrap();
        assert!(cli.runs("--fig8") && cli.names("--fig8"));
        assert!(!cli.runs("--fig5") && !cli.runs("--table1"));
        assert_eq!(cli.director.as_deref(), Some("pool:2"));
        assert_eq!(cli.timeline.as_deref(), Some(Path::new("t.csv")));
        assert!(!parse(&["--all"]).unwrap().names("--fig5"), "--all names no figure");
    }

    #[test]
    fn unknown_and_value_less_flags_are_rejected() {
        assert!(parse(&["--fig9"]).unwrap_err().contains("--fig9"));
        assert!(parse(&["stray"]).is_err());
        for flag in ["--csv", "--trace", "--director", "--policy", "--timeline"] {
            assert!(parse(&[flag]).unwrap_err().contains(flag), "{flag} at the end");
            assert!(parse(&[flag, "--fig5"]).unwrap_err().contains(flag), "{flag} before a flag");
        }
    }
}
