//! The repository's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! confluence-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! confluence-benchmark --smoke
//! confluence-benchmark collect --runs <n> --seconds <s> --out <set.json>
//! confluence-benchmark compare <a.json> <b.json>
//! confluence-benchmark manifest
//! ```

mod compare;
mod harness;
mod json;
mod layers;
mod lr;
mod names;
mod relmix;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Outcome, RunConfig, SetupBatch, REFERENCE_NOMINAL_S};
use json::quote;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Where span files and checkpoint scratch go, relative to the checkout.
const OUT_DIR: &str = "benchmark/out";

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` a run's unit count
/// is sized for.
const RUN_SECONDS: u64 = 24;

/// How a workload runs.
struct Workload {
    run: fn(&RunConfig) -> Outcome,
    /// Timed units of a run at `--seconds` [`RUN_SECONDS`]: a fixed count,
    /// sized so that the whole run, set-ups and warm-up included, takes
    /// about that long on the machine the benchmark was written on (and
    /// under 30 s in the minutes when that machine runs a third slower).
    units: usize,
    /// Set-ups timed before each unit (`relstore_mix` times its set-up, the
    /// whole load pass, on a schedule of its own).
    setups_per_unit: usize,
}

fn workload(name: &str) -> Option<Workload> {
    let (run, units, setups_per_unit): (fn(&RunConfig) -> Outcome, _, _) = match name {
        "lr_drain_scwf" => (lr::run_drain, 24, 9),
        "lr_paced_pool2" => (lr::run_paced, 14, 15),
        "lr_checkpoint_scwf" => (lr::run_checkpoint, 16, 13),
        "relstore_mix" => (relmix::run, 28, 0),
        _ => return None,
    };
    Some(Workload {
        run,
        units,
        setups_per_unit,
    })
}

/// One metric as printed: name, unit, value.
type Metric = (String, &'static str, f64);

fn unit_walls(out: &Outcome) -> Vec<f64> {
    out.units.iter().map(|t| t.wall_s).collect()
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let value = |name: &str| match name {
        // The least of the units' marks: see `harness::with_peak_rss`.
        "peak_rss_mb" => out
            .unit_peak_rss_mb
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        "setup_s" => stats::median(
            &out.setups
                .iter()
                .map(SetupBatch::at_reference_speed)
                .collect::<Vec<f64>>(),
        ),
        other => unreachable!("unknown end-to-end metric {other}"),
    };
    names::END_TO_END
        .iter()
        .map(|&(name, unit, ..)| (name.to_string(), unit, value(name)))
        .collect()
}

/// What a user of the system waits and pays for, as medians over units in
/// raw seconds. On this machine they do not repeat well enough to carry a
/// bound (README, "Why the timings are not gated"), so they are reported
/// with the layers.
fn run_layers(out: &mut Outcome) {
    let cpu: Vec<f64> = out.units.iter().map(|t| t.cpu_s).collect();
    let throughput = out.ops_per_unit / stats::median(&unit_walls(out));
    out.layer("run.throughput_per_s", throughput);
    out.layer(
        "run.cpu_us_per_op",
        stats::median(&cpu) * 1e6 / out.ops_per_unit,
    );
    // `setup_s` as read, and the reference readings it is held against.
    let raw: Vec<f64> = out.setups.iter().flat_map(|b| b.raw_s.clone()).collect();
    let reference: Vec<f64> = out.setups.iter().map(|b| b.reference_s).collect();
    out.layer("setup.raw_s", stats::median(&raw));
    out.layer("noise.reference_s", stats::median(&reference));
}

/// The per-layer metrics of a traced run: the replays, overlaid with what
/// only this workload's own units can give; a layer the workload never
/// enters reads 0.
fn per_layer(
    out: &Outcome,
    replays: &std::collections::BTreeMap<String, f64>,
    steal_share: f64,
) -> Vec<Metric> {
    let (untraced, traced): (Vec<f64>, Vec<f64>) = out.trace_pairs.iter().copied().unzip();
    names::per_layer()
        .into_iter()
        .map(|name| {
            let value = match name.as_str() {
                "trace.overhead_share" => stats::median(&traced) / stats::median(&untraced) - 1.0,
                "noise.unit_iqr_share" => stats::iqr_share(&unit_walls(out)),
                "noise.steal_share" => steal_share,
                n => out
                    .layers
                    .get(n)
                    .or_else(|| replays.get(n))
                    .copied()
                    .unwrap_or(0.0),
            };
            let unit = names::layer_unit(&name);
            (name, unit, value)
        })
        .collect()
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    )
}

/// The DETAIL line: how the medians came about and how noisy the run was.
fn detail_line(workload: &str, cfg: &RunConfig, out: &Outcome, steal: (u64, u64)) -> String {
    let walls = unit_walls(out);
    let (q1, q2, q3) = stats::quartiles(&walls);
    let raw: Vec<f64> = out
        .setups
        .iter()
        .flat_map(|b| b.raw_s.iter().copied())
        .collect();
    let reference: Vec<f64> = out.setups.iter().map(|b| b.reference_s).collect();
    let (s1, s2, s3) = stats::quartiles(&raw);
    let (r1, r2, r3) = stats::quartiles(&reference);
    let mut fields = vec![
        format!("\"workload\": {}", quote(workload)),
        format!("\"seed\": {}", cfg.seed),
        format!("\"trace\": {}", cfg.trace),
        format!("\"units\": {}", out.units.len()),
        format!("\"unit_wall_s_q1_q2_q3\": [{q1:.6}, {q2:.6}, {q3:.6}]"),
        format!("\"noise.unit_iqr_share\": {:.4}", stats::iqr_share(&walls)),
        format!(
            "\"unit_peak_rss_mb\": [{}]",
            out.unit_peak_rss_mb
                .iter()
                .map(|mb| format!("{mb:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!("\"setups\": {}", raw.len()),
        format!("\"setup_raw_s_q1_q2_q3\": [{s1:.6}, {s2:.6}, {s3:.6}]"),
        format!("\"reference_s_q1_q2_q3\": [{r1:.6}, {r2:.6}, {r3:.6}]"),
        format!("\"reference_nominal_s\": {REFERENCE_NOMINAL_S}"),
        format!("\"steal_ticks\": {}", steal.0),
        format!("\"total_ticks\": {}", steal.1),
        format!(
            "\"available_parallelism\": {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
    ];
    fields.extend(
        out.detail
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v))),
    );
    if !cfg.trace {
        // What an untraced run measured beside its gated metrics.
        fields.extend(
            out.layers
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), quote(&v.to_string()))),
        );
    }
    fields.push("\"claim\": null".to_string());
    format!("DETAIL {{{}}}", fields.join(", "))
}

/// Run one workload and print its report; the run's exit code.
fn report(name: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> ExitCode {
    let Some(workload) = workload(name) else {
        eprintln!("unknown workload {name:?}; one of: {}", workload_list());
        return ExitCode::from(2);
    };
    // The unit count follows `--seconds` alone, so it is the same on every
    // commit. A traced run pairs every unit with a traced twin and then
    // runs the layer replays, so it gets a quarter of the units.
    let full = (workload.units as f64 * seconds / RUN_SECONDS as f64).ceil() as usize;
    let cfg = RunConfig {
        seed,
        units: match (smoke, trace) {
            (true, _) => 2,
            (false, true) => full.div_ceil(4).max(2),
            (false, false) => full.max(2),
        },
        setups_per_unit: if smoke { 1 } else { workload.setups_per_unit },
        smoke,
        trace,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let steal0 = sys::steal_ticks();
    let mut out = (workload.run)(&cfg);
    run_layers(&mut out);
    let replays = if trace {
        layers::replay_all(&lr::replay_reports(seed), seed, &cfg.out_dir)
    } else {
        Default::default()
    };
    let steal1 = sys::steal_ticks();
    let steal = (
        steal1.0.saturating_sub(steal0.0),
        steal1.1.saturating_sub(steal0.1),
    );
    let steal_share = steal.0 as f64 / steal.1.max(1) as f64;

    let metrics = if trace {
        per_layer(&out, &replays, steal_share)
    } else {
        end_to_end(&out)
    };
    println!(
        "workload {name}  seed {seed}  units {}  trace {}",
        out.units.len(),
        u8::from(trace)
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    if !trace {
        for (name, value) in &out.layers {
            let unit = names::layer_unit(name);
            println!("  {name:<44} {value:>16.4} {unit}  (not gated)");
        }
    }
    println!(
        "failed {} of {} ({})",
        out.failed,
        out.attempted,
        if out.failed == 0 {
            "outputs verified"
        } else {
            "OUTPUTS WRONG"
        }
    );
    println!("{}", detail_line(name, &cfg, &out, steal));
    println!("{}", result_line(&out, &metrics));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workload_list() -> String {
    names::WORKLOADS.map(|w| w.0).join(", ")
}

/// `BENCHMARK.json`, generated from [`names`].
fn manifest() -> String {
    let workloads: Vec<String> = names::WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let end_to_end: Vec<String> = names::END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                quote(name),
                quote(unit),
                quote(better)
            )
        })
        .collect();
    let per_layer: Vec<String> = names::per_layer()
        .iter()
        .map(|name| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(name),
                quote(names::layer_unit(name)),
                quote(names::layer_better(name))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n  --smoke\n  collect --runs <n> [--seconds <s>] --out <set.json>\n  compare <a.json> <b.json>\n  manifest",
        workload_list()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    sys::steady_malloc();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let number = |name: &str, default: u64| flag(name).map_or(Some(default), |v| v.parse().ok());
    match args.first().map(String::as_str) {
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            match (compare::load(a.as_ref()), compare::load(b.as_ref())) {
                (Ok(a), Ok(b)) if compare::compare(&a, &b) == 0 => ExitCode::SUCCESS,
                (Ok(_), Ok(_)) => ExitCode::FAILURE,
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("collect") => {
            let (Some(runs), Some(seconds), Some(out)) = (
                number("--runs", 10),
                number("--seconds", RUN_SECONDS),
                flag("--out"),
            ) else {
                return usage();
            };
            match compare::collect(runs as usize, seconds, out.as_ref()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("manifest") => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        Some("--smoke") => {
            let mut code = ExitCode::SUCCESS;
            for (workload, _) in names::WORKLOADS {
                if report(workload, 1, 0.0, false, true) != ExitCode::SUCCESS {
                    code = ExitCode::FAILURE;
                }
            }
            code
        }
        _ => {
            let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
                flag("--workload"),
                number("--seed", 1),
                flag("--seconds")
                    .map_or(Some(RUN_SECONDS as f64), |v| v.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s >= 0.0),
                number("--trace", 0).filter(|t| *t <= 1),
            ) else {
                return usage();
            };
            report(workload, seed, seconds, trace == 1, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(j: &Json, key: &str) -> Vec<Json> {
        j.get(key).and_then(Json::as_arr).expect("list").to_vec()
    }

    fn name_of(j: &Json) -> String {
        j.get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string()
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let same = benchmark_json() == Json::parse(&manifest()).expect("manifest parses");
        assert!(
            same,
            "BENCHMARK.json is stale: regenerate it with the `manifest` subcommand"
        );
    }

    #[test]
    fn benchmark_json_names_are_valid_bounded_and_emitted() {
        let j = benchmark_json();
        let keys: Vec<&str> = j
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let (workloads, e2e, layers) = (
            listed(&j, "workloads"),
            listed(&j, "end_to_end"),
            listed(&j, "per_layer"),
        );
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        for entry in workloads.iter().chain(&e2e).chain(&layers) {
            assert!(names::valid_name(&name_of(entry)), "{entry:?}");
        }
        for w in &workloads {
            assert!(workload(&name_of(w)).is_some(), "{w:?} is not runnable");
        }
        for m in &e2e {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            let ceiling = if name_of(m) == "setup_s" { 0.25 } else { 0.10 };
            assert!(bound > 0.0 && bound <= ceiling, "{m:?}");
        }
        let seconds = j
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

        // What the binary prints carries exactly these names.
        let out = Outcome::default();
        let emitted = |metrics: &[Metric]| {
            let line = Json::parse(&result_line(&out, metrics)).expect("result line parses");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            line.get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(k, _)| k.clone())
                .collect::<Vec<String>>()
        };
        let listed_names = |list: &[Json]| list.iter().map(name_of).collect::<Vec<String>>();
        assert_eq!(emitted(&end_to_end(&out)), listed_names(&e2e));
        assert_eq!(
            emitted(&per_layer(&out, &Default::default(), 0.0)),
            listed_names(&layers)
        );
    }
}
