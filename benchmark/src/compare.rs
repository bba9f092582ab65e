//! Result sets: `collect` runs every workload several times and writes
//! the values to one file; `compare` holds two such files against each
//! other by the rule the benchmark is accepted under.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::{quote, Json};
use crate::names::{layer_better, per_layer, END_TO_END, WORKLOADS};
use crate::stats;

/// workload → metric → one value per run.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The metrics of a result line (the last line a run prints).
pub fn parse_result_line(line: &str) -> Result<(bool, BTreeMap<String, f64>), String> {
    let j = Json::parse(line)?;
    let correct = j.get("correct") == Some(&Json::Bool(true));
    let metrics = j
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((correct, metrics))
}

/// The layer metrics a run notes in its DETAIL line (the paced latency
/// percentiles, recovery time), which untraced runs measure but do not
/// gate on.
fn parse_detail_layers(stdout: &str) -> BTreeMap<String, f64> {
    let Some(detail) = stdout.lines().find_map(|l| l.strip_prefix("DETAIL ")) else {
        return BTreeMap::new();
    };
    let layers = per_layer();
    Json::parse(detail)
        .ok()
        .as_ref()
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter(|(key, _)| layers.contains(key))
        .filter_map(|(key, v)| Some((key.clone(), v.as_str()?.parse().ok()?)))
        .collect()
}

/// Run every workload `runs` times (seeds `1..=runs`, so two sets see the
/// same inputs), untraced, by re-invoking this executable, and write the
/// result set to `out`.
pub fn collect(runs: usize, seconds: u64, out: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = ResultSet::new();
    for (workload, _) in WORKLOADS {
        for seed in 1..=runs as u64 {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .output()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let (correct, metrics) = parse_result_line(last)
                .map_err(|e| format!("{workload} seed {seed}: {e}: {last:?}"))?;
            if !output.status.success() || !correct {
                return Err(format!("{workload} seed {seed} failed: {last}"));
            }
            eprintln!("{workload} seed {seed}: {last}");
            for (name, value) in metrics.into_iter().chain(parse_detail_layers(&stdout)) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(value);
            }
        }
    }
    let mut text = format!(
        "{{\n  \"schema\": 1,\n  \"runs\": {runs},\n  \"seconds\": {seconds},\n  \"results\": {{\n"
    );
    for (w, (workload, metrics)) in set.iter().enumerate() {
        text.push_str(&format!("    {}: {{\n", quote(workload)));
        for (m, (name, values)) in metrics.iter().enumerate() {
            let list: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
            let sep = if m + 1 == metrics.len() { "" } else { "," };
            text.push_str(&format!(
                "      {}: [{}]{sep}\n",
                quote(name),
                list.join(", ")
            ));
        }
        let sep = if w + 1 == set.len() { "" } else { "," };
        text.push_str(&format!("    }}{sep}\n"));
    }
    text.push_str("  },\n  \"claim\": null\n}\n");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(out, text).map_err(|e| e.to_string())
}

pub fn load(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let results = j
        .get("results")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{}: no results object", path.display()))?;
    let mut set = ResultSet::new();
    for (workload, metrics) in results {
        for (name, values) in metrics.as_obj().unwrap_or_default() {
            let values: Vec<f64> = values
                .as_arr()
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            set.entry(workload.clone())
                .or_default()
                .insert(name.clone(), values);
        }
    }
    Ok(set)
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it
/// is better).
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Print one row per workload × metric; returns the number of breaches: a
/// spread (IQR over median) beyond the bound on either side, `setup_s`
/// excepted, or a second median worse than the first by more than the
/// bound.
pub fn compare(a: &ResultSet, b: &ResultSet) -> usize {
    println!(
        "{:<20} {:<22} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "median_a", "iqr_a", "median_b", "iqr_b", "b_worse", "bound"
    );
    let mut breaches = 0;
    for (workload, _) in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let values = |set: &ResultSet| set.get(workload).and_then(|m| m.get(metric)).cloned();
            let (Some(va), Some(vb)) = (values(a), values(b)) else {
                println!("{workload:<20} {metric:<22} missing from one side");
                breaches += 1;
                continue;
            };
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let (sa, sb) = (stats::iqr_share(&va), stats::iqr_share(&vb));
            let worse = worsening(ma, mb, better);
            let spread_ok = metric == "setup_s" || (sa <= bound && sb <= bound);
            let verdict = match (spread_ok, worse <= bound) {
                (true, true) => "ok",
                (false, _) => "SPREAD",
                (true, false) => "WORSE",
            };
            if verdict != "ok" {
                breaches += 1;
            }
            println!(
                "{workload:<20} {metric:<22} {ma:>12.4} {:>6.1}% {mb:>12.4} {:>6.1}% {:>7.1}% {:>5.0}%  {verdict}",
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                bound * 100.0
            );
        }
        // What the runs noted beside the gated metrics: shown, not judged.
        let noted = |set: &ResultSet| set.get(workload).cloned().unwrap_or_default();
        for (metric, va) in noted(a) {
            let (false, Some(vb)) = (
                END_TO_END.iter().any(|m| m.0 == metric),
                noted(b).remove(&metric),
            ) else {
                continue;
            };
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{workload:<20} {metric:<22} {ma:>12.4} {:>6.1}% {mb:>12.4} {:>6.1}% {:>7.1}%      -  not gated",
                stats::iqr_share(&va) * 100.0,
                stats::iqr_share(&vb) * 100.0,
                worsening(ma, mb, layer_better(&metric)) * 100.0
            );
        }
    }
    println!("{{\"breaches\": {breaches}, \"claim\": null}}");
    breaches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(scale: f64, wobble: f64) -> ResultSet {
        let mut s = ResultSet::new();
        for (workload, _) in WORKLOADS {
            for (metric, ..) in END_TO_END {
                let values = (0..10)
                    .map(|i| scale * (100.0 + wobble * i as f64))
                    .collect();
                s.entry(workload.to_string())
                    .or_default()
                    .insert(metric.to_string(), values);
            }
        }
        s
    }

    #[test]
    fn equal_sets_agree_and_a_shift_or_a_spread_breaches() {
        assert!(END_TO_END.iter().all(|m| m.2 == "lower"));
        assert_eq!(compare(&set(1.0, 0.1), &set(1.0, 0.1)), 0);
        // Every metric got 30% worse on every workload.
        assert_eq!(
            compare(&set(1.0, 0.1), &set(1.3, 0.1)),
            4 * END_TO_END.len()
        );
        // ...and where memory got 30% worse alone, only it breaches.
        let mut fat = set(1.0, 0.1);
        for metrics in fat.values_mut() {
            for v in metrics.get_mut("peak_rss_mb").expect("metric") {
                *v *= 1.3;
            }
        }
        assert_eq!(compare(&set(1.0, 0.1), &fat), 4);
        // An 80% ramp over ten runs is a spread no bound here allows, except
        // on setup_s.
        assert_eq!(
            compare(&set(1.0, 8.0), &set(1.0, 8.0)),
            4 * (END_TO_END.len() - 1)
        );
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, "higher") < 0.0);
    }

    #[test]
    fn result_line_round_trips() {
        let (ok, m) = parse_result_line(
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(m["setup_s"], 0.5);
    }
}
