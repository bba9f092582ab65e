//! The figure experiments (paper §4.2).

use confluence_linearroad::Workload;

use crate::config::ExperimentConfig;
use crate::runner::{run_linear_road, LrRun, PolicyKind, RunOptions};

/// One labelled response-time curve.
pub struct Curve {
    /// Legend label (e.g. `QBS-q500`).
    pub label: String,
    /// `(bucket start sec, mean response sec, samples)` rows.
    pub points: Vec<(u64, f64, usize)>,
    /// Thrash point, if saturated.
    pub thrash_secs: Option<u64>,
    /// Mean response over the run, seconds.
    pub mean_secs: f64,
    /// Mean response over the pre-saturation window (first 400 s).
    pub mean_pre_secs: f64,
}

impl Curve {
    fn from_run(run: &LrRun, bucket_secs: u64) -> Curve {
        Curve {
            label: run.label.clone(),
            points: run
                .toll_series
                .bucketed(bucket_secs)
                .into_iter()
                .map(|b| (b.start_secs, b.mean_response_secs, b.count))
                .collect(),
            thrash_secs: run.thrash_secs,
            mean_secs: run.toll_series.mean_secs(),
            mean_pre_secs: run.toll_series.mean_secs_before(400),
        }
    }
}

/// Figure 5: the workload input rate over time.
pub fn fig5_workload(config: &ExperimentConfig) -> Vec<(u64, f64)> {
    let workload = Workload::generate(config.workload());
    workload.rate_series(30)
}

/// Figure 6: RR sensitivity to the basic quantum.
pub fn fig6_rr_sensitivity(config: &ExperimentConfig) -> Vec<Curve> {
    let workload = Workload::generate(config.workload());
    config
        .rr_quanta
        .iter()
        .map(|&slice| {
            let run = run_linear_road(PolicyKind::Rr { slice }, &workload, config, &RunOptions::default());
            Curve::from_run(&run, config.bucket_secs)
        })
        .collect()
}

/// Figure 7: QBS sensitivity to the basic quantum.
pub fn fig7_qbs_sensitivity(config: &ExperimentConfig) -> Vec<Curve> {
    let workload = Workload::generate(config.workload());
    config
        .qbs_quanta
        .iter()
        .map(|&basic_quantum| {
            let run = run_linear_road(
                PolicyKind::Qbs { basic_quantum },
                &workload,
                config,
                &RunOptions::default(),
            );
            Curve::from_run(&run, config.bucket_secs)
        })
        .collect()
}

/// Figure 8: the main comparison — the best QBS and RR configurations
/// against RB and the thread-based PNCWF baseline.
pub fn fig8_all_schedulers(config: &ExperimentConfig) -> Vec<Curve> {
    let workload = Workload::generate(config.workload());
    [
        PolicyKind::Rr { slice: 40_000 },
        PolicyKind::Qbs { basic_quantum: 500 },
        PolicyKind::Rb,
        PolicyKind::Pncwf,
    ]
    .iter()
    .map(|&kind| {
        let run = run_linear_road(kind, &workload, config, &RunOptions::default());
        Curve::from_run(&run, config.bucket_secs)
    })
    .collect()
}

/// Render a set of curves as an aligned text table: one row per bucket,
/// one column per curve (the textual analog of the paper's plots).
pub fn render_curves(title: &str, curves: &[Curve]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!("{:>8}", "time(s)"));
    for c in curves {
        out.push_str(&format!(" {:>12}", c.label));
    }
    out.push('\n');
    let rows = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let t = curves
            .iter()
            .find_map(|c| c.points.get(i).map(|p| p.0))
            .unwrap_or(0);
        out.push_str(&format!("{t:>8}"));
        for c in curves {
            match c.points.get(i) {
                Some(&(_, mean, n)) if n > 0 => out.push_str(&format!(" {mean:>12.3}")),
                _ => out.push_str(&format!(" {:>12}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str("\nsummary:\n");
    for c in curves {
        out.push_str(&format!(
            "  {:<12} mean {:>8.3}s   mean<400s {:>7.3}s   thrash {}\n",
            c.label,
            c.mean_secs,
            c.mean_pre_secs,
            match c.thrash_secs {
                Some(t) => format!("at {t}s"),
                None => "never".to_string(),
            }
        ));
    }
    out
}

/// Render a set of curves as CSV: `time_s,<label>,<label>,...` with one
/// row per bucket (empty cells where a curve has no samples).
pub fn curves_to_csv(curves: &[Curve]) -> String {
    let mut out = String::from("time_s");
    for c in curves {
        out.push(',');
        out.push_str(&c.label);
    }
    out.push('\n');
    let rows = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let t = curves
            .iter()
            .find_map(|c| c.points.get(i).map(|p| p.0))
            .unwrap_or(0);
        out.push_str(&t.to_string());
        for c in curves {
            out.push(',');
            if let Some(&(_, mean, n)) = c.points.get(i) {
                if n > 0 {
                    out.push_str(&format!("{mean:.6}"));
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Render Figure 5's rate series as CSV.
pub fn fig5_to_csv(series: &[(u64, f64)]) -> String {
    let mut out = String::from("time_s,rate_per_s\n");
    for (t, r) in series {
        out.push_str(&format!("{t},{r:.3}\n"));
    }
    out
}

/// Render Figure 5 as text.
pub fn render_fig5(series: &[(u64, f64)]) -> String {
    let mut out = String::from("Figure 5: Workload of 0.5 highways (input rate over time)\n");
    out.push_str("time(s)  rate(updates/s)\n");
    for (t, r) in series {
        out.push_str(&format!("{t:>7} {r:>16.1}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_series_ramps() {
        let series = fig5_workload(&ExperimentConfig::quick());
        assert!(series.len() >= 15);
        let first = series[1].1;
        let last = series[series.len() - 2].1;
        assert!(last > first * 3.0, "ramp: {first} → {last}");
        let text = render_fig5(&series);
        assert!(text.contains("Figure 5"));
    }

    #[test]
    fn csv_rendering() {
        let curves = vec![
            Curve {
                label: "A".into(),
                points: vec![(0, 0.1, 5), (10, 0.2, 0)],
                thrash_secs: None,
                mean_secs: 0.1,
                mean_pre_secs: 0.1,
            },
            Curve {
                label: "B".into(),
                points: vec![(0, 0.3, 2)],
                thrash_secs: None,
                mean_secs: 0.3,
                mean_pre_secs: 0.3,
            },
        ];
        let csv = curves_to_csv(&curves);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,A,B");
        assert_eq!(lines[1], "0,0.100000,0.300000");
        assert_eq!(lines[2], "10,,", "empty cells for missing samples");
        let f5 = fig5_to_csv(&[(0, 10.0), (30, 20.5)]);
        assert!(f5.contains("30,20.500"));
    }

    #[test]
    fn render_curves_shapes_output() {
        let curves = vec![Curve {
            label: "X".into(),
            points: vec![(0, 0.1, 5), (10, 0.2, 6)],
            thrash_secs: Some(10),
            mean_secs: 0.15,
            mean_pre_secs: 0.15,
        }];
        let text = render_curves("demo", &curves);
        assert!(text.contains("demo"));
        assert!(text.contains("thrash at 10s"));
        assert_eq!(text.lines().count(), 2 + 2 + 2 + 1);
    }
}
