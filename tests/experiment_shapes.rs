//! Experiment-shape tests: the qualitative claims of the paper's §4.2,
//! asserted on down-scaled (quick) runs. These are the "does the
//! reproduction reproduce" tests — see DESIGN.md, "Shape criteria".

use confluence_bench::config::ExperimentConfig;
use confluence_bench::runner::{run_linear_road, PolicyKind, RunOptions};
use confluence_linearroad::Workload;

fn quick() -> (ExperimentConfig, Workload) {
    let config = ExperimentConfig::quick();
    let workload = Workload::generate(config.workload());
    (config, workload)
}

#[test]
fn figure5_rate_ramps_to_roughly_twenty_times_the_initial() {
    let (_config, workload) = quick();
    let series = workload.rate_series(30);
    let early = series[1].1;
    let late = series[series.len() - 2].1;
    assert!(late / early > 4.0, "ramp {early} → {late} too shallow");
}

#[test]
fn figure8_pncwf_thrashes_before_stafilos_schedulers() {
    let (config, workload) = quick();
    let qbs = run_linear_road(PolicyKind::Qbs { basic_quantum: 500 }, &workload, &config, &RunOptions::default());
    let rr = run_linear_road(PolicyKind::Rr { slice: 40_000 }, &workload, &config, &RunOptions::default());
    let pncwf = run_linear_road(PolicyKind::Pncwf, &workload, &config, &RunOptions::default());

    let t_pncwf = pncwf.thrash_secs.expect("PNCWF saturates within the run");
    for staf in [&qbs, &rr] {
        // A `None` is even stronger: the STAFiLOS scheduler never saturated.
        if let Some(t) = staf.thrash_secs {
            assert!(
                t_pncwf < t,
                "PNCWF ({t_pncwf}s) must thrash before {} ({t}s)",
                staf.label
            );
        }
    }
    // Claim: the thread-based baseline has much lower capacity — its
    // pre-saturation response time is already far worse.
    assert!(
        pncwf.toll_series.mean_secs_before(300) > 2.0 * qbs.toll_series.mean_secs_before(300),
        "PNCWF pre-saturation response must dominate QBS's"
    );
}

#[test]
fn figure8_qbs_and_rr_beat_rb_before_saturation() {
    let (config, workload) = quick();
    let qbs = run_linear_road(PolicyKind::Qbs { basic_quantum: 500 }, &workload, &config, &RunOptions::default());
    let rr = run_linear_road(PolicyKind::Rr { slice: 40_000 }, &workload, &config, &RunOptions::default());
    let rb = run_linear_road(PolicyKind::Rb, &workload, &config, &RunOptions::default());
    let m_qbs = qbs.toll_series.mean_secs_before(400);
    let m_rr = rr.toll_series.mean_secs_before(400);
    let m_rb = rb.toll_series.mean_secs_before(400);
    // RB does not privilege source actors: tokens wait longer to enter
    // the workflow, so its response times are the worst of the three.
    assert!(m_rb > m_qbs, "RB ({m_rb:.3}s) must trail QBS ({m_qbs:.3}s)");
    assert!(m_rb > m_rr, "RB ({m_rb:.3}s) must trail RR ({m_rr:.3}s)");
    // QBS and RR keep response times low (paper: under 2 s) until thrash.
    assert!(m_qbs < 2.0, "QBS pre-thrash mean {m_qbs:.3}s exceeds 2 s");
    assert!(m_rr < 2.0, "RR pre-thrash mean {m_rr:.3}s exceeds 2 s");
}

#[test]
fn all_schedulers_produce_comparable_output_volumes() {
    // Scheduling changes timing, not semantics: toll-notification counts
    // agree across schedulers up to the run cut-off effects.
    let (config, workload) = quick();
    let runs: Vec<_> = [
        PolicyKind::Fifo,
        PolicyKind::Qbs { basic_quantum: 500 },
        PolicyKind::Rr { slice: 40_000 },
        PolicyKind::Rb,
    ]
    .iter()
    .map(|&k| run_linear_road(k, &workload, &config, &RunOptions::default()))
    .collect();
    let max = runs.iter().map(|r| r.toll_count).max().unwrap();
    let min = runs.iter().map(|r| r.toll_count).min().unwrap();
    assert!(max > 0);
    assert!(
        (max - min) as f64 <= 0.15 * max as f64,
        "output volumes diverge: {min}..{max}"
    );
}
