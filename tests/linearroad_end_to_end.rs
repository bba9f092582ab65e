//! End-to-end: the full Linear Road continuous workflow under the
//! STAFiLOS scheduled director in virtual time, validated against the
//! engine-independent golden model.

use confluence::core::director::Director;
use confluence::core::time::Micros;
use confluence::linearroad::{self, golden, LrOptions, TollNotification, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::{FifoScheduler, QbsScheduler, RbScheduler, RrScheduler};
use confluence::sched::{Scheduler, ScwfDirector};

fn cheap_cost() -> Box<TableCostModel> {
    // Light costs: the system stays far below saturation, so outputs are
    // timely and comparable to the golden model.
    Box::new(TableCostModel::uniform(Micros(20), Micros(2)))
}

fn run_with(policy: Box<dyn Scheduler>, composite: bool) -> (linearroad::LinearRoad, Workload) {
    let workload = Workload::generate(WorkloadConfig::tiny());
    let lr = linearroad::build(
        &workload,
        &LrOptions {
            composite_subworkflows: composite,
            ..LrOptions::default()
        },
    )
    .unwrap();
    let mut lr = lr;
    let mut director = ScwfDirector::virtual_time(policy, cheap_cost());
    director.run(&mut lr.workflow).unwrap();
    (lr, workload)
}

fn toll_agreement(lr: &linearroad::LinearRoad, workload: &Workload) -> (usize, usize, f64) {
    let gold = golden::compute(workload);
    let gold_idx = gold.toll_index();
    let got: Vec<TollNotification> = lr
        .toll_output
        .items()
        .iter()
        .map(|i| TollNotification::from_token(&i.token).unwrap())
        .collect();
    let mut matched = 0;
    for n in &got {
        if let Some(&toll) = gold_idx.get(&(n.carid, n.time)) {
            if (toll - n.toll).abs() < 1e-6 {
                matched += 1;
            }
        }
    }
    (matched, got.len(), gold.tolls.len() as f64)
}

#[test]
fn scwf_fifo_matches_golden_model() {
    let (lr, workload) = run_with(Box::new(FifoScheduler::new(5)), true);
    let (matched, got, expected) = toll_agreement(&lr, &workload);
    assert!(got > 0, "toll notifications were produced");
    // Every engine notification corresponds to a golden segment crossing,
    // and the vast majority carry the exact golden toll.
    assert!(
        matched as f64 >= 0.85 * got as f64,
        "only {matched}/{got} tolls agree with the golden model"
    );
    // Coverage: the engine found (nearly) all crossings.
    assert!(
        got as f64 >= 0.9 * expected,
        "engine produced {got} of {expected} expected notifications"
    );

    // Accidents flow end-to-end: rows in the store and alerts at the output.
    let gold = golden::compute(&workload);
    assert!(!gold.accidents.is_empty());
    let engine_accidents = lr
        .store
        .read(|s| s.table("accidents").map(|t| t.len()).unwrap_or(0));
    assert!(engine_accidents > 0, "accident recorded in the store");
    assert!(
        !lr.accident_output.is_empty(),
        "cars near the accident were alerted"
    );
    // QoS sanity: under light load, responses are sub-second.
    let mean = lr.toll_output.mean_latency().unwrap();
    assert!(mean < Micros::from_secs(1), "mean response {mean} too high");
}

#[test]
fn all_policies_produce_equivalent_outputs() {
    let policies: Vec<(&str, Box<dyn Scheduler>)> = vec![
        ("fifo", Box::new(FifoScheduler::new(5))),
        ("qbs", Box::new(QbsScheduler::new(500, 5))),
        ("rr", Box::new(RrScheduler::new(20_000, 5))),
        ("rb", Box::new(RbScheduler::new())),
    ];
    let mut reference: Option<Vec<(i64, i64, i64)>> = None;
    for (name, policy) in policies {
        let (lr, _workload) = run_with(policy, false);
        let mut got: Vec<(i64, i64, i64)> = lr
            .toll_output
            .items()
            .iter()
            .map(|i| {
                let n = TollNotification::from_token(&i.token).unwrap();
                (n.carid, n.time, n.seg)
            })
            .collect();
        got.sort_unstable();
        got.dedup();
        match &reference {
            None => reference = Some(got),
            Some(r) => {
                // Scheduling changes *when* things run, not *what* the
                // workflow computes: the set of notified crossings matches.
                assert_eq!(r, &got, "policy {name} diverged in outputs");
            }
        }
    }
}

#[test]
fn composite_and_flat_subworkflows_agree() {
    let (with, workload) = run_with(Box::new(FifoScheduler::new(5)), true);
    let (without, _) = run_with(Box::new(FifoScheduler::new(5)), false);
    let gold = golden::compute(&workload);
    assert!(!gold.accidents.is_empty());
    let a = with
        .store
        .read(|s| s.table("accidents").map(|t| t.len()).unwrap_or(0));
    let b = without
        .store
        .read(|s| s.table("accidents").map(|t| t.len()).unwrap_or(0));
    assert_eq!(a, b, "two-level hierarchy must not change detection");
    assert_eq!(with.toll_output.len(), without.toll_output.len());
}
