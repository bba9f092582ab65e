//! Shared estimator math for priority scheduling.
//!
//! The Sharaf et al. \[28\] *global* selectivity and cost estimators — the
//! inputs to the Rate-Based priority `Pr(A) = S_A / C_A` — and the QBS
//! quantum allotment (Equation 1). The run's
//! [`StatsModule`](super::StatsModule) computes its estimates here, for the
//! virtual-time STAFiLOS simulator and the wall-clock pool executor alike,
//! and both QBS forms take their allotments from here, so the two rank
//! actors identically from the same local statistics.
//!
//! Both propagations walk the downstream topology with a memo that doubles
//! as a cycle guard (a back edge contributes 0, so feedback loops neither
//! diverge nor double-count).

/// Local selectivity: events produced per event consumed (1.0 before any
/// input, the neutral assumption).
pub fn selectivity_of(events_in: u64, events_out: u64) -> f64 {
    if events_in == 0 {
        1.0
    } else {
        events_out as f64 / events_in as f64
    }
}

/// Mean cost per consumed event, µs — the mean cost per firing while
/// nothing has been consumed, 0 before any firing.
pub fn cost_per_event_of(total_cost_us: u64, events_in: u64, fires: u64) -> f64 {
    match (events_in, fires) {
        (0, 0) => 0.0,
        (0, _) => total_cost_us as f64 / fires as f64,
        _ => total_cost_us as f64 / events_in as f64,
    }
}

/// Global selectivity of actor `idx`: the expected number of workflow
/// *outputs* eventually produced per event this actor consumes — the
/// product of local selectivities along each downstream path, summed over
/// paths when the actor feeds multiple branches. Terminal actors are
/// output operators and count 1 regardless of their local selectivity.
///
/// `local_selectivity(i)` supplies actor `i`'s local events-out/events-in
/// ratio; `downstream[i]` lists the actors fed by actor `i`.
pub fn global_selectivity(
    idx: usize,
    local_selectivity: &dyn Fn(usize) -> f64,
    downstream: &[Vec<usize>],
) -> f64 {
    let mut memo = vec![None; downstream.len()];
    selectivity_memo(idx, local_selectivity, downstream, &mut memo)
}

fn selectivity_memo(
    idx: usize,
    local_selectivity: &dyn Fn(usize) -> f64,
    downstream: &[Vec<usize>],
    memo: &mut Vec<Option<f64>>,
) -> f64 {
    if let Some(v) = memo[idx] {
        return v;
    }
    memo[idx] = Some(0.0); // cycle guard
    let v = if downstream[idx].is_empty() {
        1.0
    } else {
        local_selectivity(idx)
            * downstream[idx]
                .iter()
                .map(|&d| selectivity_memo(d, local_selectivity, downstream, memo))
                .sum::<f64>()
    };
    memo[idx] = Some(v);
    v
}

/// Global average cost per event at actor `idx`: the work this event and
/// its descendants will require through the rest of the workflow — own
/// cost per event plus downstream cost weighted by the actor's local
/// selectivity, summed over downstream paths for shared actors.
pub fn global_cost(
    idx: usize,
    cost_per_event: &dyn Fn(usize) -> f64,
    local_selectivity: &dyn Fn(usize) -> f64,
    downstream: &[Vec<usize>],
) -> f64 {
    let mut memo = vec![None; downstream.len()];
    cost_memo(idx, cost_per_event, local_selectivity, downstream, &mut memo)
}

fn cost_memo(
    idx: usize,
    cost_per_event: &dyn Fn(usize) -> f64,
    local_selectivity: &dyn Fn(usize) -> f64,
    downstream: &[Vec<usize>],
    memo: &mut Vec<Option<f64>>,
) -> f64 {
    if let Some(v) = memo[idx] {
        return v;
    }
    memo[idx] = Some(0.0); // cycle guard
    let own = cost_per_event(idx);
    let sel = local_selectivity(idx);
    let down: f64 = downstream[idx]
        .iter()
        .map(|&d| cost_memo(d, cost_per_event, local_selectivity, downstream, memo))
        .sum();
    let v = own + sel * down;
    memo[idx] = Some(v);
    v
}

/// The Rate-Based (Highest Rate) priority `Pr(A) = S_A / C_A` from the
/// global estimators; infinite while no cost has been observed so fresh
/// actors get probed early.
pub fn rate_priority(
    idx: usize,
    cost_per_event: &dyn Fn(usize) -> f64,
    local_selectivity: &dyn Fn(usize) -> f64,
    downstream: &[Vec<usize>],
) -> f64 {
    let c = global_cost(idx, cost_per_event, local_selectivity, downstream);
    if c <= 0.0 {
        f64::INFINITY
    } else {
        global_selectivity(idx, local_selectivity, downstream) / c
    }
}

/// QBS Equation 1: the quantum (µs) allotted per re-quantification to a
/// designer priority `p` (lower = more urgent) under basic quantum `b`:
/// `(40 − p)·b` for `p ≥ 20`, `(40 − p)·4b` for `p < 20`.
pub fn qbs_allotment(priority: i32, basic_quantum: u64) -> i64 {
    let b = basic_quantum as i64;
    let head = (40 - priority as i64).max(1);
    if priority >= 20 {
        head * b
    } else {
        head * 4 * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// src(0) → a(1) → k1(3), src(0) → b(2) → k2(4) — the topology the
    /// `StatsModule` tests pin exact numbers on.
    fn two_path_downstream() -> Vec<Vec<usize>> {
        vec![vec![1, 2], vec![3], vec![4], vec![], vec![]]
    }

    #[test]
    fn selectivity_multiplies_paths_and_sums_branches() {
        let down = two_path_downstream();
        let sel = |i: usize| [1.0, 0.5, 1.0, 0.0, 0.0][i];
        assert_eq!(global_selectivity(3, &sel, &down), 1.0, "terminal is 1");
        assert_eq!(global_selectivity(1, &sel, &down), 0.5);
        assert_eq!(global_selectivity(0, &sel, &down), 1.5);
    }

    #[test]
    fn cost_adds_weighted_downstream_work() {
        let down = two_path_downstream();
        let sel = |i: usize| [1.0, 0.5, 1.0, 0.0, 0.0][i];
        let cost = |i: usize| [0.0, 10.0, 20.0, 5.0, 10.0][i];
        assert_eq!(global_cost(1, &cost, &sel, &down), 12.5);
        assert_eq!(global_cost(2, &cost, &sel, &down), 30.0);
        assert_eq!(global_cost(0, &cost, &sel, &down), 42.5);
    }

    #[test]
    fn cycles_are_guarded_not_divergent() {
        // 0 → 1 → 0 (feedback), 1 → 2 (output).
        let down = vec![vec![1], vec![0, 2], vec![]];
        let sel = |_: usize| 1.0;
        let cost = |_: usize| 1.0;
        let s = global_selectivity(0, &sel, &down);
        let c = global_cost(0, &cost, &sel, &down);
        assert!(s.is_finite() && c.is_finite());
        // 0's path: sel(0)·(sel(1)·(back-edge 0 + terminal 1)) = 1.
        assert_eq!(s, 1.0);
    }

    #[test]
    fn rate_priority_is_infinite_before_costs() {
        let down = two_path_downstream();
        let sel = |_: usize| 1.0;
        let zero = |_: usize| 0.0;
        assert_eq!(rate_priority(0, &zero, &sel, &down), f64::INFINITY);
        let cost = |_: usize| 2.0;
        let pr = rate_priority(3, &cost, &sel, &down);
        assert_eq!(pr, 0.5, "terminal: gSel 1 / gCost 2");
    }

    #[test]
    fn equation_1_allotments() {
        assert_eq!(qbs_allotment(20, 500), 20 * 500);
        assert_eq!(qbs_allotment(25, 500), 15 * 500);
        assert_eq!(qbs_allotment(19, 500), 21 * 4 * 500);
        assert_eq!(qbs_allotment(5, 500), 35 * 4 * 500);
        assert_eq!(qbs_allotment(45, 500), 500, "head clamps at 1");
    }
}
