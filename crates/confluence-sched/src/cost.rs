//! Cost models: what one actor firing costs in virtual time.
//!
//! The paper measures wall-clock costs on its own hardware; running the
//! engine in virtual time requires an explicit model of per-firing cost.
//! The model is also the calibration point for the simulated thread-based
//! baseline (see [`ThreadOverheadCost`] and
//! DESIGN.md, "Substitutions").

use std::collections::HashMap;

use confluence_core::time::Micros;

/// Computes the virtual-time cost of one actor firing.
pub trait CostModel: Send {
    /// Cost of a firing of `actor` (by index and name) that consumed
    /// `consumed` events and produced `produced` events.
    fn firing_cost(&self, actor: usize, name: &str, consumed: u64, produced: u64) -> Micros;
}

/// Per-actor fixed + per-event linear cost, with a default for unlisted
/// actors.
#[derive(Debug, Clone)]
pub struct TableCostModel {
    default_fixed: Micros,
    default_per_event: Micros,
    per_actor: HashMap<String, (Micros, Micros)>,
}

impl TableCostModel {
    /// A model where every firing costs `fixed + per_event × consumed`.
    pub fn uniform(fixed: Micros, per_event: Micros) -> Self {
        TableCostModel {
            default_fixed: fixed,
            default_per_event: per_event,
            per_actor: HashMap::new(),
        }
    }

    /// Override the cost of one actor (matched by name).
    pub fn with_actor(mut self, name: &str, fixed: Micros, per_event: Micros) -> Self {
        self.per_actor.insert(name.to_string(), (fixed, per_event));
        self
    }
}

impl CostModel for TableCostModel {
    fn firing_cost(&self, _actor: usize, name: &str, consumed: u64, produced: u64) -> Micros {
        let (fixed, per_event) = self
            .per_actor
            .get(name)
            .copied()
            .unwrap_or((self.default_fixed, self.default_per_event));
        // Work scales with whichever side of the firing moved more events
        // (sources consume nothing but pay for what they emit).
        fixed + per_event * consumed.max(produced).max(1)
    }
}

/// Wraps a base model with the overheads of thread-per-actor execution:
/// a context switch per firing and synchronization cost per event, divided
/// by an effective-parallelism factor (how much real speedup the thread
/// pool extracts despite contention).
///
/// This is the virtual-time model of the PNCWF baseline. The paper's
/// measurement — the thread-based director thrashing at ~120 updates/s
/// where the cooperative STAFiLOS schedulers sustain ~160 — reflects
/// per-event thread wake/switch overhead outweighing the parallelism of
/// the 8-core machine; the defaults here are calibrated to that ratio and
/// recorded in EXPERIMENTS.md, "Measurement substrate".
pub struct ThreadOverheadCost<M> {
    inner: M,
    /// Cost of one context switch (charged per firing).
    pub context_switch: Micros,
    /// Synchronization/wake cost charged per event moved.
    pub sync_per_event: Micros,
    /// Effective parallel speedup (≥ 1.0).
    pub effective_parallelism: f64,
}

impl<M: CostModel> ThreadOverheadCost<M> {
    /// Wrap `inner` with the given overhead parameters.
    pub fn new(inner: M, context_switch: Micros, sync_per_event: Micros, effective_parallelism: f64) -> Self {
        assert!(effective_parallelism >= 1.0);
        ThreadOverheadCost {
            inner,
            context_switch,
            sync_per_event,
            effective_parallelism,
        }
    }
}

impl<M: CostModel> CostModel for ThreadOverheadCost<M> {
    fn firing_cost(&self, actor: usize, name: &str, consumed: u64, produced: u64) -> Micros {
        let base = self.inner.firing_cost(actor, name, consumed, produced);
        let overhead = self.context_switch
            + self.sync_per_event * (consumed + produced).max(1);
        let total = base.as_micros() + overhead.as_micros();
        Micros((total as f64 / self.effective_parallelism).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_model_applies_defaults_and_overrides() {
        let m = TableCostModel::uniform(Micros(10), Micros(2)).with_actor("big", Micros(100), Micros(5));
        assert_eq!(m.firing_cost(0, "anything", 3, 0), Micros(16));
        assert_eq!(m.firing_cost(0, "big", 2, 0), Micros(110));
        // consumed=0 still costs one event's worth (source firings).
        assert_eq!(m.firing_cost(0, "anything", 0, 1), Micros(12));
    }

    #[test]
    fn thread_overhead_inflates_and_scales() {
        let base = TableCostModel::uniform(Micros(100), Micros::ZERO);
        let m = ThreadOverheadCost::new(base, Micros(20), Micros(10), 2.0);
        // (100 + 20 + 10·2)/2 = 70
        assert_eq!(m.firing_cost(0, "x", 1, 1), Micros(70));
    }

    #[test]
    #[should_panic]
    fn parallelism_below_one_rejected() {
        let base = TableCostModel::uniform(Micros::ZERO, Micros::ZERO);
        let _ = ThreadOverheadCost::new(base, Micros(1), Micros(1), 0.5);
    }
}
