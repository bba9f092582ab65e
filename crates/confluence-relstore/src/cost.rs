//! The planner's cost model.
//!
//! Scores every applicable access path from the maintained index
//! statistics ([`crate::stats`]) so the planner picks the cheapest one
//! instead of the first declared index that happens to apply. Costs are
//! unit-free "row visits": one unit is roughly one candidate row fetched
//! and run through the residual predicate. A probe carries a small
//! constant surcharge so an index whose bucket holds almost the whole
//! table never beats a plain scan by accident.
//!
//! The numbers are deliberately coarse — there are no histograms, only
//! entry and distinct-key counts — but they are deterministic, explain
//! themselves through [`crate::plan::Plan`], and order the realistic
//! contenders correctly: a point probe on a selective index beats one on
//! a 2-value column, a bounded range beats a half-open one, and a full scan
//! beats everything on a near-empty table.

/// Constant surcharge of one hash/tree probe (hashing the key, walking
/// the tree, setting up the bucket iterator).
pub const PROBE_COST: f64 = 4.0;

/// Cost of visiting one candidate row (fetch + residual evaluation).
pub const ROW_COST: f64 = 1.0;

/// Fraction of an ordered-index partition a two-sided range is assumed
/// to select when no finer statistics exist.
pub const BOUNDED_RANGE_SELECTIVITY: f64 = 0.5;

/// Fraction of a partition a one-sided range is assumed to select.
pub const HALF_RANGE_SELECTIVITY: f64 = 0.75;

/// Cost of scanning the whole table.
pub fn full_scan(rows: usize) -> f64 {
    rows as f64 * ROW_COST
}

/// Cost of one equality probe expected to return `est_rows` candidates.
pub fn index_probe(est_rows: f64) -> f64 {
    PROBE_COST + est_rows * ROW_COST
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_probe_beats_broad_probe_beats_scan() {
        // 10k rows; index A has 2 distinct keys, index B has 2000.
        let scan = full_scan(10_000);
        let broad = index_probe(10_000.0 / 2.0);
        let selective = index_probe(10_000.0 / 2000.0);
        assert!(selective < broad);
        assert!(broad < scan);
    }

    #[test]
    fn tiny_tables_prefer_the_scan() {
        assert!(full_scan(2) < index_probe(1.0));
    }
}
