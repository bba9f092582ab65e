//! Property tests for the mergeable quantile sketch: the relative-error
//! guarantee holds on arbitrary (including adversarial) distributions,
//! and merging snapshots is exact — associative, commutative, and equal
//! to recording everything into one sketch.

use confluence::core::telemetry::{QuantileSketch, SketchSnapshot};
use confluence::core::time::Micros;
use proptest::prelude::*;

/// Nearest-rank exact quantile over a sorted sample.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sketch_of(values: &[u64]) -> QuantileSketch {
    let sk = QuantileSketch::new();
    for &v in values {
        sk.record(Micros(v));
    }
    sk
}

fn merged(parts: &[SketchSnapshot]) -> SketchSnapshot {
    let mut out = parts[0].clone();
    for p in &parts[1..] {
        out.merge(p);
    }
    out
}

proptest! {
    /// Every quantile estimate is within the configured relative error α
    /// of the exact nearest-rank quantile, for any sample of values ≥ 1 µs.
    /// (Bucket midpoints are rounded to integer microseconds, so the bound
    /// carries a ±1 µs rounding allowance on top of α·v.)
    #[test]
    fn quantile_estimates_stay_within_alpha(
        values in prop::collection::vec(1u64..1_000_000_000, 1..300),
        q_pct in 0u64..101,
    ) {
        let q = q_pct as f64 / 100.0;
        let sk = sketch_of(&values);
        let snap = sk.snapshot();
        let alpha = snap.alpha_ppm as f64 / 1e6;
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let est = snap.quantile(q);
        let diff = (est as f64 - exact as f64).abs();
        prop_assert!(
            diff <= alpha * exact as f64 + 1.0,
            "q={q}: estimate {est} vs exact {exact} (α={alpha})"
        );
    }

    /// Exact counters ride along unharmed: count, sum, and max match the
    /// raw sample regardless of distribution.
    #[test]
    fn count_sum_and_max_are_exact(
        values in prop::collection::vec(0u64..10_000_000, 0..200),
    ) {
        let snap = sketch_of(&values).snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum_micros, values.iter().sum::<u64>());
        prop_assert_eq!(snap.max_micros, values.iter().max().copied().unwrap_or(0));
    }

    /// Merging per-worker snapshots is exact bucket addition: it commutes,
    /// associates, and equals recording every sample into one sketch — so
    /// the α guarantee survives arbitrary sharding of the sample.
    #[test]
    fn merge_is_associative_commutative_and_lossless(
        a in prop::collection::vec(1u64..50_000_000, 0..120),
        b in prop::collection::vec(1u64..50_000_000, 0..120),
        c in prop::collection::vec(1u64..50_000_000, 0..120),
    ) {
        let (sa, sb, sc) = (
            sketch_of(&a).snapshot(),
            sketch_of(&b).snapshot(),
            sketch_of(&c).snapshot(),
        );

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let left = merged(&[merged(&[sa.clone(), sb.clone()]), sc.clone()]);
        let right = merged(&[sa.clone(), merged(&[sb.clone(), sc.clone()])]);
        prop_assert_eq!(&left, &right);

        // a ⊕ b == b ⊕ a
        prop_assert_eq!(
            merged(&[sa.clone(), sb.clone()]),
            merged(&[sb.clone(), sa.clone()])
        );

        // Sharded recording loses nothing vs one global sketch.
        let mut all: Vec<u64> = Vec::new();
        all.extend(&a);
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&left, &sketch_of(&all).snapshot());
    }

    /// Quantiles of a merged snapshot obey the same α bound as a single
    /// sketch over the union — the property the Prometheus summary
    /// depends on.
    #[test]
    fn merged_quantiles_keep_the_guarantee(
        a in prop::collection::vec(1u64..1_000_000, 1..150),
        b in prop::collection::vec(1u64..1_000_000, 1..150),
    ) {
        let m = merged(&[sketch_of(&a).snapshot(), sketch_of(&b).snapshot()]);
        let alpha = m.alpha_ppm as f64 / 1e6;
        let mut all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let exact = exact_quantile(&all, q);
            let est = m.quantile(q);
            let diff = (est as f64 - exact as f64).abs();
            prop_assert!(
                diff <= alpha * exact as f64 + 1.0,
                "q={q}: merged estimate {est} vs exact {exact}"
            );
        }
    }
}

/// Deterministic adversarial shapes worth pinning down outside proptest's
/// random sweep: heavy ties, geometric tails, and a two-mode latency
/// profile with a far outlier.
#[test]
fn adversarial_distributions_stay_within_alpha() {
    let cases: Vec<Vec<u64>> = vec![
        vec![1; 1000],                                     // all ties at the floor
        (0..1000).map(|i| 1u64 << (i % 40)).collect(),     // geometric spread
        (1..=1000u64)
            .map(|i| if i % 100 == 0 { 90_000_000 } else { 200 })
            .collect(),                                    // bimodal + outliers
        (1..=2000u64).rev().collect(),                     // descending ramp
    ];
    for values in cases {
        let snap = sketch_of(&values).snapshot();
        let alpha = snap.alpha_ppm as f64 / 1e6;
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.50, 0.90, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = snap.quantile(q);
            let diff = (est as f64 - exact as f64).abs();
            assert!(
                diff <= alpha * exact as f64 + 1.0,
                "q={q}: estimate {est} vs exact {exact} over {} samples",
                values.len()
            );
        }
    }
}
