//! Mergeable relative-error quantile sketch for end-to-end latencies.
//!
//! DDSketch-style logarithmic buckets: bucket `i` covers the value range
//! `(γ^(i-1), γ^i]` microseconds with `γ = (1+α)/(1-α)`, so reporting the
//! relative midpoint `2γ^i/(γ+1)` of the containing bucket estimates any
//! quantile within relative error `α` (for values ≥ 1 µs). Recording is a
//! logarithm plus a relaxed atomic add, snapshots are plain integer
//! vectors, and merging two snapshots is element-wise addition — exact,
//! associative, and commutative, so sketches taken on different workers or
//! processes can be combined without losing the error guarantee.
//!
//! Zero external deps and `core`-only data structures (the only `std`
//! dependence is `f64::ln`, replaceable by `libm` under `no_std`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::Micros;

/// Default relative-error target α = 1% (in parts-per-million).
pub const DEFAULT_ALPHA_PPM: u32 = 10_000;

/// Dense bucket count. With α = 1% (γ ≈ 1.0202) the last regular bucket
/// covers values up to γ^2046 ≈ 6·10^17 µs (~20 000 years) — overflow is
/// unreachable for real latencies.
const SKETCH_BUCKETS: usize = 2048;

/// Concurrent relative-error quantile sketch over `u64` microsecond
/// samples. All operations are lock-free; `record` is a few relaxed
/// atomic adds on the hot path.
#[derive(Debug)]
pub struct QuantileSketch {
    alpha_ppm: u32,
    /// 1 / ln γ, precomputed for the hot-path bucket index.
    inv_ln_gamma: f64,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::with_alpha_ppm(DEFAULT_ALPHA_PPM)
    }
}

impl QuantileSketch {
    /// Sketch with the default α = 1% relative-error target.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sketch targeting relative error `alpha_ppm / 1e6` (clamped to
    /// `[100, 500_000]` — 0.01% to 50%).
    pub fn with_alpha_ppm(alpha_ppm: u32) -> Self {
        let alpha_ppm = alpha_ppm.clamp(100, 500_000);
        let gamma = gamma_of(alpha_ppm);
        QuantileSketch {
            alpha_ppm,
            inv_ln_gamma: 1.0 / gamma.ln(),
            buckets: (0..SKETCH_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Configured relative-error target in parts-per-million.
    pub fn alpha_ppm(&self) -> u32 {
        self.alpha_ppm
    }

    /// Index of the bucket covering `micros`: 0 for values ≤ 1, else
    /// `⌈ln(v)/ln γ⌉`, clamped to the overflow bucket.
    fn bucket_index(&self, micros: u64) -> usize {
        if micros <= 1 {
            return 0;
        }
        let i = ((micros as f64).ln() * self.inv_ln_gamma).ceil() as usize;
        i.min(SKETCH_BUCKETS - 1)
    }

    /// Record one latency sample.
    pub fn record(&self, latency: Micros) {
        let us = latency.as_micros();
        self.buckets[self.bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(us, Ordering::Relaxed);
        self.max_micros.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time immutable copy. Trailing empty buckets are trimmed so
    /// equal sketches have equal snapshots regardless of history.
    pub fn snapshot(&self) -> SketchSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        SketchSnapshot {
            alpha_ppm: self.alpha_ppm,
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }

    /// Estimate of quantile `q` in `0.0..=1.0` without materializing a
    /// snapshot: a single allocation-free streaming pass over the live
    /// buckets, used by the time-series recorder's p95 samples.
    /// Point-in-time under concurrent
    /// recording (monitoring-grade, not linearizable).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        if rank > count / 2 {
            // High quantiles (the p95/p99 monitoring reads) scan from the
            // top: only buckets holding the tail mass are touched, so the
            // hot low/mid cache lines being bumped by concurrent `record`
            // calls stay untouched. The answer is the first bucket,
            // descending, whose suffix sum exceeds the mass above the
            // rank — its cumulative count from below then covers `rank`.
            let above = count - rank;
            let mut acc = 0u64;
            // No bucket above the max sample's can be occupied, so the
            // scan starts there rather than at the top of the array.
            let start = self.bucket_index(self.max_micros.load(Ordering::Relaxed));
            for i in (0..=start.min(self.buckets.len() - 1)).rev() {
                let n = self.buckets[i].load(Ordering::Relaxed);
                if n == 0 {
                    continue;
                }
                acc += n;
                if acc > above {
                    return bucket_estimate(
                        self.alpha_ppm,
                        i,
                        self.max_micros.load(Ordering::Relaxed),
                    );
                }
            }
            return self.max_micros.load(Ordering::Relaxed);
        }
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            seen += n;
            if seen >= rank {
                return bucket_estimate(self.alpha_ppm, i, self.max_micros.load(Ordering::Relaxed));
            }
        }
        self.max_micros.load(Ordering::Relaxed)
    }
}

/// γ = (1+α)/(1-α) for an α given in parts-per-million.
fn gamma_of(alpha_ppm: u32) -> f64 {
    let alpha = alpha_ppm as f64 / 1e6;
    (1.0 + alpha) / (1.0 - alpha)
}

/// Relative-midpoint estimate for a value in bucket `i`: within α of any
/// true value ≥ 1 µs the bucket covers (`max_micros` bounds the overflow
/// bucket).
fn bucket_estimate(alpha_ppm: u32, i: usize, max_micros: u64) -> u64 {
    if i == 0 {
        return 1;
    }
    if i + 1 >= SKETCH_BUCKETS {
        // Overflow bucket: the max sample is the only bound we have.
        return max_micros;
    }
    let gamma = gamma_of(alpha_ppm);
    (2.0 * gamma.powi(i as i32) / (gamma + 1.0)).round() as u64
}

/// Immutable, mergeable copy of a [`QuantileSketch`]. `buckets[i]` counts
/// samples in `(γ^(i-1), γ^i]` µs (bucket 0: values ≤ 1 µs); trailing
/// zero buckets are trimmed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSnapshot {
    /// Relative-error target of the producing sketch, parts-per-million.
    pub alpha_ppm: u32,
    /// Non-cumulative per-bucket sample counts.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub sum_micros: u64,
    /// Largest sample in microseconds.
    pub max_micros: u64,
}

impl SketchSnapshot {
    /// Empty snapshot at the default α.
    pub fn empty() -> Self {
        SketchSnapshot {
            alpha_ppm: DEFAULT_ALPHA_PPM,
            buckets: Vec::new(),
            count: 0,
            sum_micros: 0,
            max_micros: 0,
        }
    }

    /// γ of the producing sketch.
    pub fn gamma(&self) -> f64 {
        gamma_of(self.alpha_ppm)
    }

    /// Mean latency over all samples.
    pub fn mean(&self) -> Micros {
        match self.sum_micros.checked_div(self.count) {
            Some(mean) => Micros(mean),
            None => Micros::ZERO,
        }
    }

    /// Upper bound of bucket `i` in µs: `γ^i`, the largest value the
    /// bucket can hold (`None` for the overflow bucket).
    pub fn bucket_upper_micros(&self, i: usize) -> Option<f64> {
        if i + 1 >= SKETCH_BUCKETS {
            None
        } else {
            Some(self.gamma().powi(i as i32))
        }
    }

    /// Relative-midpoint estimate for a value in bucket `i`: within α of
    /// any true value ≥ 1 µs the bucket covers.
    fn bucket_estimate(&self, i: usize) -> u64 {
        bucket_estimate(self.alpha_ppm, i, self.max_micros)
    }

    /// Estimate of quantile `q` in `0.0..=1.0`; relative error is ≤ α for
    /// true quantile values ≥ 1 µs. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return self.bucket_estimate(i);
            }
        }
        self.max_micros
    }

    /// Median estimate in µs.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate in µs.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate in µs.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold `other` into `self` — exact element-wise addition, so merge is
    /// associative and commutative and preserves the α guarantee. Both
    /// snapshots must come from sketches with the same α.
    pub fn merge(&mut self, other: &SketchSnapshot) {
        assert_eq!(
            self.alpha_ppm, other.alpha_ppm,
            "cannot merge sketches with different relative-error targets"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn rel_err(estimate: u64, exact: u64) -> f64 {
        (estimate as f64 - exact as f64).abs() / exact as f64
    }

    #[test]
    fn empty_sketch_is_all_zero() {
        let s = QuantileSketch::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), Micros::ZERO);
        assert!(s.buckets.is_empty());
        assert_eq!(s, SketchSnapshot::empty());
    }

    #[test]
    fn counts_sums_and_max_are_exact() {
        let sk = QuantileSketch::new();
        for us in [1u64, 7, 7, 1_000, 123_456] {
            sk.record(Micros(us));
        }
        let s = sk.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_micros, 124_471);
        assert_eq!(s.max_micros, 123_456);
        assert_eq!(s.mean(), Micros(24_894));
    }

    #[test]
    fn quantiles_hit_the_relative_error_target() {
        let sk = QuantileSketch::new();
        let mut values: Vec<u64> = (1..=4000u64).map(|i| i * i).collect();
        for &v in &values {
            sk.record(Micros(v));
        }
        values.sort_unstable();
        let snap = sk.snapshot();
        let alpha = snap.alpha_ppm as f64 / 1e6;
        for q in [0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let est = snap.quantile(q);
            assert!(
                rel_err(est, exact) <= alpha * 1.0001,
                "q={q}: estimate {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn live_quantiles_match_snapshot_quantiles() {
        // The live path splits into bottom-up and top-down scans at the
        // median; both must agree with the snapshot's single-pass answer.
        let sk = QuantileSketch::new();
        for v in (1..=5000u64).map(|i| i * 31 % 90_000 + 1) {
            sk.record(Micros(v));
        }
        let snap = sk.snapshot();
        for q in [0.0, 0.01, 0.25, 0.50, 0.51, 0.90, 0.95, 0.99, 1.0] {
            assert_eq!(sk.quantile(q), snap.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_equals_recording_into_one_sketch() {
        let (a, b, all) = (
            QuantileSketch::new(),
            QuantileSketch::new(),
            QuantileSketch::new(),
        );
        for v in [3u64, 50, 999, 12] {
            a.record(Micros(v));
            all.record(Micros(v));
        }
        for v in [70_000u64, 2, 888] {
            b.record(Micros(v));
            all.record(Micros(v));
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    #[should_panic(expected = "different relative-error targets")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::with_alpha_ppm(10_000).snapshot();
        let b = QuantileSketch::with_alpha_ppm(20_000).snapshot();
        a.merge(&b);
    }

    #[test]
    fn sub_microsecond_values_land_in_bucket_zero() {
        let sk = QuantileSketch::new();
        sk.record(Micros(0));
        sk.record(Micros(1));
        let s = sk.snapshot();
        assert_eq!(s.buckets, vec![2]);
        assert_eq!(s.quantile(1.0), 1);
    }

    #[test]
    fn custom_alpha_widens_buckets() {
        let coarse = QuantileSketch::with_alpha_ppm(100_000); // 10%
        for v in 1..=1000u64 {
            coarse.record(Micros(v));
        }
        let s = coarse.snapshot();
        let exact = 950u64;
        let est = s.quantile(0.95);
        assert!(rel_err(est, exact) <= 0.1 * 1.0001, "estimate {est}");
        // Far fewer distinct buckets than the 1% sketch needs.
        assert!(s.buckets.len() < 50, "got {} buckets", s.buckets.len());
    }
}
