//! QoS metrics: response-time series, thrash detection, rendering.
//!
//! The paper's Figures 6–8 plot the response time measured at the
//! TollNotification actor against run time, and its analysis identifies
//! the *thrash point* — the moment a scheduler's response time departs for
//! good (the offered rate has passed the sustainable capacity).

use confluence_core::time::{Micros, Timestamp};

/// A response-time series: `(observation time, response time)` samples.
#[derive(Debug, Clone, Default)]
pub struct ResponseSeries {
    samples: Vec<(Timestamp, Micros)>,
}

/// One time bucket of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Bucket start, in seconds of run time.
    pub start_secs: u64,
    /// Mean response time within the bucket, in seconds.
    pub mean_response_secs: f64,
    /// Samples in the bucket.
    pub count: usize,
}

impl ResponseSeries {
    /// Build from raw samples (any order).
    pub fn new(mut samples: Vec<(Timestamp, Micros)>) -> Self {
        samples.sort_by_key(|(at, _)| *at);
        ResponseSeries { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean response time in seconds over the whole run.
    pub fn mean_secs(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let total: u64 = self.samples.iter().map(|(_, l)| l.as_micros()).sum();
        total as f64 / self.samples.len() as f64 / 1_000_000.0
    }

    /// Mean response time in seconds over samples observed before
    /// `cutoff_secs` of run time — the pre-saturation comparison the
    /// paper's discussion of scheduler quality rests on.
    pub fn mean_secs_before(&self, cutoff_secs: u64) -> f64 {
        let cutoff = Timestamp::from_secs(cutoff_secs);
        let mut total = 0u64;
        let mut n = 0u64;
        for (at, lat) in &self.samples {
            if *at < cutoff {
                total += lat.as_micros();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1_000_000.0
        }
    }

    /// The p-th percentile (0–100) response time in seconds.
    pub fn percentile_secs(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut lats: Vec<u64> = self.samples.iter().map(|(_, l)| l.as_micros()).collect();
        lats.sort_unstable();
        let idx = ((p / 100.0) * (lats.len() - 1) as f64).round() as usize;
        lats[idx.min(lats.len() - 1)] as f64 / 1_000_000.0
    }

    /// Mean response time per `bucket_secs` bucket — the Figure 6–8 curve.
    pub fn bucketed(&self, bucket_secs: u64) -> Vec<Bucket> {
        let mut sums: Vec<(u64, usize)> = Vec::new();
        for (at, lat) in &self.samples {
            let b = (at.as_micros() / 1_000_000 / bucket_secs) as usize;
            if sums.len() <= b {
                sums.resize(b + 1, (0, 0));
            }
            sums[b].0 += lat.as_micros();
            sums[b].1 += 1;
        }
        sums.iter()
            .enumerate()
            .map(|(b, &(sum, count))| Bucket {
                start_secs: b as u64 * bucket_secs,
                mean_response_secs: if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64 / 1_000_000.0
                },
                count,
            })
            .collect()
    }

    /// The thrash point: the start of the first `sustain` consecutive
    /// buckets whose mean response time exceeds `threshold_secs`, with the
    /// series never recovering below the threshold afterwards. `None`
    /// when the scheduler kept up for the whole run.
    pub fn thrash_point(&self, bucket_secs: u64, threshold_secs: f64, sustain: usize) -> Option<u64> {
        let buckets = self.bucketed(bucket_secs);
        // Last bucket below threshold (with data) — everything after it is
        // saturated for good.
        let mut candidate: Option<usize> = None;
        let mut run = 0usize;
        for (i, b) in buckets.iter().enumerate() {
            if b.count == 0 {
                continue;
            }
            if b.mean_response_secs > threshold_secs {
                run += 1;
                if run == 1 {
                    candidate = Some(i);
                }
            } else {
                run = 0;
                candidate = None;
            }
        }
        if run >= sustain {
            candidate.map(|i| buckets[i].start_secs)
        } else {
            None
        }
    }

    /// Render the bucketed curve as aligned text rows (`time  response`),
    /// the textual analog of the paper's figures.
    pub fn render(&self, bucket_secs: u64) -> String {
        let mut out = String::from("time(s)  response(s)  samples\n");
        for b in self.bucketed(bucket_secs) {
            out.push_str(&format!(
                "{:>7} {:>12.3} {:>8}\n",
                b.start_secs, b.mean_response_secs, b.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_s: u64, lat_ms: u64) -> (Timestamp, Micros) {
        (Timestamp::from_secs(at_s), Micros::from_millis(lat_ms))
    }

    #[test]
    fn basic_statistics() {
        let s = ResponseSeries::new(vec![sample(1, 100), sample(2, 300), sample(3, 200)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!((s.mean_secs() - 0.2).abs() < 1e-9);
        assert!((s.percentile_secs(100.0) - 0.3).abs() < 1e-9);
        assert!((s.percentile_secs(0.0) - 0.1).abs() < 1e-9);
        assert_eq!(ResponseSeries::default().mean_secs(), 0.0);
        assert_eq!(ResponseSeries::default().percentile_secs(50.0), 0.0);
    }

    #[test]
    fn mean_before_cutoff() {
        let s = ResponseSeries::new(vec![sample(1, 100), sample(50, 100), sample(99, 10_000)]);
        assert!((s.mean_secs_before(60) - 0.1).abs() < 1e-9);
        assert!(s.mean_secs() > 1.0);
        assert_eq!(s.mean_secs_before(0), 0.0);
    }

    #[test]
    fn bucketing_averages_within_buckets() {
        let s = ResponseSeries::new(vec![
            sample(5, 100),
            sample(8, 300),
            sample(25, 1_000),
        ]);
        let buckets = s.bucketed(10);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].count, 2);
        assert!((buckets[0].mean_response_secs - 0.2).abs() < 1e-9);
        assert_eq!(buckets[1].count, 0);
        assert_eq!(buckets[2].count, 1);
    }

    #[test]
    fn thrash_point_requires_sustained_saturation() {
        // Healthy until t=60, then latency departs for good.
        let mut samples = Vec::new();
        for t in 0..6 {
            samples.push(sample(t * 10, 200));
        }
        for t in 6..12 {
            samples.push(sample(t * 10, 5_000 + t * 1_000));
        }
        let s = ResponseSeries::new(samples);
        assert_eq!(s.thrash_point(10, 4.0, 3), Some(60));
        // A temporary spike does not count as thrash.
        let spike = ResponseSeries::new(vec![
            sample(0, 100),
            sample(10, 9_000),
            sample(20, 100),
            sample(30, 100),
        ]);
        assert_eq!(spike.thrash_point(10, 4.0, 2), None);
        // Never saturating → None.
        let calm = ResponseSeries::new(vec![sample(0, 100), sample(10, 150)]);
        assert_eq!(calm.thrash_point(10, 4.0, 1), None);
    }

    #[test]
    fn render_produces_rows() {
        let s = ResponseSeries::new(vec![sample(5, 100)]);
        let text = s.render(10);
        assert!(text.contains("time(s)"));
        assert_eq!(text.lines().count(), 2);
    }
}
