//! The Linear Road workload generator.
//!
//! The paper uses the workload generator from the Linear Road site to
//! produce car position reports for 0.5 expressways over 600 seconds
//! (Figure 5: the input rate ramps from ~10 to ~200 updates/second). That
//! generator (the MIT traffic simulator) is not redistributable, so this
//! module synthesizes an equivalent trip-level workload: cars enter the
//! expressway at a linearly increasing population, report every 30
//! seconds, move according to their speed, and scheduled accident pairs
//! stop in a travel lane for several reporting intervals (which is what
//! the accident-detection pipeline keys on). See
//! DESIGN.md, "Substitutions".

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{PositionReport, EXIT_LANE, REPORT_INTERVAL_SECS, SEGMENTS, SEGMENT_FEET};

/// The congested "downtown" band of the expressway: traffic concentrates
/// here and moves slowly, so the variable-toll conditions (more than 50
/// cars per segment-minute, LAV below 40 mph) genuinely arise — as they
/// do in the Linear Road simulator's congested stretches.
pub const HOT_BAND: std::ops::Range<i64> = 40..60;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Run length in seconds (the paper uses 600).
    pub duration_secs: u64,
    /// L-rating: fraction of a full expressway's traffic (paper: 0.5).
    pub l_rating: f64,
    /// Number of expressways. Car population scales linearly with it and
    /// cars are assigned an `xway` uniformly at random; `1` reproduces the
    /// single-expressway streams byte-for-byte (no extra RNG draws).
    pub expressways: usize,
    /// RNG seed (runs are fully deterministic given the config).
    pub seed: u64,
    /// Car population at t = 0 for L = 1.0 (scaled by `l_rating`).
    pub base_initial_cars: usize,
    /// Car population at t = duration for L = 1.0 (scaled by `l_rating`).
    pub base_final_cars: usize,
    /// Schedule an accident pair every this many seconds (`None` = no accidents).
    pub accident_every_secs: Option<u64>,
    /// How long crashed cars keep reporting from the same spot.
    pub accident_duration_secs: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        // Calibrated to Figure 5: with L = 0.5 the report rate ramps from
        // ~10/s (300 cars) to ~200/s (6000 cars) over 600 s.
        WorkloadConfig {
            duration_secs: 600,
            l_rating: 0.5,
            expressways: 1,
            seed: 0xC0FFEE,
            base_initial_cars: 600,
            base_final_cars: 12_000,
            accident_every_secs: Some(90),
            accident_duration_secs: 150,
        }
    }
}

impl WorkloadConfig {
    /// The paper's configuration: L = 0.5, 600 seconds.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A miniature configuration for tests (seconds-scale, light load).
    pub fn tiny() -> Self {
        WorkloadConfig {
            // Long enough for an accident scheduled at t=50 to confirm
            // (fourth report at t=140).
            duration_secs: 180,
            l_rating: 0.05,
            expressways: 1,
            seed: 7,
            base_initial_cars: 600,
            base_final_cars: 2_000,
            accident_every_secs: Some(50),
            accident_duration_secs: 150,
        }
    }
}

/// A generated workload: the position-report stream plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Workload {
    /// All reports, ascending by time (ties by car id). Shared: a built
    /// workflow's source reads them in place.
    pub reports: Arc<[PositionReport]>,
    /// The configuration that produced it.
    pub config: WorkloadConfig,
}

impl Workload {
    /// Generate deterministically from a configuration.
    pub fn generate(config: WorkloadConfig) -> Workload {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let lanes = config.expressways.max(1);
        let scale = config.l_rating * lanes as f64;
        let initial = (config.base_initial_cars as f64 * scale).round() as usize;
        let final_ = (config.base_final_cars as f64 * scale).round() as usize;
        let duration = config.duration_secs as i64;
        let mut reports: Vec<PositionReport> = Vec::new();
        let mut next_carid: i64 = 1;
        // Expressway assignment, drawn only in multi-expressway runs so the
        // single-expressway stream stays byte-identical across versions.
        let pick_xway = |rng: &mut StdRng| -> i64 {
            if lanes > 1 {
                rng.gen_range(0..lanes as i64)
            } else {
                0
            }
        };

        // One car's journey: reports every 30 s from `entry` until the run
        // ends or it leaves the expressway. Most cars head for the
        // downtown band, where everyone crawls.
        let drive = |rng: &mut StdRng,
                     carid: i64,
                     xway: i64,
                     entry: i64,
                     out: &mut Vec<PositionReport>| {
            let dir = rng.gen_range(0..2i64);
            let free_speed: f64 = rng.gen_range(48.0..75.0);
            let jam_speed: f64 = rng.gen_range(18.0..38.0);
            let lane = rng.gen_range(1..EXIT_LANE);
            let downtown_bound = rng.gen_bool(0.65);
            let start_seg = if downtown_bound {
                // Enter a few segments upstream of the band so the car
                // drives into the congestion.
                let offset = rng.gen_range(0..12);
                if dir == 0 {
                    (HOT_BAND.start - offset).max(0)
                } else {
                    (HOT_BAND.end + offset).min(SEGMENTS - 1)
                }
            } else {
                rng.gen_range(0..SEGMENTS)
            };
            let mut pos = start_seg * SEGMENT_FEET + rng.gen_range(0..SEGMENT_FEET);
            let mut t = entry;
            while t <= duration {
                let seg = (pos / SEGMENT_FEET).clamp(0, SEGMENTS - 1);
                let base = if HOT_BAND.contains(&seg) {
                    jam_speed
                } else {
                    free_speed
                };
                let speed = (base + rng.gen_range(-5.0..5.0)).max(8.0);
                out.push(PositionReport {
                    time: t,
                    carid,
                    speed,
                    xway,
                    lane,
                    dir,
                    seg,
                    pos,
                });
                // Feet covered in 30 s at `speed` mph: speed · 44.
                let delta = (speed * 44.0) as i64;
                pos += if dir == 0 { delta } else { -delta };
                if !(0..SEGMENTS * SEGMENT_FEET).contains(&pos) {
                    break; // left the expressway
                }
                t += REPORT_INTERVAL_SECS as i64;
            }
        };

        // Initial population: phases staggered across the report interval.
        for _ in 0..initial {
            let entry = rng.gen_range(0..REPORT_INTERVAL_SECS as i64);
            let id = next_carid;
            next_carid += 1;
            let xway = pick_xway(&mut rng);
            drive(&mut rng, id, xway, entry, &mut reports);
        }
        // Ramp: evenly spaced entries reaching `final_` cars at the end.
        let extra = final_.saturating_sub(initial);
        for k in 0..extra {
            let entry = ((k as f64 + rng.gen_range(0.0..1.0)) * duration as f64 / extra.max(1) as f64)
                as i64;
            let id = next_carid;
            next_carid += 1;
            let xway = pick_xway(&mut rng);
            drive(&mut rng, id, xway, entry.min(duration), &mut reports);
        }

        // Scheduled accidents: two cars stopped at the same position in a
        // travel lane, reporting zero speed for the accident duration.
        if let Some(every) = config.accident_every_secs {
            let mut t = every as i64;
            while t < duration {
                let seg = rng.gen_range(5..SEGMENTS - 5);
                let pos = seg * SEGMENT_FEET + rng.gen_range(0..SEGMENT_FEET);
                let dir = rng.gen_range(0..2i64);
                let lane = rng.gen_range(1..EXIT_LANE);
                let xway = pick_xway(&mut rng);
                for _ in 0..2 {
                    let carid = next_carid;
                    next_carid += 1;
                    let mut rt = t;
                    while rt <= (t + config.accident_duration_secs as i64).min(duration) {
                        reports.push(PositionReport {
                            time: rt,
                            carid,
                            speed: 0.0,
                            xway,
                            lane,
                            dir,
                            seg,
                            pos,
                        });
                        rt += REPORT_INTERVAL_SECS as i64;
                    }
                }
                t += every as i64;
            }
        }

        reports.sort_by_key(|r| (r.time, r.carid));
        Workload {
            reports: reports.into(),
            config,
        }
    }

    /// Input rate in updates/second, averaged over `bucket_secs` buckets —
    /// the series plotted in Figure 5.
    pub fn rate_series(&self, bucket_secs: u64) -> Vec<(u64, f64)> {
        let mut counts: Vec<u64> = Vec::new();
        for r in self.reports.iter() {
            let b = r.time as u64 / bucket_secs;
            if counts.len() <= b as usize {
                counts.resize(b as usize + 1, 0);
            }
            counts[b as usize] += 1;
        }
        counts
            .iter()
            .enumerate()
            .map(|(b, &c)| (b as u64 * bucket_secs, c as f64 / bucket_secs as f64))
            .collect()
    }

    /// Total number of reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = Workload::generate(WorkloadConfig::tiny());
        let b = Workload::generate(WorkloadConfig::tiny());
        assert_eq!(a.reports, b.reports);
        assert!(!a.is_empty());
    }

    #[test]
    fn reports_sorted_and_within_bounds() {
        let w = Workload::generate(WorkloadConfig::tiny());
        for pair in w.reports.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        for r in w.reports.iter() {
            assert!(r.time >= 0 && r.time <= 180);
            assert!((0..SEGMENTS).contains(&r.seg));
            assert!(r.pos >= 0 && r.pos < SEGMENTS * SEGMENT_FEET);
            assert!((0..2).contains(&r.dir));
            assert!((1..=3).contains(&r.lane), "travel lanes only");
            assert!(r.speed >= 0.0);
        }
    }

    #[test]
    fn cars_report_every_thirty_seconds() {
        let w = Workload::generate(WorkloadConfig::tiny());
        let car = w.reports[0].carid;
        let times: Vec<i64> = w
            .reports
            .iter()
            .filter(|r| r.carid == car)
            .map(|r| r.time)
            .collect();
        assert!(times.len() >= 2);
        for pair in times.windows(2) {
            assert_eq!(pair[1] - pair[0], REPORT_INTERVAL_SECS as i64);
        }
    }

    #[test]
    fn rate_ramps_up_like_figure_5() {
        let w = Workload::generate(WorkloadConfig::paper());
        let series = w.rate_series(30);
        let early: f64 = series[..4].iter().map(|(_, r)| r).sum::<f64>() / 4.0;
        let late_window = &series[series.len() - 5..series.len() - 1];
        let late: f64 = late_window.iter().map(|(_, r)| r).sum::<f64>() / 4.0;
        assert!(early > 5.0 && early < 40.0, "early rate ≈10–20/s, got {early}");
        assert!(late > 120.0 && late < 280.0, "late rate ≈200/s, got {late}");
        assert!(late > early * 4.0, "rate must ramp substantially");
    }

    #[test]
    fn accidents_produce_stopped_pairs() {
        let w = Workload::generate(WorkloadConfig::tiny());
        // Find zero-speed reports; there must be pairs of cars sharing a
        // position with ≥ 4 consecutive reports each.
        let stopped: Vec<&PositionReport> =
            w.reports.iter().filter(|r| r.speed == 0.0).collect();
        assert!(!stopped.is_empty(), "tiny config schedules accidents");
        use std::collections::HashMap;
        let mut by_pos: HashMap<(i64, i64), Vec<i64>> = HashMap::new();
        for r in &stopped {
            let cars = by_pos.entry((r.pos, r.dir)).or_default();
            if !cars.contains(&r.carid) {
                cars.push(r.carid);
            }
        }
        assert!(
            by_pos.values().any(|cars| cars.len() >= 2),
            "at least one two-car accident"
        );
        // Each crashed car reports at least 4 times from the same spot.
        let car = stopped[0].carid;
        let n = stopped.iter().filter(|r| r.carid == car).count();
        assert!(n >= 4, "crashed car reports ≥4 times, got {n}");
    }

    #[test]
    fn downtown_band_is_congested_and_slow() {
        let w = Workload::generate(WorkloadConfig::paper());
        // Mean speed inside the band is jammed; outside it flows.
        let (mut in_sum, mut in_n, mut out_sum, mut out_n) = (0.0, 0u64, 0.0, 0u64);
        for r in w.reports.iter() {
            if HOT_BAND.contains(&r.seg) {
                in_sum += r.speed;
                in_n += 1;
            } else {
                out_sum += r.speed;
                out_n += 1;
            }
        }
        let in_mean = in_sum / in_n as f64;
        let out_mean = out_sum / out_n as f64;
        assert!(in_mean < 40.0, "band mean {in_mean:.1} must be jammed");
        assert!(out_mean > 45.0, "free-flow mean {out_mean:.1}");
        // Some band segment-minute exceeds the 50-car toll threshold late
        // in the run.
        use std::collections::{HashMap, HashSet};
        let mut cars: HashMap<(i64, i64, i64), HashSet<i64>> = HashMap::new();
        for r in w.reports.iter() {
            if HOT_BAND.contains(&r.seg) && r.time >= 300 {
                cars.entry((r.dir, r.seg, r.minute()))
                    .or_default()
                    .insert(r.carid);
            }
        }
        let max = cars.values().map(|s| s.len()).max().unwrap_or(0);
        assert!(max > 50, "peak band occupancy {max} must cross the threshold");
    }

    #[test]
    fn multi_expressway_scales_and_partitions() {
        let one = Workload::generate(WorkloadConfig::tiny());
        assert!(one.reports.iter().all(|r| r.xway == 0));
        let two = Workload::generate(WorkloadConfig {
            expressways: 2,
            ..WorkloadConfig::tiny()
        });
        // Both expressways carry traffic and total volume roughly doubles.
        for xw in 0..2 {
            assert!(
                two.reports.iter().any(|r| r.xway == xw),
                "expressway {xw} has traffic"
            );
        }
        assert!(two.reports.iter().all(|r| (0..2).contains(&r.xway)));
        let ratio = two.len() as f64 / one.len() as f64;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "2 expressways ≈ 2x the reports, got {ratio:.2}x"
        );
    }

    #[test]
    fn l_rating_scales_volume() {
        let half = Workload::generate(WorkloadConfig {
            accident_every_secs: None,
            ..WorkloadConfig::tiny()
        });
        let double = Workload::generate(WorkloadConfig {
            l_rating: 0.1,
            accident_every_secs: None,
            ..WorkloadConfig::tiny()
        });
        assert!(double.len() as f64 > half.len() as f64 * 1.5);
    }
}
