//! What every workload hands back to `main`, and the helpers they share:
//! the two clocks, the reference-output hash and the seeded generator.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::sys;

/// One invocation: one process, one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Timed units after the untimed warm-up unit: a fixed count, so two
    /// commits are measured over identical work.
    pub units: usize,
    /// Set-ups timed before each unit, so their median spans the whole run
    /// (`relstore_mix` times its store load on a schedule of its own).
    pub setups_per_unit: usize,
    /// Shrink the Linear Road traces so all four workloads finish in
    /// seconds; the numbers of a smoke run mean nothing.
    pub smoke: bool,
    /// Follow every unit with a traced twin and fill in the layer table.
    pub trace: bool,
    /// Where span files and checkpoint scratch go (inside the checkout).
    pub out_dir: PathBuf,
}

/// Wall and process-CPU seconds of one timed region.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Time `f` on the wall clock and the process CPU clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    (out, Timing { wall_s, cpu_s })
}

/// Set-ups timed back to back, and the reference reading taken right after
/// them.
#[derive(Debug, Clone)]
pub struct SetupBatch {
    /// Seconds each set-up took, as read.
    pub raw_s: Vec<f64>,
    pub reference_s: f64,
}

impl SetupBatch {
    /// Time `n` set-ups (at least one), then the reference. What a set-up
    /// built is dropped off the clock; the last one is handed back.
    pub fn time<T>(n: usize, mut setup: impl FnMut() -> T) -> (SetupBatch, T) {
        let mut raw_s = Vec::with_capacity(n);
        let mut time_one = || {
            let t0 = Instant::now();
            let built = setup();
            raw_s.push(t0.elapsed().as_secs_f64());
            built
        };
        for _ in 1..n {
            drop(time_one());
        }
        let last = time_one();
        let batch = SetupBatch {
            raw_s,
            reference_s: reference_s(),
        };
        (batch, last)
    }

    /// The batch's median set-up time as it would have read had the machine
    /// run the reference in [`REFERENCE_NOMINAL_S`].
    pub fn at_reference_speed(&self) -> f64 {
        crate::stats::median(&self.raw_s) * REFERENCE_NOMINAL_S / self.reference_s
    }
}

/// What [`reference_work`] takes on the VM this was written on when its
/// neighbours are quiet. Only a scale: it turns a ratio back into seconds.
pub const REFERENCE_NOMINAL_S: f64 = 0.080;

/// A fixed piece of allocation- and cache-bound work shaped like a set-up
/// (records of shared field names, clones, keyed groups, queues) but owned
/// by the benchmark, so no change to the repository can alter it.
///
/// It exists for `setup_s` alone. This VM's speed on such code moves by a
/// third for minutes at a time (README, "Why `setup_s` is read against a
/// reference"): two sets of ten runs of one commit put the raw median
/// set-up 31% apart, beyond the widest bound the benchmark contract allows,
/// and the contract does not let a benchmark drop `setup_s`. Every other
/// timing is reported raw and carries no bound.
pub fn reference_work() -> u64 {
    #[derive(Clone)]
    enum Field {
        Int(i64),
        Float(f64),
    }
    type Record = Arc<Vec<(Arc<str>, Field)>>;
    let names: Vec<Arc<str>> = [
        "time", "carid", "speed", "xway", "lane", "dir", "seg", "pos",
    ]
    .iter()
    .map(|s| Arc::from(*s))
    .collect();
    let mut groups: HashMap<i64, VecDeque<Record>> = HashMap::new();
    let mut queue: VecDeque<Record> = VecDeque::new();
    let mut acc = 0u64;
    let mut rng = SplitMix(0x5eed);
    for i in 0..300_000i64 {
        let car = rng.below(3_000) as i64;
        let record: Record = Arc::new(
            names
                .iter()
                .enumerate()
                .map(|(k, name)| {
                    let value = if k == 2 {
                        Field::Float(i as f64)
                    } else {
                        Field::Int(car + k as i64)
                    };
                    (name.clone(), value)
                })
                .collect(),
        );
        for _ in 0..4 {
            queue.push_back(record.clone());
        }
        let group = groups.entry(car).or_default();
        group.push_back(record);
        if group.len() > 2 {
            if let Some(old) = group.pop_front() {
                if let Field::Int(v) = old[1].1 {
                    acc = acc.wrapping_add(v as u64);
                }
            }
        }
        while queue.len() > 64 {
            let Some(old) = queue.pop_front() else { break };
            for (name, value) in old.iter() {
                match value {
                    Field::Int(v) if &**name == "seg" => acc = acc.wrapping_add(*v as u64),
                    Field::Float(f) if &**name == "speed" => acc = acc.wrapping_add(*f as u64),
                    _ => {}
                }
            }
        }
    }
    acc
}

/// Seconds one pass of the reference takes right now.
pub fn reference_s() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(reference_work());
    t0.elapsed().as_secs_f64()
}

/// Run one unit (its build included) with `VmHWM` restarted; returns what
/// the unit returned and the mark it reached, in MB.
///
/// A run reports the least of its units' marks. Identical units do not
/// reach identical marks: the order in which std's randomly keyed hash maps
/// hand their contents back to malloc differs from process to process and
/// from unit to unit, and on the checkpoint workload about one process in
/// four has units that end 1.5 or 7.5 MB (a tenth) above the 72.2 MB the
/// others reach, some for one unit and some for all but the first. The
/// excursions only ever add, so the least mark is the figure that repeats
/// (72.1 to 73.9 MB over 24 runs of one seed where the median over units
/// ranged 72.1 to 79.8 and the process-wide `VmHWM` 72.1 to 80.3).
pub fn with_peak_rss<T>(unit: impl FnOnce() -> T) -> (T, f64) {
    sys::reset_peak_rss();
    let out = unit();
    (out, sys::peak_rss_mb())
}

/// A workload's measurements. Times are per unit; `main` reduces them to
/// medians. In a traced run every unit is followed by a traced twin.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations in one unit (reports, or store operations).
    pub ops_per_unit: f64,
    pub units: Vec<Timing>,
    /// `(untraced, traced)` cost of each pair of a traced run: wall
    /// seconds, or CPU seconds where a timetable fixes the wall time.
    pub trace_pairs: Vec<(f64, f64)>,
    /// The resident-set high-water mark of each unit, in MB.
    pub unit_peak_rss_mb: Vec<f64>,
    /// The timed set-ups, in the batches they ran in.
    pub setups: Vec<SetupBatch>,
    /// Expected outputs checked, and how many were missing, wrong or late.
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values only this workload's own units can give.
    pub layers: BTreeMap<String, f64>,
    /// Extra key/value pairs for the DETAIL line.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.detail.push((key.to_string(), value.to_string()));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Record what the counting allocator saw over one unit of `ops`
    /// operations.
    pub fn alloc_layers(&mut self, allocs: u64, bytes: u64, ops: usize) {
        self.layer("alloc.count_per_op", allocs as f64 / ops as f64);
        self.layer("alloc.bytes_per_op", bytes as f64 / ops as f64);
        self.note("alloc_count", allocs);
    }
}

/// FNV-1a over a byte stream: the reference-output fingerprint printed in
/// DETAIL so two runs of one seed can be compared by eye.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's own seeded generator for op streams.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic_and_scales_a_batch() {
        assert_eq!(reference_work(), reference_work());
        let batch = SetupBatch {
            raw_s: vec![0.3, 0.1, 0.2],
            reference_s: 2.0 * REFERENCE_NOMINAL_S,
        };
        assert!((batch.at_reference_speed() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn splitmix_is_seeded_and_bounded() {
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        assert_eq!(a.next_u64(), b.next_u64());
        for _ in 0..1000 {
            assert!(a.below(10) < 10);
            assert!((-5..5).contains(&a.range(-5, 5)));
        }
    }
}
