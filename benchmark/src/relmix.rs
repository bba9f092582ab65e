//! `relstore_mix`: a closed loop of reads beside writes through
//! `linearroad::tables`, every answer checked against a shadow built from
//! std maps. A unit is one minute of Linear Road store traffic: every
//! segment's statistics row is written once, older minutes are revised,
//! accidents arrive, and expiry trims what fell out of the horizon, so the
//! tables keep their size from the first unit to the last.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use confluence_linearroad::model::accident_in_range;
use confluence_linearroad::tables;
use confluence_relstore::expr::{col, lit};
use confluence_relstore::{Expr, StoreHandle, Value};

use crate::harness::{fnv1a, timed, with_peak_rss, Outcome, RunConfig, SetupBatch, SplitMix};
use crate::sys;
use crate::trace::{count_allocs, write_chrome_json, Span};

pub const XWAYS: i64 = 4;
pub const DIRS: i64 = 2;
pub const SEGS: i64 = 100;
/// Minutes of segment statistics the store holds before expiry trims them.
pub const HORIZON_MIN: i64 = 120;
/// Accidents recorded per minute of stream, and the minutes they are kept.
pub const ACCIDENTS_PER_MIN: i64 = 800;
pub const ACCIDENT_HORIZON_MIN: i64 = 10;
const SEG_FEET: i64 = 5_280;

/// Operations per unit, by kind. They add up to [`OPS_PER_UNIT`]; one
/// `congestion_summary` rides on top.
pub const MIX: [(&str, usize); 10] = [
    ("cars_in_segment", 5_000),
    ("lav", 6_000),
    ("accident_nearby", 3_000),
    ("write_segment_cars", 2_400),
    ("write_minute_speed", 2_400),
    ("insert_accident", 800),
    ("update_where_cars", 150),
    ("delete_where_speeds", 100),
    ("delete_where_cars", 100),
    ("delete_where_accidents", 50),
];
pub const OPS_PER_UNIT: usize = 20_000;
/// The set-up is timed once more before every so many units.
const RELOAD_EVERY: usize = 3;
type SegMinute = (i64, i64, i64, i64);

#[derive(Debug, Clone, Copy)]
pub enum Op {
    CarsInSegment(SegMinute),
    Lav(SegMinute),
    /// `(xway, dir, seg, time)`
    AccidentNearby(SegMinute),
    WriteCars(SegMinute, i64),
    WriteSpeed(SegMinute, f64),
    /// `(xway, dir, pos, time)`
    InsertAccident(SegMinute),
    /// Zero the counts of a segment's minutes before the cutoff.
    UpdateCars(SegMinute),
    DeleteSpeeds(SegMinute),
    DeleteCars(SegMinute),
    /// `(xway, dir, cutoff time)`
    DeleteAccidents(i64, i64, i64),
    CongestionSummary,
}

impl Op {
    /// Index into [`MIX`] (the summary comes after it).
    fn kind(&self) -> usize {
        match self {
            Op::CarsInSegment(_) => 0,
            Op::Lav(_) => 1,
            Op::AccidentNearby(_) => 2,
            Op::WriteCars(..) => 3,
            Op::WriteSpeed(..) => 4,
            Op::InsertAccident(_) => 5,
            Op::UpdateCars(_) => 6,
            Op::DeleteSpeeds(_) => 7,
            Op::DeleteCars(_) => 8,
            Op::DeleteAccidents(..) => 9,
            Op::CongestionSummary => 10,
        }
    }
}

/// What the store answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    Int(Option<i64>),
    Float(Option<f64>),
    Flag(bool),
    Count(usize),
    /// `(groups, rows)` of the congestion summary.
    Summary(usize, usize),
    Unit,
}

fn seg_pred(x: i64, d: i64, s: i64) -> Expr {
    col("xway")
        .eq(lit(x))
        .and(col("dir").eq(lit(d)))
        .and(col("seg").eq(lit(s)))
}

/// Run one operation against the store.
pub fn apply(store: &StoreHandle, op: &Op) -> Answer {
    let ok = "store operation succeeds";
    match *op {
        Op::CarsInSegment((x, d, s, m)) => {
            Answer::Int(tables::cars_in_segment(store, x, d, s, m).expect(ok))
        }
        Op::Lav((x, d, s, m)) => Answer::Float(tables::lav(store, x, d, s, m).expect(ok)),
        Op::AccidentNearby((x, d, s, t)) => {
            Answer::Int(tables::accident_nearby(store, x, d, s, t).expect(ok))
        }
        Op::WriteCars((x, d, s, m), cars) => {
            tables::write_segment_cars(store, x, d, s, m, cars).expect(ok);
            Answer::Unit
        }
        Op::WriteSpeed((x, d, s, m), v) => {
            tables::write_minute_speed(store, x, d, s, m, v).expect(ok);
            Answer::Unit
        }
        Op::InsertAccident((x, d, pos, t)) => Answer::Flag(
            tables::insert_accident(store, x, d, pos / SEG_FEET, pos, t, 1, 2).expect(ok),
        ),
        Op::UpdateCars((x, d, s, cutoff)) => Answer::Count(
            store
                .write(|st| {
                    st.table_mut("segment_cars").expect(ok).update_where(
                        &seg_pred(x, d, s).and(col("minute").lt(lit(cutoff))),
                        &[("cars", Value::Int(0))],
                    )
                })
                .expect(ok),
        ),
        Op::DeleteSpeeds((x, d, s, cutoff)) => Answer::Count(
            store
                .write(|st| {
                    st.table_mut("minute_speeds")
                        .expect(ok)
                        .delete_where(&seg_pred(x, d, s).and(col("minute").lt(lit(cutoff))))
                })
                .expect(ok),
        ),
        Op::DeleteCars((x, d, s, cutoff)) => Answer::Count(
            store
                .write(|st| {
                    st.table_mut("segment_cars")
                        .expect(ok)
                        .delete_where(&seg_pred(x, d, s).and(col("minute").lt(lit(cutoff))))
                })
                .expect(ok),
        ),
        Op::DeleteAccidents(x, d, cutoff) => Answer::Count(
            store
                .write(|st| {
                    st.table_mut("accidents").expect(ok).delete_where(
                        &col("xway")
                            .eq(lit(x))
                            .and(col("dir").eq(lit(d)))
                            .and(col("time").lt(lit(cutoff))),
                    )
                })
                .expect(ok),
        ),
        Op::CongestionSummary => {
            let groups = tables::congestion_summary(store).expect(ok);
            let rows = groups
                .iter()
                .map(|(_, aggs)| aggs[0].as_int().expect("count is an int") as usize)
                .sum();
            Answer::Summary(groups.len(), rows)
        }
    }
}

/// The reference the store is checked against: the same tables as plain
/// std maps, with the same operations written the obvious way.
#[derive(Default)]
pub struct Shadow {
    cars: HashMap<SegMinute, i64>,
    speeds: HashMap<SegMinute, f64>,
    /// `(xway, dir, time, pos) → seg`
    accidents: BTreeMap<SegMinute, i64>,
    /// `(xway, dir, pos) → times`
    by_pos: HashMap<(i64, i64, i64), Vec<i64>>,
}

impl Shadow {
    fn insert_accident(&mut self, x: i64, d: i64, pos: i64, t: i64) {
        self.accidents.insert((x, d, t, pos), pos / SEG_FEET);
        self.by_pos.entry((x, d, pos)).or_default().push(t);
    }

    /// Whether `got` is a right answer to `op`; applies the op's effect.
    pub fn check(&mut self, op: &Op, got: &Answer) -> bool {
        match (*op, *got) {
            (Op::CarsInSegment(k), Answer::Int(v)) => self.cars.get(&k).copied() == v,
            (Op::Lav((x, d, s, m)), Answer::Float(v)) => {
                let window: Vec<f64> = (m - 5..m)
                    .filter_map(|mm| self.speeds.get(&(x, d, s, mm)).copied())
                    .collect();
                match (window.is_empty(), v) {
                    (true, None) => true,
                    (false, Some(v)) => {
                        let want = window.iter().sum::<f64>() / window.len() as f64;
                        (want - v).abs() <= 1e-9 * want.abs().max(1.0)
                    }
                    _ => false,
                }
            }
            (Op::AccidentNearby((x, d, s, t)), Answer::Int(v)) => {
                let mut in_range = self
                    .accidents
                    .range((x, d, t - 120, i64::MIN)..(x, d, i64::MAX, i64::MAX))
                    .map(|(_, &seg)| seg)
                    .filter(|&seg| (s - 4..=s + 4).contains(&seg) && accident_in_range(d, s, seg));
                match v {
                    Some(seg) => in_range.any(|a| a == seg),
                    None => in_range.next().is_none(),
                }
            }
            (Op::WriteCars(k, cars), Answer::Unit) => {
                self.cars.insert(k, cars);
                true
            }
            (Op::WriteSpeed(k, v), Answer::Unit) => {
                self.speeds.insert(k, v);
                true
            }
            (Op::InsertAccident((x, d, pos, t)), Answer::Flag(inserted)) => {
                let open = self
                    .by_pos
                    .get(&(x, d, pos))
                    .is_some_and(|times| times.iter().any(|&at| at > t - 300));
                if !open {
                    self.insert_accident(x, d, pos, t);
                }
                inserted != open
            }
            (Op::UpdateCars((x, d, s, cutoff)), Answer::Count(n)) => {
                let mut hit = 0;
                for m in 0..cutoff {
                    if let Some(c) = self.cars.get_mut(&(x, d, s, m)) {
                        *c = 0;
                        hit += 1;
                    }
                }
                hit == n
            }
            (Op::DeleteSpeeds((x, d, s, cutoff)), Answer::Count(n)) => {
                let hit = (0..cutoff)
                    .filter(|&m| self.speeds.remove(&(x, d, s, m)).is_some())
                    .count();
                hit == n
            }
            (Op::DeleteCars((x, d, s, cutoff)), Answer::Count(n)) => {
                let hit = (0..cutoff)
                    .filter(|&m| self.cars.remove(&(x, d, s, m)).is_some())
                    .count();
                hit == n
            }
            (Op::DeleteAccidents(x, d, cutoff), Answer::Count(n)) => {
                let doomed: Vec<SegMinute> = self
                    .accidents
                    .range((x, d, i64::MIN, i64::MIN)..(x, d, cutoff, i64::MIN))
                    .map(|(k, _)| *k)
                    .collect();
                for k in &doomed {
                    self.accidents.remove(k);
                    if let Some(times) = self.by_pos.get_mut(&(k.0, k.1, k.3)) {
                        times.retain(|&t| t != k.2);
                    }
                }
                doomed.len() == n
            }
            (Op::CongestionSummary, Answer::Summary(groups, rows)) => {
                let mut segs: Vec<(i64, i64, i64)> =
                    self.cars.keys().map(|k| (k.0, k.1, k.2)).collect();
                segs.sort_unstable();
                segs.dedup();
                groups == segs.len() && rows == self.cars.len()
            }
            _ => false,
        }
    }

    pub fn rows(&self) -> usize {
        self.cars.len() + self.speeds.len() + self.accidents.len()
    }
}

fn random_seg(rng: &mut SplitMix) -> (i64, i64, i64) {
    (rng.range(0, XWAYS), rng.range(0, DIRS), rng.range(0, SEGS))
}

/// [`HORIZON_MIN`] minutes of history: one `segment_cars` and one
/// `minute_speeds` row per segment-minute, and the last
/// [`ACCIDENT_HORIZON_MIN`] minutes of accidents (200k rows in all).
pub struct History {
    /// `(segment-minute, cars, speed)`
    segments: Vec<(SegMinute, i64, f64)>,
    /// `(xway, dir, pos, time)`, no two alike.
    accidents: Vec<SegMinute>,
}

impl History {
    pub fn generate(seed: u64) -> History {
        let mut rng = SplitMix(seed ^ 0x9e37_79b9);
        let mut h = History {
            segments: Vec::new(),
            accidents: Vec::new(),
        };
        let mut seen = std::collections::HashSet::new();
        for m in 0..HORIZON_MIN {
            for x in 0..XWAYS {
                for d in 0..DIRS {
                    for s in 0..SEGS {
                        let cars = rng.range(0, 120);
                        let speed = 10.0 + rng.below(600) as f64 / 10.0;
                        h.segments.push(((x, d, s, m), cars, speed));
                    }
                }
            }
            if m < HORIZON_MIN - ACCIDENT_HORIZON_MIN {
                continue;
            }
            for _ in 0..ACCIDENTS_PER_MIN {
                let (x, d, _) = random_seg(&mut rng);
                let pos = rng.range(0, SEGS * SEG_FEET);
                let t = m * 60 + rng.range(0, 60);
                if seen.insert((x, d, pos, t)) {
                    h.accidents.push((x, d, pos, t));
                }
            }
        }
        h
    }

    /// The set-up a user of the store pays: create the tables and their
    /// indexes and insert the history.
    pub fn load(&self) -> StoreHandle {
        let store = StoreHandle::new();
        tables::create_tables(&store).expect("tables create");
        store.write(|st| {
            for &((x, d, s, m), cars, speed) in &self.segments {
                st.table_mut("segment_cars")
                    .expect("table exists")
                    .insert(vec![x.into(), d.into(), s.into(), m.into(), cars.into()])
                    .expect("fresh key");
                st.table_mut("minute_speeds")
                    .expect("table exists")
                    .insert(vec![x.into(), d.into(), s.into(), m.into(), speed.into()])
                    .expect("fresh key");
            }
            for &(x, d, pos, t) in &self.accidents {
                st.table_mut("accidents")
                    .expect("table exists")
                    .insert(vec![
                        x.into(),
                        d.into(),
                        (pos / SEG_FEET).into(),
                        pos.into(),
                        t.into(),
                        1i64.into(),
                        2i64.into(),
                    ])
                    .expect("fresh key");
            }
        });
        store
    }

    /// The same history as std maps.
    pub fn shadow(&self) -> Shadow {
        let mut shadow = Shadow::default();
        for &(k, cars, speed) in &self.segments {
            shadow.cars.insert(k, cars);
            shadow.speeds.insert(k, speed);
        }
        for &(x, d, pos, t) in &self.accidents {
            shadow.insert_accident(x, d, pos, t);
        }
        shadow
    }
}

/// The operations of unit `unit`: minute `HORIZON_MIN + unit` of the
/// stream, shuffled. Depends on the seed and the unit index only.
pub fn unit_ops(seed: u64, unit: usize) -> Vec<Op> {
    let mut rng = SplitMix(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (unit as u64 + 1));
    let now = HORIZON_MIN + unit as i64;
    let cutoff = now - HORIZON_MIN;
    let mut ops: Vec<Op> = Vec::with_capacity(OPS_PER_UNIT + 1);
    let recent = |rng: &mut SplitMix| now - rng.range(0, 10);
    for &(kind, n) in &MIX {
        for i in 0..n {
            let (x, d, s) = random_seg(&mut rng);
            ops.push(match kind {
                "cars_in_segment" => Op::CarsInSegment((x, d, s, recent(&mut rng))),
                "lav" => Op::Lav((x, d, s, recent(&mut rng))),
                "accident_nearby" => Op::AccidentNearby((x, d, s, now * 60 - rng.range(0, 600))),
                "write_segment_cars" | "write_minute_speed" => {
                    // A third of the writes open the new minute, one row per
                    // segment; the rest revise the last five minutes.
                    let per_minute = (XWAYS * DIRS * SEGS) as usize;
                    let key = if i < per_minute {
                        let i = i as i64;
                        (i / (DIRS * SEGS), i / SEGS % DIRS, i % SEGS, now)
                    } else {
                        (x, d, s, now - rng.range(1, 6))
                    };
                    if kind == "write_segment_cars" {
                        Op::WriteCars(key, rng.range(0, 120))
                    } else {
                        Op::WriteSpeed(key, 10.0 + rng.below(600) as f64 / 10.0)
                    }
                }
                "insert_accident" => Op::InsertAccident((
                    x,
                    d,
                    rng.range(0, SEGS * SEG_FEET),
                    now * 60 + rng.range(0, 60),
                )),
                "update_where_cars" => Op::UpdateCars((x, d, s, cutoff + 8)),
                "delete_where_speeds" => Op::DeleteSpeeds((x, d, s, cutoff)),
                "delete_where_cars" => Op::DeleteCars((x, d, s, cutoff)),
                "delete_where_accidents" => {
                    Op::DeleteAccidents(x, d, (now - ACCIDENT_HORIZON_MIN) * 60)
                }
                other => unreachable!("unknown op kind {other}"),
            });
        }
    }
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ops.push(Op::CongestionSummary);
    ops
}

/// Fingerprint of a unit's answers, for the DETAIL line.
fn answers_hash(answers: &[Answer]) -> u64 {
    fnv1a(answers.iter().flat_map(|a| {
        let word: u64 = match *a {
            Answer::Int(v) => v.map_or(u64::MAX, |v| v as u64),
            Answer::Float(v) => v.map_or(u64::MAX, f64::to_bits),
            Answer::Flag(b) => u64::from(b),
            Answer::Count(n) => n as u64,
            Answer::Summary(g, r) => (g as u64) << 32 | r as u64,
            Answer::Unit => 0,
        };
        word.to_le_bytes()
    }))
}

/// Run the ops; with `spans`, stamp each one.
fn execute(
    store: &StoreHandle,
    ops: &[Op],
    spans: Option<(&Instant, &mut Vec<Span>)>,
) -> Vec<Answer> {
    let mut answers = Vec::with_capacity(ops.len());
    match spans {
        None => {
            for op in ops {
                answers.push(apply(store, op));
            }
        }
        Some((epoch, spans)) => {
            for op in ops {
                let start_ns = epoch.elapsed().as_nanos() as u64;
                answers.push(apply(store, op));
                spans.push(Span {
                    actor: op.kind() as u32,
                    start_ns,
                    end_ns: epoch.elapsed().as_nanos() as u64,
                    wave_origin_us: u64::MAX,
                    events_in: 1,
                    tokens_out: 1,
                });
            }
        }
    }
    answers
}

/// Count wrong answers, advancing the shadow.
fn verify(shadow: &mut Shadow, ops: &[Op], answers: &[Answer]) -> u64 {
    ops.iter()
        .zip(answers)
        .filter(|(op, got)| !shadow.check(op, got))
        .count() as u64
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        ops_per_unit: (OPS_PER_UNIT + 1) as f64,
        ..Outcome::default()
    };
    // Set-up is the whole create-tables + insert + index pass.
    let history = History::generate(cfg.seed);
    let (batch, store) = SetupBatch::time(1, || history.load());
    out.setups.push(batch);
    let mut shadow = history.shadow();
    out.note("rows_prefilled", shadow.rows());

    let mut unit = 0usize;
    let mut next_unit = |shadow: &mut Shadow, out: &mut Outcome, traced: Option<&mut Vec<Span>>| {
        let ops = unit_ops(cfg.seed, unit);
        unit += 1;
        let epoch = Instant::now();
        let (answers, timing) = timed(|| execute(&store, &ops, traced.map(|s| (&epoch, s))));
        out.attempted += ops.len() as u64;
        out.failed += verify(shadow, &ops, &answers);
        (timing, answers)
    };
    // Warm-up unit; its answers are the fingerprint in DETAIL.
    let (_, answers) = next_unit(&mut shadow, &mut out, None);
    out.note("reference_hash", format!("{:016x}", answers_hash(&answers)));

    let mut first_spans: Option<Vec<Span>> = None;
    for i in 0..cfg.units {
        if i % RELOAD_EVERY == RELOAD_EVERY - 1 {
            // Timed again into a store of its own, dropped before the next
            // unit starts: spread over the run, so that the median does not
            // sit in one phase of the machine.
            let (batch, spare) = SetupBatch::time(1, || history.load());
            out.setups.push(batch);
            drop(spare);
            sys::release_freed_memory();
        }
        let ((timing, _), peak_mb) = with_peak_rss(|| next_unit(&mut shadow, &mut out, None));
        out.unit_peak_rss_mb.push(peak_mb);
        out.units.push(timing);
        if cfg.trace {
            let mut spans = Vec::with_capacity(OPS_PER_UNIT + 1);
            let (traced, _) = next_unit(&mut shadow, &mut out, Some(&mut spans));
            out.trace_pairs.push((timing.wall_s, traced.wall_s));
            first_spans.get_or_insert(spans);
        }
    }
    out.note("rows_at_end", shadow.rows());
    if cfg.trace {
        let ops = unit_ops(cfg.seed, unit);
        let (answers, allocs, bytes) = count_allocs(|| execute(&store, &ops, None));
        out.attempted += ops.len() as u64;
        out.failed += verify(&mut shadow, &ops, &answers);
        out.alloc_layers(allocs, bytes, ops.len());
        if let Some(spans) = first_spans {
            let path = cfg.out_dir.join("relstore_mix.trace.json");
            // Track names in `Op::kind` order: the mix, then the summary.
            let names: Vec<String> = MIX
                .iter()
                .map(|(name, _)| name.to_string())
                .chain(["congestion_summary".to_string()])
                .collect();
            match write_chrome_json(&path, &names, &spans) {
                Ok(()) => out.note("span_file", path.display()),
                Err(e) => out.note("span_file_error", e),
            }
            out.note("spans_written", spans.len());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_adds_up_and_keeps_its_shares() {
        let total: usize = MIX.iter().map(|(_, n)| n).sum();
        assert_eq!(total, OPS_PER_UNIT);
        let share = |name: &str| {
            MIX.iter().find(|(n, _)| *n == name).expect("kind").1 as f64 / total as f64
        };
        assert_eq!(share("cars_in_segment"), 0.25);
        assert_eq!(share("lav"), 0.30);
        assert_eq!(share("accident_nearby"), 0.15);
        assert_eq!(share("write_segment_cars"), 0.12);
        assert_eq!(share("write_minute_speed"), 0.12);
        assert_eq!(share("insert_accident"), 0.04);
        let expiry: f64 = MIX
            .iter()
            .filter(|(n, _)| n.contains("_where_"))
            .map(|(n, _)| share(n))
            .sum();
        assert!((expiry - 0.02).abs() < 1e-12);
    }

    #[test]
    fn unit_ops_follow_the_mix_and_the_seed() {
        let ops = unit_ops(3, 0);
        assert_eq!(ops.len(), OPS_PER_UNIT + 1);
        let mut counts = [0usize; 11];
        for op in &ops {
            counts[op.kind()] += 1;
        }
        for (k, (_, n)) in MIX.iter().enumerate() {
            assert_eq!(counts[k], *n, "{}", MIX[k].0);
        }
        assert_eq!(counts[10], 1, "one congestion summary per unit");
        let again = unit_ops(3, 0);
        assert_eq!(format!("{ops:?}"), format!("{again:?}"));
        assert_ne!(format!("{ops:?}"), format!("{:?}", unit_ops(4, 0)));
        assert_ne!(format!("{ops:?}"), format!("{:?}", unit_ops(3, 1)));
    }

    #[test]
    fn shadow_rejects_a_wrong_answer() {
        let mut shadow = Shadow::default();
        let key = (0, 0, 5, 7);
        assert!(shadow.check(&Op::WriteCars(key, 42), &Answer::Unit));
        assert!(shadow.check(&Op::CarsInSegment(key), &Answer::Int(Some(42))));
        assert!(!shadow.check(&Op::CarsInSegment(key), &Answer::Int(Some(41))));
        assert!(!shadow.check(&Op::CarsInSegment(key), &Answer::Int(None)));
        assert!(!shadow.check(&Op::CarsInSegment(key), &Answer::Flag(true)));
        assert!(shadow.check(&Op::DeleteCars((0, 0, 5, 8)), &Answer::Count(1)));
        assert!(shadow.check(&Op::CarsInSegment(key), &Answer::Int(None)));
    }
}
