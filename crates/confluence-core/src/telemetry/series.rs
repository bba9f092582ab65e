//! Continuous time-series sampling of engine state.
//!
//! A [`TimeSeriesRecorder`] turns the cumulative counters the rest of the
//! telemetry layer exposes into *trajectories*: bounded per-key ring
//! buffers of `(tick, value)` points sampled on the directors' own
//! clocks. Directors offer it a sampling opportunity via
//! [`TimeSeriesRecorder::maybe_sample`] at timer ticks and firing
//! boundaries; the recorder takes at most one sample per
//! configured interval, keyed on *director time* — wall time under the
//! real-time directors, virtual time under the cooperative ones, which
//! makes sampled series deterministic in virtual-time tests.
//!
//! Sampled per tick:
//! * `depth:<actor>` — live inbox depth per actor (weak handles from
//!   [`Observer::on_topology`]);
//! * `fires:<actor>` — cumulative successful firings per actor, read from
//!   the [`MetricsRecorder`]'s own cells (the recorder is the one place a
//!   firing is counted, so sampling adds no per-firing work);
//! * `p95_us` — the current p95 of the recorder's end-to-end latency
//!   sketch;
//! * `worker_busy_us:<w>` — cumulative busy time per pool worker
//!   (pushed by the pool's timer thread on the same cadence).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::graph::ActorId;
use crate::receiver::ActorInbox;
use crate::time::{Micros, Timestamp};

use super::{MetricsRecorder, Observer, TopologySnapshot};

/// Default ring-buffer capacity per series key.
const DEFAULT_CAPACITY: usize = 4096;

/// One sampled point: director time and the value observed there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Director time of the sample, in microseconds.
    pub tick_us: u64,
    /// Sampled value.
    pub value: u64,
}

/// Per-actor sampling handle with its series keys rendered once at
/// topology time — the sampling tick formats nothing.
struct SeriesActor {
    id: ActorId,
    depth_key: String,
    fires_key: String,
    inbox: Weak<ActorInbox>,
}

/// Mutable state behind the sampling lock: the per-key rings and the live
/// topology handles.
#[derive(Default)]
struct SeriesState {
    actors: Vec<SeriesActor>,
    series: BTreeMap<String, VecDeque<SeriesPoint>>,
    /// Director time of the newest completed sample; stale racers (a
    /// thread that won the tick CAS but lost the state lock to a later
    /// tick) are dropped so rings stay tick-ordered.
    last_tick: Option<u64>,
}

impl SeriesState {
    fn push(&mut self, capacity: usize, key: &str, tick_us: u64, value: u64) {
        let point = SeriesPoint { tick_us, value };
        // Allocation-free on the steady state: the key only turns into an
        // owned `String` the first time a series appears, and eviction is
        // an O(1) pop_front (a Vec::remove(0) here would memmove the whole
        // ring on every sample once full, inside the state lock).
        if let Some(ring) = self.series.get_mut(key) {
            if ring.len() >= capacity {
                ring.pop_front();
            }
            ring.push_back(point);
        } else {
            self.series.insert(key.to_string(), VecDeque::from([point]));
        }
    }
}

/// Bounded per-key time series sampled on the director's clock. Cheap to
/// carry: the director-facing gate ([`TimeSeriesRecorder::maybe_sample`]) is a single relaxed load until the
/// interval elapses.
pub struct TimeSeriesRecorder {
    interval_us: u64,
    capacity: usize,
    last_sample_us: AtomicU64,
    /// Source of `fires:<actor>` and `p95_us` at sample time.
    recorder: Arc<MetricsRecorder>,
    state: Mutex<SeriesState>,
}

impl TimeSeriesRecorder {
    /// Series sampling at most once per `interval` of director time, with
    /// fire counts and the latency p95 read from `recorder`.
    pub fn new(interval: Micros, recorder: Arc<MetricsRecorder>) -> Self {
        TimeSeriesRecorder {
            interval_us: interval.as_micros().max(1),
            capacity: DEFAULT_CAPACITY,
            last_sample_us: AtomicU64::new(0),
            recorder,
            state: Mutex::new(SeriesState::default()),
        }
    }

    /// Override the per-key ring capacity (default 4096 points).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// The director time the next sample is due at.
    pub fn next_tick(&self) -> Timestamp {
        Timestamp(self.last_sample_us.load(Ordering::Relaxed).saturating_add(self.interval_us))
    }

    /// Take a sample if at least one interval of director time has passed
    /// since the last one. Returns whether a sample was taken. Safe to
    /// call from any thread at any rate.
    pub fn maybe_sample(&self, now: Timestamp) -> bool {
        let now_us = now.as_micros();
        let last = self.last_sample_us.load(Ordering::Relaxed);
        if last != 0 && now_us < last.saturating_add(self.interval_us) {
            return false;
        }
        // One thread wins the tick; losers skip rather than double-sample.
        if self
            .last_sample_us
            .compare_exchange(last, now_us.max(1), Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.take_sample(now_us);
        true
    }

    fn take_sample(&self, tick_us: u64) {
        // The state lock serializes the whole sample: counter reads and
        // ring pushes happen in one critical section, so per-key series
        // stay tick-ordered and cumulative values stay monotone even
        // when two firing threads win adjacent ticks back to back.
        let mut state = self.state.lock();
        if state.last_tick.is_some_and(|last| tick_us <= last) {
            return;
        }
        state.last_tick = Some(tick_us);
        // Allocation-free tick: keys were rendered at topology time, and
        // the actor list is moved aside while the rings it feeds are
        // borrowed mutably, then moved back.
        let actors = std::mem::take(&mut state.actors);
        for actor in &actors {
            let depth = actor.inbox.upgrade().map(|i| i.len() as u64).unwrap_or(0);
            state.push(self.capacity, &actor.depth_key, tick_us, depth);
            let fired = self.recorder.actor_fires(actor.id);
            state.push(self.capacity, &actor.fires_key, tick_us, fired);
        }
        state.actors = actors;
        let p95 = self.recorder.latency_sketch().quantile(0.95);
        state.push(self.capacity, "p95_us", tick_us, p95);
    }

    /// Append an out-of-band point (the pool's timer thread uses this for
    /// per-worker occupancy on the sampling cadence).
    pub fn record_point(&self, key: &str, tick_us: u64, value: u64) {
        self.state.lock().push(self.capacity, key, tick_us, value);
    }

    /// All series keys currently held, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.state.lock().series.keys().cloned().collect()
    }

    /// The sampled points for `key`, oldest first (empty if unknown).
    pub fn series(&self, key: &str) -> Vec<SeriesPoint> {
        self.state
            .lock()
            .series
            .get(key)
            .map(|ring| ring.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Render one series as `tick_us,value` CSV (with header). Unknown
    /// keys yield just the header.
    pub fn to_csv(&self, key: &str) -> String {
        let mut out = String::from("tick_us,value\n");
        for p in self.series(key) {
            out.push_str(&format!("{},{}\n", p.tick_us, p.value));
        }
        out
    }

    /// Render every series as `tick_us,key,value` CSV, keys in sorted
    /// order.
    pub fn to_csv_all(&self) -> String {
        let state = self.state.lock();
        let mut out = String::from("tick_us,key,value\n");
        for (key, ring) in &state.series {
            for p in ring {
                out.push_str(&format!("{},{},{}\n", p.tick_us, key, p.value));
            }
        }
        out
    }
}

impl Observer for TimeSeriesRecorder {
    fn on_topology(&self, topology: &TopologySnapshot) {
        let actors = topology
            .actors
            .iter()
            .map(|a| SeriesActor {
                id: a.id,
                depth_key: format!("depth:{}", a.name),
                fires_key: format!("fires:{}", a.name),
                inbox: a.inbox.clone(),
            })
            .collect();
        self.state.lock().actors = actors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{ActorTopology, FireRecord};

    fn recorder() -> Arc<MetricsRecorder> {
        Arc::new(MetricsRecorder::with_names(
            vec!["src".into(), "sink".into()],
            vec![false, true],
        ))
    }

    fn topo_of(names: &[&str]) -> TopologySnapshot {
        TopologySnapshot {
            actors: names
                .iter()
                .enumerate()
                .map(|(i, n)| ActorTopology {
                    id: ActorId(i),
                    name: n.to_string(),
                    ports: 1,
                    inbox: Weak::<ActorInbox>::new(),
                })
                .collect(),
        }
    }

    fn fire(actor: usize, at: u64) -> FireRecord {
        FireRecord {
            actor: ActorId(actor),
            started: Timestamp(at),
            ended: Timestamp(at),
            busy: Micros(1),
            events_in: 1,
            tokens_out: 1,
            origin: None,
            trigger: None,
            fired: true,
        }
    }

    #[test]
    fn samples_are_gated_on_the_interval() {
        let r = TimeSeriesRecorder::new(Micros(100), recorder());
        r.on_topology(&topo_of(&["a"]));
        assert!(r.maybe_sample(Timestamp(10)));
        assert!(!r.maybe_sample(Timestamp(50)), "within the interval");
        assert!(!r.maybe_sample(Timestamp(109)));
        assert!(r.maybe_sample(Timestamp(110)));
        assert_eq!(
            r.series("depth:a")
                .iter()
                .map(|p| p.tick_us)
                .collect::<Vec<_>>(),
            vec![10, 110]
        );
    }

    #[test]
    fn fires_accumulate_and_sample_cumulatively() {
        let rec = recorder();
        let r = TimeSeriesRecorder::new(Micros(10), rec.clone());
        r.on_topology(&topo_of(&["src", "sink"]));
        rec.on_fire_end(&fire(0, 1));
        rec.on_fire_end(&fire(0, 2));
        rec.on_fire_end(&fire(1, 3));
        r.maybe_sample(Timestamp(5));
        rec.on_fire_end(&fire(0, 12));
        r.maybe_sample(Timestamp(20));
        let src: Vec<u64> = r.series("fires:src").iter().map(|p| p.value).collect();
        assert_eq!(src, vec![2, 3]);
        let sink: Vec<u64> = r.series("fires:sink").iter().map(|p| p.value).collect();
        assert_eq!(sink, vec![1, 1]);
    }

    #[test]
    fn p95_rides_the_attached_sketch() {
        let rec = recorder();
        let r = TimeSeriesRecorder::new(Micros(1), rec.clone());
        r.on_topology(&topo_of(&[]));
        let sketch = rec.latency_sketch();
        for v in [100u64, 200, 300] {
            sketch.record(Micros(v));
        }
        r.maybe_sample(Timestamp(7));
        let p95 = r.series("p95_us");
        assert_eq!(p95.len(), 1);
        assert_eq!(p95[0].value, sketch.quantile(0.95));
    }

    #[test]
    fn rings_are_bounded() {
        let r = TimeSeriesRecorder::new(Micros(1), recorder()).with_capacity(3);
        r.on_topology(&topo_of(&["a"]));
        for t in 1..=10u64 {
            r.maybe_sample(Timestamp(t));
        }
        let pts = r.series("depth:a");
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].tick_us, 8);
        assert_eq!(pts[2].tick_us, 10);
    }

    #[test]
    fn csv_exports_are_stable() {
        let r = TimeSeriesRecorder::new(Micros(1), recorder());
        r.on_topology(&topo_of(&["a"]));
        r.maybe_sample(Timestamp(3));
        r.record_point("worker_busy_us:0", 3, 77);
        assert_eq!(r.to_csv("worker_busy_us:0"), "tick_us,value\n3,77\n");
        let all = r.to_csv_all();
        assert!(all.starts_with("tick_us,key,value\n"));
        assert!(all.contains("3,depth:a,0\n"));
        assert!(all.contains("3,fires:a,0\n"));
        assert!(all.contains("3,worker_busy_us:0,77\n"));
        assert_eq!(r.keys(), vec!["depth:a", "fires:a", "p95_us", "worker_busy_us:0"]);
    }
}
