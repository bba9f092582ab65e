//! Wave-lineage tracing: causal spans, a flight recorder, and trace
//! exports.
//!
//! The engine's defining construct is the *wave* — the lineage tree of
//! events rooted at one external arrival, carried as hierarchical
//! wave-tags (`t1000.3.1`). The aggregate telemetry of
//! [`MetricsRecorder`](crate::telemetry::MetricsRecorder) tells you
//! *that* p95 latency moved; this module tells you *where* a wave spent
//! its time. A [`Tracer`] is an [`Observer`]
//! subscribing to the fine-grained hook surface (`on_admit`,
//! `on_enqueue`, `on_dequeue`, `on_fire_end`, `on_block`) and
//! reconstructing, per traced wave, a span list covering every stage an
//! event passes through: admission, per-port queue residence, window
//! formation + queue wait, firing service time, and block waits.
//!
//! Cost is bounded two ways:
//!
//! * **Head-based sampling** — the sampling decision is taken once per
//!   *root wave* ([`TraceConfig::sample_every`]: trace 1-in-N roots); all
//!   descendants of an unsampled root are dropped at the hook boundary,
//!   so cost is O(sampled), not O(events).
//! * **A bounded flight recorder** — spans live in a capacity-bounded
//!   buffer ([`TraceConfig::max_spans`]) evicting *whole waves*,
//!   oldest-origin first, so a long run keeps the most recent complete
//!   traces and never tears a wave in half.
//!
//! A disabled tracer (`sample_every == 0`) reports
//! `wants_event_hooks() == false`, which switches the per-event hook
//! calls off inside the fabric entirely — the recorder can stay attached
//! in production. The flight recorder itself is a single mutex-guarded
//! map (not lock-free): it is touched only for sampled waves, which the
//! sampler keeps rare.

mod export;
mod span;

pub use export::{CpSegment, CriticalPath, TraceReport};
pub use span::{Span, SpanKind, WaveTrace};

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::graph::{ActorId, Workflow};
use crate::telemetry::{FireRecord, Observer};
use crate::time::{Micros, Timestamp};
use crate::wave::WaveTag;

/// Tracer knobs.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Trace one in this many root waves (1 = every wave, 0 = tracing
    /// off). The first root is always sampled.
    pub sample_every: u64,
    /// Flight-recorder capacity in spans. When exceeded, whole waves are
    /// evicted oldest-origin first (at least one wave is always kept).
    pub max_spans: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 1,
            max_spans: 65_536,
        }
    }
}

impl TraceConfig {
    /// Sample 1-in-`n` root waves.
    pub fn sampled(n: u64) -> Self {
        TraceConfig {
            sample_every: n,
            ..TraceConfig::default()
        }
    }
}

#[derive(Default)]
struct TracerState {
    /// The flight recorder: origin µs → trace, holding exactly the
    /// sampled waves not yet evicted. A `BTreeMap` so eviction pops the
    /// smallest key — the oldest wave — first.
    waves: BTreeMap<u64, WaveTrace>,
    /// Total spans across `waves` (eviction trigger).
    spans_total: usize,
    /// The most recent root sampling decision, so the burst of admits
    /// one source firing produces is decided once.
    last_decided: Option<(u64, bool)>,
    /// Largest evicted origin: anything at or below arrived too long ago
    /// to trace coherently and is dropped outright.
    evicted_floor: Option<u64>,
    /// Block waits reported but not yet attached to the admission that
    /// follows them, keyed by (actor, port).
    pending_block: HashMap<(usize, usize), (Timestamp, Micros)>,
    sampled_roots: u64,
    evicted_waves: u64,
    dropped_spans: u64,
}

/// The wave-lineage tracer: an [`Observer`] reconstructing per-wave span
/// traces from the fine-grained hook stream. Attach via
/// [`Engine::with_tracer`](crate::engine::Engine::with_tracer) (or any
/// director's telemetry), run, then call [`Tracer::report`].
pub struct Tracer {
    config: TraceConfig,
    actor_names: Vec<String>,
    roots_seen: AtomicU64,
    state: Mutex<TracerState>,
}

impl Tracer {
    /// A tracer with the given knobs and no actor names (exports fall
    /// back to `actor N` labels).
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            config,
            actor_names: Vec::new(),
            roots_seen: AtomicU64::new(0),
            state: Mutex::new(TracerState::default()),
        }
    }

    /// A tracer that labels spans with `workflow`'s actor names.
    pub fn for_workflow(workflow: &Workflow, config: TraceConfig) -> Self {
        let mut tracer = Tracer::new(config);
        tracer.actor_names = workflow
            .actor_ids()
            .map(|id| workflow.node(id).name.clone())
            .collect();
        tracer
    }

    /// Whether tracing is on at all.
    pub fn enabled(&self) -> bool {
        self.config.sample_every > 0
    }

    /// Root waves observed so far (sampled or not).
    pub fn roots_seen(&self) -> u64 {
        self.roots_seen.load(Ordering::Relaxed)
    }

    /// Snapshot the flight recorder into a [`TraceReport`].
    pub fn report(&self) -> TraceReport {
        let st = self.state.lock();
        TraceReport {
            waves: st.waves.values().cloned().collect(),
            roots_seen: self.roots_seen.load(Ordering::Relaxed),
            sampled_roots: st.sampled_roots,
            evicted_waves: st.evicted_waves,
            dropped_spans: st.dropped_spans,
            actor_names: self.actor_names.clone(),
        }
    }

    fn past_floor(st: &TracerState, key: u64) -> bool {
        st.evicted_floor.is_some_and(|floor| key <= floor)
    }

    /// Append `span` to the wave keyed `key`, evicting oldest waves when
    /// the recorder overflows. `root` allows creating the wave entry.
    fn push_span(&self, st: &mut TracerState, key: u64, origin: Timestamp, span: Span, root: bool) {
        if !root && !st.waves.contains_key(&key) {
            if Self::past_floor(st, key) {
                st.dropped_spans += 1;
            }
            return;
        }
        if Self::past_floor(st, key) {
            st.dropped_spans += 1;
            return;
        }
        let wave = st.waves.entry(key).or_insert_with(|| WaveTrace {
            origin,
            spans: Vec::new(),
        });
        wave.spans.push(span);
        st.spans_total += 1;
        while st.spans_total > self.config.max_spans && st.waves.len() > 1 {
            if let Some((evicted_key, evicted)) = st.waves.pop_first() {
                st.spans_total -= evicted.spans.len();
                st.evicted_waves += 1;
                st.evicted_floor = Some(
                    st.evicted_floor
                        .map_or(evicted_key, |floor| floor.max(evicted_key)),
                );
            }
        }
    }
}

impl Observer for Tracer {
    fn wants_event_hooks(&self) -> bool {
        self.enabled()
    }

    fn on_admit(&self, from: ActorId, wave: &WaveTag, at: Timestamp) {
        if !self.enabled() {
            return;
        }
        let key = wave.origin().as_micros();
        let mut st = self.state.lock();
        if Self::past_floor(&st, key) {
            st.dropped_spans += 1;
            return;
        }
        let keep = if st.waves.contains_key(&key) {
            true
        } else if let Some((k, decision)) = st.last_decided {
            if k == key {
                decision
            } else {
                self.decide(&mut st, key)
            }
        } else {
            self.decide(&mut st, key)
        };
        if !keep {
            return;
        }
        self.push_span(
            &mut st,
            key,
            wave.origin(),
            Span {
                kind: SpanKind::Admit,
                actor: from,
                port: None,
                tag: Some(wave.clone()),
                start: at,
                end: at,
                events: 1,
                fired: false,
            },
            true,
        );
    }

    fn on_enqueue(&self, actor: ActorId, port: usize, wave: &WaveTag, at: Timestamp) {
        if !self.enabled() {
            return;
        }
        let key = wave.origin().as_micros();
        let mut st = self.state.lock();
        // A block wait reported for this port just before the admission
        // belongs to the admitted event's wave (consumed either way, so a
        // stale wait is never attributed to a much later wave).
        let pending = st.pending_block.remove(&(actor.0, port));
        if !st.waves.contains_key(&key) {
            return;
        }
        if let Some((block_at, waited)) = pending {
            self.push_span(
                &mut st,
                key,
                wave.origin(),
                Span {
                    kind: SpanKind::Block,
                    actor,
                    port: Some(port),
                    tag: Some(wave.clone()),
                    start: Timestamp(block_at.as_micros().saturating_sub(waited.as_micros())),
                    end: block_at,
                    events: 1,
                    fired: false,
                },
                false,
            );
        }
        self.push_span(
            &mut st,
            key,
            wave.origin(),
            Span {
                kind: SpanKind::Enqueue,
                actor,
                port: Some(port),
                tag: Some(wave.clone()),
                start: at,
                end: at,
                events: 1,
                fired: false,
            },
            false,
        );
    }

    fn on_dequeue(
        &self,
        actor: ActorId,
        port: usize,
        wave: Option<&WaveTag>,
        formed_at: Timestamp,
        at: Timestamp,
    ) {
        if !self.enabled() {
            return;
        }
        let Some(wave) = wave else { return };
        let key = wave.origin().as_micros();
        let mut st = self.state.lock();
        self.push_span(
            &mut st,
            key,
            wave.origin(),
            Span {
                kind: SpanKind::Dequeue,
                actor,
                port: Some(port),
                tag: Some(wave.clone()),
                start: formed_at,
                end: at,
                events: 1,
                fired: false,
            },
            false,
        );
    }

    fn on_fire_end(&self, record: &FireRecord) {
        if !self.enabled() {
            return;
        }
        let Some(trigger) = &record.trigger else {
            return;
        };
        let key = trigger.origin().as_micros();
        let mut st = self.state.lock();
        self.push_span(
            &mut st,
            key,
            trigger.origin(),
            Span {
                kind: SpanKind::Fire,
                actor: record.actor,
                port: None,
                tag: Some(trigger.clone()),
                start: record.started,
                end: record.ended,
                events: record.events_in,
                fired: record.fired,
            },
            false,
        );
    }

    fn on_block(&self, actor: ActorId, port: usize, waited: Micros, at: Timestamp) {
        if !self.enabled() || waited == Micros::ZERO {
            return;
        }
        let mut st = self.state.lock();
        st.pending_block.insert((actor.0, port), (at, waited));
    }
}

impl Tracer {
    /// Take (and record) the sampling decision for a freshly-seen root.
    fn decide(&self, st: &mut TracerState, key: u64) -> bool {
        let n = self.roots_seen.fetch_add(1, Ordering::Relaxed);
        let keep = n.is_multiple_of(self.config.sample_every);
        st.last_decided = Some((key, keep));
        if keep {
            st.sampled_roots += 1;
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(t: &Tracer, src: usize, origin: u64) -> WaveTag {
        let tag = WaveTag::external(Timestamp(origin));
        t.on_admit(ActorId(src), &tag, Timestamp(origin));
        tag
    }

    /// Simulate one hop: enqueue the event at `actor`, dequeue it, fire.
    fn hop(t: &Tracer, actor: usize, tag: &WaveTag, start: u64, service: u64) -> u64 {
        t.on_enqueue(ActorId(actor), 0, tag, Timestamp(start));
        t.on_dequeue(ActorId(actor), 0, Some(tag), Timestamp(start), Timestamp(start + 1));
        let end = start + 1 + service;
        t.on_fire_end(&FireRecord {
            actor: ActorId(actor),
            started: Timestamp(start + 1),
            ended: Timestamp(end),
            busy: Micros(service),
            events_in: 1,
            tokens_out: 1,
            origin: Some(tag.origin()),
            trigger: Some(tag.clone()),
            fired: true,
        });
        end
    }

    #[test]
    fn samples_one_in_n_roots_with_full_lineage() {
        let t = Tracer::new(TraceConfig::sampled(3));
        for i in 0..9u64 {
            let origin = 1_000 * (i + 1);
            let root = admit(&t, 0, origin);
            let end = hop(&t, 1, &root, origin + 10, 5);
            hop(&t, 2, &root.child(1, true), end + 10, 5);
        }
        let report = t.report();
        assert_eq!(report.roots_seen, 9);
        assert_eq!(report.sampled_roots, 3);
        assert_eq!(report.waves.len(), 3);
        // Sampled waves are the 1st, 4th, and 7th roots, each complete.
        let origins: Vec<u64> = report.waves.iter().map(|w| w.origin.as_micros()).collect();
        assert_eq!(origins, vec![1_000, 4_000, 7_000]);
        for wave in &report.waves {
            let kinds: Vec<&str> = wave.spans.iter().map(|s| s.kind.label()).collect();
            assert_eq!(
                kinds,
                vec![
                    "admit", "enqueue", "dequeue", "fire", "enqueue", "dequeue", "fire"
                ],
                "full lineage for wave {}",
                wave.origin.as_micros()
            );
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_declines_event_hooks() {
        let t = Tracer::new(TraceConfig::sampled(0));
        assert!(!t.wants_event_hooks());
        let root = admit(&t, 0, 50);
        hop(&t, 1, &root, 60, 5);
        let report = t.report();
        assert_eq!(report.roots_seen, 0);
        assert!(report.waves.is_empty());
    }

    #[test]
    fn flight_recorder_evicts_oldest_wave_whole() {
        // Each wave below records 7 spans.
        let t = Tracer::new(TraceConfig {
            max_spans: 10,
            ..TraceConfig::default()
        });
        for i in 0..3u64 {
            let origin = 1_000 * (i + 1);
            let root = admit(&t, 0, origin);
            let end = hop(&t, 1, &root, origin + 10, 5);
            hop(&t, 2, &root.child(1, true), end + 10, 5);
        }
        let report = t.report();
        // Only the newest wave fits; the two older ones were evicted as
        // complete units — no partial waves survive.
        assert_eq!(report.evicted_waves, 2);
        assert_eq!(report.waves.len(), 1);
        assert_eq!(report.waves[0].origin, Timestamp(3_000));
        assert_eq!(report.waves[0].spans.len(), 7, "newest wave is untorn");
    }

    #[test]
    fn late_spans_for_evicted_waves_are_dropped() {
        let t = Tracer::new(TraceConfig {
            max_spans: 8,
            ..TraceConfig::default()
        });
        let w1 = admit(&t, 0, 1_000);
        hop(&t, 1, &w1, 1_010, 5);
        let w2 = admit(&t, 0, 2_000);
        let end = hop(&t, 1, &w2, 2_010, 5);
        hop(&t, 2, &w2.child(1, true), end + 10, 5); // overflows: w1 evicted
        // A straggler span of the evicted wave must not resurrect it.
        hop(&t, 2, &w1.child(1, true), 5_000, 5);
        let report = t.report();
        assert_eq!(report.waves.len(), 1);
        assert_eq!(report.waves[0].origin, Timestamp(2_000));
        assert!(report.dropped_spans > 0);
    }

    #[test]
    fn block_wait_attaches_to_the_following_admission() {
        let t = Tracer::new(TraceConfig::default());
        let root = admit(&t, 0, 100);
        t.on_block(ActorId(1), 0, Micros(40), Timestamp(150));
        t.on_enqueue(ActorId(1), 0, &root, Timestamp(150));
        let report = t.report();
        let wave = &report.waves[0];
        let block = wave
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Block)
            .expect("block span recorded");
        assert_eq!(block.start, Timestamp(110));
        assert_eq!(block.end, Timestamp(150));
        assert_eq!(block.tag, Some(root));
    }
}
