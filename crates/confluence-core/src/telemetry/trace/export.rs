//! Trace exports: Chrome/Perfetto JSON and per-wave critical paths.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::graph::ActorId;
use crate::time::{Micros, Timestamp};
use crate::wave::WaveTag;

use super::super::json;
use super::span::{Span, SpanKind, WaveTrace};

/// A point-in-time snapshot of a [`Tracer`](super::Tracer)'s flight
/// recorder, with the exports hanging off it.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Recorded waves, oldest origin first.
    pub waves: Vec<WaveTrace>,
    /// Root waves observed (sampled or not).
    pub roots_seen: u64,
    /// Root waves the sampler kept.
    pub sampled_roots: u64,
    /// Waves evicted whole from the flight recorder.
    pub evicted_waves: u64,
    /// Spans dropped because their wave had already been evicted.
    pub dropped_spans: u64,
    /// Actor names for display (empty → `actor N` fallbacks).
    pub actor_names: Vec<String>,
}

/// One hop segment of a wave's critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpSegment {
    /// `"route"`, `"wait"`, or `"service"`.
    pub stage: &'static str,
    /// The actor the segment is charged to.
    pub actor: ActorId,
    /// Segment duration.
    pub duration: Micros,
}

/// The causal chain from a wave's admission to its final firing,
/// decomposed into telescoping route / wait / service segments whose sum
/// equals the wave's end-to-end latency.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The wave's origin timestamp.
    pub origin: Timestamp,
    /// Sum of all segments (== admission → final firing end).
    pub total: Micros,
    /// Segments in causal order, root first.
    pub segments: Vec<CpSegment>,
    /// The stage kind with the largest summed duration.
    pub dominant: &'static str,
}

impl CriticalPath {
    /// Total duration charged to one stage kind.
    pub fn stage_total(&self, stage: &str) -> Micros {
        Micros(
            self.segments
                .iter()
                .filter(|s| s.stage == stage)
                .map(|s| s.duration.as_micros())
                .sum(),
        )
    }
}

impl TraceReport {
    fn actor_label(&self, actor: ActorId) -> String {
        self.actor_names
            .get(actor.0)
            .cloned()
            .unwrap_or_else(|| format!("actor {}", actor.0))
    }

    /// Reconstruct each wave's critical path (waves too torn to walk are
    /// skipped).
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        self.waves.iter().filter_map(critical_path).collect()
    }

    /// Human-readable critical-path summary: per wave, the dominant stage
    /// and the hop-by-hop decomposition.
    pub fn render_critical_paths(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical paths ({} waves recorded, {} roots seen, {} sampled, {} evicted)",
            self.waves.len(),
            self.roots_seen,
            self.sampled_roots,
            self.evicted_waves
        );
        for cp in self.critical_paths() {
            let _ = writeln!(
                out,
                "wave t{}: {} µs end-to-end, dominated by {} ({} µs route / {} µs wait / {} µs service)",
                cp.origin.as_micros(),
                cp.total.as_micros(),
                cp.dominant,
                cp.stage_total("route").as_micros(),
                cp.stage_total("wait").as_micros(),
                cp.stage_total("service").as_micros(),
            );
            for seg in &cp.segments {
                let _ = writeln!(
                    out,
                    "  {:<8} {:<24} {} µs",
                    seg.stage,
                    self.actor_label(seg.actor),
                    seg.duration.as_micros()
                );
            }
        }
        out
    }

    /// Export as Chrome `chrome://tracing` / Perfetto trace-event JSON.
    ///
    /// Each actor gets two tracks: `2*actor` for firings (and admissions)
    /// and `2*actor+1` for queue residence (window wait, block wait).
    /// Every parent→child firing link in a wave's lineage becomes a flow
    /// arrow (`ph:"s"` / `ph:"f"`), so following the arrows follows the
    /// wave tree.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        // Thread-name metadata so tracks are labeled with actor names.
        let mut actors: Vec<usize> = self
            .waves
            .iter()
            .flat_map(|w| w.spans.iter().map(|s| s.actor.0))
            .collect();
        actors.sort_unstable();
        actors.dedup();
        for a in &actors {
            let name = self.actor_label(ActorId(*a));
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                2 * a,
                json::string(&name)
            ));
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                2 * a + 1,
                json::string(&format!("{name} (queue)"))
            ));
        }
        let mut flow_id = 0u64;
        for wave in &self.waves {
            for span in &wave.spans {
                let tag = span
                    .tag
                    .as_ref()
                    .map(|t| t.to_string())
                    .unwrap_or_default();
                let (tid, name) = match span.kind {
                    SpanKind::Fire => (2 * span.actor.0, format!("fire {tag}")),
                    SpanKind::Admit => (2 * span.actor.0, format!("admit {tag}")),
                    SpanKind::Dequeue => (2 * span.actor.0 + 1, format!("queue {tag}")),
                    SpanKind::Block => (2 * span.actor.0 + 1, format!("block {tag}")),
                    SpanKind::Enqueue => {
                        events.push(format!(
                            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":{},\"cat\":\"wave\"}}",
                            2 * span.actor.0 + 1,
                            span.start.as_micros(),
                            json::string(&format!("enqueue {tag}"))
                        ));
                        continue;
                    }
                };
                let dur = span.duration().as_micros().max(1);
                events.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{},\"cat\":\"wave\",\"args\":{{\"wave\":{},\"events\":{}}}}}",
                    tid,
                    span.start.as_micros(),
                    dur,
                    json::string(&name),
                    json::string(&tag),
                    span.events
                ));
            }
            // Flow arrows along the lineage: each fire span links back to
            // the span that produced its trigger event.
            let fires = fire_spans(wave);
            for fire in wave.spans.iter().filter(|s| s.kind == SpanKind::Fire) {
                let Some(tag) = &fire.tag else { continue };
                let producer = match tag.parent() {
                    None => wave
                        .spans
                        .iter()
                        .find(|s| s.kind == SpanKind::Admit && s.tag.as_ref() == Some(tag)),
                    Some(parent) => closest_preceding(&fires, &parent, fire.start),
                };
                let Some(producer) = producer else { continue };
                let src_tid = 2 * producer.actor.0;
                flow_id += 1;
                events.push(format!(
                    "{{\"ph\":\"s\",\"pid\":1,\"tid\":{},\"ts\":{},\"id\":{},\"name\":\"wave\",\"cat\":\"wave\"}}",
                    src_tid,
                    producer.end.as_micros().max(producer.start.as_micros()),
                    flow_id
                ));
                events.push(format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{},\"ts\":{},\"id\":{},\"name\":\"wave\",\"cat\":\"wave\"}}",
                    2 * fire.actor.0,
                    fire.start.as_micros(),
                    flow_id
                ));
            }
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// All fire spans of a wave indexed by trigger tag (fan-out can record
/// several firings per tag — one per consuming actor).
fn fire_spans(wave: &WaveTrace) -> HashMap<WaveTag, Vec<&Span>> {
    let mut map: HashMap<WaveTag, Vec<&Span>> = HashMap::new();
    for span in wave.spans.iter().filter(|s| s.kind == SpanKind::Fire) {
        if let Some(tag) = &span.tag {
            map.entry(tag.clone()).or_default().push(span);
        }
    }
    map
}

/// Among the firings triggered by `tag`, the one ending latest at or
/// before `before` (the producer closest in time to its consumer); falls
/// back to the earliest if none precede.
fn closest_preceding<'a>(
    fires: &'a HashMap<WaveTag, Vec<&'a Span>>,
    tag: &WaveTag,
    before: Timestamp,
) -> Option<&'a Span> {
    let candidates = fires.get(tag)?;
    candidates
        .iter()
        .filter(|s| s.end <= before)
        .max_by_key(|s| s.end)
        .or_else(|| candidates.iter().min_by_key(|s| s.end))
        .copied()
}

/// Walk the causal chain backwards from the wave's last firing to its
/// admission, emitting telescoping segments: for every hop, *route*
/// (producer's end → enqueue), *wait* (enqueue → firing start), and
/// *service* (the firing itself). Because the segments telescope, their
/// sum is exactly `last firing end − admission`, the wave's end-to-end
/// latency up to its final firing.
fn critical_path(wave: &WaveTrace) -> Option<CriticalPath> {
    let fires = fire_spans(wave);
    let last = wave
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Fire)
        .max_by_key(|s| s.end)?;
    let mut segments: Vec<CpSegment> = Vec::new();
    let mut cursor = last;
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > 10_000 {
            return None; // malformed chain; refuse to loop forever
        }
        let tag = cursor.tag.as_ref()?;
        // The event that triggered `cursor` was enqueued at cursor's
        // actor carrying exactly `tag`.
        let enqueue_at = wave
            .spans
            .iter()
            .filter(|s| {
                s.kind == SpanKind::Enqueue
                    && s.actor == cursor.actor
                    && s.tag.as_ref() == Some(tag)
                    && s.start <= cursor.start
            })
            .map(|s| s.start)
            .max()?;
        segments.push(CpSegment {
            stage: "service",
            actor: cursor.actor,
            duration: cursor.end.since(cursor.start),
        });
        segments.push(CpSegment {
            stage: "wait",
            actor: cursor.actor,
            duration: cursor.start.since(enqueue_at),
        });
        match tag.parent() {
            None => {
                // Root event: the producer is the admission itself.
                let admit = wave
                    .spans
                    .iter()
                    .find(|s| s.kind == SpanKind::Admit && s.tag.as_ref() == Some(tag))?;
                segments.push(CpSegment {
                    stage: "route",
                    actor: cursor.actor,
                    duration: enqueue_at.since(admit.start),
                });
                segments.reverse();
                let total = Micros(segments.iter().map(|s| s.duration.as_micros()).sum());
                let dominant = ["route", "wait", "service"]
                    .into_iter()
                    .max_by_key(|stage| {
                        segments
                            .iter()
                            .filter(|s| s.stage == *stage)
                            .map(|s| s.duration.as_micros())
                            .sum::<u64>()
                    })
                    .unwrap_or("service");
                return Some(CriticalPath {
                    origin: wave.origin,
                    total,
                    segments,
                    dominant,
                });
            }
            Some(parent) => {
                let producer = closest_preceding(&fires, &parent, enqueue_at)?;
                segments.push(CpSegment {
                    stage: "route",
                    actor: cursor.actor,
                    duration: enqueue_at.since(producer.end),
                });
                cursor = producer;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{TraceConfig, Tracer};
    use super::*;
    use crate::telemetry::{FireRecord, Observer};

    /// A two-hop wave in virtual time with known segment durations.
    fn two_hop_tracer() -> Tracer {
        let t = Tracer::new(TraceConfig::default());
        let root = WaveTag::external(Timestamp(1_000));
        t.on_admit(ActorId(0), &root, Timestamp(1_000));
        // route 10µs, wait 5µs, service 20µs at actor 1
        t.on_enqueue(ActorId(1), 0, &root, Timestamp(1_010));
        t.on_dequeue(ActorId(1), 0, Some(&root), Timestamp(1_010), Timestamp(1_015));
        t.on_fire_end(&FireRecord {
            actor: ActorId(1),
            started: Timestamp(1_015),
            ended: Timestamp(1_035),
            busy: Micros(20),
            events_in: 1,
            tokens_out: 1,
            origin: Some(Timestamp(1_000)),
            trigger: Some(root.clone()),
            fired: true,
        });
        // route 3µs, wait 2µs, service 40µs at actor 2
        let child = root.child(1, true);
        t.on_enqueue(ActorId(2), 0, &child, Timestamp(1_038));
        t.on_dequeue(ActorId(2), 0, Some(&child), Timestamp(1_038), Timestamp(1_040));
        t.on_fire_end(&FireRecord {
            actor: ActorId(2),
            started: Timestamp(1_040),
            ended: Timestamp(1_080),
            busy: Micros(40),
            events_in: 1,
            tokens_out: 0,
            origin: Some(Timestamp(1_000)),
            trigger: Some(child),
            fired: true,
        });
        t
    }

    #[test]
    fn critical_path_telescopes_to_end_to_end_latency() {
        let report = two_hop_tracer().report();
        let paths = report.critical_paths();
        assert_eq!(paths.len(), 1);
        let cp = &paths[0];
        // admit t1000 → final firing end t1080.
        assert_eq!(cp.total, Micros(80));
        assert_eq!(cp.total, report.waves[0].end_to_end());
        let stages: Vec<(&str, u64)> = cp
            .segments
            .iter()
            .map(|s| (s.stage, s.duration.as_micros()))
            .collect();
        assert_eq!(
            stages,
            vec![
                ("route", 10),
                ("wait", 5),
                ("service", 20),
                ("route", 3),
                ("wait", 2),
                ("service", 40),
            ]
        );
        assert_eq!(cp.dominant, "service");
        assert_eq!(cp.stage_total("route"), Micros(13));
    }

    #[test]
    fn chrome_export_has_slices_and_matched_flow_arrows() {
        let json = two_hop_tracer().report().to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        let x_events = json.matches("\"ph\":\"X\"").count();
        assert!(x_events >= 3, "admit + 2 fires + 2 queue slices, got {x_events}");
        let starts = json.matches("\"ph\":\"s\"").count();
        let finishes = json.matches("\"ph\":\"f\"").count();
        assert_eq!(starts, 2, "one flow arrow per firing link");
        assert_eq!(starts, finishes, "every flow start has a finish");
        assert!(json.contains("\"bp\":\"e\""));
    }

    #[test]
    fn chrome_export_escapes_actor_names() {
        let mut report = two_hop_tracer().report();
        report.actor_names = vec!["src".into(), "say \"hi\"\\path\t".into(), "sink".into()];
        let json = report.to_chrome_json();
        assert!(json.contains(r#""tid":2,"name":"thread_name","args":{"name":"say \"hi\"\\path\t"}"#));
        assert!(json.contains(r#""tid":3,"name":"thread_name","args":{"name":"say \"hi\"\\path\t (queue)"}"#));
    }
}
