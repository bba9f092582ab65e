//! Every workload and metric name the benchmark emits, in one place.
//! `BENCHMARK.json` repeats them; a test keeps the two in step.

use crate::lr::ACTORS;

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lr_drain_scwf",
        "closed loop, one thread, virtual-time SCWF: wall time is pure engine work per report (token, wave, window, receiver, route, scheduler, actors); pool, checkpoint and telemetry code do nothing",
    ),
    (
        "lr_paced_pool2",
        "open loop at 5,000 reports/s on a 2-worker pool with the recorder attached: ready queues, park/wake, inbox locks, timer thread and observer dispatch are paid only here; latency moves first",
    ),
    (
        "lr_checkpoint_scwf",
        "crash and recover under SCWF: window, inbox, actor and store serialisation, journaling and replay are the whole extra cost here and zero elsewhere",
    ),
    (
        "relstore_mix",
        "closed loop of store reads beside writes on 200k rows: index and statistics maintenance is paid here and is negligible in the lr_* workloads, so a read gain bought with write cost shows",
    ),
];

/// One end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// What this machine lets a benchmark gate: memory, and the set-up time the
/// benchmark contract requires. No bound exceeds 0.10 except `setup_s`,
/// which the contract tells a benchmark to give the largest one. The
/// timings of the runs themselves are the `run.*`, `sink.latency_*` and
/// `checkpoint.recover_ms` layer metrics (README, "Why the timings are
/// not gated").
pub const END_TO_END: [EndToEnd; 2] = [
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
];

/// The per-layer names outside the `actor.<name>.*` family.
const LAYERS: [&str; 52] = [
    "run.throughput_per_s",
    "run.cpu_us_per_op",
    "setup.raw_s",
    "token.record_build_ns",
    "token.field_get_ns",
    "wave.derive_ns",
    "window.push_tuple_ns",
    "window.push_time_ns",
    "window.windows_per_push",
    "window.snapshot_ns",
    "receiver.put_batch_ns",
    "receiver.inbox_pop_ns",
    "fabric.route_ns",
    "fabric.build_ns",
    "sched.next_actor_ns",
    "sched.self_share",
    "pool_policy.push_pop_ns",
    "pool_policy.steal_ns",
    "pool.steals_per_kfire",
    "pool.worker_fire_skew",
    "pool.queue_high_water",
    "pool.quiesce_tail_ms",
    "source.lag_p95_ms",
    "sink.latency_p50_ms",
    "sink.latency_p95_ms",
    "checkpoint.capture_ns",
    "checkpoint.encode_ns",
    "checkpoint.write_ns",
    "checkpoint.read_decode_ns",
    "checkpoint.restore_ns",
    "checkpoint.snapshot_bytes",
    "checkpoint.log_record_ns",
    "checkpoint.log_bytes_per_op",
    "checkpoint.replayed_events",
    "checkpoint.recover_ms",
    "telemetry.fire_dispatch_ns",
    "telemetry.sketch_record_ns",
    "relstore.pk_get_ns",
    "relstore.lav_range_ns",
    "relstore.in_union_ns",
    "relstore.upsert_ns",
    "relstore.insert_ns",
    "relstore.update_where_ns",
    "relstore.delete_where_ns",
    "relstore.group_by_ns",
    "relstore.plan_ns",
    "alloc.count_per_op",
    "alloc.bytes_per_op",
    "trace.overhead_share",
    "noise.unit_iqr_share",
    "noise.steal_share",
    "noise.reference_s",
];

/// All per-layer metric names, in the order `BENCHMARK.json` lists them.
pub fn per_layer() -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for layer in LAYERS {
        if layer == "checkpoint.capture_ns" {
            for actor in ACTORS {
                names.push(format!("actor.{actor}.busy_share"));
                names.push(format!("actor.{actor}.fires_per_op"));
            }
        }
        names.push(layer.to_string());
    }
    names
}

/// The unit a per-layer metric is reported in, read off its name.
pub fn layer_unit(name: &str) -> &'static str {
    match name {
        n if n.ends_with("_ns") => "ns",
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_us_per_op") => "us",
        n if n.ends_with("_per_s") => "1/s",
        n if n.ends_with("_s") => "s",
        n if n.ends_with("_share") || n.ends_with("_skew") => "share",
        n if n.ends_with("bytes_per_op") || n.ends_with("_bytes") => "bytes",
        _ => "count",
    }
}

/// Which way a per-layer metric is better.
pub fn layer_better(name: &str) -> &'static str {
    if name == "run.throughput_per_s" {
        "higher"
    } else {
        "lower"
    }
}

/// Whether a name fits the benchmark contract's alphabet and length.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_stay_within_the_contract() {
        assert!(WORKLOADS.len() <= 8);
        assert!(END_TO_END.len() <= 16);
        let layers = per_layer();
        assert_eq!(layers.len(), 78);
        assert!(layers.len() <= 128);
        let mut all: Vec<String> = layers;
        all.extend(WORKLOADS.iter().map(|w| w.0.to_string()));
        all.extend(END_TO_END.iter().map(|m| m.0.to_string()));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower")
            .expect("setup_s is an end-to-end metric");
        assert!(setup.3 <= 0.25, "no bound exceeds 0.25");
        assert!(
            END_TO_END
                .iter()
                .all(|m| m.3 > 0.0 && (m.0 == "setup_s" || m.3 <= 0.10)),
            "setup_s has the largest bound, and no other exceeds 0.10"
        );
    }

    #[test]
    fn units_are_read_off_the_name() {
        assert_eq!(layer_unit("fabric.route_ns"), "ns");
        assert_eq!(layer_unit("sink.latency_p95_ms"), "ms");
        assert_eq!(layer_unit("sched.self_share"), "share");
        assert_eq!(layer_unit("pool.worker_fire_skew"), "share");
        assert_eq!(layer_unit("alloc.bytes_per_op"), "bytes");
        assert_eq!(layer_unit("checkpoint.snapshot_bytes"), "bytes");
        assert_eq!(layer_unit("actor.cars.fires_per_op"), "count");
        assert!(!valid_name(".x") && !valid_name("a b") && valid_name("a.b-c_9"));
    }
}
