//! Lock-free metrics collection and point-in-time snapshots.
//!
//! A per-group metric is named once, as a row of a `metric_group!`
//! declaration below. The row gives the snapshot field, its JSON key, its
//! Prometheus name, help and kind, and its `render_table` column; the
//! atomic cell the [`Observer`] hooks bump, the public snapshot struct and
//! the three renderers of [`MetricsSnapshot`] all come from the rows.
//! Adding a metric is one row plus the hook line that updates it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::graph::{ActorId, Workflow};
use crate::time::{Micros, Timestamp};

use super::json;
use super::sketch::{QuantileSketch, SketchSnapshot};
use super::{ActorTopology, FireRecord, Observer, RunPhase, TopologySnapshot};

/// Prometheus type of an exported row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
}

/// One row of a group's column table: where the metric appears in each
/// rendered output (`None`: not in that output) and how to read it off
/// the group's snapshot struct `T`.
struct Metric<T> {
    /// Key in the group's JSON object.
    json: Option<&'static str>,
    /// `render_table` header and column width (the groups printed as
    /// `header=value` pairs ignore the width).
    table: Option<(&'static str, usize)>,
    /// Prometheus kind, name and help text.
    prom: Option<(Kind, &'static str, &'static str)>,
    get: fn(&T) -> u64,
}

/// Declares one metric group. A row reads
/// `field: type => [json "key"] [col "header" width] [prom Kind "name" "help"];`
/// with `type` one of `u64` and `Micros`, and the rows generate the public
/// snapshot struct (the identity fields in braces, then one field per row),
/// the column table `$TABLE` the renderers loop over, and what the clause
/// after the table name asks for: `(cell Name)`, an all-atomic cell with a
/// `load` into the snapshot struct; `()`, nothing — the owner fills the
/// struct itself.
macro_rules! metric_group {
    (
        $(#[$smeta:meta])*
        pub struct $Snap:ident { $($(#[$imeta:meta])* pub $id:ident: $idty:ty,)* }
        table $TABLE:ident $load:tt;
        $(
            $(#[$fmeta:meta])*
            $field:ident: $fty:ident =>
                $(json $json:literal)?
                $(col $header:literal $width:literal)?
                $(prom $kind:ident $pname:literal $help:literal)?;
        )+
    ) => {
        $(#[$smeta])*
        pub struct $Snap {
            $($(#[$imeta])* pub $id: $idty,)*
            $($(#[$fmeta])* pub $field: $fty,)+
        }

        const $TABLE: &[Metric<$Snap>] = &[$(Metric {
            json: metric_group!(@opt $($json)?),
            table: metric_group!(@opt $($header, $width)?),
            prom: metric_group!(@opt $(Kind::$kind, $pname, $help)?),
            get: |m| metric_group!(@raw $fty m.$field),
        },)+];

        metric_group!(@load $load $Snap { $($id: $idty,)* } $($field: $fty,)+);
    };
    (@opt) => { None };
    (@opt $($part:expr),+) => { Some(($($part),+)) };
    (@raw u64 $value:expr) => { $value };
    (@raw Micros $value:expr) => { $value.as_micros() };
    (@typed u64 $raw:expr) => { $raw };
    (@typed Micros $raw:expr) => { Micros($raw) };
    (@load () $($unused:tt)*) => {};
    (@load (cell $Cell:ident) $Snap:ident { $($id:ident: $idty:ty,)* } $($field:ident: $fty:ident,)+) => {
        /// Relaxed atomics behind the snapshot struct, so hooks on any
        /// thread update without contention.
        #[derive(Debug, Default)]
        struct $Cell {
            $($field: AtomicU64,)+
        }

        impl $Cell {
            fn load(&self, $($id: $idty),*) -> $Snap {
                $Snap {
                    $($id,)*
                    $($field: metric_group!(@typed $fty self.$field.load(Ordering::Relaxed)),)+
                }
            }
        }
    };
}

metric_group! {
    /// Metrics for one actor in a [`MetricsSnapshot`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ActorMetrics {
        pub id: ActorId,
        pub name: String,
    }
    table ACTOR (cell ActorCell);
    /// Successful firings (prefire accepted).
    fires: u64 => json "fires" col "fires" 8 prom Counter "confluence_actor_fires_total" "Successful firings per actor";
    /// Firing attempts including refusals.
    attempts: u64 => json "attempts" prom Counter "confluence_actor_attempts_total" "Firing attempts per actor (including prefire refusals)";
    /// Total busy time charged to the actor.
    busy: Micros => json "busy_us" col "busy_us" 10 prom Counter "confluence_actor_busy_microseconds_total" "Busy time charged per actor in microseconds";
    /// Events consumed from input windows.
    events_in: u64 => json "events_in" col "events_in" 10 prom Counter "confluence_actor_events_in_total" "Events consumed from input windows per actor";
    /// Tokens emitted on output ports.
    tokens_out: u64 => json "tokens_out" col "tokens_out" 10 prom Counter "confluence_actor_tokens_out_total" "Tokens emitted on output ports per actor";
    /// Ready windows formed on the actor's input ports.
    windows_closed: u64 => json "windows_closed" col "windows" 8 prom Counter "confluence_actor_windows_closed_total" "Ready windows formed on input ports per actor";
    /// Highest observed inbox depth.
    queue_high_water: u64 => json "queue_high_water" col "queue_max" 9 prom Gauge "confluence_actor_queue_high_water" "Highest observed inbox depth per actor";
    /// Events expired out of the actor's windows.
    events_expired: u64 => json "events_expired" col "expired" 7 prom Counter "confluence_actor_events_expired_total" "Events expired out of windows per actor";
    /// Writers that hit this actor's full input ports under a `Block`
    /// channel policy (backpressure events).
    blocks: u64 => json "blocks" col "blocks" 7 prom Counter "confluence_actor_blocks_total" "Backpressure blocks on the actor's full input ports";
    /// Total time writers spent blocked on this actor's full ports.
    block_time: Micros => json "block_us" prom Counter "confluence_actor_block_microseconds_total" "Time writers spent blocked on the actor's full input ports";
    /// Events shed at this actor's full input ports under drop policies.
    events_shed: u64 => json "events_shed" col "shed" 7 prom Counter "confluence_actor_events_shed_total" "Events shed at the actor's full input ports by drop policies";
    /// Events this actor delivered downstream (routing passes it
    /// originated).
    routed_out: u64 => json "routed_out" prom Counter "confluence_actor_routed_out_total" "Events the actor delivered downstream";
}

metric_group! {
    /// Routed-event count for one channel `(from, to, port)` in a
    /// [`MetricsSnapshot`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EdgeMetrics {
        /// Producing actor.
        pub from: ActorId,
        pub from_name: String,
        /// Consuming actor.
        pub to: ActorId,
        pub to_name: String,
        /// Destination input port on `to`.
        pub port: usize,
    }
    table EDGE (cell EdgeCell);
    /// Events delivered over this channel.
    events: u64 => json "events" col "events" 0 prom Counter "confluence_edge_events_total" "Events delivered per channel";
}

metric_group! {
    /// Live queue depth of one actor input port in a [`MetricsSnapshot`]
    /// (0 once the run's fabric has been torn down).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PortDepthMetrics {
        /// Actor name.
        pub actor: String,
        /// Input port index on the actor.
        pub port: usize,
    }
    table PORT ();
    /// Formed-window depth of the port at snapshot time.
    depth: u64 => json "depth" prom Gauge "confluence_port_depth" "Live formed-window depth per actor input port";
}

metric_group! {
    /// Counters for one worker thread of a pooled executor (the
    /// [`PoolDirector`](crate::director::pool::PoolDirector)), reported once
    /// per worker at the end of a run through [`Observer::on_worker`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WorkerMetrics {
        /// Worker index (0-based).
        pub worker: usize,
    }
    table WORKER ();
    /// Firings executed on this worker.
    fires: u64 => json "fires" col "fires" 0 prom Counter "confluence_worker_fires_total" "Firings executed per pool worker";
    /// Tasks this worker stole from other workers' deques.
    steals: u64 => json "steals" col "steals" 0 prom Counter "confluence_worker_steals_total" "Tasks stolen from other workers' deques per pool worker";
    /// High-water mark of this worker's ready deque.
    queue_depth: u64 => json "queue_depth" col "queue_max" 0 prom Gauge "confluence_worker_queue_depth" "High-water mark of the worker's ready deque";
    /// Total time this worker spent executing firings, in microseconds
    /// (occupancy = `busy_micros` / run wall time).
    busy_micros: u64 => json "busy_us" col "busy_us" 0 prom Counter "confluence_worker_busy_microseconds_total" "Time the pool worker spent executing firings";
}

/// Atomics-only [`Observer`] that aggregates the hook stream into
/// per-actor counters plus an end-to-end latency histogram fed by sink
/// firings. Safe to share across the threaded director's actor threads;
/// `snapshot()` can be taken at any point, including mid-run.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    names: Vec<String>,
    is_sink: Vec<bool>,
    actors: Vec<ActorCell>,
    /// One cell per declared channel `(from, to, port)`, pre-sized from
    /// the workflow's channel list so the routing hot path stays
    /// lock-free.
    edges: Vec<((ActorId, ActorId, usize), EdgeCell)>,
    edge_index: HashMap<(usize, usize, usize), usize>,
    events_routed: AtomicU64,
    latency: Arc<QuantileSketch>,
    run_started: AtomicU64,
    run_ended: AtomicU64,
    /// Live inbox handles from the last reported topology, for the
    /// per-port depth gauges (weak: dead once the fabric drops).
    topology: Mutex<Vec<ActorTopology>>,
    /// Per-worker counters from pooled executors (empty under the
    /// thread-per-actor directors). Cold path: reported once per run.
    workers: Mutex<Vec<WorkerMetrics>>,
}

impl MetricsRecorder {
    /// Recorder sized for `workflow`, capturing actor names and sink-ness
    /// (sink firings feed the end-to-end latency histogram).
    pub fn for_workflow(workflow: &Workflow) -> Self {
        let sinks = workflow.sinks();
        let names: Vec<String> = workflow
            .actor_ids()
            .map(|id| workflow.node(id).name.clone())
            .collect();
        let is_sink = workflow
            .actor_ids()
            .map(|id| sinks.contains(&id))
            .collect();
        let mut edges = Vec::new();
        for id in workflow.actor_ids() {
            for port in 0..workflow.node(id).signature.outputs.len() {
                for dest in workflow.routes_from(id, port) {
                    edges.push((id, dest.actor, dest.port));
                }
            }
        }
        Self::with_names(names, is_sink).with_edges(edges)
    }

    /// Recorder over explicit actor names; `is_sink[i]` marks the actors
    /// whose firings feed the latency histogram.
    pub fn with_names(names: Vec<String>, is_sink: Vec<bool>) -> Self {
        assert_eq!(names.len(), is_sink.len());
        MetricsRecorder {
            actors: names.iter().map(|_| ActorCell::default()).collect(),
            names,
            is_sink,
            ..Default::default()
        }
    }

    /// Declare the workflow's channels so per-edge deliveries reported by
    /// [`Observer::on_route_edge`] can be counted lock-free. Deliveries on
    /// edges not declared here are ignored.
    pub fn with_edges(mut self, edges: Vec<(ActorId, ActorId, usize)>) -> Self {
        for (from, to, port) in edges {
            let key = (from.0, to.0, port);
            if self.edge_index.contains_key(&key) {
                continue;
            }
            self.edge_index.insert(key, self.edges.len());
            self.edges.push(((from, to, port), EdgeCell::default()));
        }
        self
    }

    fn cell(&self, actor: ActorId) -> Option<&ActorCell> {
        self.actors.get(actor.0)
    }

    /// Total successful firings across all actors — just the counter
    /// loads, no snapshot materialization.
    pub fn total_fires(&self) -> u64 {
        self.actors.iter().map(|c| c.fires.load(Ordering::Relaxed)).sum()
    }

    /// Cumulative successful firings of one actor — a single relaxed
    /// load, cheap enough for samplers to call on every tick.
    pub fn actor_fires(&self, actor: ActorId) -> u64 {
        self.cell(actor)
            .map(|c| c.fires.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The shared end-to-end latency sketch sink firings feed. Cloneable:
    /// the series recorder reads live quantiles from it mid-run.
    pub fn latency_sketch(&self) -> Arc<QuantileSketch> {
        self.latency.clone()
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let name = |id: ActorId| self.names.get(id.0).cloned().unwrap_or_default();
        let actors = self
            .actors
            .iter()
            .enumerate()
            .map(|(i, c)| c.load(ActorId(i), name(ActorId(i))))
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|&((from, to, port), ref c)| c.load(from, name(from), to, name(to), port))
            .collect();
        let mut workers = self.workers.lock().clone();
        workers.sort_by_key(|w| w.worker);
        let topology = self.topology.lock();
        let ports = topology.iter().flat_map(|a| {
            let inbox = a.inbox.upgrade();
            (0..a.ports).map(move |port| PortDepthMetrics {
                actor: a.name.clone(),
                port,
                depth: inbox.as_ref().map_or(0, |i| i.port_depth(port) as u64),
            })
        });
        MetricsSnapshot {
            actors,
            edges,
            ports: ports.collect(),
            events_routed: self.events_routed.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            run_started: Timestamp(self.run_started.load(Ordering::Relaxed)),
            run_ended: Timestamp(self.run_ended.load(Ordering::Relaxed)),
            workers,
        }
    }
}

impl Observer for MetricsRecorder {
    fn on_run_phase(&self, phase: RunPhase, at: Timestamp) {
        match phase {
            RunPhase::Start => self.run_started.store(at.as_micros(), Ordering::Relaxed),
            RunPhase::End => self.run_ended.store(at.as_micros(), Ordering::Relaxed),
            _ => {}
        }
    }

    fn on_fire_end(&self, record: &FireRecord) {
        let Some(cell) = self.cell(record.actor) else {
            return;
        };
        cell.attempts.fetch_add(1, Ordering::Relaxed);
        if !record.fired {
            return;
        }
        cell.fires.fetch_add(1, Ordering::Relaxed);
        cell.busy
            .fetch_add(record.busy.as_micros(), Ordering::Relaxed);
        cell.events_in.fetch_add(record.events_in, Ordering::Relaxed);
        cell.tokens_out
            .fetch_add(record.tokens_out, Ordering::Relaxed);
        if self.is_sink.get(record.actor.0).copied().unwrap_or(false) {
            if let Some(origin) = record.origin {
                self.latency.record(record.ended.since(origin));
            }
        }
    }

    fn on_route_edge(&self, from: ActorId, to: ActorId, port: usize, events: u64, _at: Timestamp) {
        self.events_routed.fetch_add(events, Ordering::Relaxed);
        if let Some(cell) = self.cell(from) {
            cell.routed_out.fetch_add(events, Ordering::Relaxed);
        }
        if let Some(&i) = self.edge_index.get(&(from.0, to.0, port)) {
            self.edges[i].1.events.fetch_add(events, Ordering::Relaxed);
        }
    }

    fn on_window_close(
        &self,
        actor: ActorId,
        _port: usize,
        windows: usize,
        queue_depth: usize,
        _at: Timestamp,
    ) {
        if let Some(cell) = self.cell(actor) {
            cell.windows_closed
                .fetch_add(windows as u64, Ordering::Relaxed);
            cell.queue_high_water
                .fetch_max(queue_depth as u64, Ordering::Relaxed);
        }
    }

    fn on_expire(&self, actor: ActorId, _port: usize, events: u64, _at: Timestamp) {
        if let Some(cell) = self.cell(actor) {
            cell.events_expired.fetch_add(events, Ordering::Relaxed);
        }
    }

    fn on_block(&self, actor: ActorId, _port: usize, waited: Micros, _at: Timestamp) {
        if let Some(cell) = self.cell(actor) {
            cell.blocks.fetch_add(1, Ordering::Relaxed);
            cell.block_time
                .fetch_add(waited.as_micros(), Ordering::Relaxed);
        }
    }

    fn on_shed(&self, actor: ActorId, _port: usize, events: u64, _at: Timestamp) {
        if let Some(cell) = self.cell(actor) {
            cell.events_shed.fetch_add(events, Ordering::Relaxed);
        }
    }

    fn on_worker(&self, metrics: &WorkerMetrics) {
        let mut workers = self.workers.lock();
        match workers.iter_mut().find(|w| w.worker == metrics.worker) {
            Some(w) => *w = metrics.clone(),
            None => workers.push(metrics.clone()),
        }
    }

    fn on_topology(&self, topology: &TopologySnapshot) {
        *self.topology.lock() = topology.actors.clone();
    }
}

/// Point-in-time view over a [`MetricsRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub actors: Vec<ActorMetrics>,
    /// Per-channel delivery counts, in the workflow's channel order
    /// (empty unless the recorder was built with the workflow topology).
    pub edges: Vec<EdgeMetrics>,
    /// Live per-port inbox depths at snapshot time (empty unless a run
    /// reported its topology; all zero once the fabric is torn down).
    pub ports: Vec<PortDepthMetrics>,
    /// Channel deliveries across the whole workflow.
    pub events_routed: u64,
    /// End-to-end tuple latency at the sinks (director time): a
    /// relative-error quantile sketch with exact-γ p50/p95/p99.
    pub latency: SketchSnapshot,
    /// Director time at [`RunPhase::Start`].
    pub run_started: Timestamp,
    /// Director time at [`RunPhase::End`].
    pub run_ended: Timestamp,
    /// Per-worker counters from pooled executors, ordered by worker index
    /// (empty under the thread-per-actor directors).
    pub workers: Vec<WorkerMetrics>,
}

impl MetricsSnapshot {
    /// Total successful firings.
    pub fn total_fires(&self) -> u64 {
        self.actors.iter().map(|a| a.fires).sum()
    }

    /// Metrics for the actor named `name`, if present.
    pub fn actor(&self, name: &str) -> Option<&ActorMetrics> {
        self.actors.iter().find(|a| a.name == name)
    }

    /// Total backpressure blocks across all actors.
    pub fn total_blocks(&self) -> u64 {
        self.actors.iter().map(|a| a.blocks).sum()
    }

    /// Total time writers spent blocked, across all actors.
    pub fn total_block_time(&self) -> Micros {
        Micros(self.actors.iter().map(|a| a.block_time.as_micros()).sum())
    }

    /// Total events shed by drop channel policies across all actors.
    pub fn total_shed(&self) -> u64 {
        self.actors.iter().map(|a| a.events_shed).sum()
    }

    /// Highest observed inbox depth across all actors.
    pub fn max_queue_high_water(&self) -> u64 {
        self.actors
            .iter()
            .map(|a| a.queue_high_water)
            .max()
            .unwrap_or(0)
    }

    /// Serialize as a self-contained JSON document (no external deps).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.actors.len() * 192);
        out.push('{');
        json::push_u64(&mut out, "events_routed", self.events_routed);
        json::push_u64(&mut out, "total_fires", self.total_fires());
        json::push_u64(&mut out, "run_started_us", self.run_started.as_micros());
        json::push_u64(&mut out, "run_ended_us", self.run_ended.as_micros());
        push_json_group(&mut out, "actors", ACTOR, &self.actors, |out, a| {
            json::push_str(out, "name", &a.name)
        });
        push_json_group(&mut out, "edges", EDGE, &self.edges, |out, e| {
            json::push_str(out, "from", &e.from_name);
            json::push_str(out, "to", &e.to_name);
            json::push_u64(out, "port", e.port as u64);
        });
        push_json_group(&mut out, "ports", PORT, &self.ports, |out, p| {
            json::push_str(out, "actor", &p.actor);
            json::push_u64(out, "port", p.port as u64);
        });
        push_json_group(&mut out, "workers", WORKER, &self.workers, |out, w| {
            json::push_u64(out, "worker", w.worker as u64)
        });
        json::push_key(&mut out, "latency");
        out.push('{');
        json::push_u64(&mut out, "count", self.latency.count);
        json::push_u64(&mut out, "sum_us", self.latency.sum_micros);
        json::push_u64(&mut out, "max_us", self.latency.max_micros);
        json::push_u64(&mut out, "p50_us", self.latency.p50());
        json::push_u64(&mut out, "p95_us", self.latency.p95());
        json::push_u64(&mut out, "p99_us", self.latency.p99());
        json::push_u64(&mut out, "alpha_ppm", self.latency.alpha_ppm as u64);
        // Sparse `[index, count]` pairs — the sketch's γ-buckets are
        // mostly empty.
        json::push_key(&mut out, "buckets");
        out.push('[');
        for (i, n) in self.latency.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if !out.ends_with('[') {
                out.push(',');
            }
            let _ = write!(out, "[{i},{n}]");
        }
        out.push_str("]}}");
        out
    }

    /// Serialize in the Prometheus text exposition format. Latencies are
    /// exported as a cumulative histogram in integer microseconds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(512 + self.actors.len() * 512);
        let labels = |a: &ActorMetrics| format!("{{actor=\"{}\"}}", escape_label(&a.name));
        push_prom_group(&mut out, ACTOR, labelled(&self.actors, labels));
        let name = "confluence_events_routed_total";
        push_prom_header(&mut out, name, "Channel deliveries across the workflow", "counter");
        let _ = writeln!(out, "{name} {}", self.events_routed);
        let labels = |e: &EdgeMetrics| {
            let (from, to) = (escape_label(&e.from_name), escape_label(&e.to_name));
            format!("{{from=\"{from}\",to=\"{to}\",port=\"{}\"}}", e.port)
        };
        push_prom_group(&mut out, EDGE, labelled(&self.edges, labels));
        let labels = |w: &WorkerMetrics| format!("{{worker=\"{}\"}}", w.worker);
        push_prom_group(&mut out, WORKER, labelled(&self.workers, labels));
        let labels = |p: &PortDepthMetrics| {
            let actor = escape_label(&p.actor);
            format!("{{actor=\"{actor}\",port=\"{}\"}}", p.port)
        };
        push_prom_group(&mut out, PORT, labelled(&self.ports, labels));
        // End-to-end latency from the quantile sketch, as a conformant
        // cumulative histogram in integer microseconds: only occupied
        // γ-buckets are emitted, merged where their integer-ceiled upper
        // bounds collide so `le` stays strictly increasing.
        let name = "confluence_latency_us";
        let help = "End-to-end tuple latency at the sinks in microseconds";
        push_prom_header(&mut out, name, help, "histogram");
        let mut cumulative = 0u64;
        let mut pending: Option<(u64, u64)> = None;
        for (i, n) in self.latency.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            cumulative += n;
            let Some(upper) = self.latency.bucket_upper_micros(i) else {
                continue; // Overflow bucket folds into +Inf below.
            };
            let le = upper.ceil() as u64;
            if let Some((ple, pcum)) = pending.filter(|&(ple, _)| ple != le) {
                let _ = writeln!(out, "{name}_bucket{{le=\"{ple}\"}} {pcum}");
            }
            pending = Some((le, cumulative));
        }
        if let Some((le, cum)) = pending {
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
        }
        let (count, sum) = (self.latency.count, self.latency.sum_micros);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{name}_sum {sum}\n{name}_count {count}");
        // The sketch's exact-γ quantiles as a Prometheus summary.
        let name = "confluence_latency_summary_us";
        let help = "End-to-end tuple latency quantiles (sketch, relative error <= alpha)";
        push_prom_header(&mut out, name, help, "summary");
        for (q, v) in [
            ("0.5", self.latency.p50()),
            ("0.95", self.latency.p95()),
            ("0.99", self.latency.p99()),
        ] {
            let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{name}_sum {sum}\n{name}_count {count}");
        out
    }

    /// Render the per-actor table for terminal output (bench runner).
    pub fn render_table(&self) -> String {
        let name_w = self
            .actors
            .iter()
            .map(|a| a.name.len())
            .chain(["actor".len()])
            .max()
            .unwrap_or(5);
        let mut out = format!("{:<name_w$}", "actor");
        for (header, width) in ACTOR.iter().filter_map(|m| m.table) {
            let _ = write!(out, "  {header:>width$}");
        }
        out.push('\n');
        for a in &self.actors {
            let _ = write!(out, "{:<name_w$}", a.name);
            for m in ACTOR {
                if let Some((_, width)) = m.table {
                    let _ = write!(out, "  {:>width$}", (m.get)(a));
                }
            }
            out.push('\n');
        }
        for w in &self.workers {
            let _ = writeln!(out, "worker {}: {}", w.worker, table_pairs(WORKER, w));
        }
        for e in &self.edges {
            let (from, to, pairs) = (&e.from_name, &e.to_name, table_pairs(EDGE, e));
            let _ = writeln!(out, "edge {from} -> {to}:{}  {pairs}", e.port);
        }
        let _ = writeln!(
            out,
            "routed={}  sink_latency: count={} mean={} p95={} max={}µs",
            self.events_routed,
            self.latency.count,
            self.latency.mean(),
            self.latency.p95(),
            self.latency.max_micros
        );
        out
    }
}

/// Every JSON row of `table`, read off `item`.
fn push_json_metrics<T>(out: &mut String, table: &[Metric<T>], item: &T) {
    for m in table {
        if let Some(key) = m.json {
            json::push_u64(out, key, (m.get)(item));
        }
    }
}

/// `"key":[{..},..]`: one object per item, `identity`'s fields then the
/// JSON rows of `table`.
fn push_json_group<T>(
    out: &mut String,
    key: &str,
    table: &[Metric<T>],
    items: &[T],
    identity: impl Fn(&mut String, &T),
) {
    json::push_key(out, key);
    out.push('[');
    for item in items {
        if !out.ends_with('[') {
            out.push(',');
        }
        out.push('{');
        identity(out, item);
        push_json_metrics(out, table, item);
        out.push('}');
    }
    out.push(']');
}

/// The `# HELP`/`# TYPE` pair that opens a metric family.
fn push_prom_header(out: &mut String, name: &str, help: &str, type_name: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {type_name}");
}

/// `(labels, item)` samples for [`push_prom_group`].
fn labelled<T>(items: &[T], labels: impl Fn(&T) -> String) -> Vec<(String, &T)> {
    items.iter().map(|item| (labels(item), item)).collect()
}

/// A `# HELP`/`# TYPE` header and one sample per `(labels, item)` for every
/// Prometheus row of `table`, counters before gauges. A group with no
/// samples is left out of the exposition.
fn push_prom_group<T>(out: &mut String, table: &[Metric<T>], samples: Vec<(String, &T)>) {
    if samples.is_empty() {
        return;
    }
    for (wanted, type_name) in [(Kind::Counter, "counter"), (Kind::Gauge, "gauge")] {
        for m in table {
            let Some((kind, name, help)) = m.prom else {
                continue;
            };
            if kind != wanted {
                continue;
            }
            push_prom_header(out, name, help, type_name);
            for (labels, item) in &samples {
                let _ = writeln!(out, "{name}{labels} {}", (m.get)(item));
            }
        }
    }
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// The `header=value` pairs of `table`'s rows for `item`, space-separated.
fn table_pairs<T>(table: &[Metric<T>], item: &T) -> String {
    let pairs = table
        .iter()
        .filter_map(|m| Some(format!("{}={}", m.table?.0, (m.get)(item))));
    pairs.collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder2() -> MetricsRecorder {
        MetricsRecorder::with_names(
            vec!["src".into(), "sink".into()],
            vec![false, true],
        )
    }

    fn fire(actor: usize, busy: u64, origin: Option<u64>, ended: u64) -> FireRecord {
        FireRecord {
            actor: ActorId(actor),
            started: Timestamp(ended.saturating_sub(busy)),
            ended: Timestamp(ended),
            busy: Micros(busy),
            events_in: 2,
            tokens_out: 3,
            origin: origin.map(Timestamp),
            trigger: None,
            fired: true,
        }
    }

    #[test]
    fn recorder_aggregates_fire_records() {
        let r = recorder2();
        r.on_run_phase(RunPhase::Start, Timestamp(10));
        r.on_fire_end(&fire(0, 5, None, 20));
        r.on_fire_end(&fire(0, 5, None, 30));
        r.on_fire_end(&fire(1, 7, Some(20), 50));
        // A refused attempt counts as an attempt only.
        r.on_fire_end(&FireRecord {
            fired: false,
            ..fire(1, 0, None, 50)
        });
        r.on_route_edge(ActorId(0), ActorId(1), 0, 4, Timestamp(20));
        r.on_window_close(ActorId(1), 0, 2, 6, Timestamp(25));
        r.on_window_close(ActorId(1), 0, 1, 3, Timestamp(26));
        r.on_expire(ActorId(1), 0, 9, Timestamp(27));
        r.on_run_phase(RunPhase::End, Timestamp(60));

        let s = r.snapshot();
        assert_eq!(s.total_fires(), 3);
        assert_eq!(s.events_routed, 4);
        assert_eq!(s.run_started, Timestamp(10));
        assert_eq!(s.run_ended, Timestamp(60));
        let src = s.actor("src").unwrap();
        assert_eq!((src.fires, src.attempts), (2, 2));
        assert_eq!(src.busy, Micros(10));
        assert_eq!(src.events_in, 4);
        assert_eq!(src.tokens_out, 6);
        let sink = s.actor("sink").unwrap();
        assert_eq!((sink.fires, sink.attempts), (1, 2));
        assert_eq!(sink.windows_closed, 3);
        assert_eq!(sink.queue_high_water, 6);
        assert_eq!(sink.events_expired, 9);
        // Only the sink firing with an origin feeds the latency histogram.
        assert_eq!(s.latency.count, 1);
        assert_eq!(s.latency.sum_micros, 30);
    }

    #[test]
    fn non_sink_origins_do_not_feed_latency() {
        let r = recorder2();
        r.on_fire_end(&fire(0, 1, Some(5), 9));
        assert_eq!(r.snapshot().latency.count, 0);
    }

    /// A snapshot in which every group has a sample, so every declared
    /// row is rendered.
    fn snapshot_with_every_group() -> MetricsSnapshot {
        let r = MetricsRecorder::with_names(vec!["src".into(), "sink".into()], vec![false, true])
            .with_edges(vec![(ActorId(0), ActorId(1), 0)]);
        r.on_topology(&TopologySnapshot {
            actors: vec![ActorTopology {
                id: ActorId(1),
                name: "sink".into(),
                ports: 1,
                inbox: std::sync::Weak::new(),
            }],
        });
        r.on_worker(&WorkerMetrics {
            worker: 0,
            fires: 0,
            steals: 0,
            queue_depth: 0,
            busy_micros: 0,
        });
        r.snapshot()
    }

    /// The rows of one table against the rendered outputs: `open` opens
    /// the group's (flat) JSON object.
    fn check_table<T>(
        table: &[Metric<T>],
        open: &str,
        (json, prom): (&str, &str),
        names: &mut Vec<&'static str>,
    ) {
        let (_, rest) = json.split_once(open).unwrap_or_else(|| panic!("no {open} in {json}"));
        let object = rest.split_once('}').unwrap().0;
        for m in table {
            if let Some(key) = m.json {
                assert!(object.contains(&format!("\"{key}\":")), "{key} missing from {object}");
            }
            let Some((kind, name, _)) = m.prom else {
                continue;
            };
            names.push(name);
            let ty = if kind == Kind::Counter { "counter" } else { "gauge" };
            let lines = |prefix: String| prom.lines().filter(|l| l.starts_with(&prefix)).count();
            assert_eq!(lines(format!("# HELP {name} ")), 1, "{name} HELP");
            assert_eq!(lines(format!("# TYPE {name} ")), 1, "{name} TYPE");
            assert_eq!(lines(format!("# TYPE {name} {ty}")), 1, "{name} is a {ty}");
            assert_eq!(name.ends_with("_total"), kind == Kind::Counter, "{name} suffix");
        }
    }

    #[test]
    fn every_declared_metric_reaches_its_outputs() {
        let s = snapshot_with_every_group();
        let (json, prom) = (s.to_json(), s.to_prometheus());
        let out = (json.as_str(), prom.as_str());
        let mut names = Vec::new();
        check_table(ACTOR, "\"actors\":[{", out, &mut names);
        check_table(EDGE, "\"edges\":[{", out, &mut names);
        check_table(PORT, "\"ports\":[{", out, &mut names);
        check_table(WORKER, "\"workers\":[{", out, &mut names);
        let declared = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), declared, "Prometheus names are unique");
    }

    #[test]
    fn microsecond_histogram_has_integer_cumulative_buckets() {
        let r = recorder2();
        for (origin, ended) in [(0, 3), (0, 3), (0, 1000)] {
            r.on_fire_end(&fire(1, 1, Some(origin), ended));
        }
        let text = r.snapshot().to_prometheus();
        // Occupied γ-buckets only: integer `le` bounds, cumulative counts.
        let les: Vec<(u64, u64)> = text
            .lines()
            .filter(|l| {
                l.starts_with("confluence_latency_us_bucket{le=\"") && !l.contains("+Inf")
            })
            .map(|l| {
                let le = l.split('"').nth(1).unwrap().parse().unwrap();
                let v = l.rsplit(' ').next().unwrap().parse().unwrap();
                (le, v)
            })
            .collect();
        assert_eq!(les.len(), 2, "two occupied buckets:\n{text}");
        // 3µs bucket: bound covers the sample within the 1% γ-width.
        assert!(les[0].0 >= 3 && les[0].0 <= 4 && les[0].1 == 2, "{les:?}");
        assert!(les[1].0 >= 1000 && les[1].0 <= 1021 && les[1].1 == 3, "{les:?}");
        assert!(text.contains("confluence_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("confluence_latency_us_sum 1006"));
        assert!(text.contains("confluence_latency_us_count 3"));
        assert!(text.contains("confluence_latency_summary_us_count 3"));
    }

    #[test]
    fn port_depths_follow_the_reported_topology() {
        use std::sync::Weak;
        let r = recorder2();
        r.on_topology(&TopologySnapshot {
            actors: vec![ActorTopology {
                id: ActorId(1),
                name: "sink".into(),
                ports: 2,
                inbox: Weak::new(),
            }],
        });
        let s = r.snapshot();
        assert_eq!(s.ports.len(), 2);
        assert_eq!(s.ports[0], PortDepthMetrics { actor: "sink".into(), port: 0, depth: 0 });
        // Without a reported topology the section is absent.
        assert!(!recorder2().snapshot().to_prometheus().contains("confluence_port_depth"));
    }

    #[test]
    fn edge_counts_are_attributed() {
        let r = recorder2().with_edges(vec![(ActorId(0), ActorId(1), 0)]);
        r.on_route_edge(ActorId(0), ActorId(1), 0, 5, Timestamp(1));
        r.on_route_edge(ActorId(0), ActorId(1), 0, 2, Timestamp(2));
        // Deliveries on an undeclared edge are ignored, not misattributed.
        r.on_route_edge(ActorId(1), ActorId(0), 3, 99, Timestamp(3));
        let s = r.snapshot();
        assert_eq!(s.edges.len(), 1);
        let e = &s.edges[0];
        assert_eq!((e.from, e.to, e.port, e.events), (ActorId(0), ActorId(1), 0, 7));
        assert_eq!((e.from_name.as_str(), e.to_name.as_str()), ("src", "sink"));
    }

    #[test]
    fn a_parked_batch_counts_each_delivery_once() {
        use crate::actors::{Collector, VecSource};
        use crate::channel::ChannelPolicy;
        use crate::director::Fabric;
        use crate::graph::WorkflowBuilder;
        use crate::token::Token;

        let mut b = WorkflowBuilder::new("park");
        let s = b.add_actor("src", VecSource::new(vec![]));
        let k = b.add_actor("sink", Collector::new().actor());
        b.set_default_channel_policy(ChannelPolicy::block(3));
        b.link((s, "out"), (k, "in")).unwrap();
        let wf = b.build().unwrap();
        let r = Arc::new(MetricsRecorder::for_workflow(&wf));
        let mut fabric = Fabric::build(&wf).unwrap();
        fabric.observe(&wf, Some(r.clone()));
        let emissions = (0..5).map(|i| (0, Token::Int(i))).collect();
        let mut stamped = fabric.stamp(s, emissions, None, Timestamp(1));
        let full = fabric.deliver(&mut stamped, Timestamp(1), true).unwrap();
        assert!(full.is_some(), "the block port parks the batch");
        let parked = r.snapshot().events_routed;
        assert!(0 < parked && parked < 5, "a part went in: {parked}");
        while fabric.inbox(k).try_pop().is_some() {}
        let full = fabric.deliver(&mut stamped, Timestamp(2), true).unwrap();
        assert!(full.is_none(), "the rest fits once the sink drained");
        let snap = r.snapshot();
        assert_eq!(snap.events_routed, 5);
        assert_eq!(snap.actor("src").unwrap().routed_out, 5);
        assert_eq!(snap.actor("sink").unwrap().routed_out, 0);
        assert_eq!(snap.edges[0].events, 5);
    }

    #[test]
    fn recorder_aggregates_backpressure_hooks() {
        let r = recorder2();
        r.on_block(ActorId(1), 0, Micros(200), Timestamp(5));
        r.on_block(ActorId(1), 0, Micros(300), Timestamp(6));
        r.on_shed(ActorId(1), 0, 4, Timestamp(7));
        let s = r.snapshot();
        let sink = s.actor("sink").unwrap();
        assert_eq!(sink.blocks, 2);
        assert_eq!(sink.block_time, Micros(500));
        assert_eq!(sink.events_shed, 4);
        assert_eq!(s.total_blocks(), 2);
        assert_eq!(s.total_block_time(), Micros(500));
        assert_eq!(s.total_shed(), 4);
    }

    #[test]
    fn recorder_collects_worker_metrics() {
        let r = recorder2();
        let w1 = WorkerMetrics {
            worker: 1,
            fires: 8,
            steals: 2,
            queue_depth: 5,
            busy_micros: 90,
        };
        let w0 = WorkerMetrics {
            worker: 0,
            fires: 12,
            steals: 0,
            queue_depth: 3,
            busy_micros: 140,
        };
        r.on_worker(&w1);
        r.on_worker(&w0);
        // Re-reporting the same worker replaces, not duplicates.
        r.on_worker(&w0);
        let s = r.snapshot();
        assert_eq!(s.workers, vec![w0, w1], "sorted by worker index");
    }

    #[test]
    fn worker_sections_absent_without_pool_runs() {
        let r = recorder2();
        let s = r.snapshot();
        assert!(s.workers.is_empty());
        assert!(s.to_json().contains("\"workers\":[]"));
        assert!(!s.to_prometheus().contains("confluence_worker_"));
        assert!(!s.render_table().contains("worker 0"));
    }
}
