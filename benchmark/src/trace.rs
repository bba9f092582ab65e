//! Tracing from outside the program: a benchmark-owned [`Observer`] that
//! stamps every firing with its own `Instant`s, a counting allocator, and
//! the Chrome-JSON writer. Nothing here runs during an untraced run except
//! one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use confluence_core::graph::{ActorId, Workflow};
use confluence_core::telemetry::{FireRecord, Observer, WorkerMetrics};
use confluence_core::time::Timestamp;

use crate::json::quote;

/// One firing, timed by the benchmark (not by the director's clock).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub actor: u32,
    /// Nanoseconds since the observer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Origin timestamp (director µs) of the wave that triggered the
    /// firing — the identifier all spans of one report share. `u64::MAX`
    /// for source firings.
    pub wave_origin_us: u64,
    pub events_in: u32,
    pub tokens_out: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records a [`Span`] per successful firing, per-actor so two pool workers
/// never contend on one vector.
pub struct SpanObserver {
    epoch: Instant,
    names: Vec<String>,
    open: Vec<AtomicU64>,
    spans: Vec<Mutex<Vec<Span>>>,
    workers: Mutex<Vec<WorkerMetrics>>,
}

impl SpanObserver {
    /// An observer for `workflow`, with "now" as time zero.
    pub fn new(workflow: &Workflow) -> Self {
        let names: Vec<String> = workflow
            .actor_ids()
            .map(|id| workflow.node(id).name.clone())
            .collect();
        SpanObserver {
            epoch: Instant::now(),
            open: names.iter().map(|_| AtomicU64::new(0)).collect(),
            spans: names.iter().map(|_| Mutex::new(Vec::new())).collect(),
            workers: Mutex::new(Vec::new()),
            names,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of the actor called `name`.
    pub fn actor(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// All spans of one actor, in firing order.
    pub fn spans_of(&self, actor: usize) -> Vec<Span> {
        self.spans[actor].lock().expect("span lock").clone()
    }

    /// Every span, ordered by start.
    pub fn all_spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = (0..self.names.len())
            .flat_map(|a| self.spans_of(a))
            .collect();
        all.sort_by_key(|s| s.start_ns);
        all
    }

    /// End-of-run pool worker counters (empty under other directors).
    pub fn workers(&self) -> Vec<WorkerMetrics> {
        self.workers.lock().expect("worker lock").clone()
    }
}

impl Observer for SpanObserver {
    fn on_fire_start(&self, actor: ActorId, _at: Timestamp) {
        // Relaxed: an actor fires on one thread at a time and the director
        // orders start before end; the value publishes nothing else.
        self.open[actor.index()].store(self.now_ns(), Ordering::Relaxed);
    }

    fn on_fire_end(&self, record: &FireRecord) {
        if !record.fired {
            return;
        }
        let a = record.actor.index();
        let span = Span {
            actor: a as u32,
            start_ns: self.open[a].load(Ordering::Relaxed),
            end_ns: self.now_ns(),
            wave_origin_us: record.origin.map_or(u64::MAX, |t| t.as_micros()),
            events_in: record.events_in as u32,
            tokens_out: record.tokens_out as u32,
        };
        self.spans[a].lock().expect("span lock").push(span);
    }

    fn on_worker(&self, metrics: &WorkerMetrics) {
        self.workers
            .lock()
            .expect("worker lock")
            .push(metrics.clone());
    }
}

/// Write spans as Chrome trace JSON (`chrome://tracing`, Perfetto): one
/// complete event per span, one track per actor.
pub fn write_chrome_json(path: &Path, names: &[String], spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (tid, name) in names.iter().enumerate() {
        writeln!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}},",
            quote(name)
        )?;
    }
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let wave = if s.wave_origin_us == u64::MAX {
            "null".to_string()
        } else {
            s.wave_origin_us.to_string()
        };
        writeln!(
            w,
            "{{\"name\":{},\"cat\":\"fire\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"wave_origin_us\":{wave},\"in\":{},\"out\":{}}}}}{sep}",
            quote(&names[s.actor as usize]),
            s.actor,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.events_in,
            s.tokens_out,
        )?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

/// The system allocator plus two counters, armed only by a traced run.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Count the allocations `f` makes: `(result, allocations, bytes)`.
/// Exact when `f` runs on this thread only and nothing else allocates.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}
