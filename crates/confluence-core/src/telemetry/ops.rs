//! Live ops endpoint: a std-only TCP/HTTP server over the telemetry
//! layer, plus the stall watchdog behind its `/healthz` route.
//!
//! The server is deliberately minimal — one thread, `std::net` only,
//! HTTP/1.0 with `Connection: close` — consistent with the
//! offline-vendored workspace (no async runtime, no HTTP crate). It
//! serves five routes over shared telemetry handles:
//!
//! * `GET /metrics` — the Prometheus text exposition of a live
//!   [`MetricsRecorder`] snapshot;
//! * `GET /snapshot` — the same snapshot as JSON;
//! * `GET /series?key=<k>` — one sampled time series as CSV (all series
//!   as `tick_us,key,value` rows when `key` is omitted);
//! * `GET /trace` — the wave tracer's Chrome-trace JSON (404 when
//!   tracing is off);
//! * `GET /healthz` — the stall watchdog's verdict: 200 when healthy or
//!   idle, 503 with a JSON diagnosis when the run appears stalled.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::time::Timestamp;

use super::{json, MetricsRecorder, Observer, RunPhase, TimeSeriesRecorder, Tracer};

/// How often the accept loop polls for shutdown between connections.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Overall budget for reading one request head. The per-read timeout
/// alone would let a slow-loris client trickling one byte per read hold
/// the single accept thread (and starve the liveness poll) indefinitely.
const CONN_DEADLINE: Duration = Duration::from_secs(2);

/// Configuration for the ops endpoint.
#[derive(Debug, Clone)]
pub struct OpsConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 = ephemeral).
    pub addr: String,
    /// `/healthz` reports a stall when the whole engine makes no
    /// progress (no firing, no routing) for longer than this while a
    /// run is active.
    pub progress_stall: Duration,
    /// `/healthz` reports a per-actor stall when an actor has not fired
    /// for longer than this while a run is active.
    pub actor_stall: Duration,
}

impl OpsConfig {
    /// Config with default stall thresholds (5 s progress, 30 s actor).
    pub fn new(addr: impl Into<String>) -> Self {
        OpsConfig {
            addr: addr.into(),
            progress_stall: Duration::from_secs(5),
            actor_stall: Duration::from_secs(30),
        }
    }

    /// Override the whole-engine progress stall threshold.
    pub fn progress_stall(mut self, after: Duration) -> Self {
        self.progress_stall = after;
        self
    }

    /// Override the per-actor last-fire stall threshold.
    pub fn actor_stall(mut self, after: Duration) -> Self {
        self.actor_stall = after;
        self
    }
}

/// Reporting-side baseline: the last counter values the watchdog saw and
/// when (millis since the watchdog's epoch) each last changed.
#[derive(Default)]
struct Seen {
    /// `(counter, last_change_ms)` for engine-wide progress.
    progress: (u64, u64),
    /// `(counter, last_change_ms)` per actor, in reported order.
    actors: Vec<(u64, u64)>,
    /// Forces a re-baseline on the next observation (set at run start so
    /// stale pre-run ages never count against a fresh run).
    rebaseline: bool,
}

/// Liveness verdict for `/healthz`, computed entirely off the hot path.
///
/// The watchdog adds **zero** per-firing work: instead of observing every
/// fire, it compares the metrics recorder's existing cumulative counters
/// between observations (the ops server's accept loop feeds it every few
/// milliseconds) and ages whatever has stopped moving. An active run is
/// unhealthy when engine-wide progress (fires + routed events) or any
/// single actor's fire count has been flat for longer than the configured
/// threshold; idle engines are healthy by definition.
pub struct StallWatchdog {
    progress_stall: Duration,
    actor_stall: Duration,
    /// Wall epoch for ages, fixed at construction.
    origin: Instant,
    running: AtomicBool,
    seen: Mutex<Seen>,
}

impl StallWatchdog {
    /// Watchdog with the given thresholds.
    pub fn new(progress_stall: Duration, actor_stall: Duration) -> Self {
        StallWatchdog {
            progress_stall,
            actor_stall,
            origin: Instant::now(),
            running: AtomicBool::new(false),
            seen: Mutex::new(Seen::default()),
        }
    }

    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    /// Whether a run is currently active.
    pub fn running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }

    /// Fold one observation of the cumulative counters into the
    /// baselines: `progress` is any engine-wide monotone counter (the ops
    /// server uses fires + routed events), `actor_fires` the per-actor
    /// cumulative fire counts. Returns `(progress_age_ms, per-actor
    /// age_ms)` as of this observation.
    pub fn observe(&self, progress: u64, actor_fires: &[u64]) -> (u64, Vec<u64>) {
        let now = self.now_ms();
        let mut seen = self.seen.lock();
        if seen.rebaseline || seen.actors.len() != actor_fires.len() {
            seen.progress = (progress, now);
            seen.actors = actor_fires.iter().map(|&f| (f, now)).collect();
            seen.rebaseline = false;
        }
        if progress != seen.progress.0 {
            seen.progress = (progress, now);
        }
        for (slot, &fires) in seen.actors.iter_mut().zip(actor_fires) {
            if fires != slot.0 {
                *slot = (fires, now);
            }
        }
        let progress_age = now.saturating_sub(seen.progress.1);
        let actor_ages = seen
            .actors
            .iter()
            .map(|&(_, at)| now.saturating_sub(at))
            .collect();
        (progress_age, actor_ages)
    }

    /// The watchdog's verdict: `(healthy, json_body)`. Counters as in
    /// [`StallWatchdog::observe`]; `names` labels `actor_fires` (shorter
    /// slices fall back to `actor N`).
    pub fn report(&self, progress: u64, names: &[&str], actor_fires: &[u64]) -> (bool, String) {
        let running = self.running();
        let (progress_age, actor_ages) = self.observe(progress, actor_fires);
        let progress_stalled = running && progress_age > self.progress_stall.as_millis() as u64;
        let mut stalled_actors = Vec::new();
        if running {
            for (i, &age) in actor_ages.iter().enumerate() {
                if age > self.actor_stall.as_millis() as u64 {
                    let name = names
                        .get(i)
                        .map(|n| n.to_string())
                        .unwrap_or_else(|| format!("actor {i}"));
                    stalled_actors.push((name, age));
                }
            }
        }
        let healthy = !progress_stalled && stalled_actors.is_empty();
        let mut body = format!(
            "{{\"healthy\":{healthy},\"running\":{running},\"progress_age_ms\":{progress_age},\
             \"progress_stalled\":{progress_stalled},\"stalled_actors\":["
        );
        for (i, (name, age)) in stalled_actors.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"actor\":{},\"last_fire_age_ms\":{age}}}",
                json::string(name)
            ));
        }
        body.push_str("]}");
        (healthy, body)
    }
}

impl Observer for StallWatchdog {
    fn on_run_phase(&self, phase: RunPhase, _at: Timestamp) {
        match phase {
            RunPhase::Start => {
                self.seen.lock().rebaseline = true;
                self.running.store(true, Ordering::Release);
            }
            RunPhase::End => self.running.store(false, Ordering::Release),
            _ => {}
        }
    }
}

/// A telemetry handle the server looks up per request, so its owner can
/// attach it after the endpoint is bound.
pub type LateBound<T> = Arc<Mutex<Option<Arc<T>>>>;

/// The telemetry handles the server reads from. All shared: the server
/// never blocks the engine.
#[derive(Clone)]
pub struct OpsState {
    /// Metrics source for `/metrics` and `/snapshot`.
    pub recorder: Arc<MetricsRecorder>,
    /// Series source for `/series` (404 while absent).
    pub series: LateBound<TimeSeriesRecorder>,
    /// Trace source for `/trace` (404 while absent).
    pub tracer: LateBound<Tracer>,
    /// Liveness source for `/healthz`.
    pub watchdog: Arc<StallWatchdog>,
}

impl OpsState {
    /// Feed the watchdog one observation of the recorder's cumulative
    /// counters (the accept loop calls this between connections so a
    /// single `/healthz` scrape after a stall sees accurate ages).
    fn observe_liveness(&self) {
        if !self.watchdog.running() {
            return;
        }
        // Raw counter loads only — no snapshot materialization. The poll
        // runs every few milliseconds and (on small machines) competes
        // with the worker threads for cycles and cache lines.
        let fires = self.recorder.fires_by_actor();
        let progress = fires.iter().sum::<u64>() + self.recorder.total_routed();
        self.watchdog.observe(progress, &fires);
    }

    /// The watchdog verdict over the recorder's current counters.
    fn healthz(&self) -> (bool, String) {
        let names: Vec<&str> = self.recorder.names().iter().map(String::as_str).collect();
        let fires = self.recorder.fires_by_actor();
        let progress = fires.iter().sum::<u64>() + self.recorder.total_routed();
        self.watchdog.report(progress, &names, &fires)
    }
}

/// A running ops endpoint: one server thread over a non-blocking
/// listener. Shuts down (and joins the thread) on drop.
pub struct OpsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OpsServer {
    /// Bind `config.addr` and start serving `state`.
    pub fn bind(config: &OpsConfig, state: OpsState) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let handle = std::thread::Builder::new()
            .name("cwf-ops".into())
            .spawn(move || serve(listener, state, stop))
            .expect("spawn ops server thread");
        Ok(OpsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve(listener: TcpListener, state: OpsState, shutdown: Arc<AtomicBool>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // Served inline: telemetry reads are cheap and the
                // endpoint is an ops surface, not a public API.
                let _ = handle_connection(stream, &state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                state.observe_liveness();
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &OpsState) -> std::io::Result<()> {
    // Accepted sockets inherit the listener's non-blocking flag on
    // macOS/BSD and Windows (Linux's accept4 strips it); without this the
    // read below returns WouldBlock immediately and every connection dies.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut buf = [0u8; 2048];
    let mut request = Vec::new();
    let deadline = Instant::now() + CONN_DEADLINE;
    // Read until the end of the request head (GET requests carry no body).
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        request.extend_from_slice(&buf[..n]);
        if request.windows(4).any(|w| w == b"\r\n\r\n") || request.len() > 16 * 1024 {
            break;
        }
        if Instant::now() >= deadline {
            return respond(&mut stream, 408, "text/plain", "request timeout");
        }
    }
    let head = String::from_utf8_lossy(&request);
    let mut parts = head.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return respond(&mut stream, 400, "text/plain", "bad request"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };
    match path {
        "/metrics" => {
            let body = state.recorder.snapshot().to_prometheus();
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/snapshot" => {
            let body = state.recorder.snapshot().to_json();
            respond(&mut stream, 200, "application/json", &body)
        }
        "/series" => match state.series.lock().clone() {
            None => respond(&mut stream, 404, "text/plain", "series sampling is off"),
            Some(series) => {
                let body = match query.and_then(|q| query_param(q, "key")) {
                    Some(key) => series.to_csv(&key),
                    None => series.to_csv_all(),
                };
                respond(&mut stream, 200, "text/csv", &body)
            }
        },
        "/trace" => match state.tracer.lock().clone() {
            None => respond(&mut stream, 404, "text/plain", "tracing is off"),
            Some(tracer) => {
                let body = tracer.report().to_chrome_json();
                respond(&mut stream, 200, "application/json", &body)
            }
        },
        "/healthz" => {
            let (healthy, body) = state.healthz();
            let status = if healthy { 200 } else { 503 };
            respond(&mut stream, status, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "unknown route"),
    }
}

/// Extract a query parameter value, percent-decoded.
fn query_param(query: &str, name: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| percent_decode(v))
    })
}

fn percent_decode(s: &str) -> String {
    // Byte-level only: slicing the &str at `i + 1..i + 3` would panic on
    // a non-char-boundary (the query passes through from_utf8_lossy, so a
    // raw non-UTF-8 byte after '%' becomes a 3-byte U+FFFD) — a one-packet
    // way to unwind the single ops-server thread.
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let decoded = std::str::from_utf8(&bytes[i + 1..i + 3])
                    .ok()
                    .and_then(|hex| u8::from_str_radix(hex, 16).ok());
                match decoded {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal HTTP GET against a local ops endpoint, for tests and smoke
/// binaries (curl-free). Returns `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n")?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let text = String::from_utf8_lossy(&response).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
    Ok((status, body.to_string()))
}

/// Keyed accessor used by tests: fetch every route once and return the
/// bodies by path.
pub fn scrape_all(addr: SocketAddr) -> std::io::Result<HashMap<&'static str, (u16, String)>> {
    let mut out = HashMap::new();
    for path in ["/metrics", "/snapshot", "/series", "/trace", "/healthz"] {
        out.insert(path, http_get(addr, path)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ActorId;
    use crate::time::Micros;

    fn recorder() -> Arc<MetricsRecorder> {
        Arc::new(MetricsRecorder::with_names(
            vec!["src".into(), "sink".into()],
            vec![false, true],
        ))
    }

    fn watchdog() -> Arc<StallWatchdog> {
        Arc::new(StallWatchdog::new(
            Duration::from_millis(50),
            Duration::from_millis(80),
        ))
    }

    fn fire(actor: usize) -> crate::telemetry::FireRecord {
        crate::telemetry::FireRecord {
            actor: ActorId(actor),
            started: Timestamp(1),
            ended: Timestamp(2),
            busy: Micros(1),
            events_in: 1,
            tokens_out: 1,
            origin: None,
            trigger: None,
            fired: true,
        }
    }

    #[test]
    fn watchdog_is_healthy_when_idle() {
        let w = watchdog();
        let (healthy, body) = w.report(0, &[], &[]);
        assert!(healthy);
        assert!(body.contains("\"running\":false"));
    }

    #[test]
    fn watchdog_flags_a_stalled_run_and_recovers() {
        let w = watchdog();
        w.on_run_phase(RunPhase::Start, Timestamp(0));
        let names = ["src", "sink"];
        let (healthy, _) = w.report(10, &names, &[5, 5]);
        assert!(healthy, "fresh run is healthy");
        // Counters flat past the progress threshold: stalled.
        std::thread::sleep(Duration::from_millis(70));
        let (healthy, body) = w.report(10, &names, &[5, 5]);
        assert!(!healthy, "no progress past the threshold: {body}");
        assert!(body.contains("\"progress_stalled\":true"));
        // Any counter movement clears the stall; run end makes it
        // unconditionally healthy.
        let (healthy, _) = w.report(11, &names, &[6, 5]);
        assert!(healthy);
        std::thread::sleep(Duration::from_millis(100));
        w.on_run_phase(RunPhase::End, Timestamp(9));
        assert!(w.report(11, &names, &[6, 5]).0, "idle engines are healthy");
    }

    #[test]
    fn watchdog_flags_a_single_stalled_actor() {
        let w = StallWatchdog::new(Duration::from_secs(60), Duration::from_millis(40));
        w.on_run_phase(RunPhase::Start, Timestamp(0));
        let names = ["src", "sink"];
        w.report(1, &names, &[1, 1]);
        std::thread::sleep(Duration::from_millis(60));
        // Engine-wide progress keeps moving but the sink never fires.
        let (healthy, body) = w.report(2, &names, &[2, 1]);
        assert!(!healthy, "stalled actor must flip health: {body}");
        assert!(body.contains("\"actor\":\"sink\""), "diagnosis names it: {body}");
        assert!(!body.contains("\"actor\":\"src\""));
    }

    #[test]
    fn stalled_actor_names_are_json_escaped() {
        let w = StallWatchdog::new(Duration::from_secs(60), Duration::from_millis(20));
        w.on_run_phase(RunPhase::Start, Timestamp(0));
        let names = ["a\\\"b\\\n"];
        w.report(1, &names, &[1]);
        std::thread::sleep(Duration::from_millis(40));
        let (healthy, body) = w.report(2, &names, &[1]);
        assert!(!healthy);
        // Quote, backslash and newline all escaped: the body stays one
        // valid JSON document.
        assert!(
            body.contains(r#"{"actor":"a\\\"b\\\n","last_fire_age_ms":"#),
            "stalled actor name must be a JSON string: {body}"
        );
        assert!(!body.contains('\n'));
    }

    #[test]
    fn server_serves_metrics_and_healthz() {
        let rec = recorder();
        rec.on_fire_end(&crate::telemetry::FireRecord {
            origin: Some(Timestamp(1)),
            ..fire(1)
        });
        let state = OpsState {
            recorder: rec.clone(),
            series: LateBound::default(),
            tracer: LateBound::default(),
            watchdog: watchdog(),
        };
        let server = OpsServer::bind(&OpsConfig::new("127.0.0.1:0"), state).unwrap();
        let (status, body) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, rec.snapshot().to_prometheus(), "byte-identical scrape");
        let (status, body) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"healthy\":true"));
        let (status, _) = http_get(server.addr(), "/series").unwrap();
        assert_eq!(status, 404, "series sampling off");
        let (status, _) = http_get(server.addr(), "/trace").unwrap();
        assert_eq!(status, 404, "tracing off");
        let (status, _) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn series_route_serves_csv_by_key() {
        let series = Arc::new(TimeSeriesRecorder::new(Micros(1), recorder()));
        series.record_point("depth:sink", 10, 3);
        let state = OpsState {
            recorder: recorder(),
            series: Arc::new(Mutex::new(Some(series))),
            tracer: LateBound::default(),
            watchdog: watchdog(),
        };
        let server = OpsServer::bind(&OpsConfig::new("127.0.0.1:0"), state).unwrap();
        let (status, body) = http_get(server.addr(), "/series?key=depth%3Asink").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "tick_us,value\n10,3\n");
        let (status, body) = http_get(server.addr(), "/series").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("10,depth:sink,3"));
    }

    #[test]
    fn percent_decoding_handles_common_escapes() {
        assert_eq!(percent_decode("depth%3Asink"), "depth:sink");
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(query_param("a=1&key=fires%3Asrc", "key").as_deref(), Some("fires:src"));
        assert_eq!(query_param("a=1", "key"), None);
    }

    #[test]
    fn percent_decoding_survives_lossy_multibyte_input() {
        // A raw non-UTF-8 byte after '%' reaches the decoder as a 3-byte
        // U+FFFD via from_utf8_lossy; str-offset slicing panicked here.
        let lossy = String::from_utf8_lossy(b"%\xFFA");
        assert_eq!(percent_decode(&lossy), format!("%{}A", '\u{FFFD}'));
        assert_eq!(percent_decode("%\u{00e9}x"), "%\u{00e9}x");
        assert_eq!(percent_decode("ok%2"), "ok%2", "truncated escape is literal");
    }

    #[test]
    fn malformed_query_bytes_do_not_kill_the_server() {
        let series = Arc::new(TimeSeriesRecorder::new(Micros(1), recorder()));
        series.record_point("depth:sink", 10, 3);
        let state = OpsState {
            recorder: recorder(),
            series: Arc::new(Mutex::new(Some(series))),
            tracer: LateBound::default(),
            watchdog: watchdog(),
        };
        let server = OpsServer::bind(&OpsConfig::new("127.0.0.1:0"), state).unwrap();
        // Raw non-UTF-8 byte right after '%' in the query string.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream
            .write_all(b"GET /series?key=%\xFFA HTTP/1.0\r\n\r\n")
            .unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        assert!(response.starts_with(b"HTTP/1.0 200"), "decoder must not panic");
        // The server thread is still alive and serving afterwards.
        let (status, _) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
    }
}
