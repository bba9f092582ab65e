//! Checkpoint & recovery: quiesced snapshots plus source event logs.
//!
//! A checkpoint captures everything a continuous workflow needs to resume
//! mid-stream and *reconverge* on the uninterrupted run's results:
//!
//! * per-actor durable state ([`crate::actor::Actor::save_state`]);
//! * the fabric's in-flight data — windows queued in actor inboxes and
//!   partial windows buffered inside each port's window operator
//!   ([`FabricState`]);
//! * engine-registered external resources such as relational stores
//!   ([`CheckpointResource`]);
//! * each source's read offset into its **event log** ([`EventLog`] /
//!   [`LoggedSource`]): every emission a source makes is appended to a
//!   length-prefixed log so a recovered run can replay the exact token
//!   stream the killed run produced past the snapshot point.
//!
//! The directors cooperate through a [`QuiesceHook`]: when a checkpoint is
//! due the engine requests a pause, the director stops sources, drains
//! in-flight work to a firing boundary, and deposits the captured
//! [`FabricState`] instead of running its end-of-stream teardown.

pub mod codec;

use std::collections::VecDeque;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::actor::{Actor, FireContext, IoSignature, SdfRates};
use crate::error::{Error, Result};
use crate::time::Timestamp;
use crate::token::Token;
use crate::window::{GroupSnapshot, OperatorSnapshot, Window};
use codec::{Decoder, Encoder};

/// Magic bytes opening every checkpoint file.
const MAGIC: &[u8; 4] = b"CFLC";
/// Checkpoint file format version.
const VERSION: u32 = 1;

/// File name of the snapshot inside a checkpoint directory.
pub const SNAPSHOT_FILE: &str = "checkpoint.bin";

/// Path of the event log for the named source inside a checkpoint
/// directory.
pub fn log_path(dir: &Path, actor: &str) -> PathBuf {
    // Actor names are workflow identifiers, but guard against separators
    // so a hostile name cannot escape the directory.
    let safe: String = actor
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    dir.join(format!("log-{safe}.bin"))
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Checkpoint(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------------
// Fabric state
// ---------------------------------------------------------------------------

/// Captured in-flight state of one actor: its ready-window inbox and the
/// window-operator state of each input port.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActorFabricState {
    /// Queued `(input port, window)` pairs, front first.
    pub inbox: Vec<(usize, Window)>,
    /// Per-input-port operator snapshots, in port order.
    pub ports: Vec<OperatorSnapshot>,
}

/// Captured in-flight state of the whole fabric, indexed by actor id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FabricState {
    /// Per-actor state, in actor-id order.
    pub actors: Vec<ActorFabricState>,
}

fn encode_events(e: &mut Encoder, events: &[crate::event::CwEvent]) {
    e.u32(events.len() as u32);
    for ev in events {
        e.event(ev);
    }
}

fn decode_events(d: &mut Decoder<'_>) -> Result<Vec<crate::event::CwEvent>> {
    let n = d.u32()? as usize;
    let mut events = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        events.push(d.event()?);
    }
    Ok(events)
}

fn encode_windows(e: &mut Encoder, windows: &[Window]) {
    e.u32(windows.len() as u32);
    for w in windows {
        e.window(w);
    }
}

fn decode_windows(d: &mut Decoder<'_>) -> Result<Vec<Window>> {
    let n = d.u32()? as usize;
    let mut windows = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        windows.push(d.window()?);
    }
    Ok(windows)
}

fn encode_group(e: &mut Encoder, g: &GroupSnapshot) {
    match g {
        GroupSnapshot::Tuples {
            key,
            events,
            front_seq,
            next_seq,
            next_start,
        } => {
            e.u8(0);
            e.token(key);
            encode_events(e, events);
            e.u64(*front_seq);
            e.u64(*next_seq);
            e.u64(*next_start);
        }
        GroupSnapshot::Time {
            key,
            events,
            watermark,
            next_k,
        } => {
            e.u8(1);
            e.token(key);
            encode_events(e, events);
            e.u64(*watermark);
            e.u64(*next_k);
        }
        GroupSnapshot::Wave { key, events } => {
            e.u8(2);
            e.token(key);
            encode_events(e, events);
        }
    }
}

fn decode_group(d: &mut Decoder<'_>) -> Result<GroupSnapshot> {
    match d.u8()? {
        0 => {
            let key = d.token()?;
            let events = decode_events(d)?;
            Ok(GroupSnapshot::Tuples {
                key,
                events,
                front_seq: d.u64()?,
                next_seq: d.u64()?,
                next_start: d.u64()?,
            })
        }
        1 => {
            let key = d.token()?;
            let events = decode_events(d)?;
            Ok(GroupSnapshot::Time {
                key,
                events,
                watermark: d.u64()?,
                next_k: d.u64()?,
            })
        }
        2 => Ok(GroupSnapshot::Wave {
            key: d.token()?,
            events: decode_events(d)?,
        }),
        tag => Err(Error::Checkpoint(format!("unknown group snapshot tag {tag}"))),
    }
}

fn encode_operator(e: &mut Encoder, op: &OperatorSnapshot) {
    e.u32(op.groups.len() as u32);
    for g in &op.groups {
        encode_group(e, g);
    }
    encode_windows(e, &op.ready);
    encode_events(e, &op.expired);
}

fn decode_operator(d: &mut Decoder<'_>) -> Result<OperatorSnapshot> {
    let n = d.u32()? as usize;
    let mut groups = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        groups.push(decode_group(d)?);
    }
    Ok(OperatorSnapshot {
        groups,
        ready: decode_windows(d)?,
        expired: decode_events(d)?,
    })
}

impl FabricState {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.actors.len() as u32);
        for actor in &self.actors {
            e.u32(actor.inbox.len() as u32);
            for (port, window) in &actor.inbox {
                e.u32(*port as u32);
                e.window(window);
            }
            e.u32(actor.ports.len() as u32);
            for op in &actor.ports {
                encode_operator(e, op);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<FabricState> {
        let n = d.u32()? as usize;
        let mut actors = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let k = d.u32()? as usize;
            let mut inbox = Vec::with_capacity(k.min(1 << 16));
            for _ in 0..k {
                let port = d.u32()? as usize;
                inbox.push((port, d.window()?));
            }
            let p = d.u32()? as usize;
            let mut ports = Vec::with_capacity(p.min(1 << 16));
            for _ in 0..p {
                ports.push(decode_operator(d)?);
            }
            actors.push(ActorFabricState { inbox, ports });
        }
        Ok(FabricState { actors })
    }

    /// Total windows and buffered events captured (diagnostics).
    pub fn item_count(&self) -> usize {
        self.actors
            .iter()
            .map(|a| {
                a.inbox.len()
                    + a.ports
                        .iter()
                        .map(|p| p.groups.len() + p.ready.len() + p.expired.len())
                        .sum::<usize>()
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint container
// ---------------------------------------------------------------------------

/// External durable state saved and restored alongside a checkpoint —
/// anything actors share through handles rather than own, e.g. the
/// relational store behind [`crate::graph`] workflows.
pub trait CheckpointResource: Send + Sync {
    /// Serialize the resource's current contents.
    fn save(&self) -> Result<Vec<u8>>;
    /// Replace the resource's contents with a previously saved snapshot.
    fn restore(&self, bytes: &[u8]) -> Result<()>;
}

/// One complete, self-contained snapshot of a quiesced workflow.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// `(actor name, state bytes)` for every stateful actor.
    pub actors: Vec<(String, Vec<u8>)>,
    /// In-flight fabric state (inboxes + window operators).
    pub fabric: FabricState,
    /// `(resource name, bytes)` for every registered
    /// [`CheckpointResource`].
    pub resources: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// Serialize to the checkpoint wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        for b in MAGIC {
            e.u8(*b);
        }
        e.u32(VERSION);
        e.u32(self.actors.len() as u32);
        for (name, bytes) in &self.actors {
            e.str(name);
            e.bytes(bytes);
        }
        self.fabric.encode(&mut e);
        e.u32(self.resources.len() as u32);
        for (name, bytes) in &self.resources {
            e.str(name);
            e.bytes(bytes);
        }
        e.into_bytes()
    }

    /// Parse the checkpoint wire format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        let mut d = Decoder::new(bytes);
        for want in MAGIC {
            if d.u8()? != *want {
                return Err(Error::Checkpoint("not a checkpoint file (bad magic)".into()));
            }
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(Error::Checkpoint(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let n = d.u32()? as usize;
        let mut actors = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let name = d.str()?.to_string();
            let state = d.bytes()?.to_vec();
            actors.push((name, state));
        }
        let fabric = FabricState::decode(&mut d)?;
        let n = d.u32()? as usize;
        let mut resources = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let name = d.str()?.to_string();
            let state = d.bytes()?.to_vec();
            resources.push((name, state));
        }
        if !d.is_exhausted() {
            return Err(Error::Checkpoint("trailing bytes after checkpoint".into()));
        }
        Ok(Checkpoint {
            actors,
            fabric,
            resources,
        })
    }

    /// Atomically write the snapshot into `dir` (temp file + rename), so a
    /// crash mid-write never corrupts the previous checkpoint.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf> {
        fs::create_dir_all(dir).map_err(|e| io_err("create checkpoint dir", e))?;
        let path = dir.join(SNAPSHOT_FILE);
        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let bytes = self.to_bytes();
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create checkpoint temp", e))?;
        f.write_all(&bytes)
            .and_then(|_| f.sync_all())
            .map_err(|e| io_err("write checkpoint", e))?;
        drop(f);
        fs::rename(&tmp, &path).map_err(|e| io_err("publish checkpoint", e))?;
        Ok(path)
    }

    /// Read the snapshot from a checkpoint directory.
    pub fn read_from_dir(dir: &Path) -> Result<Checkpoint> {
        let path = dir.join(SNAPSHOT_FILE);
        let bytes = fs::read(&path)
            .map_err(|e| io_err(&format!("read checkpoint {}", path.display()), e))?;
        Self::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Quiesce hook
// ---------------------------------------------------------------------------

/// The coordination surface between the engine and a director for
/// checkpoint pauses.
///
/// The engine (through its checkpoint watcher) calls
/// [`QuiesceHook::request_pause`]; the director notices at a firing
/// boundary, stops sources, drains in-flight work, and deposits the
/// captured [`FabricState`] instead of running end-of-stream teardown.
/// Before a resumed segment the engine stages the state to re-inject and
/// marks the segment as resuming so directors skip `initialize`.
#[derive(Default)]
pub struct QuiesceHook {
    pause: AtomicBool,
    resuming: AtomicBool,
    captured: Mutex<Option<FabricState>>,
    restore: Mutex<Option<FabricState>>,
}

impl QuiesceHook {
    /// A fresh hook, shared between engine and director.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Ask the director to quiesce at the next firing boundary.
    pub fn request_pause(&self) {
        self.pause.store(true, Ordering::SeqCst);
    }

    /// Whether a pause has been requested (directors poll this).
    pub fn pause_requested(&self) -> bool {
        self.pause.load(Ordering::SeqCst)
    }

    /// Director side: deposit the captured in-flight state after a
    /// successful quiesce.
    pub fn deposit(&self, state: FabricState) {
        *self.captured.lock() = Some(state);
    }

    /// Engine side: take the state the director captured, if the run
    /// ended in a pause (an end-of-stream run deposits nothing).
    pub fn take_captured(&self) -> Option<FabricState> {
        self.captured.lock().take()
    }

    /// Engine side: stage in-flight state for the director to re-inject
    /// at the start of its next run.
    pub fn stage_restore(&self, state: FabricState) {
        *self.restore.lock() = Some(state);
    }

    /// Director side: take staged state to re-inject into a fresh fabric.
    pub fn take_restore(&self) -> Option<FabricState> {
        self.restore.lock().take()
    }

    /// Mark the next run as a resumed segment (directors skip
    /// `Actor::initialize`).
    pub fn set_resuming(&self, on: bool) {
        self.resuming.store(on, Ordering::SeqCst);
    }

    /// Whether the current run resumes restored state.
    pub fn resuming(&self) -> bool {
        self.resuming.load(Ordering::SeqCst)
    }

    /// Clear the pause flag before the next segment.
    pub fn reset(&self) {
        self.pause.store(false, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------------

/// One logged source emission.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Emission sequence number (position in the source's output stream).
    pub seq: u64,
    /// Output port the token left on.
    pub port: u32,
    /// The emitted token.
    pub token: Token,
}

/// Append-only writer for a source event log.
///
/// Each record is a `u32`-length-prefixed frame of `[seq u64, port u32,
/// token]` in the [`codec`] wire vocabulary, flushed per append so a crash
/// loses at most the frame being written — and a torn trailing frame is
/// skipped on read rather than treated as corruption.
pub struct EventLog {
    file: fs::File,
}

impl EventLog {
    /// Create (truncating any previous log) at `path`.
    pub fn create(path: &Path) -> Result<EventLog> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| io_err("create log dir", e))?;
        }
        let file = fs::File::create(path).map_err(|e| io_err("create event log", e))?;
        Ok(EventLog { file })
    }

    /// Open an existing log for appending (recovery continues the stream).
    pub fn append(path: &Path) -> Result<EventLog> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open event log", e))?;
        Ok(EventLog { file })
    }

    /// Append one emission record and flush it to the OS.
    pub fn record(&mut self, seq: u64, port: u32, token: &Token) -> Result<()> {
        let mut e = Encoder::new();
        e.u64(seq);
        e.u32(port);
        e.token(token);
        let frame = e.into_bytes();
        let mut out = Vec::with_capacity(frame.len() + 4);
        out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame);
        self.file
            .write_all(&out)
            .and_then(|_| self.file.flush())
            .map_err(|e| io_err("append event log", e))
    }

    /// Read every complete record in the log at `path`. A truncated
    /// trailing frame (torn by a crash mid-write) is ignored; a missing
    /// file reads as empty.
    pub fn read_all(path: &Path) -> Result<Vec<LogEntry>> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err("read event log", e)),
        };
        let mut entries = Vec::new();
        // One decoder over the whole file, so replayed records of one shape
        // share a schema the way live ones do.
        let mut d = Decoder::new(&bytes);
        while d.position() + 4 <= bytes.len() {
            let len = d.u32()? as usize;
            let end = d.position() + len;
            if end > bytes.len() {
                break; // torn trailing frame
            }
            let seq = d.u64()?;
            let port = d.u32()?;
            let token = d.token()?;
            if d.position() != end {
                return Err(Error::Checkpoint("log frame length mismatch".into()));
            }
            entries.push(LogEntry { seq, port, token });
        }
        Ok(entries)
    }
}

// ---------------------------------------------------------------------------
// Logged source
// ---------------------------------------------------------------------------

/// A source wrapper that journals every emission to an [`EventLog`] and,
/// after recovery, *replays* the logged stream in place of the inner
/// source's re-derived emissions until the log tail is exhausted — so a
/// recovered run reproduces the killed run's exact token stream past the
/// snapshot point, then seamlessly continues live.
pub struct LoggedSource {
    inner: Box<dyn Actor>,
    path: PathBuf,
    writer: Option<EventLog>,
    /// Sequence number of the next emission (== emissions so far).
    seq: u64,
    /// Logged `(port, token)` tail still to substitute for live emissions.
    replay: VecDeque<(u32, Token)>,
    /// Log-append failure stashed from inside `emit` (which cannot fail).
    io_error: Option<Error>,
}

impl LoggedSource {
    /// Wrap `inner`, journaling to `path`. `fresh` truncates any previous
    /// log (first run); recovery opens the existing log for append and
    /// derives the replay tail in [`Actor::restore_state`].
    pub fn new(inner: Box<dyn Actor>, path: PathBuf, fresh: bool) -> Result<Self> {
        let writer = if fresh {
            Some(EventLog::create(&path)?)
        } else {
            None
        };
        Ok(LoggedSource {
            inner,
            path,
            writer,
            seq: 0,
            replay: VecDeque::new(),
            io_error: None,
        })
    }

    /// Emissions produced so far (the source's read offset).
    pub fn offset(&self) -> u64 {
        self.seq
    }

    fn check_io(&mut self) -> Result<()> {
        match self.io_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// The [`FireContext`] the inner source sees: emissions are journaled (or
/// substituted from the replay tail) before reaching the real context.
struct LogCtx<'a> {
    ctx: &'a mut dyn FireContext,
    writer: &'a mut Option<EventLog>,
    path: &'a Path,
    seq: &'a mut u64,
    replay: &'a mut VecDeque<(u32, Token)>,
    io_error: &'a mut Option<Error>,
}

impl FireContext for LogCtx<'_> {
    fn now(&self) -> Timestamp {
        self.ctx.now()
    }

    fn get(&mut self, port: usize) -> Option<Window> {
        self.ctx.get(port)
    }

    fn get_any(&mut self) -> Option<(usize, Window)> {
        self.ctx.get_any()
    }

    fn emit(&mut self, port: usize, token: Token) {
        // Replay: substitute the logged emission for the inner source's
        // re-derived one (they agree for deterministic sources; the log is
        // authoritative either way) and do not re-append.
        if let Some((logged_port, logged_token)) = self.replay.pop_front() {
            *self.seq += 1;
            self.ctx.emit(logged_port as usize, logged_token);
            return;
        }
        if self.io_error.is_none() {
            if self.writer.is_none() {
                match EventLog::append(self.path) {
                    Ok(w) => *self.writer = Some(w),
                    Err(e) => {
                        *self.io_error = Some(e);
                        return;
                    }
                }
            }
            let w = self.writer.as_mut().expect("writer just ensured");
            if let Err(e) = w.record(*self.seq, port as u32, &token) {
                *self.io_error = Some(e);
                return;
            }
        }
        *self.seq += 1;
        self.ctx.emit(port, token);
    }
}

impl Actor for LoggedSource {
    fn signature(&self) -> IoSignature {
        self.inner.signature()
    }

    fn initialize(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let LoggedSource {
            inner,
            path,
            writer,
            seq,
            replay,
            io_error,
        } = self;
        let r = inner.initialize(&mut LogCtx {
            ctx,
            writer,
            path,
            seq,
            replay,
            io_error,
        });
        self.check_io()?;
        r
    }

    fn prefire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.prefire(ctx)
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let LoggedSource {
            inner,
            path,
            writer,
            seq,
            replay,
            io_error,
        } = self;
        let r = inner.fire(&mut LogCtx {
            ctx,
            writer,
            path,
            seq,
            replay,
            io_error,
        });
        self.check_io()?;
        r
    }

    fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.postfire(ctx)
    }

    fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let LoggedSource {
            inner,
            path,
            writer,
            seq,
            replay,
            io_error,
        } = self;
        let r = inner.finish(&mut LogCtx {
            ctx,
            writer,
            path,
            seq,
            replay,
            io_error,
        });
        self.check_io()?;
        r
    }

    fn wrapup(&mut self) -> Result<()> {
        self.inner.wrapup()
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = Encoder::new();
        e.u64(self.seq);
        match self.inner.save_state()? {
            Some(bytes) => {
                e.bool(true);
                e.bytes(&bytes);
            }
            None => e.bool(false),
        }
        Ok(Some(e.into_bytes()))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = Decoder::new(bytes);
        let saved_seq = d.u64()?;
        if d.bool()? {
            let inner_bytes = d.bytes()?.to_vec();
            self.inner.restore_state(&inner_bytes)?;
        }
        let entries = EventLog::read_all(&self.path)?;
        self.replay = entries
            .into_iter()
            .filter(|e| e.seq >= saved_seq)
            .map(|e| (e.port, e.token))
            .collect();
        self.seq = saved_seq;
        Ok(())
    }

    fn is_source(&self) -> bool {
        self.inner.is_source()
    }

    fn next_arrival(&self) -> Option<Timestamp> {
        self.inner.next_arrival()
    }

    fn rates(&self) -> Option<SdfRates> {
        self.inner.rates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::VecSource;
    use crate::event::CwEvent;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "confluence-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_checkpoint() -> Checkpoint {
        let window = Window {
            group: Token::Unit,
            events: vec![CwEvent::external(Token::Int(7), Timestamp(3))],
            formed_at: Timestamp(3),
            timed_out: false,
        };
        Checkpoint {
            actors: vec![("src".into(), vec![1, 2, 3]), ("sink".into(), vec![])],
            fabric: FabricState {
                actors: vec![
                    ActorFabricState {
                        inbox: vec![(0, window.clone())],
                        ports: vec![OperatorSnapshot {
                            groups: vec![GroupSnapshot::Tuples {
                                key: Token::Unit,
                                events: vec![CwEvent::external(Token::Int(9), Timestamp(5))],
                                front_seq: 4,
                                next_seq: 5,
                                next_start: 6,
                            }],
                            ready: vec![window],
                            expired: vec![CwEvent::external(Token::Unit, Timestamp(1))],
                        }],
                    },
                    ActorFabricState::default(),
                ],
            },
            resources: vec![("store".into(), vec![9, 9])],
        }
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let dir = tmpdir("roundtrip");
        let ckpt = sample_checkpoint();
        ckpt.write_to_dir(&dir).unwrap();
        let back = Checkpoint::read_from_dir(&dir).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.fabric.item_count(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let ckpt = sample_checkpoint();
        let mut bytes = ckpt.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(Error::Checkpoint(_))
        ));
        let bytes = ckpt.to_bytes();
        for cut in [5, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err());
        }
        let mut bytes = ckpt.to_bytes();
        bytes.push(0);
        assert!(Checkpoint::from_bytes(&bytes).is_err(), "trailing bytes");
    }

    #[test]
    fn event_log_round_trips_and_tolerates_torn_tail() {
        let dir = tmpdir("log");
        let path = log_path(&dir, "cars/1");
        assert!(path.to_string_lossy().contains("log-cars_1.bin"));
        let mut log = EventLog::create(&path).unwrap();
        log.record(0, 0, &Token::Int(1)).unwrap();
        log.record(1, 2, &Token::record().field("x", 5).build())
            .unwrap();
        drop(log);
        let entries = EventLog::read_all(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], LogEntry {
            seq: 0,
            port: 0,
            token: Token::Int(1)
        });
        assert_eq!(entries[1].port, 2);

        // Torn trailing frame: append garbage length prefix + short body.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[200, 0, 0, 0, 1, 2]).unwrap();
        drop(f);
        let entries = EventLog::read_all(&path).unwrap();
        assert_eq!(entries.len(), 2, "torn tail ignored");

        assert_eq!(
            EventLog::read_all(&dir.join("missing.bin")).unwrap(),
            Vec::new()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    struct SinkCtx {
        emitted: Vec<(usize, Token)>,
    }
    impl FireContext for SinkCtx {
        fn now(&self) -> Timestamp {
            Timestamp(0)
        }
        fn get(&mut self, _port: usize) -> Option<Window> {
            None
        }
        fn get_any(&mut self) -> Option<(usize, Window)> {
            None
        }
        fn emit(&mut self, port: usize, token: Token) {
            self.emitted.push((port, token));
        }
    }

    #[test]
    fn logged_source_journals_then_replays() {
        let dir = tmpdir("replay");
        let path = log_path(&dir, "src");
        let items: Vec<Token> = (0..6).map(Token::Int).collect();

        // First run: fire 3 times (one item per firing), checkpoint at 3.
        let mut src =
            LoggedSource::new(Box::new(VecSource::new(items.clone())), path.clone(), true)
                .unwrap();
        let mut ctx = SinkCtx { emitted: vec![] };
        for _ in 0..3 {
            src.fire(&mut ctx).unwrap();
        }
        let saved = src.save_state().unwrap().expect("logged source is stateful");
        assert_eq!(src.offset(), 3);
        // Killed run continues past the checkpoint: 2 more firings land in
        // the log but not in the snapshot.
        for _ in 0..2 {
            src.fire(&mut ctx).unwrap();
        }
        assert_eq!(src.offset(), 5);
        drop(src);

        // Recovery: fresh inner source (as a rebuilt workflow provides),
        // restore from the snapshot, and run to completion.
        let mut src =
            LoggedSource::new(Box::new(VecSource::new(items.clone())), path.clone(), false)
                .unwrap();
        src.restore_state(&saved).unwrap();
        assert_eq!(src.replay.len(), 2, "post-checkpoint tail replays");
        assert_eq!(src.offset(), 3);
        // The inner VecSource restored its own remaining-items state.
        let mut ctx2 = SinkCtx { emitted: vec![] };
        for _ in 0..3 {
            src.fire(&mut ctx2).unwrap();
        }
        assert!(src.replay.is_empty());
        assert_eq!(src.offset(), 6);
        let tokens: Vec<i64> = ctx2
            .emitted
            .iter()
            .map(|(_, t)| t.as_int().unwrap())
            .collect();
        assert_eq!(tokens, vec![3, 4, 5], "resumes exactly past the snapshot");
        // The sixth emission was live (not replayed) and must have been
        // appended to the log.
        let entries = EventLog::read_all(&path).unwrap();
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[5].token, Token::Int(5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quiesce_hook_round_trips_state() {
        let hook = QuiesceHook::new();
        assert!(!hook.pause_requested());
        hook.request_pause();
        assert!(hook.pause_requested());
        assert!(hook.take_captured().is_none());
        hook.deposit(FabricState::default());
        assert!(hook.take_captured().is_some());
        assert!(hook.take_captured().is_none(), "deposit is consumed");
        hook.stage_restore(FabricState::default());
        hook.set_resuming(true);
        assert!(hook.resuming());
        assert!(hook.take_restore().is_some());
        hook.reset();
        assert!(!hook.pause_requested());
    }
}
