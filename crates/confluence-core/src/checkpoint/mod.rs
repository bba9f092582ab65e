//! Checkpoint & recovery: quiesced snapshots plus source event logs.
//!
//! A checkpoint captures everything a continuous workflow needs to resume
//! mid-stream and *reconverge* on the uninterrupted run's results:
//!
//! * per-actor durable state ([`crate::actor::Actor::save_state`]). A
//!   source's is its offset into an input that recovery rebuilds with the
//!   workflow ([`crate::actors::TimedSource`], [`crate::actors::VecSource`]),
//!   so it does not grow with the stream;
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
//! A segment's telemetry carries a [`QuiesceHook`]: the checkpoint cadence
//! and one slot. Once a segment meets the cadence every actor stops at its
//! next firing boundary and the run puts the captured [`FabricState`] —
//! queued windows included — in the slot instead of running its
//! end-of-stream teardown; the next segment's run resumes from it.

pub mod codec;

use std::collections::VecDeque;
use std::fs;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::actor::{Actor, FireContext, IoSignature, SdfRates};
use crate::engine::StopCondition;
use crate::error::{Error, Result};
use crate::time::Timestamp;
use crate::token::Token;
use crate::window::{GroupSnapshot, OperatorSnapshot, Window};
use codec::{Decoder, Encoder, FrameReader};

/// Magic bytes opening every checkpoint file.
const MAGIC: &[u8; 4] = b"CFLC";
/// Checkpoint file format version. Version 2, the same layout without kept
/// records, still reads.
const VERSION: u32 = 3;
/// Bytes buffered between a checkpoint or event log and its file.
const IO_BUFFER: usize = 64 << 10;

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
            e.seq(events, Encoder::event);
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
            e.seq(events, Encoder::event);
            e.u64(*watermark);
            e.u64(*next_k);
        }
        GroupSnapshot::Wave { key, events } => {
            e.u8(2);
            e.token(key);
            e.seq(events, Encoder::event);
        }
    }
}

fn decode_group(d: &mut Decoder<'_>) -> Result<GroupSnapshot> {
    match d.u8()? {
        0 => {
            let key = d.token()?;
            let events = d.seq(Decoder::event)?;
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
            let events = d.seq(Decoder::event)?;
            Ok(GroupSnapshot::Time {
                key,
                events,
                watermark: d.u64()?,
                next_k: d.u64()?,
            })
        }
        2 => Ok(GroupSnapshot::Wave {
            key: d.token()?,
            events: d.seq(Decoder::event)?,
        }),
        tag => Err(Error::Checkpoint(format!("unknown group snapshot tag {tag}"))),
    }
}

impl FabricState {
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
///
/// Wire format, version 3: `CFLC`, the version, the actor states, the
/// fabric, the resources. States and resources are a count, then a name and
/// bytes each. The fabric is a count of actors, and per actor its inbox (a
/// count, then a frame `[port, window]` each) and its ports (a count, then
/// per port its groups and its ready windows, a count and a frame each, and
/// one frame of expired events). Counts and lengths are little-endian
/// `u32`s; a frame is a length and that many bytes of [`codec`] vocabulary.
/// A record several tokens share is written once, as a kept record, and
/// named by id in this and every later frame ([`codec`]); version 2 is the
/// same without kept records.
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

fn put_len(w: &mut impl Write, n: usize) -> io::Result<()> {
    w.write_all(&(n as u32).to_le_bytes())
}

fn put_named(w: &mut impl Write, entries: &[(String, Vec<u8>)]) -> io::Result<()> {
    put_len(w, entries.len())?;
    for (name, bytes) in entries {
        put_len(w, name.len())?;
        w.write_all(name.as_bytes())?;
        put_len(w, bytes.len())?;
        w.write_all(bytes)?;
    }
    Ok(())
}

fn put_frame(
    w: &mut impl Write,
    e: &mut Encoder,
    body: impl FnOnce(&mut Encoder),
) -> io::Result<()> {
    e.start_frame();
    body(e);
    w.write_all(e.end_frame())
}

fn named<R: Read>(r: &mut FrameReader<R>) -> Result<(String, Vec<u8>)> {
    let name = String::from_utf8(r.bytes()?)
        .map_err(|_| Error::Checkpoint("corrupt or truncated data: utf-8 name".into()))?;
    Ok((name, r.bytes()?))
}

impl Checkpoint {
    /// Serialize to the checkpoint wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes).expect("a Vec takes every write");
        bytes
    }

    /// Stream the wire format into `w`: states and resources straight
    /// through, the fabric one frame at a time through one reused
    /// [`Encoder`], so no whole image is ever built. The encoder's table of
    /// kept records lives for this call, which borrows every token it
    /// writes.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut e = Encoder::sharing();
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        put_named(w, &self.actors)?;
        put_len(w, self.fabric.actors.len())?;
        for actor in &self.fabric.actors {
            put_len(w, actor.inbox.len())?;
            for (port, window) in &actor.inbox {
                put_frame(w, &mut e, |e| {
                    e.u32(*port as u32);
                    e.window(window);
                })?;
            }
            put_len(w, actor.ports.len())?;
            for op in &actor.ports {
                put_len(w, op.groups.len())?;
                for group in &op.groups {
                    put_frame(w, &mut e, |e| encode_group(e, group))?;
                }
                put_len(w, op.ready.len())?;
                for window in &op.ready {
                    put_frame(w, &mut e, |e| e.window(window))?;
                }
                put_frame(w, &mut e, |e| e.seq(&op.expired, Encoder::event))?;
            }
        }
        put_named(w, &self.resources)
    }

    /// Parse the checkpoint wire format.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Checkpoint> {
        let len = bytes.len() as u64;
        Self::read_from(&mut bytes, len)
    }

    /// Parse the wire format off `r`, which holds `len` bytes: states and
    /// resources straight off it, each fabric frame into one reused buffer,
    /// decoded with one schema cache and one table of kept records. No
    /// length the input announces is believed past the bytes left in it.
    pub fn read_from(r: &mut impl Read, len: u64) -> Result<Checkpoint> {
        let mut r = FrameReader::new(r, len).sharing();
        if r.u32()? != u32::from_le_bytes(*MAGIC) {
            return Err(Error::Checkpoint("not a checkpoint file (bad magic)".into()));
        }
        let version = r.u32()?;
        if !(2..=VERSION).contains(&version) {
            return Err(Error::Checkpoint(format!(
                "unsupported checkpoint version {version} (expected 2 to {VERSION})"
            )));
        }
        let actors = r.seq(named)?;
        let fabric = FabricState {
            actors: r.seq(|r| {
                Ok(ActorFabricState {
                    inbox: r.seq(|r| r.frame(|d| Ok((d.u32()? as usize, d.window()?))))?,
                    ports: r.seq(|r| {
                        Ok(OperatorSnapshot {
                            groups: r.seq(|r| r.frame(decode_group))?,
                            ready: r.seq(|r| r.frame(|d| d.window()))?,
                            expired: r.frame(|d| d.seq(Decoder::event))?,
                        })
                    })?,
                })
            })?,
        };
        let resources = r.seq(named)?;
        if r.left() != 0 {
            return Err(Error::Checkpoint("trailing bytes after checkpoint".into()));
        }
        Ok(Checkpoint {
            actors,
            fabric,
            resources,
        })
    }

    /// Write the snapshot into `dir` atomically and durably: stream it
    /// through a 64 KiB buffer into a temp file, fsync the file, rename it
    /// over the previous snapshot and fsync the directory, so a crash
    /// mid-write never corrupts the previous checkpoint and a returned
    /// publish survives one.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf> {
        fs::create_dir_all(dir).map_err(|e| io_err("create checkpoint dir", e))?;
        let path = dir.join(SNAPSHOT_FILE);
        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let f = fs::File::create(&tmp).map_err(|e| io_err("create checkpoint temp", e))?;
        let mut w = BufWriter::with_capacity(IO_BUFFER, f);
        self.write_to(&mut w)
            .and_then(|()| w.into_inner().map_err(io::IntoInnerError::into_error))
            .and_then(|f| f.sync_all())
            .map_err(|e| io_err("write checkpoint", e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err("publish checkpoint", e))?;
        fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("sync checkpoint dir", e))?;
        Ok(path)
    }

    /// Read the snapshot from a checkpoint directory, streaming the file
    /// through a 64 KiB buffer.
    pub fn read_from_dir(dir: &Path) -> Result<Checkpoint> {
        let path = dir.join(SNAPSHOT_FILE);
        let read_err = |e| io_err(&format!("read checkpoint {}", path.display()), e);
        let f = fs::File::open(&path).map_err(read_err)?;
        let len = f.metadata().map_err(read_err)?.len();
        Self::read_from(&mut BufReader::with_capacity(IO_BUFFER, f), len)
    }
}

// ---------------------------------------------------------------------------
// Quiesce hook
// ---------------------------------------------------------------------------

/// The checkpoint cadence and one slot for in-flight state, shared by the
/// engine and a segment's run through [`Telemetry::checkpoint`].
///
/// Once a segment has fired and met the cadence, `Run::boundary` answers
/// `Pause`, each actor stops at its next firing boundary, and the run puts
/// the captured [`FabricState`] (what is queued, not drained) in the slot
/// instead of running end-of-stream teardown. The engine takes it, writes
/// it, and puts it back; the next segment's `Run::open` takes it,
/// re-injects it into a fresh fabric and skips `initialize`.
///
/// [`Telemetry::checkpoint`]: crate::telemetry::Telemetry::checkpoint
#[derive(Default)]
pub struct QuiesceHook {
    every: Option<StopCondition>,
    slot: Mutex<Option<FabricState>>,
}

impl QuiesceHook {
    /// A fresh hook with an empty slot, pausing each segment once `every`
    /// is met (`None`: a recovery that does not checkpoint).
    pub fn new(every: Option<StopCondition>) -> Arc<Self> {
        Arc::new(QuiesceHook { every, ..Self::default() })
    }

    /// The checkpoint cadence, measured from each segment's start.
    pub fn every(&self) -> Option<StopCondition> {
        self.every
    }

    /// Put in-flight state in the slot: a paused segment's capture, or
    /// the state the next segment resumes from.
    pub fn put(&self, state: FabricState) {
        *self.slot.lock() = Some(state);
    }

    /// Take the slot's state, if any.
    pub fn take(&self) -> Option<FabricState> {
        self.slot.lock().take()
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
    /// The record being appended, encoded in place behind its length.
    frame: Encoder,
}

impl EventLog {
    /// Create (truncating any previous log) at `path`.
    pub fn create(path: &Path) -> Result<EventLog> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| io_err("create log dir", e))?;
        }
        fs::File::create(path).map_err(|e| io_err("create event log", e))?;
        Self::append(path)
    }

    /// Open an existing log for appending (recovery continues the stream).
    pub fn append(path: &Path) -> Result<EventLog> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open event log", e))?;
        Ok(EventLog {
            file,
            frame: Encoder::new(),
        })
    }

    /// Append one emission record with one write and flush it to the OS.
    pub fn record(&mut self, seq: u64, port: u32, token: &Token) -> Result<()> {
        self.frame.start_frame();
        self.frame.u64(seq);
        self.frame.u32(port);
        self.frame.token(token);
        self.file
            .write_all(self.frame.end_frame())
            .and_then(|_| self.file.flush())
            .map_err(|e| io_err("append event log", e))
    }

    /// Read every complete record in the log at `path`; see
    /// [`EventLog::read_from`].
    pub fn read_all(path: &Path) -> Result<Vec<LogEntry>> {
        Self::read_from(path, 0)
    }

    /// Read the complete records in the log at `path` numbered `from_seq`
    /// or later. The log streams through a 64 KiB buffer, and a record
    /// numbered below `from_seq` is passed over by its length, its token
    /// left undecoded. A truncated trailing frame (torn by a crash
    /// mid-write) is ignored; a missing file reads as empty.
    pub fn read_from(path: &Path, from_seq: u64) -> Result<Vec<LogEntry>> {
        let file = match fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err("read event log", e)),
        };
        let size = file.metadata().map_err(|e| io_err("read event log", e))?.len();
        // One schema cache over the whole log, so replayed records of one
        // shape share a schema the way live ones do.
        let mut r = FrameReader::new(BufReader::with_capacity(IO_BUFFER, file), size);
        let mut entries = Vec::new();
        while r.left() >= 4 {
            let len = r.u32()? as usize;
            if len as u64 > r.left() {
                break; // torn trailing frame
            }
            let Some(rest) = len.checked_sub(8) else {
                return Err(Error::Checkpoint("log frame length mismatch".into()));
            };
            let seq = r.body(8, |d| d.u64())?;
            if seq < from_seq {
                r.load(rest)?;
                continue;
            }
            let (port, token) = r.body(rest, |d| Ok((d.u32()?, d.token()?)))?;
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
    journal: Journal,
}

/// A logged source's side of its event log.
struct Journal {
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
            journal: Journal {
                path,
                writer,
                seq: 0,
                replay: VecDeque::new(),
                io_error: None,
            },
        })
    }

    /// Emissions produced so far (the source's read offset).
    pub fn offset(&self) -> u64 {
        self.journal.seq
    }

    /// Run one step of the inner source with its emissions journaled (or
    /// substituted from the replay tail); a failed append wins over the
    /// step's own result.
    fn journaled(
        &mut self,
        ctx: &mut dyn FireContext,
        step: impl FnOnce(&mut dyn Actor, &mut dyn FireContext) -> Result<()>,
    ) -> Result<()> {
        let log = &mut self.journal;
        let r = step(self.inner.as_mut(), &mut LogCtx { ctx, log });
        match self.journal.io_error.take() {
            Some(e) => Err(e),
            None => r,
        }
    }
}

/// The [`FireContext`] the inner source sees: emissions are journaled (or
/// substituted from the replay tail) before reaching the real context.
struct LogCtx<'a> {
    ctx: &'a mut dyn FireContext,
    log: &'a mut Journal,
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
        let log = &mut *self.log;
        // Replay: substitute the logged emission for the inner source's
        // re-derived one (they agree for deterministic sources; the log is
        // authoritative either way) and do not re-append.
        if let Some((logged_port, logged_token)) = log.replay.pop_front() {
            log.seq += 1;
            self.ctx.emit(logged_port as usize, logged_token);
            return;
        }
        if log.io_error.is_none() {
            if log.writer.is_none() {
                match EventLog::append(&log.path) {
                    Ok(w) => log.writer = Some(w),
                    Err(e) => {
                        log.io_error = Some(e);
                        return;
                    }
                }
            }
            let w = log.writer.as_mut().expect("writer just ensured");
            if let Err(e) = w.record(log.seq, port as u32, &token) {
                log.io_error = Some(e);
                return;
            }
        }
        log.seq += 1;
        self.ctx.emit(port, token);
    }
}

impl Actor for LoggedSource {
    fn signature(&self) -> IoSignature {
        self.inner.signature()
    }

    fn initialize(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.journaled(ctx, |inner, ctx| inner.initialize(ctx))
    }

    fn prefire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.prefire(ctx)
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.journaled(ctx, |inner, ctx| inner.fire(ctx))
    }

    fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.postfire(ctx)
    }

    fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.journaled(ctx, |inner, ctx| inner.finish(ctx))
    }

    fn wrapup(&mut self) -> Result<()> {
        self.inner.wrapup()
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = Encoder::new();
        e.u64(self.journal.seq);
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
            self.inner.restore_state(d.bytes()?)?;
        }
        self.journal.replay = EventLog::read_from(&self.journal.path, saved_seq)?
            .into_iter()
            .map(|e| (e.port, e.token))
            .collect();
        self.journal.seq = saved_seq;
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
            events: vec![CwEvent::external(Token::record().field("car", 7).build(), Timestamp(3))],
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
        // The inbox and the ready queue hold one record, and still do.
        let actor = &back.fabric.actors[0];
        let token_of = |w: &Window| match &w.events[0].token {
            Token::Record(r) => r.clone(),
            other => panic!("not a record: {other:?}"),
        };
        assert!(Arc::ptr_eq(&token_of(&actor.inbox[0].1), &token_of(&actor.ports[0].ready[0])));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_2_file_still_reads() {
        // `sample_checkpoint` as version 2 wrote it: its shared record
        // spelled out twice.
        let hex = "43464c43020000000200000003000000737263030000000102030400000073696e6b00000000\
             02000000010000003b0000000000000000010000000501000000030000006361720207000000\
             0000000003000000000000000300000000000000000000000300000000000000000100000001\
             0000003b00000000000100000002090000000000000005000000000000000500000000000000\
             0000000004000000000000000500000000000000060000000000000001000000370000000001\
             0000000501000000030000006361720207000000000000000300000000000000030000000000\
             0000000000000300000000000000001900000001000000000100000000000000010000000000\
             0000000000000000000000000000010000000500000073746f7265020000000909";
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), sample_checkpoint());
        let now = sample_checkpoint().to_bytes();
        assert_eq!(now[4..8], VERSION.to_le_bytes());
        assert!(now.len() < bytes.len(), "version 3 writes the shared record once");
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

        // A log entry never holds a kept record or a reference to one.
        for token in [[7, 0, 0, 0, 0], [8, 0, 0, 0, 0]] {
            let mut frame = vec![17, 0, 0, 0];
            frame.extend_from_slice(&[0; 12]);
            frame.extend_from_slice(&token);
            fs::write(&path, &frame).unwrap();
            let err = EventLog::read_all(&path).unwrap_err();
            assert!(matches!(&err, Error::Checkpoint(m) if m.contains("token tag")), "{err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_log_bytes_are_pinned() {
        // The bytes the log has had since its first version: a record is a
        // length, then seq, port and token, however the frame is built.
        let dir = tmpdir("loghex");
        let path = log_path(&dir, "src");
        let mut log = EventLog::create(&path).unwrap();
        log.record(0, 0, &Token::Int(1)).unwrap();
        log.record(1, 2, &Token::record().field("x", 5).build())
            .unwrap();
        drop(log);
        let hex: String = fs::read(&path).unwrap().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "15000000000000000000000000000000020100000000000000\
             1f000000010000000000000002000000050100000001000000780205000000\
             00000000"
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
        assert_eq!(src.journal.replay.len(), 2, "post-checkpoint tail replays");
        assert_eq!(src.offset(), 3);
        // The inner VecSource restored its own remaining-items state.
        let mut ctx2 = SinkCtx { emitted: vec![] };
        for _ in 0..3 {
            src.fire(&mut ctx2).unwrap();
        }
        assert!(src.journal.replay.is_empty());
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
        let hook = QuiesceHook::new(Some(StopCondition::Firings(3)));
        assert_eq!(hook.every(), Some(StopCondition::Firings(3)));
        assert!(hook.take().is_none());
        hook.put(FabricState::default());
        assert!(hook.take().is_some());
        assert!(hook.take().is_none(), "a put is taken once");
    }
}
