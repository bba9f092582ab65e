//! Length-prefixed binary codec for checkpoint snapshots and event logs.
//!
//! The shapes here (tag byte + fixed-width little-endian scalars +
//! `u32`-length-prefixed strings/sequences) are deliberately the same wire
//! vocabulary a future networked fabric needs for `CwEvent` framing: one
//! codec serves snapshot files, source event logs, and remote channels.
//! Files stream through it one `u32`-length-prefixed frame at a time.
//!
//! A checkpoint ([`super::Checkpoint::write_to`]) keeps token sharing: a
//! record more than one token points at is written whole once, as a kept
//! record, and as a reference (a `u32` id) after that. Both sides number
//! kept records as their bodies end (post-order). Only a checkpoint's
//! frames may hold either tag; a reference decodes to a clone of the kept
//! record's `Arc`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::{self, Read};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::event::CwEvent;
use crate::time::{Micros, Timestamp};
use crate::token::{Record, Schema, Token};
use crate::wave::WaveTag;
use crate::window::Window;

/// Deepest record/array nesting the decoder follows before calling the
/// input corrupt (it recurses once per level; real tokens nest a few deep).
const MAX_NESTING: usize = 64;

/// Token tags of a record, of a record that later references name by id
/// (kept), and of such a reference.
const RECORD: u8 = 5;
const KEPT: u8 = 7;
const REFERENCE: u8 = 8;

fn corrupt(what: &str) -> Error {
    Error::Checkpoint(format!("corrupt or truncated data: {what}"))
}

/// How many `T`s to make room for when the input announces `n` of them
/// with `left` bytes left: no more than those bytes could hold as `T`s.
fn fit<T>(n: usize, left: usize) -> usize {
    n.min(left / std::mem::size_of::<T>().max(1))
}

/// Read `n` items with `get`, growing the vector in steps that [`fit`]
/// what `left` reports: a count the input cannot back reserves nothing,
/// and an honest one ends with room for exactly `n`.
fn read_n<S, T>(
    s: &mut S,
    n: usize,
    left: fn(&S) -> usize,
    mut get: impl FnMut(&mut S) -> Result<T>,
) -> Result<Vec<T>> {
    let mut items = Vec::new();
    for _ in 0..n {
        if items.len() == items.capacity() {
            items.reserve_exact(fit::<T>(n - items.len(), left(s)).max(1));
        }
        items.push(get(s)?);
    }
    Ok(items)
}

/// Append-only encoder over a growable byte buffer.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
    /// Id of every kept record written so far, by address; only a
    /// [`Encoder::sharing`] encoder keeps records.
    kept: Option<HashMap<usize, u32>>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder that writes a record more than one token points at once,
    /// and by reference after that. The caller keeps every token it writes
    /// alive while the encoder lives, so no record's address is reused.
    pub(crate) fn sharing() -> Self {
        let kept = Some(HashMap::new());
        Encoder { kept, ..Self::default() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Forget what was written and open a `u32`-length-prefixed frame.
    pub(crate) fn start_frame(&mut self) {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
    }

    /// Patch the length of the frame [`Encoder::start_frame`] opened into
    /// its prefix, and return the whole frame.
    pub(crate) fn end_frame(&mut self) -> &[u8] {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        &self.buf
    }

    /// Write one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` by bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a `u32` count, then each item with `put`.
    pub fn seq<I>(&mut self, items: I, mut put: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.u32(items.len() as u32);
        items.for_each(|item| put(self, item));
    }

    /// Write a [`Timestamp`].
    pub fn timestamp(&mut self, t: Timestamp) {
        self.u64(t.0);
    }

    /// Write a [`Micros`] span.
    pub fn micros(&mut self, m: Micros) {
        self.u64(m.0);
    }

    /// Write a [`Token`] (tag byte + payload, recursively).
    pub fn token(&mut self, t: &Token) {
        match t {
            Token::Unit => self.u8(0),
            Token::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Token::Int(v) => {
                self.u8(2);
                self.i64(*v);
            }
            Token::Float(v) => {
                self.u8(3);
                self.f64(*v);
            }
            Token::Str(s) => {
                self.u8(4);
                self.str(s);
            }
            Token::Record(rec) => self.record(rec),
            Token::Array(items) => {
                self.u8(6);
                self.seq(items.iter(), Self::token);
            }
        }
    }

    /// Write a record: whole, whole and kept, or as a reference to the
    /// kept copy. A record only one token points at cannot come up again.
    fn record(&mut self, rec: &Arc<Record>) {
        let addr = Arc::as_ptr(rec) as usize;
        if let Some(&id) = self.kept.as_ref().and_then(|k| k.get(&addr)) {
            self.u8(REFERENCE);
            self.u32(id);
            return;
        }
        let keep = self.kept.is_some() && Arc::strong_count(rec) > 1;
        self.u8(if keep { KEPT } else { RECORD });
        self.u32(rec.len() as u32);
        for (name, value) in rec.iter() {
            self.str(name);
            self.token(value);
        }
        if let Some(kept) = self.kept.as_mut().filter(|_| keep) {
            let id = kept.len() as u32;
            kept.insert(addr, id);
        }
    }

    /// Write a [`WaveTag`] (origin + per-level steps).
    pub fn wave(&mut self, w: &WaveTag) {
        self.timestamp(w.origin());
        self.seq(w.path(), |e, step| {
            e.u32(step.index);
            e.bool(step.last);
        });
    }

    /// Write a [`CwEvent`] (token + timestamp + wave lineage).
    pub fn event(&mut self, e: &CwEvent) {
        self.token(&e.token);
        self.timestamp(e.timestamp);
        self.wave(&e.wave);
    }

    /// Write a formed [`Window`].
    pub fn window(&mut self, w: &Window) {
        self.token(&w.group);
        self.seq(&w.events, Self::event);
        self.timestamp(w.formed_at);
        self.bool(w.timed_out);
    }
}

/// One schema per distinct field-name list decoded so far, keyed by a hash
/// of the names so that it outlives the buffer (the frame) it was filled
/// from: the format spells the names out per record, recovered records
/// share them again. An ordered map, so the key is not hashed twice.
type SchemaCache = BTreeMap<u64, Arc<Schema>>;

/// What one frame's decoder hands on to the next frame's: the schema
/// cache, and the kept records read so far by id.
#[derive(Default)]
pub(crate) struct Carried {
    schemas: SchemaCache,
    /// `None` where the input may hold no kept record or reference.
    kept: Option<Vec<Token>>,
}

/// Cursor-based decoder over an encoded byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    carried: Carried,
    /// Records and arrays open around the token being read.
    depth: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder starting at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self::carrying(buf, Carried::default())
    }

    /// A decoder over `buf` that starts from what an earlier frame's
    /// decoder handed on (taken back with [`Decoder::into_carried`]).
    pub(crate) fn carrying(buf: &'a [u8], carried: Carried) -> Self {
        Decoder {
            buf,
            pos: 0,
            carried,
            depth: 0,
        }
    }

    /// The schemas and kept records, with what this decoder added.
    pub(crate) fn into_carried(self) -> Carried {
        self.carried
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt(what))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a boolean byte.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(&format!("bool byte {b}"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n, "bytes body")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| corrupt("utf-8 string"))
    }

    /// Read a [`Timestamp`].
    pub fn timestamp(&mut self) -> Result<Timestamp> {
        Ok(Timestamp(self.u64()?))
    }

    /// Read a [`Micros`] span.
    pub fn micros(&mut self) -> Result<Micros> {
        Ok(Micros(self.u64()?))
    }

    /// Read a [`Token`].
    pub fn token(&mut self) -> Result<Token> {
        match self.u8()? {
            0 => Ok(Token::Unit),
            1 => Ok(Token::Bool(self.bool()?)),
            2 => Ok(Token::Int(self.i64()?)),
            3 => Ok(Token::Float(self.f64()?)),
            4 => Ok(Token::str(self.str()?)),
            RECORD => self.nested(Self::record),
            6 => self.nested(Self::array),
            KEPT if self.carried.kept.is_some() => {
                let record = self.nested(Self::record)?;
                self.carried.kept.as_mut().expect("checked by the guard").push(record.clone());
                Ok(record)
            }
            REFERENCE if self.carried.kept.is_some() => {
                let id = self.u32()?;
                let kept = self.carried.kept.as_ref().expect("checked by the guard");
                kept.get(id as usize).cloned().ok_or_else(|| {
                    corrupt(&format!("reference to kept record {id} of {}", kept.len()))
                })
            }
            tag => Err(corrupt(&format!("token tag {tag}"))),
        }
    }

    /// Read a `u32` count, then that many items with `get`.
    pub fn seq<T>(&mut self, get: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        read_n(self, n, Self::left, get)
    }

    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read the body of a token that holds tokens, one level further in.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Token>) -> Result<Token> {
        if self.depth == MAX_NESTING {
            return Err(corrupt("tokens nested too deeply"));
        }
        self.depth += 1;
        let token = body(self);
        self.depth -= 1;
        token
    }

    fn record(&mut self) -> Result<Token> {
        let n = self.u32()? as usize;
        let mut names = Vec::with_capacity(fit::<&str>(n, self.left()));
        let mut values = Vec::with_capacity(fit::<Token>(n, self.left()));
        for _ in 0..n {
            names.push(self.str()?);
            values.push(self.token()?);
        }
        let mut h = DefaultHasher::new();
        names.hash(&mut h);
        let cached = self.carried.schemas.entry(h.finish()).or_insert_with(|| Schema::new(&names));
        let schema = if cached.names().iter().map(|n| &**n).eq(names.iter().copied()) {
            cached.clone()
        } else {
            Schema::new(&names) // a hash collision goes uncached
        };
        Ok(schema.record(values))
    }

    fn array(&mut self) -> Result<Token> {
        Ok(Token::array(self.seq(Self::token)?))
    }

    /// Read a [`WaveTag`].
    pub fn wave(&mut self) -> Result<WaveTag> {
        let origin = self.timestamp()?;
        let n = self.u32()? as usize;
        let mut tag = WaveTag::external(origin);
        for _ in 0..n {
            let index = self.u32()?;
            let last = self.bool()?;
            if index == 0 {
                return Err(corrupt("wave serial 0"));
            }
            tag = tag.child(index, last);
        }
        Ok(tag)
    }

    /// Read a [`CwEvent`].
    pub fn event(&mut self) -> Result<CwEvent> {
        let token = self.token()?;
        let timestamp = self.timestamp()?;
        let wave = self.wave()?;
        Ok(CwEvent {
            token,
            timestamp,
            wave,
        })
    }

    /// Read a formed [`Window`].
    pub fn window(&mut self) -> Result<Window> {
        Ok(Window {
            group: self.token()?,
            events: self.seq(Self::event)?,
            formed_at: self.timestamp()?,
            timed_out: self.bool()?,
        })
    }
}

/// Reads a stream of known length: scalars and byte strings straight off
/// it, frames through one reused buffer and one [`Carried`]. A length the
/// stream announces is refused, before anything is allocated for it,
/// unless the bytes left hold it.
pub(crate) struct FrameReader<R> {
    r: io::Take<R>,
    frame: Vec<u8>,
    carried: Carried,
}

fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => corrupt("stream ends early"),
        _ => Error::Checkpoint(format!("read: {e}")),
    })
}

impl<R: Read> FrameReader<R> {
    /// A reader of the `len` bytes `r` holds.
    pub(crate) fn new(r: R, len: u64) -> Self {
        let (frame, carried) = Default::default();
        FrameReader { r: r.take(len), frame, carried }
    }

    /// This reader, with kept records allowed in its frames and resolved
    /// across them: a checkpoint's.
    pub(crate) fn sharing(mut self) -> Self {
        self.carried.kept = Some(Vec::new());
        self
    }

    /// Bytes not read yet.
    pub(crate) fn left(&self) -> u64 {
        self.r.limit()
    }

    /// Read a little-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32> {
        let mut b = [0; 4];
        fill(&mut self.r, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// A `u32` count, then that many items read by `item`.
    pub(crate) fn seq<T>(&mut self, item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        read_n(self, n, |r| r.left() as usize, item)
    }

    /// A `u32` length the bytes left hold.
    pub(crate) fn length(&mut self) -> Result<usize> {
        let n = self.u32()?;
        if u64::from(n) > self.left() {
            return Err(corrupt(&format!("a length of {n} runs past the end")));
        }
        Ok(n as usize)
    }

    /// A length-prefixed byte string.
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>> {
        let mut v = vec![0; self.length()?];
        fill(&mut self.r, &mut v)?;
        Ok(v)
    }

    /// Read the next `n` bytes into the frame buffer, undecoded.
    pub(crate) fn load(&mut self, n: usize) -> Result<()> {
        self.frame.resize(n, 0);
        fill(&mut self.r, &mut self.frame)
    }

    /// Decode the next `n` bytes with `body`, which must consume them all.
    pub(crate) fn body<T>(
        &mut self,
        n: usize,
        body: impl FnOnce(&mut Decoder<'_>) -> Result<T>,
    ) -> Result<T> {
        self.load(n)?;
        let mut d = Decoder::carrying(&self.frame, std::mem::take(&mut self.carried));
        let value = body(&mut d);
        let exhausted = d.is_exhausted();
        self.carried = d.into_carried();
        match value {
            Ok(_) if !exhausted => Err(corrupt("frame length mismatch")),
            value => value,
        }
    }

    /// Decode the next length-prefixed frame with `body`.
    pub(crate) fn frame<T>(
        &mut self,
        body: impl FnOnce(&mut Decoder<'_>) -> Result<T>,
    ) -> Result<T> {
        let n = self.length()?;
        self.body(n, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tokens() -> Vec<Token> {
        vec![
            Token::Unit,
            Token::Bool(true),
            Token::Int(-42),
            Token::Float(2.5),
            Token::str("hello"),
            Token::record()
                .field("carid", 7)
                .field("speed", Token::Float(61.5))
                .field("tag", "x")
                .build(),
            Token::array(vec![Token::Int(1), Token::Unit]),
        ]
    }

    #[test]
    fn scalars_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.bool(true);
        e.u32(123_456);
        e.u64(u64::MAX);
        e.i64(-99);
        e.f64(-0.125);
        e.str("wave");
        e.bytes(&[1, 2, 3]);
        e.timestamp(Timestamp(10));
        e.micros(Micros(20));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 123_456);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -99);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert_eq!(d.str().unwrap(), "wave");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(d.timestamp().unwrap(), Timestamp(10));
        assert_eq!(d.micros().unwrap(), Micros(20));
        assert!(d.is_exhausted());
    }

    #[test]
    fn tokens_round_trip() {
        for token in sample_tokens() {
            let mut e = Encoder::new();
            e.token(&token);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.token().unwrap(), token);
            assert!(d.is_exhausted());
        }
    }

    #[test]
    fn events_and_windows_round_trip() {
        let root = WaveTag::external(Timestamp(100));
        let event = CwEvent::derived(Token::Int(5), Timestamp(120), &root, 2, true);
        let mut e = Encoder::new();
        e.event(&event);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.event().unwrap(), event);

        let window = Window {
            group: Token::record().field("carid", 3).build(),
            events: vec![
                CwEvent::external(Token::Int(1), Timestamp(10)),
                CwEvent::derived(Token::Int(2), Timestamp(11), &root, 1, false),
            ],
            formed_at: Timestamp(12),
            timed_out: true,
        };
        let mut e = Encoder::new();
        e.window(&window);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.window().unwrap(), window);
        assert!(d.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.token(&sample_tokens()[5]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(d.token().is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(Decoder::new(&[9]).token().is_err());
        assert!(Decoder::new(&[2]).bool().is_err());
        let mut e = Encoder::new();
        e.timestamp(Timestamp(1));
        e.u32(1);
        e.u32(0); // serial 0 is invalid
        e.bool(true);
        let bytes = e.into_bytes();
        assert!(Decoder::new(&bytes).wave().is_err());
    }

    // A count read from the input may claim anything; none of these may
    // reserve memory for it or recurse without bound.

    #[test]
    fn array_announcing_four_billion_items_is_an_error() {
        assert!(Decoder::new(&[6, 0xff, 0xff, 0xff, 0xff]).token().is_err());
    }

    #[test]
    fn window_announcing_four_billion_events_is_an_error() {
        // Unit group token, then the event count.
        assert!(Decoder::new(&[0, 0xff, 0xff, 0xff, 0xff]).window().is_err());
    }

    /// A decoder that resolves kept records, as a checkpoint's frames do.
    fn sharing(buf: &[u8]) -> Decoder<'_> {
        let kept = Some(Vec::new());
        Decoder::carrying(buf, Carried { kept, ..Carried::default() })
    }

    #[test]
    fn nested_shared_records_round_trip_shared() {
        let inner = Token::record().field("carid", 7).build();
        let outer = Token::record().field("car", inner.clone()).field("seg", 3).build();
        let tokens = [outer.clone(), inner.clone(), outer.clone(), Token::str("x")];
        let mut e = Encoder::sharing();
        tokens.iter().for_each(|t| e.token(t));
        let bytes = e.into_bytes();
        // The inner body ends first, so it is kept record 0 and the outer 1.
        assert_eq!(&bytes[..5], &[KEPT, 2, 0, 0, 0]);
        let refs: Vec<&[u8]> = bytes.windows(5).filter(|w| w[0] == REFERENCE).collect();
        assert_eq!(refs, [&[REFERENCE, 0, 0, 0, 0], &[REFERENCE, 1, 0, 0, 0]]);

        let mut d = sharing(&bytes);
        let back: Vec<Token> = (0..tokens.len()).map(|_| d.token().unwrap()).collect();
        assert!(d.is_exhausted());
        assert_eq!(back, tokens);
        let (Token::Record(first), Token::Record(again), Token::Record(alone)) =
            (&back[0], &back[2], &back[1])
        else {
            panic!("records decode as records");
        };
        assert!(Arc::ptr_eq(first, again));
        let Some(Token::Record(nested)) = first.get("car") else { panic!("a nested record") };
        assert!(Arc::ptr_eq(nested, alone));
    }

    #[test]
    fn a_record_pointed_at_once_keeps_the_plain_tag() {
        let token = sample_tokens()[5].clone();
        let mut plain = Encoder::new();
        plain.token(&token);
        let mut shared = Encoder::sharing();
        shared.token(&token);
        assert_eq!(shared.into_bytes(), plain.into_bytes());
    }

    #[test]
    fn references_that_name_no_kept_record_are_errors() {
        let undefined = [REFERENCE, 0, 0, 0, 0];
        let unit_then_undefined = [KEPT, 0, 0, 0, 0, REFERENCE, 1, 0, 0, 0];
        // A kept record whose one field refers to the id it is about to get.
        let itself = [KEPT, 1, 0, 0, 0, 1, 0, 0, 0, b'a', REFERENCE, 0, 0, 0, 0];
        for bytes in [&undefined[..], &unit_then_undefined, &itself] {
            let mut d = sharing(bytes);
            let err = (0..2).try_for_each(|_| d.token().map(drop)).unwrap_err();
            assert!(matches!(&err, Error::Checkpoint(m) if m.contains("reference to kept")), "{err}");
        }
        // Outside a checkpoint neither tag is part of the format.
        for bytes in [&undefined[..], &unit_then_undefined] {
            let err = Decoder::new(bytes).token().unwrap_err();
            assert!(matches!(&err, Error::Checkpoint(m) if m.contains("token tag")), "{err}");
        }
    }

    #[test]
    fn unbounded_nesting_is_an_error() {
        let one_element_array = [6u8, 1, 0, 0, 0];
        let err = Decoder::new(&one_element_array.repeat(100_000)).token().unwrap_err();
        assert!(err.to_string().contains("nested too deeply"), "{err}");
        let mut within_cap = one_element_array.repeat(MAX_NESTING);
        within_cap.push(0);
        assert!(Decoder::new(&within_cap).token().is_ok());
    }
}
