//! The standard actor library.
//!
//! Sources ([`VecSource`], [`TimedSource`], [`PushSource`]), stream
//! transforms ([`Filter`], [`FnActor`], [`Router`], [`Union`], [`Dedup`],
//! [`Throttle`]), and the sink ([`Collector`], which also reads response
//! times off what it collected).
//! These are the building blocks workflow designers wire together; the
//! Linear Road workflow in `confluence-linearroad` is composed of them plus
//! domain-specific actors.

mod stream_ops;

pub use stream_ops::{Dedup, Throttle};

use std::sync::Arc;

use parking_lot::Mutex;

use crate::actor::{Actor, FireContext, IoSignature};
use crate::error::{Error, Result};
use crate::event::CwEvent;
use crate::time::{Micros, Timestamp};
use crate::token::Token;
use crate::window::Window;

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// A source that emits a fixed sequence of tokens, one per firing.
pub struct VecSource {
    items: Vec<Token>,
    /// Index of the next token to emit.
    next: usize,
}

impl VecSource {
    /// Source over the given tokens.
    pub fn new(items: Vec<Token>) -> Self {
        VecSource { items, next: 0 }
    }
}

impl Actor for VecSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }

    fn prefire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(self.next < self.items.len())
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        if let Some(t) = self.items.get(self.next) {
            ctx.emit(0, t.clone());
            self.next += 1;
        }
        Ok(())
    }

    fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.prefire(ctx)
    }

    fn is_source(&self) -> bool {
        true
    }

    fn next_arrival(&self) -> Option<Timestamp> {
        // A VecSource is "always ready": it asks to fire immediately.
        (self.next < self.items.len()).then_some(Timestamp::ZERO)
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        Ok(Some(save_offset(self.items.len(), self.next)))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.next = restore_offset(bytes, self.items.len())?;
        Ok(())
    }
}

/// A source's durable state: the length of its input and its read offset.
/// The input itself is rebuilt with the workflow, as its actors are.
fn save_offset(len: usize, next: usize) -> Vec<u8> {
    let mut e = crate::checkpoint::codec::Encoder::new();
    e.u64(len as u64);
    e.u64(next as u64);
    e.into_bytes()
}

/// The offset [`save_offset`] saved, checked against a rebuilt input of
/// `len` entries. Only 16 bytes are accepted: the older remaining-stream
/// state (a `u32` count, then each entry) is never that long.
fn restore_offset(bytes: &[u8], len: usize) -> Result<usize> {
    let mut d = crate::checkpoint::codec::Decoder::new(bytes);
    let (saved_len, next) = (d.u64()?, d.u64()?);
    if !d.is_exhausted() || saved_len != len as u64 || next > saved_len {
        return Err(Error::Checkpoint(format!(
            "source state ({} bytes, offset {next} of {saved_len}) does not fit an input of {len}",
            bytes.len()
        )));
    }
    Ok(next as usize)
}

/// An immutable arrival schedule that a [`TimedSource`] reads through a
/// cursor: entry `i` arrives at `arrival(i)` and becomes `token(i)` only when
/// it is released. Arrivals must not decrease; the source checks.
pub trait Timetable: Send + Sync {
    /// Number of entries.
    fn len(&self) -> usize;
    /// Whether there are no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Arrival time of entry `i` (`i < len()`).
    fn arrival(&self, i: usize) -> Timestamp;
    /// The token entry `i` carries (`i < len()`).
    fn token(&self, i: usize) -> Token;
}

impl Timetable for Vec<(Timestamp, Token)> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn arrival(&self, i: usize) -> Timestamp {
        self[i].0
    }

    fn token(&self, i: usize) -> Token {
        self[i].1.clone()
    }
}

/// A source driven by a timetable: each token carries the time at which it
/// enters the workflow. This is how external data streams (e.g. the Linear
/// Road position-report feed) are injected in virtual-time runs. Its
/// checkpoint state is its offset into the timetable.
pub struct TimedSource {
    timetable: Arc<dyn Timetable>,
    /// Index of the next entry to release.
    next: usize,
}

impl TimedSource {
    /// Source over an arrival schedule. The schedule is sorted by arrival
    /// time defensively.
    pub fn new(mut schedule: Vec<(Timestamp, Token)>) -> Self {
        schedule.sort_by_key(|(t, _)| *t);
        Self::over(Arc::new(schedule))
    }

    /// Source reading `timetable` from its first entry, unsorted: an
    /// arrival below its predecessor fails the firing that reaches it.
    pub fn over(timetable: Arc<dyn Timetable>) -> Self {
        TimedSource { timetable, next: 0 }
    }
}

impl Actor for TimedSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }

    fn prefire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(self.next_arrival().is_some_and(|t| t <= ctx.now()))
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        // Release every event whose arrival time has passed.
        let tt = &*self.timetable;
        while self.next_arrival().is_some_and(|t| t <= ctx.now()) {
            let i = self.next;
            if i > 0 && tt.arrival(i) < tt.arrival(i - 1) {
                let msg = format!("timetable entry {i} arrives before entry {}", i - 1);
                return Err(Error::actor("TimedSource", "fire", msg));
            }
            ctx.emit(0, tt.token(i));
            self.next += 1;
        }
        Ok(())
    }

    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(self.next_arrival().is_some())
    }

    fn is_source(&self) -> bool {
        true
    }

    fn next_arrival(&self) -> Option<Timestamp> {
        (self.next < self.timetable.len()).then(|| self.timetable.arrival(self.next))
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        Ok(Some(save_offset(self.timetable.len(), self.next)))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.next = restore_offset(bytes, self.timetable.len())?;
        Ok(())
    }
}

/// Producer handle for a [`PushSource`].
///
/// Clones share the same channel; dropping every handle ends the stream.
#[derive(Clone)]
pub struct PushHandle {
    tx: crossbeam::channel::Sender<Token>,
}

impl PushHandle {
    /// Push a token into the workflow. Returns `false` if the source is
    /// gone.
    pub fn push(&self, token: Token) -> bool {
        self.tx.send(token).is_ok()
    }
}

/// A push-communication source (paper §2.2): external producers — a
/// thread reading a socket, a timer, anything that owns a [`PushHandle`] —
/// push tokens at their own pace and the source pumps them into the
/// workflow at the rate dictated by the director's execution model.
pub struct PushSource {
    rx: crossbeam::channel::Receiver<Token>,
    disconnected: bool,
}

impl PushSource {
    /// Create the source and its producer handle.
    pub fn new() -> (Self, PushHandle) {
        let (tx, rx) = crossbeam::channel::unbounded();
        (
            PushSource {
                rx,
                disconnected: false,
            },
            PushHandle { tx },
        )
    }
}

impl Actor for PushSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        loop {
            match self.rx.try_recv() {
                Ok(t) => ctx.emit(0, t),
                Err(crossbeam::channel::TryRecvError::Empty) => break,
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    break;
                }
            }
        }
        Ok(())
    }

    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(!self.disconnected)
    }

    fn is_source(&self) -> bool {
        true
    }

    fn next_arrival(&self) -> Option<Timestamp> {
        if self.disconnected {
            None
        } else {
            Some(Timestamp::ZERO)
        }
    }
}

// ---------------------------------------------------------------------------
// Transforms
// ---------------------------------------------------------------------------

/// Passes through tokens satisfying a predicate.
pub struct Filter<F> {
    pred: F,
}

impl<F> Filter<F>
where
    F: FnMut(&Token) -> Result<bool> + Send,
{
    /// Filter with a fallible predicate.
    pub fn new(pred: F) -> Self {
        Filter { pred }
    }
}

impl<F> Actor for Filter<F>
where
    F: FnMut(&Token) -> Result<bool> + Send,
{
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                if (self.pred)(t)? {
                    ctx.emit(0, t.clone());
                }
            }
        }
        Ok(())
    }
}

/// The general window-processing actor: full control over windows in and
/// emissions out. Most domain actors (the Linear Road operators) are
/// `FnActor`s.
pub struct FnActor<F> {
    signature: IoSignature,
    f: F,
}

impl<F> FnActor<F>
where
    F: FnMut(&Window, &mut dyn FnMut(usize, Token)) -> Result<()> + Send,
{
    /// A windowed actor with the given ports; `f` is called once per ready
    /// input window (from any port) with an emission callback.
    pub fn new(signature: IoSignature, f: F) -> Self {
        FnActor { signature, f }
    }
}

impl<F> Actor for FnActor<F>
where
    F: FnMut(&Window, &mut dyn FnMut(usize, Token)) -> Result<()> + Send,
{
    fn signature(&self) -> IoSignature {
        self.signature.clone()
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some((_port, w)) = ctx.get_any() {
            let mut outs: Vec<(usize, Token)> = Vec::new();
            (self.f)(&w, &mut |port, token| outs.push((port, token)))?;
            for (port, token) in outs {
                ctx.emit(port, token);
            }
        }
        Ok(())
    }
}

/// Routes each token to the output port chosen by a classifier function
/// (`None` drops the token).
pub struct Router<F> {
    outputs: Vec<String>,
    route: F,
}

impl<F> Router<F>
where
    F: FnMut(&Token) -> Result<Option<usize>> + Send,
{
    /// Router with named output ports.
    pub fn new(outputs: &[&str], route: F) -> Self {
        Router {
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
            route,
        }
    }
}

impl<F> Actor for Router<F>
where
    F: FnMut(&Token) -> Result<Option<usize>> + Send,
{
    fn signature(&self) -> IoSignature {
        IoSignature {
            inputs: vec!["in".to_string()],
            outputs: self.outputs.clone(),
        }
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let n = self.outputs.len();
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                if let Some(port) = (self.route)(t)? {
                    if port >= n {
                        return Err(Error::UnknownPort(format!(
                            "router chose output {port} of {n}"
                        )));
                    }
                    ctx.emit(port, t.clone());
                }
            }
        }
        Ok(())
    }
}

/// Merges any number of input streams into one output, preserving per-port
/// arrival order.
pub struct Union {
    inputs: Vec<String>,
}

impl Union {
    /// A union over `n` input ports named `in0..in{n-1}`.
    pub fn new(n: usize) -> Self {
        Union {
            inputs: (0..n).map(|i| format!("in{i}")).collect(),
        }
    }
}

impl Actor for Union {
    fn signature(&self) -> IoSignature {
        IoSignature {
            inputs: self.inputs.clone(),
            outputs: vec!["out".to_string()],
        }
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some((_, w)) = ctx.get_any() {
            for t in w.tokens() {
                ctx.emit(0, t.clone());
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// A collected sink item: when it was received and the event itself.
#[derive(Debug, Clone)]
pub struct Collected {
    /// Director time at receipt.
    pub received_at: Timestamp,
    /// The received event.
    pub event: CwEvent,
}

/// Handle to a collecting sink's storage. Create with [`Collector::new`],
/// obtain the actor with [`Collector::actor`], inspect after the run.
#[derive(Clone, Default)]
pub struct Collector {
    items: Arc<Mutex<Vec<Collected>>>,
}

impl Collector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sink actor feeding this collector.
    pub fn actor(&self) -> CollectorActor {
        CollectorActor {
            items: self.items.clone(),
        }
    }

    /// Everything collected so far.
    pub fn items(&self) -> Vec<Collected> {
        self.items.lock().clone()
    }

    /// Collected payload tokens, in receipt order.
    pub fn tokens(&self) -> Vec<Token> {
        self.items
            .lock()
            .iter()
            .map(|c| c.event.token.clone())
            .collect()
    }

    /// Remove everything collected so far and return its payload tokens,
    /// in receipt order.
    pub fn take_tokens(&self) -> Vec<Token> {
        self.items.lock().drain(..).map(|c| c.event.token).collect()
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Response time of each collected event, in receipt order: receipt
    /// time minus its wave's initiating external timestamp (the paper
    /// measures this at the TollNotification output actor).
    pub fn latencies(&self) -> Vec<Micros> {
        self.items
            .lock()
            .iter()
            .map(|c| c.event.latency_at(c.received_at))
            .collect()
    }

    /// Mean response time over everything collected, if anything was.
    pub fn mean_latency(&self) -> Option<Micros> {
        let latencies = self.latencies();
        let total: u64 = latencies.iter().map(|l| l.as_micros()).sum();
        (!latencies.is_empty()).then(|| Micros(total / latencies.len() as u64))
    }
}

/// The sink actor behind a [`Collector`] handle.
pub struct CollectorActor {
    items: Arc<Mutex<Vec<Collected>>>,
}

impl Actor for CollectorActor {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let now = ctx.now();
        while let Some(w) = ctx.get(0) {
            let mut items = self.items.lock();
            for event in &w.events {
                items.push(Collected {
                    received_at: now,
                    event: event.clone(),
                });
            }
        }
        Ok(())
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = crate::checkpoint::codec::Encoder::new();
        e.seq(self.items.lock().iter(), |e, c| {
            e.timestamp(c.received_at);
            e.event(&c.event);
        });
        Ok(Some(e.into_bytes()))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = crate::checkpoint::codec::Decoder::new(bytes);
        *self.items.lock() = d.seq(|d| {
            Ok(Collected {
                received_at: d.timestamp()?,
                event: d.event()?,
            })
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MockContext;

    #[test]
    fn vec_source_emits_then_finishes() {
        let mut s = VecSource::new(vec![Token::Int(1), Token::Int(2)]);
        assert!(s.is_source());
        let mut ctx = MockContext::new(0);
        assert!(s.prefire(&mut ctx).unwrap());
        s.fire(&mut ctx).unwrap();
        assert!(s.postfire(&mut ctx).unwrap());
        s.fire(&mut ctx).unwrap();
        assert!(!s.postfire(&mut ctx).unwrap());
        assert!(!s.prefire(&mut ctx).unwrap());
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(1), Token::Int(2)]);
        assert_eq!(s.next_arrival(), None);
    }

    #[test]
    fn timed_source_releases_by_schedule() {
        let mut s = TimedSource::new(vec![
            (Timestamp(30), Token::Int(3)), // out of order on purpose
            (Timestamp(10), Token::Int(1)),
            (Timestamp(20), Token::Int(2)),
        ]);
        assert_eq!(s.next_arrival(), Some(Timestamp(10)));
        let mut ctx = MockContext::new(0).at(Timestamp(5));
        assert!(!s.prefire(&mut ctx).unwrap(), "nothing due yet");
        ctx.set_now(Timestamp(20));
        assert!(s.prefire(&mut ctx).unwrap());
        s.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(1), Token::Int(2)]);
        assert!(s.postfire(&mut ctx).unwrap());
        assert_eq!(s.next_arrival(), Some(Timestamp(30)));
        ctx.set_now(Timestamp(30));
        s.fire(&mut ctx).unwrap();
        assert!(!s.postfire(&mut ctx).unwrap());
    }

    fn three_timed() -> TimedSource {
        TimedSource::new(vec![
            (Timestamp(10), Token::Int(1)),
            (Timestamp(20), Token::Int(2)),
            (Timestamp(30), Token::Int(3)),
        ])
    }

    fn is_checkpoint_error(r: Result<()>) -> bool {
        matches!(r, Err(Error::Checkpoint(_)))
    }

    #[test]
    fn timed_source_state_is_its_offset() {
        let mut s = three_timed();
        let mut ctx = MockContext::new(0).at(Timestamp(10));
        s.fire(&mut ctx).unwrap();
        let saved = s.save_state().unwrap().unwrap();
        assert_eq!(saved.len(), 16, "(len, next), whatever the stream holds");

        let mut resumed = three_timed();
        resumed.restore_state(&saved).unwrap();
        assert_eq!(resumed.next, 1);
        assert_eq!(resumed.next_arrival(), Some(Timestamp(20)));
        let mut ctx = MockContext::new(0).at(Timestamp(30));
        resumed.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(2), Token::Int(3)]);
    }

    #[test]
    fn vec_source_state_is_its_offset() {
        let items = vec![Token::Int(1), Token::Int(2), Token::Int(3)];
        let mut s = VecSource::new(items.clone());
        let mut ctx = MockContext::new(0);
        s.fire(&mut ctx).unwrap();
        let saved = s.save_state().unwrap().unwrap();
        assert_eq!(saved, save_offset(3, 1));

        let mut resumed = VecSource::new(items);
        resumed.restore_state(&saved).unwrap();
        let mut ctx = MockContext::new(0);
        while resumed.prefire(&mut ctx).unwrap() {
            resumed.fire(&mut ctx).unwrap();
        }
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(2), Token::Int(3)]);
    }

    #[test]
    fn source_state_for_another_length_is_a_checkpoint_error() {
        let saved = three_timed().save_state().unwrap().unwrap();
        let mut shorter = TimedSource::new(vec![(Timestamp(10), Token::Int(1))]);
        assert!(is_checkpoint_error(shorter.restore_state(&saved)));
        assert_eq!(shorter.next, 0, "a refused state leaves the source alone");
        let mut v = VecSource::new(vec![Token::Int(1), Token::Int(2)]);
        assert!(is_checkpoint_error(v.restore_state(&saved)));
    }

    #[test]
    fn source_offset_past_the_end_is_a_checkpoint_error() {
        let past = save_offset(3, 4);
        assert!(is_checkpoint_error(three_timed().restore_state(&past)));
        let mut v = VecSource::new(vec![Token::Int(1), Token::Int(2), Token::Int(3)]);
        assert!(is_checkpoint_error(v.restore_state(&past)));
        v.restore_state(&save_offset(3, 3)).unwrap();
        assert_eq!(v.next_arrival(), None, "an offset at the end is drained");
    }

    #[test]
    fn truncated_source_state_is_a_checkpoint_error() {
        let saved = save_offset(3, 1);
        for cut in 0..saved.len() {
            let cut_short = three_timed().restore_state(&saved[..cut]);
            assert!(is_checkpoint_error(cut_short), "{cut} bytes");
        }
        let mut longer = saved.clone();
        longer.push(0);
        assert!(is_checkpoint_error(three_timed().restore_state(&longer)));
    }

    #[test]
    fn remaining_stream_state_of_the_old_format_is_a_checkpoint_error() {
        // `three_timed()` after firing at t=10, saved by the format that
        // encoded the remaining stream: u32 count, then (timestamp, token)
        // pairs.
        let old: [u8; 38] = [
            2, 0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 30, 0, 0, 0, 0, 0, 0,
            0, 2, 3, 0, 0, 0, 0, 0, 0, 0,
        ];
        let mut s = three_timed();
        assert!(is_checkpoint_error(s.restore_state(&old)));
        assert_eq!(s.next, 0);
    }

    #[test]
    fn a_timetable_arrival_below_its_predecessor_fails_the_firing() {
        let unsorted: Vec<(Timestamp, Token)> = vec![
            (Timestamp(10), Token::Int(1)),
            (Timestamp(5), Token::Int(2)),
        ];
        let mut s = TimedSource::over(Arc::new(unsorted));
        let mut ctx = MockContext::new(0).at(Timestamp(10));
        let fired = s.fire(&mut ctx);
        assert!(matches!(fired, Err(Error::Actor { stage: "fire", .. })));
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(1)], "released before");
    }

    #[test]
    fn push_source_pumps_pushed_tokens() {
        let (mut s, handle) = PushSource::new();
        assert!(handle.push(Token::Int(1)));
        assert!(handle.push(Token::Int(2)));
        let mut ctx = MockContext::new(0);
        s.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0).len(), 2);
        assert!(s.postfire(&mut ctx).unwrap());
        drop(handle);
        s.fire(&mut ctx).unwrap();
        assert!(!s.postfire(&mut ctx).unwrap(), "stream ends when handles drop");
    }

    #[test]
    fn filter_passes_matching() {
        let mut f = Filter::new(|t: &Token| Ok(t.as_int()? > 2));
        let mut ctx = MockContext::new(1);
        for v in 1..=4 {
            ctx.push_token(0, Token::Int(v), Timestamp(v as u64));
        }
        f.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(3), Token::Int(4)]);
    }

    #[test]
    fn fn_actor_sees_whole_windows() {
        let mut a = FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
            emit(0, Token::Int(w.len() as i64));
            Ok(())
        });
        let mut ctx = MockContext::new(1);
        ctx.push_window(
            0,
            Window {
                events: vec![
                    CwEvent::external(Token::Int(1), Timestamp(1)),
                    CwEvent::external(Token::Int(2), Timestamp(2)),
                ],
                formed_at: Timestamp(2),
                timed_out: false,
            },
        );
        a.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(2)]);
    }

    #[test]
    fn router_dispatches_by_port() {
        let mut r = Router::new(&["even", "odd"], |t: &Token| {
            Ok(Some((t.as_int()? % 2) as usize))
        });
        assert_eq!(r.signature().outputs, vec!["even", "odd"]);
        let mut ctx = MockContext::new(1);
        for v in 1..=4 {
            ctx.push_token(0, Token::Int(v), Timestamp(v as u64));
        }
        r.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(2), Token::Int(4)]);
        assert_eq!(ctx.emitted_on(1), vec![Token::Int(1), Token::Int(3)]);
    }

    #[test]
    fn router_rejects_out_of_range_port() {
        let mut r = Router::new(&["only"], |_t: &Token| Ok(Some(7)));
        let mut ctx = MockContext::new(1);
        ctx.push_token(0, Token::Int(1), Timestamp(1));
        assert!(r.fire(&mut ctx).is_err());
    }

    #[test]
    fn union_merges_ports() {
        let mut u = Union::new(2);
        assert_eq!(u.signature().inputs, vec!["in0", "in1"]);
        let mut ctx = MockContext::new(2);
        ctx.push_token(0, Token::Int(1), Timestamp(1));
        ctx.push_token(1, Token::Int(2), Timestamp(2));
        u.fire(&mut ctx).unwrap();
        assert_eq!(ctx.emitted_on(0).len(), 2);
    }

    #[test]
    fn collector_gathers_events() {
        let c = Collector::new();
        let mut actor = c.actor();
        let mut ctx = MockContext::new(1).at(Timestamp(99));
        ctx.push_token(0, Token::Int(5), Timestamp(1));
        actor.fire(&mut ctx).unwrap();
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        assert_eq!(c.tokens(), vec![Token::Int(5)]);
        assert_eq!(c.items()[0].received_at, Timestamp(99));
    }

    #[test]
    fn collector_reads_response_times_off_what_it_kept() {
        assert_eq!(Collector::new().mean_latency(), None);
        let c = Collector::new();
        let mut actor = c.actor();
        let mut ctx = MockContext::new(1).at(Timestamp(1_500));
        ctx.push_token(0, Token::Int(1), Timestamp(1_000));
        ctx.push_token(0, Token::Int(2), Timestamp(1_200));
        actor.fire(&mut ctx).unwrap();
        assert_eq!(c.latencies(), vec![Micros(500), Micros(300)]);
        assert_eq!(c.mean_latency(), Some(Micros(400)));
    }
}
