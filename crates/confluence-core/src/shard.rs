//! Keyed actor sharding: the generated splitter, replica wrapper, and
//! ordered merge actors behind [`WorkflowBuilder::shard`].
//!
//! Declaring `b.shard(actor, Shard::by_fields(&["xway", "seg"]).replicas(n))`
//! makes `build()` expand the actor into a small sub-graph (Floe's elastic
//! dataflow shape, re-parameterized at build time):
//!
//! ```text
//!            ┌─ A#0 ─┐
//! … ─ A#split┼─ A#1 ─┼ A#merge ─ …
//!            └─ A#2 ─┘
//! ```
//!
//! * [`ShardSplitter`] takes the sharded actor's place: it stamps every
//!   record with a global dispatch sequence number (`__shard_seq`) and
//!   hash-routes it by the shard key to one replica output.
//! * [`ShardReplica`] wraps one replica of the original actor: per input
//!   window it strips the sequence stamps, runs the inner actor's `fire`,
//!   forwards its productions, and emits an *ack* record
//!   `{seq, count}` on a second output — `seq` being the highest dispatch
//!   sequence in the window, `count` the number of productions.
//! * [`OrderedMerge`] pairs each replica's productions with its acks and
//!   releases firing groups in global dispatch-sequence order, gated by
//!   per-replica watermarks (a group at sequence `s` is released once every
//!   replica has acked beyond `s`, proving no earlier group can still
//!   arrive). Remaining groups drain, still in order, in
//!   [`Actor::finish`] before the merge's outputs close.
//!
//! To keep the frontier live under skewed key distributions, the splitter
//! also owns one *heartbeat* output per replica (`hb0..hbN`): whenever a
//! replica has not been dispatched to for `HEARTBEAT_EVERY` records (and
//! once more on `finish`), the splitter advertises its latest dispatch
//! sequence on that replica's heartbeat port. The replica answers with an
//! advance-only ack `{seq, count: 0}`, which moves its watermark without
//! pairing any production — so a replica that never receives a key can no
//! longer hold the min-ack frontier (and every buffered group) back forever.
//!
//! The net effect is CONFLuEnCE wave semantics preserved across data
//! parallelism: downstream actors observe one stream whose firing groups
//! appear in the order the splitter dispatched their trigger events,
//! regardless of replica interleaving.
//!
//! [`WorkflowBuilder::shard`]: crate::graph::WorkflowBuilder::shard

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::actor::{Actor, FireContext, IoSignature};
use crate::checkpoint::codec::{Decoder, Encoder};
use crate::error::{Error, Result};
use crate::time::Timestamp;
use crate::token::{Schema, Token};
use crate::window::{GroupBy, Window};

/// Field name used to carry the splitter's dispatch sequence number on
/// records between the splitter and its replicas. Stripped before the
/// wrapped actor sees the record.
pub const SEQ_FIELD: &str = "__shard_seq";

/// Deterministic shard assignment for a key token.
pub fn shard_of(key: &Token, replicas: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % replicas as u64) as usize
}

/// A record shape with [`SEQ_FIELD`] taken out, or put last: derived once
/// per source schema, not once per record.
#[derive(Default)]
struct DerivedSchema(Option<(Arc<Schema>, Arc<Schema>)>);

impl DerivedSchema {
    fn of(&mut self, source: &Arc<Schema>, keep_seq: bool) -> Arc<Schema> {
        if !matches!(&self.0, Some((from, _)) if Arc::ptr_eq(from, source)) {
            let names = source.names().iter().filter(|n| n.as_ref() != SEQ_FIELD);
            let seq = keep_seq.then(|| Arc::from(SEQ_FIELD));
            let to = Schema::from_names(names.cloned().chain(seq).collect());
            self.0 = Some((source.clone(), to));
        }
        self.0.as_ref().expect("derived above").1.clone()
    }
}

/// The values of `rec`'s fields other than [`SEQ_FIELD`], in order.
fn payload(rec: &crate::token::Record) -> impl Iterator<Item = Token> + '_ {
    let fields = rec.iter().filter(|(n, _)| *n != SEQ_FIELD);
    fields.map(|(_, v)| v.clone())
}

/// Highest dispatch sequence among a window's events (`-1` when none carry
/// one, e.g. a timeout-flushed empty window).
fn window_seq(window: &Window) -> i64 {
    window
        .events
        .iter()
        .filter_map(|e| e.token.get(SEQ_FIELD).ok().and_then(|t| t.as_int().ok()))
        .max()
        .unwrap_or(-1)
}

fn ack_token(seq: i64, count: usize) -> Token {
    Token::record()
        .field("seq", seq)
        .field("count", count as i64)
        .build()
}

/// How far the global dispatch sequence may run ahead of what an idle
/// replica has been told before the splitter sends it a heartbeat. Bounds
/// both heartbeat traffic (one extra token per `HEARTBEAT_EVERY` dispatches
/// per idle replica) and how long the merge frontier can lag.
const HEARTBEAT_EVERY: i64 = 32;

/// Key-hash fan-out stage generated for a sharded actor. Occupies the
/// original actor's node slot so upstream channels stay untouched.
///
/// Besides the `s{r}` data outputs there is one `hb{r}` heartbeat output
/// per replica: a replica the key distribution skips would otherwise never
/// ack, pinning the downstream [`OrderedMerge`] frontier at its initial
/// watermark so nothing releases until end of stream. Whenever a replica
/// falls `HEARTBEAT_EVERY` dispatches behind the global sequence without
/// receiving data, the splitter emits the latest sequence on its heartbeat
/// port; the [`ShardReplica`] answers with an advance-only (count 0) ack.
pub struct ShardSplitter {
    key: GroupBy,
    replicas: usize,
    in_name: String,
    seq: i64,
    /// Per replica: the highest sequence it has been told about, via data
    /// or heartbeat.
    advertised: Vec<i64>,
    stamped: DerivedSchema,
}

impl ShardSplitter {
    /// A splitter routing `in_name` events to `replicas` outputs by `key`.
    pub fn new(key: GroupBy, replicas: usize, in_name: impl Into<String>) -> Self {
        ShardSplitter {
            key,
            replicas: replicas.max(1),
            in_name: in_name.into(),
            seq: 0,
            advertised: vec![-1; replicas.max(1)],
            stamped: DerivedSchema::default(),
        }
    }
}

impl Actor for ShardSplitter {
    fn signature(&self) -> IoSignature {
        let outputs: Vec<String> = (0..self.replicas)
            .map(|r| format!("s{r}"))
            .chain((0..self.replicas).map(|r| format!("hb{r}")))
            .collect();
        IoSignature {
            inputs: vec![self.in_name.clone()],
            outputs,
        }
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for token in w.tokens() {
                let key = self.key.key_of(token)?;
                let shard = shard_of(&key, self.replicas);
                let rec = token.as_record().map_err(|_| {
                    Error::Graph(format!(
                        "sharded streams carry records, got {}",
                        token.type_name()
                    ))
                })?;
                let stamped = self
                    .stamped
                    .of(rec.schema(), true)
                    .record(payload(rec).chain([Token::Int(self.seq)]).collect::<Vec<_>>());
                self.advertised[shard] = self.seq;
                self.seq += 1;
                ctx.emit(shard, stamped);
            }
            // Frontier liveness: nudge replicas the distribution skipped.
            let latest = self.seq - 1;
            for r in 0..self.replicas {
                if latest - self.advertised[r] >= HEARTBEAT_EVERY {
                    self.advertised[r] = latest;
                    ctx.emit(self.replicas + r, Token::Int(latest));
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        // Closing flush: bring every replica up to the final sequence so
        // the merge can release its last held groups in order without
        // waiting for its own end-of-stream drain.
        let latest = self.seq - 1;
        for r in 0..self.replicas {
            if latest >= 0 && self.advertised[r] < latest {
                self.advertised[r] = latest;
                ctx.emit(self.replicas + r, Token::Int(latest));
            }
        }
        Ok(())
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = Encoder::new();
        e.i64(self.seq);
        e.u32(self.advertised.len() as u32);
        for a in &self.advertised {
            e.i64(*a);
        }
        Ok(Some(e.into_bytes()))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = Decoder::new(bytes);
        self.seq = d.i64()?;
        let n = d.u32()? as usize;
        if n != self.replicas {
            return Err(Error::Checkpoint(format!(
                "splitter snapshot has {n} replicas, workflow has {}",
                self.replicas
            )));
        }
        for a in self.advertised.iter_mut() {
            *a = d.i64()?;
        }
        Ok(())
    }
}

/// Single-window [`FireContext`] shim handed to the wrapped actor: serves
/// one pre-delivered window and buffers the inner actor's emissions.
struct ShimCtx {
    now: Timestamp,
    window: Option<Window>,
    emissions: Vec<Token>,
}

impl ShimCtx {
    fn new(now: Timestamp, window: Option<Window>) -> Self {
        ShimCtx {
            now,
            window,
            emissions: Vec::new(),
        }
    }
}

impl FireContext for ShimCtx {
    fn now(&self) -> Timestamp {
        self.now
    }
    fn get(&mut self, port: usize) -> Option<Window> {
        if port == 0 {
            self.window.take()
        } else {
            None
        }
    }
    fn get_any(&mut self) -> Option<(usize, Window)> {
        self.window.take().map(|w| (0, w))
    }
    fn emit(&mut self, _port: usize, token: Token) {
        self.emissions.push(token);
    }
}

/// One replica of a sharded actor. Runs the inner actor one window at a
/// time and acks each firing on a second output so the downstream
/// [`OrderedMerge`] can restore dispatch order.
pub struct ShardReplica {
    inner: Box<dyn Actor>,
    stripped: DerivedSchema,
}

impl ShardReplica {
    /// Wrap one replica of the sharded actor.
    pub fn new(inner: Box<dyn Actor>) -> Self {
        ShardReplica {
            inner,
            stripped: DerivedSchema::default(),
        }
    }

    /// Forward buffered inner emissions, acking when asked.
    fn flush(ctx: &mut dyn FireContext, shim: ShimCtx, ack: Option<i64>) {
        let count = shim.emissions.len();
        for token in shim.emissions {
            ctx.emit(0, token);
        }
        match ack {
            Some(seq) => ctx.emit(1, ack_token(seq, count)),
            None if count > 0 => ctx.emit(1, ack_token(-1, count)),
            None => {}
        }
    }
}

impl Actor for ShardReplica {
    fn signature(&self) -> IoSignature {
        let inner = self.inner.signature();
        let mut inputs = inner.inputs;
        inputs.push("hb".into());
        IoSignature {
            inputs,
            outputs: vec!["out".into(), "ack".into()],
        }
    }

    fn initialize(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let mut shim = ShimCtx::new(ctx.now(), None);
        self.inner.initialize(&mut shim)?;
        Self::flush(ctx, shim, None);
        Ok(())
    }

    fn prefire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        let mut shim = ShimCtx::new(ctx.now(), None);
        self.inner.prefire(&mut shim)
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some((port, w)) = ctx.get_any() {
            if port == 1 {
                // Splitter heartbeat: answer with an advance-only ack so
                // the merge frontier moves even though this replica has no
                // data (and therefore no productions) to offer.
                for token in w.tokens() {
                    ctx.emit(1, ack_token(token.as_int()?, 0));
                }
                continue;
            }
            let seq = window_seq(&w);
            let stripped = Window {
                group: w.group.clone(),
                events: w
                    .events
                    .iter()
                    .map(|e| {
                        let mut e = e.clone();
                        let stamped = e.token.as_record().ok();
                        if let Some(rec) = stamped.filter(|r| r.index_of(SEQ_FIELD).is_some()) {
                            let plain = self.stripped.of(rec.schema(), false);
                            e.token = plain.record(payload(rec).collect::<Vec<_>>());
                        }
                        e
                    })
                    .collect(),
                formed_at: w.formed_at,
                timed_out: w.timed_out,
            };
            let mut shim = ShimCtx::new(ctx.now(), Some(stripped));
            self.inner.fire(&mut shim)?;
            Self::flush(ctx, shim, Some(seq));
        }
        Ok(())
    }

    fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        let mut shim = ShimCtx::new(ctx.now(), None);
        self.inner.postfire(&mut shim)
    }

    fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let mut shim = ShimCtx::new(ctx.now(), None);
        self.inner.finish(&mut shim)?;
        Self::flush(ctx, shim, None);
        Ok(())
    }

    fn wrapup(&mut self) -> Result<()> {
        self.inner.wrapup()
    }

    fn replicate(&self) -> Option<Box<dyn Actor>> {
        self.inner
            .replicate()
            .map(|inner| Box::new(ShardReplica::new(inner)) as Box<dyn Actor>)
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.restore_state(bytes)
    }
}

/// Ordered merge stage generated for a sharded actor: restores global
/// dispatch-sequence order across replica outputs.
///
/// Inputs `in0..in{n-1}` carry replica productions, `ack0..ack{n-1}` the
/// matching firing acks. Firing groups with a known sequence are buffered
/// and released in sequence order once every replica's watermark has passed
/// them; groups without a sequence (timeout flushes, `finish` productions)
/// pass through immediately.
pub struct OrderedMerge {
    replicas: usize,
    /// Per replica: productions not yet claimed by an ack, in arrival order.
    bufs: Vec<VecDeque<Token>>,
    /// Per replica: acks not yet paired with `count` productions.
    acks: Vec<VecDeque<(i64, usize)>>,
    /// Per replica: highest acked dispatch sequence.
    watermark: Vec<i64>,
    /// Assembled groups awaiting ordered release, keyed by sequence.
    ready: BTreeMap<i64, Vec<Token>>,
    /// Highest sequence released so far.
    released: i64,
}

impl OrderedMerge {
    /// A merge over `replicas` replica streams.
    pub fn new(replicas: usize) -> Self {
        OrderedMerge {
            replicas,
            bufs: (0..replicas).map(|_| VecDeque::new()).collect(),
            acks: (0..replicas).map(|_| VecDeque::new()).collect(),
            watermark: vec![-1; replicas],
            ready: BTreeMap::new(),
            released: -1,
        }
    }

    /// Pair buffered productions with acks into release groups.
    fn assemble(&mut self, ctx: &mut dyn FireContext) {
        for r in 0..self.replicas {
            while let Some(&(seq, count)) = self.acks[r].front() {
                if self.bufs[r].len() < count {
                    break;
                }
                self.acks[r].pop_front();
                let group: Vec<Token> = self.bufs[r].drain(..count).collect();
                if seq >= 0 {
                    self.watermark[r] = self.watermark[r].max(seq);
                }
                if seq < 0 || seq <= self.released {
                    // No ordering handle (timeout flush / finish production)
                    // or a late group behind the release frontier: emit now.
                    for token in group {
                        ctx.emit(0, token);
                    }
                } else {
                    // Append, never overwrite: sliding windows can ack one
                    // sequence twice (a close-time flush window re-acks the
                    // highest sequence it still holds, usually with an
                    // empty production set).
                    self.ready.entry(seq).or_default().extend(group);
                }
            }
        }
    }

    /// Release every group proven safe by the replica watermarks.
    fn release(&mut self, ctx: &mut dyn FireContext) {
        let frontier = self.watermark.iter().copied().min().unwrap_or(-1);
        while let Some((&seq, _)) = self.ready.first_key_value() {
            if seq > frontier {
                break;
            }
            let group = self.ready.remove(&seq).expect("first key just observed");
            self.released = seq;
            for token in group {
                ctx.emit(0, token);
            }
        }
    }
}

impl Actor for OrderedMerge {
    fn signature(&self) -> IoSignature {
        let inputs: Vec<String> = (0..self.replicas)
            .map(|r| format!("in{r}"))
            .chain((0..self.replicas).map(|r| format!("ack{r}")))
            .collect();
        IoSignature {
            inputs,
            outputs: vec!["out".into()],
        }
    }

    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some((port, w)) = ctx.get_any() {
            for token in w.tokens() {
                if port < self.replicas {
                    self.bufs[port].push_back(token.clone());
                } else {
                    let seq = token.int_field("seq")?;
                    let count = token.int_field("count")?.max(0) as usize;
                    self.acks[port - self.replicas].push_back((seq, count));
                }
            }
            self.assemble(ctx);
            self.release(ctx);
        }
        Ok(())
    }

    fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        // All inputs have closed: everything assembled is safe to release in
        // sequence order, then any unpaired leftovers (an ack stream cut
        // short) drain in replica order so nothing is lost.
        self.assemble(ctx);
        for (_, group) in std::mem::take(&mut self.ready) {
            for token in group {
                ctx.emit(0, token);
            }
        }
        for r in 0..self.replicas {
            for token in self.bufs[r].drain(..) {
                ctx.emit(0, token);
            }
        }
        Ok(())
    }

    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = Encoder::new();
        e.u32(self.replicas as u32);
        for r in 0..self.replicas {
            e.seq(&self.bufs[r], Encoder::token);
            e.seq(&self.acks[r], |e, &(seq, count)| {
                e.i64(seq);
                e.u32(count as u32);
            });
            e.i64(self.watermark[r]);
        }
        e.seq(&self.ready, |e, (seq, group)| {
            e.i64(*seq);
            e.seq(group, Encoder::token);
        });
        e.i64(self.released);
        Ok(Some(e.into_bytes()))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut d = Decoder::new(bytes);
        let n = d.u32()? as usize;
        if n != self.replicas {
            return Err(Error::Checkpoint(format!(
                "merge snapshot has {n} replicas, workflow has {}",
                self.replicas
            )));
        }
        for r in 0..n {
            self.bufs[r] = d.seq(Decoder::token)?.into();
            self.acks[r] = d.seq(|d| Ok((d.i64()?, d.u32()? as usize)))?.into();
            self.watermark[r] = d.i64()?;
        }
        let ready = d.seq(|d| Ok((d.i64()?, d.seq(Decoder::token)?)))?;
        self.ready = ready.into_iter().collect();
        self.released = d.i64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::FireContext;
    use crate::event::CwEvent;

    /// Test harness context: pre-loaded windows, captured emissions.
    struct TestCtx {
        inbox: VecDeque<(usize, Window)>,
        out: Vec<(usize, Token)>,
    }

    impl TestCtx {
        fn new() -> Self {
            TestCtx {
                inbox: VecDeque::new(),
                out: Vec::new(),
            }
        }

        fn push(&mut self, port: usize, token: Token) {
            self.inbox.push_back((
                port,
                Window {
                    group: Token::Unit,
                    events: vec![CwEvent::external(token, Timestamp(0))],
                    formed_at: Timestamp(0),
                    timed_out: false,
                },
            ));
        }
    }

    impl FireContext for TestCtx {
        fn now(&self) -> Timestamp {
            Timestamp(0)
        }
        fn get(&mut self, port: usize) -> Option<Window> {
            let at = self.inbox.iter().position(|(p, _)| *p == port)?;
            self.inbox.remove(at).map(|(_, w)| w)
        }
        fn get_any(&mut self) -> Option<(usize, Window)> {
            self.inbox.pop_front()
        }
        fn emit(&mut self, port: usize, token: Token) {
            self.out.push((port, token));
        }
    }

    fn rec(id: i64) -> Token {
        Token::record().field("id", id).build()
    }

    #[test]
    fn splitter_stamps_and_routes_by_key() {
        let mut s = ShardSplitter::new(GroupBy::fields(&["id"]), 2, "in");
        let sig = s.signature();
        assert_eq!(sig.inputs, vec!["in"]);
        assert_eq!(sig.outputs, vec!["s0", "s1", "hb0", "hb1"]);
        let mut ctx = TestCtx::new();
        for i in 0..8 {
            ctx.push(0, rec(i));
        }
        s.fire(&mut ctx).unwrap();
        assert_eq!(ctx.out.len(), 8);
        // Sequence numbers are global and increasing across shards.
        let seqs: Vec<i64> = ctx
            .out
            .iter()
            .map(|(_, t)| t.int_field(SEQ_FIELD).unwrap())
            .collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
        // Same key always lands on the same shard.
        let mut s2 = ShardSplitter::new(GroupBy::fields(&["id"]), 2, "in");
        let mut ctx2 = TestCtx::new();
        for i in 0..8 {
            ctx2.push(0, rec(i % 2));
        }
        s2.fire(&mut ctx2).unwrap();
        let ports: Vec<usize> = ctx2.out.iter().map(|(p, _)| *p).collect();
        for pair in ports.chunks(2) {
            assert_eq!(pair[0], ports[0]);
            assert_eq!(pair[1], ports[1]);
        }
        // Non-record payloads are rejected.
        let mut s3 = ShardSplitter::new(GroupBy::None, 2, "in");
        let mut ctx3 = TestCtx::new();
        ctx3.push(0, Token::Int(1));
        assert!(s3.fire(&mut ctx3).is_err());
    }

    /// Inner actor doubling an `id` field; counts lifecycle calls.
    struct DoubleId {
        finished: bool,
    }
    impl Actor for DoubleId {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            while let Some(w) = ctx.get(0) {
                for t in w.tokens() {
                    assert!(
                        t.as_record().unwrap().get(SEQ_FIELD).is_none(),
                        "wrapper must strip the sequence stamp"
                    );
                    ctx.emit(0, rec(t.int_field("id")? * 2));
                }
            }
            Ok(())
        }
        fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            self.finished = true;
            ctx.emit(0, rec(-99));
            Ok(())
        }
        fn replicate(&self) -> Option<Box<dyn Actor>> {
            Some(Box::new(DoubleId { finished: false }))
        }
    }

    #[test]
    fn replica_wrapper_strips_fires_and_acks() {
        let mut r = ShardReplica::new(Box::new(DoubleId { finished: false }));
        let sig = r.signature();
        assert_eq!(sig.inputs, vec!["in", "hb"]);
        assert_eq!(sig.outputs, vec!["out", "ack"]);
        assert!(r.replicate().is_some());
        let mut ctx = TestCtx::new();
        let stamped = Token::Record(Arc::new(
            rec(21).as_record().unwrap().with(SEQ_FIELD, Token::Int(7)),
        ));
        ctx.push(0, stamped);
        r.initialize(&mut ctx).unwrap();
        assert!(r.prefire(&mut ctx).unwrap());
        r.fire(&mut ctx).unwrap();
        assert!(r.postfire(&mut ctx).unwrap());
        assert_eq!(ctx.out.len(), 2, "one production plus one ack");
        assert_eq!(ctx.out[0].0, 0);
        assert_eq!(ctx.out[0].1.int_field("id").unwrap(), 42);
        assert_eq!(ctx.out[1].0, 1);
        assert_eq!(ctx.out[1].1.int_field("seq").unwrap(), 7);
        assert_eq!(ctx.out[1].1.int_field("count").unwrap(), 1);
        // finish forwards the inner finish production with a seq-less ack.
        ctx.out.clear();
        r.finish(&mut ctx).unwrap();
        assert_eq!(ctx.out[0], (0, rec(-99)));
        assert_eq!(ctx.out[1].1.int_field("seq").unwrap(), -1);
        r.wrapup().unwrap();
    }

    #[test]
    fn merge_restores_dispatch_order_under_adversarial_interleaving() {
        // Replica 1's groups (seqs 1, 3) arrive before replica 0's (0, 2):
        // the merge must hold them until replica 0 catches up.
        let mut m = OrderedMerge::new(2);
        assert_eq!(m.signature().inputs, vec!["in0", "in1", "ack0", "ack1"]);
        let mut ctx = TestCtx::new();
        ctx.push(1, rec(10));
        ctx.push(3, ack_token(1, 1)); // ack1
        ctx.push(1, rec(30));
        ctx.push(3, ack_token(3, 1));
        m.fire(&mut ctx).unwrap();
        assert!(ctx.out.is_empty(), "held until replica 0's watermark moves");
        ctx.push(0, rec(0));
        ctx.push(2, ack_token(0, 1)); // ack0
        ctx.push(0, rec(20));
        ctx.push(2, ack_token(2, 1));
        m.fire(&mut ctx).unwrap();
        let ids: Vec<i64> = ctx
            .out
            .iter()
            .map(|(_, t)| t.int_field("id").unwrap())
            .collect();
        // seq 3 stays buffered: replica 0's watermark (2) hasn't passed it.
        assert_eq!(ids, vec![0, 10, 20]);
        let mut fin = TestCtx::new();
        m.finish(&mut fin).unwrap();
        let ids: Vec<i64> = fin
            .out
            .iter()
            .map(|(_, t)| t.int_field("id").unwrap())
            .collect();
        assert_eq!(ids, vec![30]);
    }

    #[test]
    fn merge_keeps_held_productions_across_duplicate_acks() {
        // Sliding windows re-ack a sequence they already acked (the
        // close-time flush window still holds the event): the second,
        // empty ack must not clobber the held production group.
        let mut m = OrderedMerge::new(2);
        let mut ctx = TestCtx::new();
        ctx.push(0, rec(10));
        ctx.push(2, ack_token(1, 1));
        ctx.push(2, ack_token(1, 0));
        m.fire(&mut ctx).unwrap();
        assert!(ctx.out.is_empty(), "replica 1's watermark is still behind");
        let mut fin = TestCtx::new();
        m.finish(&mut fin).unwrap();
        let ids: Vec<i64> = fin
            .out
            .iter()
            .map(|(_, t)| t.int_field("id").unwrap())
            .collect();
        assert_eq!(ids, vec![10]);
    }

    #[test]
    fn merge_passes_seqless_groups_through_and_drains_leftovers() {
        let mut m = OrderedMerge::new(2);
        let mut ctx = TestCtx::new();
        // A timeout-flushed firing with no sequence handle passes through.
        ctx.push(0, rec(1));
        ctx.push(2, ack_token(-1, 1));
        m.fire(&mut ctx).unwrap();
        assert_eq!(ctx.out.len(), 1);
        // Unacked leftovers drain at finish.
        let mut ctx2 = TestCtx::new();
        ctx2.push(1, rec(5));
        m.fire(&mut ctx2).unwrap();
        assert!(ctx2.out.is_empty());
        let mut fin = TestCtx::new();
        m.finish(&mut fin).unwrap();
        assert_eq!(fin.out.len(), 1);
        assert_eq!(fin.out[0].1.int_field("id").unwrap(), 5);
    }

    #[test]
    fn splitter_heartbeats_replicas_the_distribution_skips() {
        // All records carry the same key, so one replica gets every
        // dispatch and the other starves. After HEARTBEAT_EVERY dispatches
        // the starved replica must receive a heartbeat on its hb port.
        let mut s = ShardSplitter::new(GroupBy::fields(&["id"]), 2, "in");
        let mut ctx = TestCtx::new();
        let total = HEARTBEAT_EVERY + 4;
        for _ in 0..total {
            ctx.push(0, rec(7));
        }
        s.fire(&mut ctx).unwrap();
        let data_port = ctx.out[0].0;
        assert!(data_port < 2);
        let starved = 1 - data_port;
        let heartbeats: Vec<i64> = ctx
            .out
            .iter()
            .filter(|(p, _)| *p == 2 + starved)
            .map(|(_, t)| t.as_int().unwrap())
            .collect();
        assert_eq!(
            heartbeats,
            vec![HEARTBEAT_EVERY - 1],
            "one heartbeat once the replica fell a full interval behind"
        );
        // The busy replica saw every sequence via data; no heartbeat there.
        assert!(ctx.out.iter().all(|(p, _)| *p != 2 + data_port));
        // finish() re-advertises the final sequence to the lagging replica.
        let mut fin = TestCtx::new();
        s.finish(&mut fin).unwrap();
        assert_eq!(fin.out, vec![(2 + starved, Token::Int(total - 1))]);
    }

    #[test]
    fn splitter_finish_sends_catchup_heartbeats() {
        let mut s = ShardSplitter::new(GroupBy::fields(&["id"]), 2, "in");
        let mut ctx = TestCtx::new();
        for _ in 0..3 {
            ctx.push(0, rec(7)); // too few dispatches to trip the in-fire nudge
        }
        s.fire(&mut ctx).unwrap();
        assert!(ctx.out.iter().all(|(p, _)| *p < 2), "no heartbeat yet");
        let data_port = ctx.out[0].0;
        let starved = 1 - data_port;
        let mut fin = TestCtx::new();
        s.finish(&mut fin).unwrap();
        assert_eq!(fin.out, vec![(2 + starved, Token::Int(2))]);
    }

    #[test]
    fn replica_answers_heartbeats_with_advance_only_acks() {
        let mut r = ShardReplica::new(Box::new(DoubleId { finished: false }));
        let mut ctx = TestCtx::new();
        ctx.push(1, Token::Int(41));
        r.fire(&mut ctx).unwrap();
        assert_eq!(ctx.out.len(), 1, "no production, just the ack");
        assert_eq!(ctx.out[0].0, 1);
        assert_eq!(ctx.out[0].1.int_field("seq").unwrap(), 41);
        assert_eq!(ctx.out[0].1.int_field("count").unwrap(), 0);
    }

    #[test]
    fn heartbeat_acks_advance_the_merge_frontier() {
        // Replica 0 produced groups 0 and 1; replica 1 never received a
        // key. Without a heartbeat the merge would hold everything back.
        let mut m = OrderedMerge::new(2);
        let mut ctx = TestCtx::new();
        ctx.push(0, rec(10));
        ctx.push(2, ack_token(0, 1));
        ctx.push(0, rec(11));
        ctx.push(2, ack_token(1, 1));
        m.fire(&mut ctx).unwrap();
        assert!(ctx.out.is_empty(), "replica 1's watermark still at -1");
        // The starved replica relays the splitter's heartbeat as a count-0
        // ack: the frontier advances and both groups release in order.
        ctx.push(3, ack_token(1, 0));
        m.fire(&mut ctx).unwrap();
        let ids: Vec<i64> = ctx
            .out
            .iter()
            .map(|(_, t)| t.int_field("id").unwrap())
            .collect();
        assert_eq!(ids, vec![10, 11]);
    }

    #[test]
    fn merge_state_round_trips_through_save_and_restore() {
        let mut m = OrderedMerge::new(2);
        let mut ctx = TestCtx::new();
        ctx.push(1, rec(10));
        ctx.push(3, ack_token(1, 1));
        ctx.push(0, rec(0));
        m.fire(&mut ctx).unwrap();
        assert!(ctx.out.is_empty());
        let bytes = m.save_state().unwrap().expect("merge state is stateful");
        let mut m2 = OrderedMerge::new(2);
        m2.restore_state(&bytes).unwrap();
        // The restored merge picks up exactly where the original left off.
        let mut ctx2 = TestCtx::new();
        ctx2.push(2, ack_token(0, 1));
        ctx2.push(2, ack_token(1, 0)); // heartbeat: replica 0 past seq 1
        m2.fire(&mut ctx2).unwrap();
        let ids: Vec<i64> = ctx2
            .out
            .iter()
            .map(|(_, t)| t.int_field("id").unwrap())
            .collect();
        assert_eq!(ids, vec![0, 10]);
        // Replica-count mismatches are rejected.
        let mut wrong = OrderedMerge::new(3);
        assert!(wrong.restore_state(&bytes).is_err());
    }
}
