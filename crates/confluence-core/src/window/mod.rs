//! Window semantics on the active queues of activity inputs.
//!
//! A *window* sets flexible bounds on an unbounded stream of events to
//! fetch a finite, ever-changing logical bundle of events. CONFLuEnCE
//! attaches windows to the queues on activity inputs; the window operator
//! runs on the queue and produces a window whenever the attached activity
//! asks for one (or a formation timeout fires).
//!
//! Five parameters define the semantics (paper §2.1):
//!
//! 1. **size** — extent of one window (tuples, time, or a whole wave),
//! 2. **step** — how far consecutive windows advance,
//! 3. **window_formation_timeout** — how long a partial window may wait
//!    before being forced out,
//! 4. **group-by** — partition the queue into per-key sub-queues,
//! 5. **delete_used_events** — whether events used by a window are consumed
//!    (each event in at most one window) or remain available for
//!    overlapping windows.
//!
//! Combining the size/step definition with `delete_used_events` realizes
//! the hybrid window + consumption modes of Adaikkalavan & Chakravarthy
//! (ref. \[1\] of the paper): *unrestricted* (sliding, events reusable),
//! *recent* (size = step, most-recent bundle), and *continuous*
//! (`delete_used_events`, each event consumed exactly once). Expired events
//! are pushed to an expired-items queue which can optionally feed another
//! workflow activity.

mod model;
mod operator;

pub use operator::{GroupSnapshot, OperatorSnapshot, WindowOperator};

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::event::CwEvent;
use crate::postable::KeyHasher;
use crate::time::{Micros, Timestamp};
use crate::token::{hash_record, Record, Schema, Token};
use crate::wave::WaveTag;

/// Slots past which an emptied window queue gives its buffer back.
const BURST: usize = 64;

/// Let a queue of formed windows that has just drained after a burst (a
/// minute close forms thousands at once) drop the buffer the burst grew;
/// between bursts such queues hold a window or two.
pub fn release_drained<T>(queue: &mut VecDeque<T>) {
    if queue.is_empty() && queue.capacity() > BURST {
        *queue = VecDeque::new();
    }
}

/// How a window's extent (size) or advance (step) is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// A fixed number of events.
    Tuples(usize),
    /// A span of event time.
    Time(Micros),
    /// One complete wave (all events of a single external event's lineage).
    ///
    /// The paper lists wave-based windows as designed but not yet supported
    /// in CONFLuEnCE; we implement them as an extension. With a wave
    /// measure the step is implicitly one wave.
    Wave,
}

/// Group-by clause: how to partition the input queue.
#[derive(Clone, Default)]
pub enum GroupBy {
    /// No partitioning: a single queue.
    #[default]
    None,
    /// Partition by the value of the named record fields; holds the schema
    /// every key record of this clause is built with.
    Fields(Arc<Schema>),
    /// Partition by an arbitrary key-extraction function.
    Key(Arc<dyn Fn(&Token) -> Token + Send + Sync>),
}

impl std::fmt::Debug for GroupBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupBy::None => write!(f, "GroupBy::None"),
            GroupBy::Fields(key) => write!(f, "GroupBy::Fields({:?})", key.names()),
            GroupBy::Key(_) => write!(f, "GroupBy::Key(<fn>)"),
        }
    }
}

/// Where a [`GroupBy::Fields`] clause's fields sit in the schema of the
/// last input record seen.
pub(crate) type KeyPositions = Option<(Arc<Schema>, Box<[usize]>)>;

impl GroupBy {
    /// Partition by named record fields.
    pub fn fields(names: &[&str]) -> GroupBy {
        GroupBy::Fields(Schema::new(names))
    }

    /// Extract the group key of a token. Non-record tokens under
    /// `GroupBy::Fields` are an error (the Linear Road workflow always
    /// groups records).
    pub fn key_of(&self, token: &Token) -> Result<Token> {
        let schema = match self {
            GroupBy::None => return Ok(Token::Unit),
            GroupBy::Key(f) => return Ok(f(token)),
            GroupBy::Fields(schema) => schema,
        };
        let rec = token.as_record()?;
        let field = |name: &Arc<str>| rec.get(name).cloned().ok_or_else(|| Error::MissingField(name.to_string()));
        Ok(schema.record(schema.names().iter().map(field).collect::<Result<Vec<_>>>()?))
    }

    /// A probe for the key of a group that holds `held` (under
    /// `GroupBy::Fields` a record with the key fields, else the key).
    pub(crate) fn probe_held<'a>(&'a self, held: &'a Token, positions: &'a mut KeyPositions) -> Result<KeyProbe<'a>> {
        match self {
            GroupBy::Fields(_) => self.probe(held, positions),
            _ => Ok(KeyProbe::Built(held.clone())),
        }
    }

    /// The key of a group that holds `held`: under `GroupBy::Fields` built
    /// through the cached `positions` when `held` has their shape, by name
    /// otherwise.
    pub(crate) fn held_key(&self, held: &Token, positions: &KeyPositions) -> Token {
        match (self, held, positions) {
            (GroupBy::Fields(schema), Token::Record(rec), Some((from, at))) if Arc::ptr_eq(from, rec.schema()) => {
                schema.record(KeyProbe::fields(rec, at).cloned().collect::<Box<[_]>>())
            }
            (GroupBy::Fields(_), ..) => self.key_of(held).expect("a held key has its fields"),
            _ => held.clone(),
        }
    }

    /// [`GroupBy::key_of`] for a stream, stopping short of building the
    /// key: `positions` remembers where the key fields sit in the input's
    /// schema, so records of one shape pay for the name lookups once and
    /// index thereafter.
    pub(crate) fn probe<'a>(&'a self, token: &'a Token, positions: &'a mut KeyPositions) -> Result<KeyProbe<'a>> {
        let schema = match self {
            GroupBy::None => return Ok(KeyProbe::Built(Token::Unit)),
            GroupBy::Key(f) => return Ok(KeyProbe::Built(f(token))),
            GroupBy::Fields(schema) => schema,
        };
        let rec = token.as_record()?;
        if !matches!(positions, Some((from, _)) if Arc::ptr_eq(from, rec.schema())) {
            let at = schema.names().iter().map(|name| {
                rec.index_of(name)
                    .ok_or_else(|| Error::MissingField(name.to_string()))
            });
            *positions = Some((rec.schema().clone(), at.collect::<Result<_>>()?));
        }
        let (_, at) = positions.as_ref().expect("resolved above");
        Ok(KeyProbe::Fields { schema, rec, at })
    }
}

/// An event's group key as a group directory looks it up: built already
/// (`GroupBy::None`, `GroupBy::Key`) or, under `GroupBy::Fields`, still
/// sitting in the input record — a group keeps a record that holds its key
/// fields, never a key record of its own while it buffers events.
pub(crate) enum KeyProbe<'a> {
    Built(Token),
    Fields {
        /// The clause's key schema.
        schema: &'a Arc<Schema>,
        rec: &'a Record,
        /// Where the key fields sit in `rec`.
        at: &'a [usize],
    },
}

impl KeyProbe<'_> {
    /// The hash of the key token, by [`Token`]'s own definition.
    pub(crate) fn hash(&self) -> u64 {
        let mut hasher = KeyHasher::new();
        match self {
            KeyProbe::Built(key) => key.hash(&mut hasher),
            KeyProbe::Fields { rec, at, .. } => hash_record(Self::fields(rec, at), &mut hasher),
        }
        hasher.finish()
    }

    /// Whether `held`, a group's key token, has this probe's key; under
    /// `GroupBy::Fields` (an input or a key record) compared field by field
    /// where they sit: by position when it has the probe's shape, by name.
    pub(crate) fn matches(&self, held: &Token) -> bool {
        match (self, held) {
            (KeyProbe::Built(key), _) => key == held,
            (KeyProbe::Fields { rec, at, .. }, Token::Record(held)) if Arc::ptr_eq(held.schema(), rec.schema()) => {
                Self::fields(rec, at).eq(Self::fields(held, at))
            }
            (KeyProbe::Fields { schema, rec, at }, Token::Record(held)) => {
                let held_fields = schema.names().iter().map(|name| held.get(name));
                Self::fields(rec, at).map(Some).eq(held_fields)
            }
            _ => false,
        }
    }

    fn fields<'r>(rec: &'r Record, at: &'r [usize]) -> impl ExactSizeIterator<Item = &'r Token> {
        at.iter().map(|&i| rec.get_at(i).expect("resolved against this schema"))
    }
}

/// The full five-parameter window specification attached to an input port.
#[derive(Debug, Clone)]
pub struct WindowSpec {
    /// Window extent.
    pub size: Measure,
    /// Window advance. Must use the same measure kind as `size` (tuple with
    /// tuple, time with time); ignored for wave windows.
    pub step: Measure,
    /// Formation timeout: a partial window older than this (first event
    /// age, in director time) is forced out as a short window.
    pub timeout: Option<Micros>,
    /// Queue partitioning.
    pub group_by: GroupBy,
    /// Consume events on use (continuous consumption mode).
    pub delete_used_events: bool,
}

impl WindowSpec {
    /// Sliding tuple window: `{Size: size tokens, Step: step tokens}`.
    pub fn tuples(size: usize, step: usize) -> WindowSpec {
        WindowSpec {
            size: Measure::Tuples(size),
            step: Measure::Tuples(step),
            timeout: None,
            group_by: GroupBy::None,
            delete_used_events: false,
        }
    }

    /// Sliding time window: `{Size: size, Step: step}` over event time.
    pub fn time(size: Micros, step: Micros) -> WindowSpec {
        WindowSpec {
            size: Measure::Time(size),
            step: Measure::Time(step),
            timeout: None,
            group_by: GroupBy::None,
            delete_used_events: false,
        }
    }

    /// Tumbling time window (size = step) — the Linear Road
    /// `{Size: 1 minute, Step: 1 minute}` shape.
    pub fn tumbling_time(size: Micros) -> WindowSpec {
        Self::time(size, size)
    }

    /// Wave window: one window per complete wave.
    pub fn wave() -> WindowSpec {
        WindowSpec {
            size: Measure::Wave,
            step: Measure::Wave,
            timeout: None,
            group_by: GroupBy::None,
            delete_used_events: true,
        }
    }

    /// Degenerate per-event window (`{Size: 1 token, Step: 1 token}`,
    /// consumed) — what a plain streaming input reduces to.
    pub fn each_event() -> WindowSpec {
        let mut spec = Self::tuples(1, 1);
        spec.delete_used_events = true;
        spec
    }

    /// The *unrestricted* hybrid window/consumption mode of Adaikkalavan &
    /// Chakravarthy (paper ref. \[1\]): a sliding window whose events remain
    /// available to every overlapping window.
    pub fn unrestricted_tuples(size: usize, step: usize) -> WindowSpec {
        Self::tuples(size, step)
    }

    /// The *recent* mode of ref. \[1\]: each firing sees the most recent
    /// bundle of `size` events (slide by one, nothing consumed).
    pub fn recent_tuples(size: usize) -> WindowSpec {
        Self::tuples(size, 1)
    }

    /// The *continuous* mode of ref. \[1\]: disjoint bundles, every event
    /// used exactly once and then consumed.
    pub fn continuous_tuples(size: usize) -> WindowSpec {
        Self::tuples(size, size).delete_used(true)
    }

    /// Set the group-by clause.
    pub fn group_by(mut self, g: GroupBy) -> WindowSpec {
        self.group_by = g;
        self
    }

    /// Set the formation timeout.
    pub fn with_timeout(mut self, t: Micros) -> WindowSpec {
        self.timeout = Some(t);
        self
    }

    /// Set the delete-used-events (continuous consumption) flag.
    pub fn delete_used(mut self, yes: bool) -> WindowSpec {
        self.delete_used_events = yes;
        self
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        match (self.size, self.step) {
            (Measure::Tuples(s), Measure::Tuples(p)) => {
                if s == 0 {
                    return Err(Error::Window("window size must be positive".into()));
                }
                if p == 0 {
                    return Err(Error::Window("window step must be positive".into()));
                }
            }
            (Measure::Time(s), Measure::Time(p)) => {
                if s == Micros::ZERO {
                    return Err(Error::Window("window size must be positive".into()));
                }
                if p == Micros::ZERO {
                    return Err(Error::Window("window step must be positive".into()));
                }
            }
            (Measure::Wave, _) => {}
            (size, step) => {
                return Err(Error::Window(format!(
                    "size and step must use the same measure (got {size:?} / {step:?})"
                )));
            }
        }
        Ok(())
    }
}

/// A produced window: the logical bundle of events handed to an actor's
/// `fire()`.
/// Its group key is its port's clause applied to its first event
/// ([`GroupBy::key_of`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// The events, in arrival order.
    pub events: Vec<CwEvent>,
    /// Director time at which the window was produced.
    pub formed_at: Timestamp,
    /// Whether the window was forced out short by a formation timeout.
    pub timed_out: bool,
}

impl Window {
    /// Number of events in the window.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the window carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate the payload tokens in arrival order.
    pub fn tokens(&self) -> impl Iterator<Item = &Token> {
        self.events.iter().map(|e| &e.token)
    }

    /// The most recent event of the window.
    pub fn latest(&self) -> Option<&CwEvent> {
        self.events.last()
    }

    /// The wave that triggered the window's completion: the wave-tag of
    /// the latest event. Productions from firing on this window join this
    /// wave.
    pub fn trigger_wave(&self) -> Option<&WaveTag> {
        self.latest().map(|e| &e.wave)
    }

    /// The earliest origin timestamp among the window's events — the
    /// reference point for "how stale is the oldest input of this firing".
    pub fn earliest_origin(&self) -> Option<Timestamp> {
        self.events.iter().map(|e| e.origin()).min()
    }
}

#[cfg(test)]
mod spec_tests {
    use super::*;

    #[test]
    fn constructors_and_validation() {
        assert!(WindowSpec::tuples(4, 1).validate().is_ok());
        assert!(WindowSpec::time(Micros::from_secs(60), Micros::from_secs(60))
            .validate()
            .is_ok());
        assert!(WindowSpec::tumbling_time(Micros::from_secs(60)).validate().is_ok());
        assert!(WindowSpec::wave().validate().is_ok());
        assert!(WindowSpec::each_event().validate().is_ok());
        assert!(WindowSpec::tuples(0, 1).validate().is_err());
        assert!(WindowSpec::tuples(1, 0).validate().is_err());
        assert!(WindowSpec::time(Micros::ZERO, Micros(1)).validate().is_err());
        assert!(WindowSpec::time(Micros(1), Micros::ZERO).validate().is_err());
        let mixed = WindowSpec {
            size: Measure::Tuples(1),
            step: Measure::Time(Micros(1)),
            timeout: None,
            group_by: GroupBy::None,
            delete_used_events: false,
        };
        assert!(mixed.validate().is_err());
    }

    #[test]
    fn consumption_mode_constructors() {
        let u = WindowSpec::unrestricted_tuples(4, 2);
        assert!(!u.delete_used_events);
        assert_eq!((u.size, u.step), (Measure::Tuples(4), Measure::Tuples(2)));
        let r = WindowSpec::recent_tuples(4);
        assert_eq!(r.step, Measure::Tuples(1));
        assert!(!r.delete_used_events);
        let c = WindowSpec::continuous_tuples(4);
        assert_eq!((c.size, c.step), (Measure::Tuples(4), Measure::Tuples(4)));
        assert!(c.delete_used_events);
    }

    #[test]
    fn builder_methods() {
        let spec = WindowSpec::tuples(2, 1)
            .group_by(GroupBy::fields(&["carid"]))
            .with_timeout(Micros::from_secs(5))
            .delete_used(true);
        assert!(matches!(spec.group_by, GroupBy::Fields(_)));
        assert_eq!(spec.timeout, Some(Micros::from_secs(5)));
        assert!(spec.delete_used_events);
    }

    #[test]
    fn group_key_extraction() {
        let tok = Token::record().field("carid", 7).field("speed", 60).build();
        assert_eq!(GroupBy::None.key_of(&tok).unwrap(), Token::Unit);
        let g = GroupBy::fields(&["carid"]);
        assert_eq!(
            g.key_of(&tok).unwrap(),
            Token::record().field("carid", 7).build()
        );
        let custom = GroupBy::Key(Arc::new(|t: &Token| {
            Token::Int(t.int_field("carid").unwrap_or(0) % 2)
        }));
        assert_eq!(custom.key_of(&tok).unwrap(), Token::Int(1));
        assert!(g.key_of(&Token::Int(3)).is_err());
    }

    #[test]
    fn group_by_debug_is_informative() {
        assert_eq!(format!("{:?}", GroupBy::None), "GroupBy::None");
        assert!(format!("{:?}", GroupBy::fields(&["a"])).contains("a"));
        let k = GroupBy::Key(Arc::new(|_| Token::Unit));
        assert_eq!(format!("{k:?}"), "GroupBy::Key(<fn>)");
    }

    #[test]
    fn window_accessors() {
        use crate::event::CwEvent;
        let w = Window {
            events: vec![
                CwEvent::external(Token::Int(1), Timestamp(10)),
                CwEvent::external(Token::Int(2), Timestamp(5)),
            ],
            formed_at: Timestamp(20),
            timed_out: false,
        };
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.tokens().cloned().collect::<Vec<_>>(), vec![Token::Int(1), Token::Int(2)]);
        assert_eq!(w.latest().unwrap().token, Token::Int(2));
        assert_eq!(w.trigger_wave().unwrap().origin(), Timestamp(5));
        assert_eq!(w.earliest_origin(), Some(Timestamp(5)));
        let empty = Window {
            events: vec![],
            formed_at: Timestamp(0),
            timed_out: true,
        };
        assert!(empty.is_empty());
        assert!(empty.latest().is_none());
        assert!(empty.earliest_origin().is_none());
    }
}
