//! Waves and wave-tags: event lineage for stream synchronization.
//!
//! A *wave* is the set of internal events associated with one external
//! event. When external event `e_i` (timestamp `t_i`) enters the system it
//! initiates a wave; processing any event of the wave produces events that
//! join the wave with hierarchical wave-tags `t_i.1, t_i.2, ..., t_i.n`
//! (and sub-waves `t_i.3.1, ...`). The last event produced at each level is
//! marked, which lets a downstream task synchronize all the events belonging
//! to a single wave (see [`WaveTracker`]).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::time::Timestamp;

/// One level of a hierarchical wave-tag: the serial number of the event
/// among its siblings, plus the "last sibling" mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WaveStep {
    /// 1-based serial number among the events produced by one firing.
    pub index: u32,
    /// Whether this was the last event produced by that firing.
    pub last: bool,
}

/// A hierarchical wave-tag, e.g. `t_i.3.1`.
///
/// `origin` is the timestamp of the external event that initiated the wave;
/// `path` holds the per-level serial numbers: inline for one step (most
/// derived events are one firing from their origin), otherwise in an
/// exact-size box, empty and unallocated for an external event's own tag.
/// A tag is 24 bytes.
#[derive(Debug, Clone)]
pub struct WaveTag {
    origin: Timestamp,
    path: Path,
}

/// A tag's steps: one inline, or any other number in an exact-size box.
/// The box's non-null pointer is the niche that tells the two apart.
#[derive(Debug, Clone)]
enum Path {
    One(WaveStep),
    Boxed(Box<[WaveStep]>),
}

const _: () = assert!(std::mem::size_of::<WaveTag>() == 24);

impl WaveTag {
    /// Tag for an external event entering the system at `origin`.
    pub fn external(origin: Timestamp) -> Self {
        WaveTag {
            origin,
            path: Path::Boxed(Box::default()),
        }
    }

    /// The timestamp of the wave's initiating external event.
    pub fn origin(&self) -> Timestamp {
        self.origin
    }

    /// Nesting depth: 0 for the external event itself.
    pub fn depth(&self) -> usize {
        self.path().len()
    }

    /// The per-level steps.
    pub fn path(&self) -> &[WaveStep] {
        match &self.path {
            Path::One(step) => std::slice::from_ref(step),
            Path::Boxed(steps) => steps,
        }
    }

    /// Tag of the `index`-th (1-based) event produced while processing the
    /// event carrying `self`; `last` marks the final event of that firing.
    pub fn child(&self, index: u32, last: bool) -> WaveTag {
        debug_assert!(index >= 1, "wave serial numbers are 1-based");
        let path = match self.path() {
            [] => Path::One(WaveStep { index, last }),
            path => Path::Boxed([path, &[WaveStep { index, last }]].concat().into()),
        };
        WaveTag { origin: self.origin, path }
    }

    /// The tag of `origin` with a path of other than one step, in the
    /// vector's own buffer (exact-size when its capacity is); a one-step
    /// path is inline, the `child` of an external tag.
    pub(crate) fn from_steps(origin: Timestamp, steps: Vec<WaveStep>) -> WaveTag {
        debug_assert!(steps.len() != 1, "a one-step path is kept inline");
        WaveTag { origin, path: Path::Boxed(steps.into_boxed_slice()) }
    }

    /// Whether two tags belong to the same wave (same initiating event).
    pub fn same_wave(&self, other: &WaveTag) -> bool {
        self.origin == other.origin
    }

    /// Whether `self` is a strict ancestor of `other` in the wave hierarchy.
    pub fn is_ancestor_of(&self, other: &WaveTag) -> bool {
        let (path, other_path) = (self.path(), other.path());
        self.origin == other.origin
            && path.len() < other_path.len()
            && other_path[..path.len()].iter().zip(path).all(|(a, b)| a.index == b.index)
    }

    /// Tag of the event whose processing produced this one: the path with
    /// its final step removed. `None` for external events (depth 0).
    pub fn parent(&self) -> Option<WaveTag> {
        let path = match self.path().split_last()?.1 {
            [one] => Path::One(*one),
            steps => Path::Boxed(steps.into()),
        };
        Some(WaveTag { origin: self.origin, path })
    }

    /// Parse the [`Display`](fmt::Display) rendering back into a tag:
    /// `t<origin_µs>` followed by zero or more `.<serial>` steps, each
    /// optionally suffixed `!` for the last-sibling mark. Round-trips
    /// `tag.to_string()` exactly.
    pub fn parse(s: &str) -> Option<WaveTag> {
        let rest = s.strip_prefix('t')?;
        let mut parts = rest.split('.');
        let origin_str = parts.next()?;
        if origin_str.is_empty() || !origin_str.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut tag = WaveTag::external(Timestamp(origin_str.parse().ok()?));
        for part in parts {
            let (num, last) = match part.strip_suffix('!') {
                Some(n) => (n, true),
                None => (part, false),
            };
            if num.is_empty() || !num.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let index: u32 = num.parse().ok()?;
            if index == 0 {
                return None; // serial numbers are 1-based
            }
            tag = tag.child(index, last);
        }
        Some(tag)
    }
}

impl std::str::FromStr for WaveTag {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        WaveTag::parse(s).ok_or_else(|| format!("malformed wave-tag {s:?}"))
    }
}

/// Tags are equal (and hash alike) when their origins and paths are,
/// however each path is stored.
impl PartialEq for WaveTag {
    fn eq(&self, other: &Self) -> bool {
        (self.origin, self.path()) == (other.origin, other.path())
    }
}

impl Eq for WaveTag {}

impl Hash for WaveTag {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.origin, self.path()).hash(state);
    }
}

impl PartialOrd for WaveTag {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WaveTag {
    /// Waves order by origin timestamp, then lexicographically by path —
    /// the order in which a serial execution would have produced the events.
    fn cmp(&self, other: &Self) -> Ordering {
        self.origin.cmp(&other.origin).then_with(|| {
            for (a, b) in self.path().iter().zip(other.path()) {
                match a.index.cmp(&b.index) {
                    Ordering::Equal => continue,
                    non_eq => return non_eq,
                }
            }
            self.depth().cmp(&other.depth())
        })
    }
}

impl fmt::Display for WaveTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.origin.as_micros())?;
        for step in self.path() {
            write!(f, ".{}", step.index)?;
            if step.last {
                write!(f, "!")?;
            }
        }
        Ok(())
    }
}

/// Detects the completion of a single wave from the tags a consumer
/// observes.
///
/// Feed every received tag of one wave into [`WaveTracker::observe`]; the
/// tracker reports completion once it can prove that every event of the
/// wave (every leaf of the wave tree that flows to this consumer) has been
/// seen. The proof uses the last-sibling marks: a node's child count is
/// known once its last-marked child (or a descendant of it) is observed,
/// and a node is complete when all its children have arrived and every
/// child that spawned a sub-wave is itself complete.
#[derive(Debug, Default)]
pub struct WaveTracker {
    root: Node,
    observed: usize,
}

#[derive(Debug, Default)]
struct Node {
    /// Total number of children, known once a last-marked child is seen.
    expected: Option<u32>,
    /// Children by serial number.
    children: BTreeMap<u32, Node>,
    /// Whether the event with this exact tag arrived (leaf arrival).
    arrived: bool,
}

impl Node {
    fn complete(&self) -> bool {
        match self.expected {
            // A node with no known child count is complete only if the
            // event itself arrived as a leaf (no sub-wave spawned from it).
            None => self.arrived && self.children.is_empty(),
            // Serial numbers are 1-based, so a known count is at least 1.
            Some(n) => (1..=n).all(|i| self.children.get(&i).is_some_and(Node::complete)),
        }
    }
}

impl WaveTracker {
    /// New tracker for a single wave.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tags observed so far.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Record a received tag. Panics in debug builds if tags from different
    /// waves are mixed (callers partition by `origin` first).
    pub fn observe(&mut self, tag: &WaveTag) {
        self.observed += 1;
        let mut node = &mut self.root;
        for step in tag.path() {
            if step.last {
                node.expected = Some(step.index);
            }
            node = node.children.entry(step.index).or_default();
        }
        node.arrived = true;
    }

    /// Whether the wave is provably complete at this consumer.
    ///
    /// The external event itself (empty path) counts as a wave of one event.
    pub fn is_complete(&self) -> bool {
        if self.observed == 0 {
            return false;
        }
        if self.root.expected.is_none() {
            // Only the external event arrived un-expanded.
            return self.root.arrived && self.root.children.is_empty();
        }
        self.root.complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(us: u64) -> WaveTag {
        WaveTag::external(Timestamp(us))
    }

    #[test]
    fn external_tag_basics() {
        let t = ext(42);
        assert_eq!(t.origin(), Timestamp(42));
        assert_eq!(t.depth(), 0);
        assert_eq!(t.to_string(), "t42");
    }

    #[test]
    fn child_tags_extend_the_path() {
        let t = ext(1);
        let c = t.child(3, false);
        assert_eq!(c.depth(), 1);
        assert_eq!(c.path()[0], WaveStep { index: 3, last: false });
        let g = c.child(1, true);
        assert_eq!(g.depth(), 2);
        assert_eq!(g.to_string(), "t1.3.1!");
        assert!(t.same_wave(&g));
        assert!(!t.same_wave(&ext(2)));
    }

    #[test]
    fn ancestor_relation() {
        let t = ext(1);
        let a = t.child(2, false);
        let b = a.child(1, true);
        assert!(t.is_ancestor_of(&a));
        assert!(t.is_ancestor_of(&b));
        assert!(a.is_ancestor_of(&b));
        assert!(!b.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&t.child(3, false).child(9, false)));
        assert!(!a.is_ancestor_of(&a.clone()));
    }

    #[test]
    fn ordering_matches_serial_production_order() {
        let t = ext(1);
        let mut tags = [
            t.child(2, false),
            t.clone(),
            t.child(1, false).child(2, true),
            t.child(1, false),
            ext(0),
        ];
        tags.sort();
        assert_eq!(
            tags.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
            vec!["t0", "t1", "t1.1", "t1.1.2!", "t1.2"]
        );
    }

    #[test]
    fn parse_round_trips_display() {
        let tags = [
            ext(0),
            ext(42),
            ext(1).child(3, false).child(1, true),
            ext(10).child(2, true),
            ext(7).child(1, true).child(4, false).child(2, true),
            ext(8).child(1, true).child(2, false).child(3, true).child(4, false).child(5, true),
        ];
        for tag in &tags {
            let s = tag.to_string();
            let parsed = WaveTag::parse(&s).unwrap_or_else(|| panic!("parse {s:?}"));
            assert_eq!(&parsed, tag, "round-trip of {s}");
            assert_eq!(parsed.to_string(), s);
        }
        // FromStr is the same parser.
        let t: WaveTag = "t1.3.1!".parse().unwrap();
        assert_eq!(t, ext(1).child(3, false).child(1, true));
    }

    #[test]
    fn parse_rejects_malformed_tags() {
        for bad in ["", "t", "x42", "t1.", "t1..2", "t1.0", "t1.a", "t1.2!!", "42", "t-1"] {
            assert!(WaveTag::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parent_strips_the_last_step() {
        let t = ext(5);
        assert_eq!(t.parent(), None);
        let c = t.child(2, false).child(1, true);
        assert_eq!(c.parent(), Some(t.child(2, false)));
        assert!(matches!(c.parent().unwrap().path, Path::One(_)), "a one-step parent is inline");
        assert_eq!(c.parent().unwrap().parent(), Some(t.clone()));
    }

    #[test]
    fn inline_and_boxed_paths_are_one_value() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |t: &WaveTag| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        let step = WaveStep { index: 3, last: true };
        let inline = ext(9).child(3, true);
        assert!(matches!(inline.path, Path::One(_)));
        let boxed = WaveTag { origin: Timestamp(9), path: Path::Boxed(Box::new([step])) };
        assert_eq!(inline, boxed);
        assert_eq!(hash(&inline), hash(&boxed));
        assert_eq!(inline.cmp(&boxed), Ordering::Equal);
        for other in [ext(9), ext(9).child(2, false), ext(9).child(3, true).child(1, true), ext(10)] {
            assert_eq!(inline.cmp(&other), boxed.cmp(&other), "against {other}");
            assert_eq!(other.cmp(&inline), other.cmp(&boxed), "against {other}");
        }
        assert_eq!(boxed.path(), [step]);
        assert_eq!(boxed.to_string(), inline.to_string());
    }

    #[test]
    fn tracker_single_external_event() {
        let mut tr = WaveTracker::new();
        assert!(!tr.is_complete());
        tr.observe(&ext(1));
        assert!(tr.is_complete());
        assert_eq!(tr.observed(), 1);
    }

    #[test]
    fn tracker_flat_wave() {
        // One firing produced 3 events; wave complete when all arrive.
        let t = ext(1);
        let mut tr = WaveTracker::new();
        tr.observe(&t.child(1, false));
        assert!(!tr.is_complete());
        tr.observe(&t.child(3, true));
        assert!(!tr.is_complete()); // #2 still missing, but count now known
        tr.observe(&t.child(2, false));
        assert!(tr.is_complete());
    }

    #[test]
    fn tracker_out_of_order_arrival() {
        let t = ext(7);
        let mut tr = WaveTracker::new();
        tr.observe(&t.child(2, true));
        tr.observe(&t.child(1, false));
        assert!(tr.is_complete());
    }

    #[test]
    fn tracker_nested_subwave() {
        // t.1, t.2! where t.1 spawned a sub-wave t.1.1, t.1.2!
        let t = ext(1);
        let mut tr = WaveTracker::new();
        tr.observe(&t.child(2, true));
        tr.observe(&t.child(1, false).child(1, false));
        assert!(!tr.is_complete()); // t.1's sub-wave not finished
        tr.observe(&t.child(1, false).child(2, true));
        assert!(tr.is_complete());
    }

    #[test]
    fn tracker_subwave_without_leaf_parent() {
        // The consumer never sees t.1 itself, only its descendants — that
        // still proves t.1's subtree once the last-marked child arrives.
        let t = ext(3);
        let mut tr = WaveTracker::new();
        tr.observe(&t.child(1, true).child(1, true));
        assert!(tr.is_complete());
    }

    #[test]
    fn tracker_incomplete_when_subwave_undetermined() {
        // t.1 arrived as a leaf, but the sibling count is unknown (no
        // last-marked sibling yet) → cannot conclude.
        let t = ext(1);
        let mut tr = WaveTracker::new();
        tr.observe(&t.child(1, false));
        assert!(!tr.is_complete());
    }
}
