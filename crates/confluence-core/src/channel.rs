//! Channel capacity policies: bounded queues with backpressure.
//!
//! Kepler/Ptolemy PN semantics make every channel a *bounded* queue: a
//! writer facing a full queue blocks until the reader drains it. CONFLuEnCE
//! inherits those semantics for the wall-clock directors (PNCWF threads and
//! the pool), where the writing task parks, while the cooperative directors
//! (SDF/DDF/DE/SCWF) — which cannot park inside their own scheduling loop —
//! admit, shed or error according to the same policy object.
//!
//! A [`ChannelPolicy`] is attached per input port (or as a workflow-wide
//! default) and interpreted by the fabric when routing events:
//!
//! * capacity is counted in *formed windows* waiting in the destination
//!   actor's inbox for that port — not raw buffered tuples, so a window
//!   larger than the capacity can still form;
//! * [`OnFull::Block`] parks the writer (wall-clock directors) with
//!   Parks-style artificial-deadlock relief: when parked writers close a
//!   cycle of full queues, the smallest grows, and a writer parked on a
//!   finished reader has its queue grown;
//! * [`OnFull::DropOldest`] / [`OnFull::DropNewest`] shed load and report it
//!   through the observer's `on_shed` hook;
//! * [`OnFull::Error`] fails the run with [`crate::error::Error::ChannelFull`].

/// What to do when a bounded channel is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnFull {
    /// Park the writer until the reader drains the queue (PN semantics).
    /// Under cooperative directors, which must not block their scheduling
    /// loop, the event is admitted anyway and the overflow is reported as a
    /// zero-wait block.
    #[default]
    Block,
    /// Drop the oldest queued window to admit the new event (keep fresh
    /// data; classic load shedding for monitoring streams).
    DropOldest,
    /// Drop the incoming event (keep old data; at-most-once admission).
    DropNewest,
    /// Fail the run with [`crate::error::Error::ChannelFull`].
    Error,
}

/// Capacity bound and overflow behavior for one channel (input port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelPolicy {
    /// Maximum formed windows queued on the port; `None` means unbounded
    /// (the historical behavior and the default).
    pub capacity: Option<usize>,
    /// Behavior when the queue is at capacity.
    pub on_full: OnFull,
}

impl Default for ChannelPolicy {
    fn default() -> Self {
        ChannelPolicy::unbounded()
    }
}

impl ChannelPolicy {
    /// No capacity bound (historical behavior).
    pub const fn unbounded() -> Self {
        ChannelPolicy {
            capacity: None,
            on_full: OnFull::Block,
        }
    }

    /// Bounded queue that blocks the writer when full (PN semantics).
    pub const fn block(capacity: usize) -> Self {
        ChannelPolicy {
            capacity: Some(capacity),
            on_full: OnFull::Block,
        }
    }

    /// Bounded queue that sheds the oldest queued window when full.
    pub const fn drop_oldest(capacity: usize) -> Self {
        ChannelPolicy {
            capacity: Some(capacity),
            on_full: OnFull::DropOldest,
        }
    }

    /// Bounded queue that discards the incoming event when full.
    pub const fn drop_newest(capacity: usize) -> Self {
        ChannelPolicy {
            capacity: Some(capacity),
            on_full: OnFull::DropNewest,
        }
    }

    /// Bounded queue that fails the run when full.
    pub const fn error(capacity: usize) -> Self {
        ChannelPolicy {
            capacity: Some(capacity),
            on_full: OnFull::Error,
        }
    }

    /// Whether this policy imposes a capacity bound.
    pub fn is_bounded(&self) -> bool {
        self.capacity.is_some()
    }

    /// The capacity bound, treating unbounded as `usize::MAX`.
    pub fn capacity_or_max(&self) -> usize {
        self.capacity.unwrap_or(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded() {
        let p = ChannelPolicy::default();
        assert!(!p.is_bounded());
        assert_eq!(p.capacity_or_max(), usize::MAX);
        assert_eq!(p.on_full, OnFull::Block);
    }

    #[test]
    fn constructors_set_policy() {
        assert_eq!(ChannelPolicy::block(8).capacity, Some(8));
        assert_eq!(ChannelPolicy::block(8).on_full, OnFull::Block);
        assert_eq!(ChannelPolicy::drop_oldest(4).on_full, OnFull::DropOldest);
        assert_eq!(ChannelPolicy::drop_newest(4).on_full, OnFull::DropNewest);
        assert_eq!(ChannelPolicy::error(2).on_full, OnFull::Error);
        assert!(ChannelPolicy::error(2).is_bounded());
        assert_eq!(ChannelPolicy::block(8).capacity_or_max(), 8);
    }
}
