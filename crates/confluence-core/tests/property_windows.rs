//! Property tests of the window operator's invariants.
//!
//! The window operator is the heart of the CWf model: these properties
//! pin down event conservation (nothing lost, nothing duplicated beyond
//! what the size/step overlap dictates) across arbitrary streams, specs,
//! and group keys.

use proptest::prelude::*;

use confluence_core::event::CwEvent;
use confluence_core::time::{Micros, Timestamp};
use confluence_core::token::Token;
use confluence_core::wave::WaveTag;
use confluence_core::window::{GroupBy, GroupSnapshot, WindowOperator, WindowSpec};

/// A simple keyed event stream: (group 0..groups, payload id).
fn stream(max_len: usize, groups: i64) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..groups, 0..1_000_000i64), 0..max_len)
}

fn ev(group: i64, id: i64, ts: u64) -> CwEvent {
    CwEvent::external(
        Token::record().field("g", group).field("id", id).build(),
        Timestamp(ts),
    )
}

/// The events the operator's groups buffer, counted off its snapshot.
fn buffered(op: &WindowOperator) -> usize {
    let events = |g: &GroupSnapshot| match g {
        GroupSnapshot::Tuples { events, .. } | GroupSnapshot::Time { events, .. } | GroupSnapshot::Wave { events, .. } => {
            events.len()
        }
    };
    op.snapshot().groups.iter().map(events).sum()
}

proptest! {
    /// `pending_events` is exactly what the groups buffer, after every
    /// push, poll and flush, on sliding and tumbling tuple windows, time
    /// windows and wave windows, with and without consumption and timeouts.
    #[test]
    fn pending_events_are_the_buffered_events(
        // (poll instead of push?, group, time since the previous step,
        // wave shape)
        steps in prop::collection::vec((0..4u8, 0..3i64, 0..30u64, 0..6u8), 0..80),
        (kind, size, step, consume, timeout) in (0..4u8, 1..5u64, 1..5u64, 0..2u8, 0..40u64),
    ) {
        let spec = match kind {
            0 => WindowSpec::tuples(size as usize + 1, step.min(size) as usize),
            1 => WindowSpec::tuples(size as usize, size as usize),
            2 => WindowSpec::time(Micros(size * 10), Micros(step * 10)),
            _ => WindowSpec::wave(),
        };
        let spec = spec.group_by(GroupBy::fields(&["g"])).delete_used(consume == 1 || kind == 3);
        let spec = if timeout >= 5 { spec.with_timeout(Micros(timeout)) } else { spec };
        let mut op = WindowOperator::new(spec).unwrap();
        let (mut clock, mut wave, mut index) = (0u64, 0u64, 0u32);
        for (i, (poll, g, gap, shape)) in steps.into_iter().enumerate() {
            clock += gap;
            if poll == 0 {
                op.poll(Timestamp(clock));
            } else {
                let mut event = ev(g, i as i64, clock);
                if kind == 3 {
                    // Waves of one to three events, each closed by a last mark.
                    index += 1;
                    let last = shape % 3 == 0 || index == 3;
                    event = CwEvent::derived(event.token, event.timestamp, &WaveTag::external(Timestamp(wave)), index, last);
                    if last {
                        (wave, index) = (wave + 1, 0);
                    }
                }
                op.push(event, Timestamp(clock)).unwrap();
            }
            prop_assert_eq!(op.pending_events(), buffered(&op));
        }
        op.flush(Timestamp(clock));
        prop_assert_eq!(op.pending_events(), buffered(&op));
        prop_assert_eq!(op.pending_events(), 0);
    }

    /// Tuple windows with delete_used: every event appears in exactly one
    /// emitted window (full or flushed), for any size/grouping with
    /// step ≤ size. (Step > size is hopping-window *sampling*: the gap
    /// events are deliberately expired unseen, so no partition there.)
    #[test]
    fn consuming_tuple_windows_partition_the_stream(
        events in stream(200, 4),
        size in 1usize..6,
        step in 1usize..6,
    ) {
        prop_assume!(step <= size);
        let spec = WindowSpec::tuples(size, step)
            .group_by(GroupBy::fields(&["g"]))
            .delete_used(true);
        let mut op = WindowOperator::new(spec).unwrap();
        for (i, (g, id)) in events.iter().enumerate() {
            op.push(ev(*g, *id, i as u64), Timestamp(i as u64)).unwrap();
        }
        op.flush(Timestamp(events.len() as u64 + 1));
        let mut seen: Vec<i64> = Vec::new();
        while let Some(w) = op.pop_window() {
            for t in w.tokens() {
                seen.push(t.int_field("id").unwrap());
            }
        }
        let mut expected: Vec<i64> = events.iter().map(|(_, id)| *id).collect();
        seen.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);
        prop_assert_eq!(op.pending_events(), 0);
    }

    /// Sliding tuple windows (step ≤ size, no delete): every full window
    /// has exactly `size` events, consecutive windows of one group overlap
    /// by `size − step`, and each group's events appear in arrival order.
    #[test]
    fn sliding_windows_have_exact_size_and_order(
        events in stream(200, 3),
        size in 2usize..6,
        step in 1usize..3,
    ) {
        prop_assume!(step <= size);
        let spec = WindowSpec::tuples(size, step).group_by(GroupBy::fields(&["g"]));
        let mut op = WindowOperator::new(spec).unwrap();
        let mut windows: Vec<(Token, Vec<i64>)> = Vec::new();
        for (i, (g, id)) in events.iter().enumerate() {
            op.push(ev(*g, *id, i as u64), Timestamp(i as u64)).unwrap();
            while let Some(w) = op.pop_window() {
                let ids = w.tokens().map(|t| t.int_field("id").unwrap()).collect();
                windows.push((op.spec().group_by.key_of(&w.events[0].token).unwrap(), ids));
            }
        }
        // Per-group reference: the arrival order of that group's ids.
        for g in 0..3i64 {
            let arrivals: Vec<i64> = events
                .iter()
                .filter(|(eg, _)| *eg == g)
                .map(|(_, id)| *id)
                .collect();
            let key = Token::record().field("g", g).build();
            let group_windows: Vec<&Vec<i64>> = windows
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, ids)| ids)
                .collect();
            for (w_idx, ids) in group_windows.iter().enumerate() {
                prop_assert_eq!(ids.len(), size);
                let start = w_idx * step;
                prop_assert_eq!(ids.as_slice(), &arrivals[start..start + size]);
            }
        }
    }

    /// Tumbling time windows: every event lands in the window of its own
    /// timestamp bucket; no event is lost after a final flush.
    #[test]
    fn tumbling_time_windows_bucket_by_timestamp(
        // (group, id, timestamp) with timestamps in a small range so
        // buckets collide interestingly.
        raw in prop::collection::vec((0..3i64, 0..1_000_000i64, 0u64..5_000), 0..150),
        width in 100u64..1_000,
    ) {
        // The operator expects near-ordered arrivals (it expires late
        // events); feed it in timestamp order.
        let mut events = raw;
        events.sort_by_key(|(_, _, ts)| *ts);
        let spec = WindowSpec::time(Micros(width), Micros(width))
            .group_by(GroupBy::fields(&["g"]));
        let mut op = WindowOperator::new(spec).unwrap();
        for (g, id, ts) in &events {
            op.push(ev(*g, *id, *ts), Timestamp(*ts)).unwrap();
        }
        op.flush(Timestamp(1_000_000));
        let mut got: Vec<(i64, u64)> = Vec::new(); // (id, bucket)
        while let Some(w) = op.pop_window() {
            // All events of one window share a bucket.
            let buckets: Vec<u64> = w
                .events
                .iter()
                .map(|e| e.timestamp.as_micros() / width)
                .collect();
            for b in &buckets {
                prop_assert_eq!(*b, buckets[0]);
            }
            for e in &w.events {
                got.push((
                    e.token.int_field("id").unwrap(),
                    e.timestamp.as_micros() / width,
                ));
            }
        }
        let mut expected: Vec<(i64, u64)> = events
            .iter()
            .map(|(_, id, ts)| (*id, ts / width))
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Formation timeouts never lose events: with any timeout, pushing
    /// then polling far in the future flushes everything exactly once.
    #[test]
    fn timeouts_conserve_events(
        events in stream(100, 2),
        size in 2usize..8,
        timeout in 1u64..500,
    ) {
        let spec = WindowSpec::tuples(size, size)
            .group_by(GroupBy::fields(&["g"]))
            .with_timeout(Micros(timeout));
        let mut op = WindowOperator::new(spec).unwrap();
        for (i, (g, id)) in events.iter().enumerate() {
            op.push(ev(*g, *id, i as u64), Timestamp(i as u64)).unwrap();
            // Occasionally poll mid-stream.
            if i % 7 == 0 {
                op.poll(Timestamp(i as u64));
            }
        }
        op.poll(Timestamp(1_000_000));
        let mut count = 0usize;
        while let Some(w) = op.pop_window() {
            count += w.len();
        }
        prop_assert_eq!(count, events.len());
        prop_assert_eq!(op.pending_events(), 0);
    }

    /// The deadline index agrees with polling reality: if `next_deadline`
    /// says nothing is due, polling must produce nothing; polling at the
    /// deadline must produce at least one window.
    #[test]
    fn deadline_index_is_sound_and_live(
        events in stream(60, 2),
        width in 50u64..300,
    ) {
        let spec = WindowSpec::time(Micros(width), Micros(width))
            .group_by(GroupBy::fields(&["g"]));
        let mut op = WindowOperator::new(spec).unwrap();
        for (i, (g, id)) in events.iter().enumerate() {
            let ts = (i as u64) * 10;
            op.push(ev(*g, *id, ts), Timestamp(ts)).unwrap();
            if let Some(d) = op.next_deadline() {
                // Polling strictly before the deadline yields nothing.
                prop_assert_eq!(op.poll(Timestamp(d.as_micros() - 1)), 0);
                // Polling at the deadline yields something.
                let n = op.poll(d);
                prop_assert!(n > 0, "deadline {d:?} did not fire");
                while op.pop_window().is_some() {}
            }
        }
    }
}
