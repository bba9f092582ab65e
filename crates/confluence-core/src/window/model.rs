#![cfg(test)]
//! The window operator held against a brute-force model of itself.
//!
//! The model keeps, for each group, every event the group was ever given
//! and whether it has left the buffer, and reads windows straight out of
//! that history by their definitions: a tuple window is a range of arrival
//! positions, a time window a timestamp interval (tried one window at a
//! time, no jumping), a wave window a fold of the tracker over the wave's
//! events. It has no directory, arena, buffers, deadline index or retiring
//! list — only their contract: groups due at the same time are polled in
//! the order they came by that deadline, and a group with no state left is
//! gone (and starts afresh when its key comes back).

use std::sync::Arc;

use proptest::prelude::*;

use super::*;
use crate::wave::{WaveTag, WaveTracker};

struct ModelGroup {
    key: Token,
    /// Every event given to the group, in arrival order; `true` once the
    /// event has left the buffer.
    history: Vec<(CwEvent, bool)>,
    /// Tuple windows: the arrival position the next window starts at.
    next_start: usize,
    /// Time windows.
    watermark: u64,
    next_k: u64,
    /// The deadline the group holds and the tick at which it came by it.
    deadline: Option<(Timestamp, u64)>,
}

impl ModelGroup {
    /// Arrival positions of the buffered events.
    fn live(&self) -> Vec<usize> {
        (0..self.history.len()).filter(|&i| !self.history[i].1).collect()
    }

    /// Buffered events' positions in timestamp order, arrival order within
    /// one timestamp.
    fn live_by_time(&self) -> Vec<usize> {
        let mut live = self.live();
        live.sort_by_key(|&i| self.history[i].0.timestamp);
        live
    }

    /// Buffered events of each open wave, by origin.
    fn waves(&self) -> std::collections::BTreeMap<Timestamp, Vec<usize>> {
        let mut waves = std::collections::BTreeMap::<_, Vec<usize>>::new();
        for i in self.live() {
            waves.entry(self.history[i].0.wave.origin()).or_default().push(i);
        }
        waves
    }
}

struct Model {
    spec: WindowSpec,
    ordered: bool,
    high: u64,
    tick: u64,
    /// Live groups, oldest first.
    groups: Vec<ModelGroup>,
    windows: Vec<Window>,
    expired: Vec<CwEvent>,
}

impl Model {
    fn new(spec: WindowSpec, ordered: bool) -> Model {
        Model {
            spec,
            ordered,
            high: 0,
            tick: 0,
            groups: Vec::new(),
            windows: Vec::new(),
            expired: Vec::new(),
        }
    }

    /// Move the events at `positions` out of group `at`'s buffer into a
    /// window (`expire`: and onto the expired-items queue).
    fn leave(&mut self, at: usize, positions: &[usize], expire: bool) {
        for &i in positions {
            let (event, gone) = &mut self.groups[at].history[i];
            if !std::mem::replace(gone, true) && expire {
                self.expired.push(event.clone());
            }
        }
    }

    fn emit(&mut self, at: usize, positions: &[usize], now: Timestamp, timed_out: bool) {
        let group = &self.groups[at];
        self.windows.push(Window {
            events: positions.iter().map(|&i| group.history[i].0.clone()).collect(),
            formed_at: now,
            timed_out,
        });
    }

    /// Tuple windows: emit every full window, dropping what falls below
    /// the next window's start (on arrival, for an event in a gap).
    fn form_tuples(&mut self, at: usize, size: usize, step: usize, now: Timestamp) {
        let hop = if self.spec.delete_used_events { step.max(size) } else { step };
        loop {
            let (start, len) = (self.groups[at].next_start, self.groups[at].history.len());
            let below: Vec<usize> = (0..start.min(len)).collect();
            self.leave(at, &below, true);
            if len < start + size {
                return;
            }
            let window: Vec<usize> = (start..start + size).collect();
            self.emit(at, &window, now, false);
            self.groups[at].next_start += hop;
        }
    }

    /// Tuple windows: everything from the next start on, as a short window.
    fn rest_of_tuples(&mut self, at: usize, now: Timestamp) {
        let (start, len) = (self.groups[at].next_start, self.groups[at].history.len());
        if len > start {
            let window: Vec<usize> = (start..len).collect();
            self.emit(at, &window, now, true);
            self.groups[at].next_start = len;
            self.leave(at, &window, true);
        }
    }

    /// Time windows: close every window that ends at or before the
    /// watermark, one at a time.
    fn close_time(&mut self, at: usize, watermark: u64, size: u64, step: u64, now: Timestamp) {
        let group = &mut self.groups[at];
        group.watermark = group.watermark.max(watermark);
        loop {
            let group = &self.groups[at];
            let (lo, hi) = (group.next_k * step, group.next_k * step + size);
            if hi > group.watermark {
                return;
            }
            let ts = |i: &usize| group.history[*i].0.timestamp.as_micros();
            let live = group.live_by_time();
            if !live.iter().any(|i| ts(i) < hi) {
                self.groups[at].next_k += 1;
                continue;
            }
            let hop = if self.spec.delete_used_events { size.div_ceil(step) } else { 1 };
            let cutoff = (group.next_k + hop) * step;
            let window: Vec<usize> = live.iter().copied().filter(|i| (lo..hi).contains(&ts(i))).collect();
            let leaving: Vec<usize> = live.iter().copied().filter(|i| ts(i) < cutoff).collect();
            self.groups[at].next_k += hop;
            if !window.is_empty() {
                self.emit(at, &window, now, false);
            }
            self.leave(at, &leaving, true);
        }
    }

    fn give(&mut self, at: usize, event: CwEvent, now: Timestamp) {
        let ts = event.timestamp.as_micros();
        match (self.spec.size, self.spec.step) {
            (Measure::Tuples(size), Measure::Tuples(step)) => {
                self.groups[at].history.push((event, false));
                self.form_tuples(at, size, step, now);
            }
            (Measure::Time(size), Measure::Time(step)) => {
                let late = ts < self.groups[at].next_k * step.as_micros();
                self.groups[at].history.push((event.clone(), late));
                if late {
                    self.expired.push(event);
                } else {
                    self.close_time(at, ts, size.as_micros(), step.as_micros(), now);
                }
            }
            _ => {
                let origin = event.wave.origin();
                self.groups[at].history.push((event, false));
                let wave = self.groups[at].waves().remove(&origin).expect("just added");
                let mut tracker = WaveTracker::new();
                wave.iter().for_each(|&i| tracker.observe(&self.groups[at].history[i].0.wave));
                if tracker.is_complete() {
                    self.emit(at, &wave, now, false);
                    self.leave(at, &wave, false);
                }
            }
        }
    }

    fn poll_group(&mut self, at: usize, now: Timestamp) {
        match (self.spec.size, self.spec.step, self.spec.timeout) {
            (Measure::Tuples(_), _, Some(timeout)) => {
                let group = &self.groups[at];
                let first = group.history.get(group.next_start);
                if first.is_some_and(|(first, _)| now >= first.timestamp.plus(timeout)) {
                    self.rest_of_tuples(at, now);
                }
            }
            (Measure::Time(size), Measure::Time(step), _) => {
                self.close_time(at, now.as_micros(), size.as_micros(), step.as_micros(), now);
            }
            (Measure::Wave, _, Some(timeout)) => {
                for (_, wave) in self.groups[at].waves() {
                    if now >= self.groups[at].history[wave[0]].0.timestamp.plus(timeout) {
                        self.emit(at, &wave, now, true);
                        self.leave(at, &wave, false);
                    }
                }
            }
            _ => {}
        }
    }

    fn deadline_of(&self, group: &ModelGroup) -> Option<Timestamp> {
        let ts = |i: usize| group.history[i].0.timestamp;
        match (self.spec.size, self.spec.step) {
            (Measure::Tuples(_), _) => {
                let first = group.history.get(group.next_start)?;
                Some(first.0.timestamp.plus(self.spec.timeout?))
            }
            (Measure::Time(size), Measure::Time(step)) => {
                let first = ts(*group.live_by_time().first()?).as_micros();
                let mut k = group.next_k;
                while k * step.as_micros() + size.as_micros() <= first {
                    k += 1;
                }
                Some(Timestamp(k * step.as_micros() + size.as_micros()))
            }
            _ => {
                let timeout = self.spec.timeout?;
                group.waves().values().map(|wave| ts(wave[0]).plus(timeout)).min()
            }
        }
    }

    /// Whether the group holds nothing a later event could tell from a
    /// fresh group's state.
    fn stateless(&self, group: &ModelGroup) -> bool {
        if !group.live().is_empty() {
            return false;
        }
        match (self.spec.size, self.spec.step) {
            (Measure::Tuples(_), _) => {
                !matches!(self.spec.group_by, GroupBy::None) && group.history.len() >= group.next_start
            }
            (Measure::Time(size), Measure::Time(step)) => {
                let (size, step) = (size.as_micros(), step.as_micros());
                self.ordered && group.next_k * step + size.saturating_sub(step) <= self.high
            }
            _ => true,
        }
    }

    /// After group `at` was touched: note a changed deadline, drop the
    /// group if nothing is left of it.
    fn settle(&mut self, at: usize) {
        let deadline = self.deadline_of(&self.groups[at]);
        if deadline != self.groups[at].deadline.map(|(d, _)| d) {
            self.tick += 1;
            self.groups[at].deadline = deadline.map(|d| (d, self.tick));
        }
        if self.stateless(&self.groups[at]) {
            self.groups.remove(at);
        }
    }

    fn push(&mut self, event: CwEvent, now: Timestamp) {
        if self.ordered {
            self.high = self.high.max(event.timestamp.as_micros());
            let groups = std::mem::take(&mut self.groups);
            self.groups = groups.into_iter().filter(|g| !self.stateless(g)).collect();
        }
        let key = self.spec.group_by.key_of(&event.token).unwrap();
        let at = self.groups.iter().position(|g| g.key == key).unwrap_or_else(|| {
            self.groups.push(ModelGroup {
                key,
                history: Vec::new(),
                next_start: 0,
                watermark: 0,
                next_k: 0,
                deadline: None,
            });
            self.groups.len() - 1
        });
        self.give(at, event, now);
        self.settle(at);
    }

    fn poll(&mut self, now: Timestamp) {
        while let Some(due) = self.next_deadline().filter(|d| *d <= now) {
            let mut batch: Vec<(u64, Token)> = self
                .groups
                .iter_mut()
                .filter(|g| g.deadline.is_some_and(|(d, _)| d == due))
                .map(|g| (g.deadline.take().expect("filtered on it").1, g.key.clone()))
                .collect();
            batch.sort_by_key(|(tick, _)| *tick);
            for (_, key) in batch {
                let at = self.groups.iter().position(|g| g.key == key).expect("polled groups live");
                self.poll_group(at, now);
                self.settle(at);
            }
        }
    }

    fn flush(&mut self, now: Timestamp) {
        for at in 0..self.groups.len() {
            match (self.spec.size, self.spec.step) {
                (Measure::Tuples(_), _) => self.rest_of_tuples(at, now),
                (Measure::Time(size), Measure::Time(step)) => {
                    let (size, step) = (size.as_micros(), step.as_micros());
                    if let Some(&last) = self.groups[at].live_by_time().last() {
                        let last = self.groups[at].history[last].0.timestamp.as_micros();
                        self.close_time(at, last / step * step + size, size, step, now);
                        let rest = self.groups[at].live_by_time();
                        self.leave(at, &rest, true);
                    }
                }
                _ => {
                    for (_, wave) in self.groups[at].waves() {
                        self.emit(at, &wave, now, true);
                        self.leave(at, &wave, false);
                    }
                }
            }
        }
    }

    fn next_deadline(&self) -> Option<Timestamp> {
        self.groups.iter().filter_map(|g| g.deadline.map(|(d, _)| d)).min()
    }

    fn pending_events(&self) -> usize {
        self.groups.iter().map(|g| g.live().len()).sum()
    }

    fn snapshot(&self) -> OperatorSnapshot {
        let groups = self.groups.iter().map(|g| {
            let events = |positions: Vec<usize>| positions.iter().map(|&i| g.history[i].0.clone()).collect();
            let key = g.key.clone();
            match self.spec.size {
                Measure::Tuples(_) => GroupSnapshot::Tuples {
                    key,
                    events: events(g.live()),
                    front_seq: (g.history.len() - g.live().len()) as u64,
                    next_seq: g.history.len() as u64,
                    next_start: g.next_start as u64,
                },
                Measure::Time(_) => GroupSnapshot::Time {
                    key,
                    events: events(g.live_by_time()),
                    watermark: g.watermark,
                    next_k: g.next_k,
                },
                Measure::Wave => GroupSnapshot::Wave {
                    key,
                    events: events(g.waves().into_values().flatten().collect()),
                },
            }
        });
        OperatorSnapshot {
            groups: groups.collect(),
            ready: Vec::new(),
            expired: Vec::new(),
        }
    }
}

/// Everything an operator has produced since the last call.
fn produced(op: &mut WindowOperator) -> (Vec<Window>, Vec<CwEvent>) {
    (std::iter::from_fn(|| op.pop_window()).collect(), op.drain_expired())
}

/// Group by group (each group's own order kept): what a restored operator's
/// poll is held to. It files the groups it is given oldest first, where the
/// original polls groups due together in the order they came by the
/// deadline.
fn by_group(spec: &WindowSpec, (mut windows, mut expired): (Vec<Window>, Vec<CwEvent>)) -> (Vec<Window>, Vec<CwEvent>) {
    windows.sort_by_cached_key(|w| spec.group_by.key_of(&w.events[0].token).unwrap());
    expired.sort_by_key(|e| spec.group_by.key_of(&e.token).unwrap());
    (windows, expired)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Tuple, time and wave windows × group-by fields, closure, none ×
    /// `delete_used` × formation timeout × arrivals in and out of
    /// timestamp order × interleaved polls: the operator and the model
    /// produce the same windows and expired events in the same order and
    /// the same snapshot after every step, and an operator restored from a
    /// mid-stream snapshot carries on as the original does.
    #[test]
    fn operator_agrees_with_the_brute_force_model(
        // (poll instead of push?, group, clock advance, timestamp lag or
        // wave shape, poll this far ahead)
        steps in prop::collection::vec((0..4u8, 0..4i64, 0..40u64, 0..60u64, 0..150u64), 1..90),
        (kind, tuple_shape, time_shape) in (0..3u8, (1..5usize, 1..6usize), (1..120u64, 1..120u64)),
        (group_by, delete_used, timeout, in_order) in (0..3u8, 0..2u8, 0..80u64, 0..2u8),
        restore_at in 0..90usize,
    ) {
        let spec = match kind {
            0 => WindowSpec::tuples(tuple_shape.0, tuple_shape.1).delete_used(delete_used == 1),
            1 => WindowSpec::time(Micros(time_shape.0), Micros(time_shape.1)).delete_used(delete_used == 1),
            _ => WindowSpec::wave(),
        };
        let spec = spec.group_by(match group_by {
            0 => GroupBy::None,
            1 => GroupBy::fields(&["g"]),
            _ => GroupBy::Key(Arc::new(|t: &Token| Token::Int(t.int_field("g").unwrap() % 2))),
        });
        let spec = if timeout >= 5 { spec.with_timeout(Micros(timeout)) } else { spec };
        // A port is wired as ordered only where timestamps never decrease.
        let ordered = in_order == 1;
        let fresh = || {
            let mut op = WindowOperator::new(spec.clone()).unwrap();
            op.wire(true, ordered);
            op
        };
        let mut op = fresh();
        let mut model = Model::new(spec.clone(), ordered);
        let shapes = (Schema::new(&["g", "id"]), Schema::new(&["id", "g"]));
        let mut twin: Option<WindowOperator> = None;
        let (mut clock, mut wave, mut in_wave) = (0u64, 0u64, std::collections::BTreeMap::new());
        for (i, (poll, group, gap, lag, ahead)) in steps.into_iter().enumerate() {
            if i == restore_at {
                let mut restored = fresh();
                restored.restore(op.snapshot()).unwrap();
                twin = Some(restored);
            }
            clock += gap;
            if poll == 0 {
                let now = Timestamp(clock + ahead);
                op.poll(now);
                model.poll(now);
                let out = produced(&mut op);
                prop_assert_eq!(&out, &(std::mem::take(&mut model.windows), std::mem::take(&mut model.expired)));
                if let Some(twin) = &mut twin {
                    twin.poll(now);
                    prop_assert_eq!(by_group(&spec, produced(twin)), by_group(&spec, out));
                }
            } else {
                let ts = Timestamp(if ordered { clock } else { clock.saturating_sub(lag) });
                // Records of two shared shapes, one with its fields
                // reversed, and of shapes of their own: one key, one group.
                let token = match i % 3 {
                    0 => shapes.0.record([Token::Int(group), Token::Int(i as i64)]),
                    1 => shapes.1.record([Token::Int(i as i64), Token::Int(group)]),
                    _ => Token::record().field("g", group).field("id", i as i64).build(),
                };
                let event = if kind == 2 {
                    // Waves of a few events each, the last two open at a
                    // time, last-marks at random.
                    wave += u64::from(lag % 3 == 0);
                    let of = wave - lag % 2 * wave.min(1);
                    let index: &mut u32 = in_wave.entry(of).or_default();
                    *index += 1;
                    CwEvent::derived(token, ts, &WaveTag::external(Timestamp(of)), *index, ahead % 3 == 0)
                } else {
                    CwEvent::external(token, ts)
                };
                op.push(event.clone(), Timestamp(clock)).unwrap();
                model.push(event.clone(), Timestamp(clock));
                let out = produced(&mut op);
                prop_assert_eq!(&out, &(std::mem::take(&mut model.windows), std::mem::take(&mut model.expired)));
                if let Some(twin) = &mut twin {
                    twin.push(event, Timestamp(clock)).unwrap();
                    prop_assert_eq!(produced(twin), out);
                    // (Its `high` starts over, so it has evicted what the
                    // original has only once it has seen an event.)
                    prop_assert_eq!(twin.snapshot(), op.snapshot());
                }
            }
            prop_assert_eq!(op.snapshot(), model.snapshot());
            prop_assert_eq!(op.pending_events(), model.pending_events());
            prop_assert_eq!(op.group_count(), model.groups.len());
            prop_assert_eq!(op.next_deadline(), model.next_deadline());
        }
        let end = Timestamp(clock);
        op.flush(end);
        model.flush(end);
        let out = produced(&mut op);
        prop_assert_eq!(&out, &(model.windows, model.expired));
        prop_assert_eq!(op.pending_events(), 0);
        if let Some(twin) = &mut twin {
            twin.flush(end);
            prop_assert_eq!(produced(twin), out);
        }
    }
}
