//! Test utilities: a scripted [`FireContext`] for driving actors directly.
//!
//! Used by this crate's unit tests and by downstream crates
//! (`confluence-sched`, `confluence-linearroad`) to exercise actors without
//! standing up a full director.

use std::collections::VecDeque;

use crate::actor::FireContext;
use crate::time::Timestamp;
use crate::token::Token;
use crate::window::Window;

/// A [`FireContext`] with pre-loaded input windows that records emissions.
#[derive(Debug, Default)]
pub struct MockContext {
    now: Timestamp,
    inputs: Vec<VecDeque<Window>>,
    /// Everything the actor emitted, as `(output port, token)` pairs in
    /// emission order.
    pub emitted: Vec<(usize, Token)>,
    /// Total events the actor reported shedding via
    /// [`FireContext::report_shed`].
    pub shed_reported: u64,
}

impl MockContext {
    /// A context with `input_ports` empty input queues.
    pub fn new(input_ports: usize) -> Self {
        MockContext {
            now: Timestamp::ZERO,
            inputs: (0..input_ports).map(|_| VecDeque::new()).collect(),
            emitted: Vec::new(),
            shed_reported: 0,
        }
    }

    /// Set the reported director time.
    pub fn at(mut self, now: Timestamp) -> Self {
        self.now = now;
        self
    }

    /// Update the reported director time in place.
    pub fn set_now(&mut self, now: Timestamp) {
        self.now = now;
    }

    /// Queue a window on an input port.
    pub fn push_window(&mut self, port: usize, window: Window) {
        self.inputs[port].push_back(window);
    }

    /// Queue a single-event window wrapping `token` (external event at
    /// `ts`) on an input port — the common case in tests.
    pub fn push_token(&mut self, port: usize, token: Token, ts: Timestamp) {
        let event = crate::event::CwEvent::external(token, ts);
        self.push_window(
            port,
            Window {
                events: vec![event],
                formed_at: ts,
                timed_out: false,
            },
        );
    }

    /// Tokens emitted on one output port.
    pub fn emitted_on(&self, port: usize) -> Vec<Token> {
        self.emitted
            .iter()
            .filter(|(p, _)| *p == port)
            .map(|(_, t)| t.clone())
            .collect()
    }
}

impl FireContext for MockContext {
    fn now(&self) -> Timestamp {
        self.now
    }

    fn get(&mut self, port: usize) -> Option<Window> {
        self.inputs.get_mut(port)?.pop_front()
    }

    fn get_any(&mut self) -> Option<(usize, Window)> {
        for (i, q) in self.inputs.iter_mut().enumerate() {
            if let Some(w) = q.pop_front() {
                return Some((i, w));
            }
        }
        None
    }

    fn emit(&mut self, port: usize, token: Token) {
        self.emitted.push((port, token));
    }

    fn report_shed(&mut self, events: u64) {
        self.shed_reported += events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_context_scripts_inputs_and_records_outputs() {
        let mut ctx = MockContext::new(2).at(Timestamp(7));
        assert_eq!(ctx.now(), Timestamp(7));
        ctx.push_token(1, Token::Int(5), Timestamp(1));
        assert!(ctx.get(0).is_none());
        let (port, w) = ctx.get_any().unwrap();
        assert_eq!(port, 1);
        assert_eq!(w.len(), 1);
        ctx.emit(0, Token::Int(9));
        assert_eq!(ctx.emitted_on(0), vec![Token::Int(9)]);
        assert!(ctx.emitted_on(1).is_empty());
        ctx.set_now(Timestamp(9));
        assert_eq!(ctx.now(), Timestamp(9));
    }
}
