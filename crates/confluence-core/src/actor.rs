//! The actor abstraction: independent workflow components with ports.
//!
//! A workflow is a composition of independent components called *actors*.
//! Actors communicate through *ports*; the connection between an output
//! port and an input port is a *channel*. Crucially (the Kepler/Ptolemy
//! insight the paper builds on), the communication and execution semantics
//! are **not** chosen by the actor but by the workflow's *director*: the
//! same actor runs unchanged under the thread-based PNCWF director, the
//! STAFiLOS scheduled director, or the SDF/DDF sub-workflow directors.
//!
//! Actors therefore interact with the runtime only through the
//! [`FireContext`] handed to their lifecycle methods.

use crate::error::Result;
use crate::time::Timestamp;
use crate::token::Token;
use crate::window::Window;

/// Port names of an actor, declared by the actor itself.
#[derive(Debug, Clone, Default)]
pub struct IoSignature {
    /// Input port names, in port-index order.
    pub inputs: Vec<String>,
    /// Output port names, in port-index order.
    pub outputs: Vec<String>,
}

impl IoSignature {
    /// Build a signature from port name lists.
    pub fn new(inputs: &[&str], outputs: &[&str]) -> Self {
        IoSignature {
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// A source signature: no inputs, one output.
    pub fn source(output: &str) -> Self {
        Self::new(&[], &[output])
    }

    /// A sink signature: one input, no outputs.
    pub fn sink(input: &str) -> Self {
        Self::new(&[input], &[])
    }

    /// One input, one output.
    pub fn transform(input: &str, output: &str) -> Self {
        Self::new(&[input], &[output])
    }

    /// Resolve an input port name to its index.
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|n| n == name)
    }

    /// Resolve an output port name to its index.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|n| n == name)
    }
}

/// Token consumption/production rates for synchronous dataflow scheduling.
///
/// An actor that declares rates consumes exactly `consume[i]` windows from
/// input `i` and produces exactly `produce[j]` tokens on output `j` per
/// firing; the SDF director uses these to pre-compile a static schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdfRates {
    /// Tokens consumed per firing, per input port.
    pub consume: Vec<u32>,
    /// Tokens produced per firing, per output port.
    pub produce: Vec<u32>,
}

/// The runtime interface an actor sees during a lifecycle call.
///
/// Directors implement this differently: the thread-based director blocks
/// in [`FireContext::get`]; the scheduled director pre-delivers the window
/// that triggered the firing.
pub trait FireContext {
    /// Current director time.
    fn now(&self) -> Timestamp;

    /// Take the next ready window on input port `port`.
    ///
    /// Under the thread-based director this blocks until a window forms or
    /// every upstream actor has finished (then `None`). Under scheduled
    /// directors it returns the delivered window once, then `None`.
    fn get(&mut self, port: usize) -> Option<Window>;

    /// Take the next ready window on *any* input port, with its port index.
    fn get_any(&mut self) -> Option<(usize, Window)>;

    /// Produce `token` on output port `port`. The director stamps the
    /// production with the current time and the firing's wave lineage and
    /// routes it to every connected downstream receiver.
    fn emit(&mut self, port: usize, token: Token);

    /// Report that the actor itself dropped `events` input events this
    /// firing (a shedding operator's drops, as opposed to channel-policy
    /// sheds the fabric already counts). Directors that carry telemetry
    /// forward this to `Observer::on_shed` so operator sheds land in the
    /// same per-actor `events_shed` metric; the default discards it.
    fn report_shed(&mut self, events: u64) {
        let _ = events;
    }
}

/// A workflow component.
///
/// Lifecycle (per Kepler): `initialize` once, then iterations of
/// `prefire → fire → postfire` driven by the director, then `wrapup`.
/// All methods default to no-ops so simple actors implement only `fire`.
pub trait Actor: Send {
    /// Declared ports.
    fn signature(&self) -> IoSignature;

    /// One-time setup before execution starts.
    fn initialize(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
        Ok(())
    }

    /// Whether the actor is ready to fire this iteration. Returning `false`
    /// skips the firing (the director will retry later).
    fn prefire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(true)
    }

    /// Do one iteration of work: consume windows, emit tokens.
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()>;

    /// Post-iteration bookkeeping. Returning `false` tells the director
    /// this actor is finished (a source that exhausted its stream).
    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(true)
    }

    /// Final chance to emit before the actor's outputs close.
    ///
    /// Called exactly once after every input has closed and every pending
    /// window has been drained, but *before* the director closes the
    /// actor's output channels — unlike [`Actor::wrapup`], emissions made
    /// here still reach downstream actors. Stateful actors use this to
    /// flush buffered results.
    fn finish(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
        Ok(())
    }

    /// One-time teardown after execution ends.
    fn wrapup(&mut self) -> Result<()> {
        Ok(())
    }

    /// Serialize this actor's durable state for a checkpoint snapshot.
    ///
    /// Returning `Some(bytes)` declares the actor stateful; the engine
    /// stores the bytes in the snapshot and hands them back through
    /// [`Actor::restore_state`] on recovery. The encoding is the actor's
    /// own business (the [`crate::checkpoint::codec`] helpers are the
    /// house style). The default `None` marks the actor stateless: nothing
    /// is saved and `restore_state` is never called for it.
    ///
    /// For a source, `Some` promises that its stream resumes from the saved
    /// bytes alone (a read offset into an input the rebuilt workflow holds
    /// again), so the engine keeps no journal of it. A source that returns
    /// `None` cannot be read again, and a checkpointed run journals its
    /// emissions ([`crate::checkpoint::LoggedSource`]).
    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        Ok(None)
    }

    /// Restore state captured by [`Actor::save_state`] before a recovered
    /// run starts. Called at most once, before `initialize`-time work.
    fn restore_state(&mut self, _bytes: &[u8]) -> Result<()> {
        Ok(())
    }

    /// Whether this is a source actor (no upstream; the director schedules
    /// it by time or policy instead of by data availability). Source actors
    /// are treated independently of the rest by the STAFiLOS schedulers in
    /// order to regulate the flow of data into the workflow.
    fn is_source(&self) -> bool {
        false
    }

    /// For source actors driven by a timetable: the time at which the next
    /// external event should enter the workflow. Directors running in
    /// virtual time use this to schedule source firings.
    fn next_arrival(&self) -> Option<Timestamp> {
        None
    }

    /// Fixed dataflow rates, if the actor has them (enables SDF scheduling).
    fn rates(&self) -> Option<SdfRates> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_resolution() {
        let sig = IoSignature::new(&["a", "b"], &["out"]);
        assert_eq!(sig.input_index("b"), Some(1));
        assert_eq!(sig.input_index("z"), None);
        assert_eq!(sig.output_index("out"), Some(0));
        assert_eq!(sig.output_index("a"), None);
    }

    #[test]
    fn signature_shorthands() {
        let s = IoSignature::source("out");
        assert!(s.inputs.is_empty());
        assert_eq!(s.outputs, vec!["out"]);
        let k = IoSignature::sink("in");
        assert_eq!(k.inputs, vec!["in"]);
        assert!(k.outputs.is_empty());
        let t = IoSignature::transform("in", "out");
        assert_eq!((t.inputs.len(), t.outputs.len()), (1, 1));
    }

    struct Nop;
    impl Actor for Nop {
        fn signature(&self) -> IoSignature {
            IoSignature::default()
        }
        fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn defaults_are_sane() {
        let a = Nop;
        assert!(!a.is_source());
        assert!(a.next_arrival().is_none());
        assert!(a.rates().is_none());
    }
}
