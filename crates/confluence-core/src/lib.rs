//! # confluence-core
//!
//! The Continuous Workflow (CWf) model at the heart of **CONFLuEnCE**, the
//! CONtinuous workFLow ExeCution Engine (Neophytou, Chrysanthis, Labrinidis;
//! SIGMOD 2011 / SWEET 2013), reimplemented as a Rust library.
//!
//! A continuous workflow is always active: it continuously integrates and
//! reacts to internal streams of events and external streams of updates, at
//! the same time and in any part of the workflow network. The model achieves
//! this with:
//!
//! * **active queues** on activity inputs supporting **windows** and
//!   **waves** (flexible bounds on unbounded streams, synchronization of
//!   multiple streams) — [`window`], [`wave`], [`receiver`];
//! * **pipelined concurrent execution** of sequential activities —
//!   [`director`];
//! * **push communication** from external stream sources — [`actors`].
//!
//! Actors, ports, channels, and directors follow the Kepler/Ptolemy
//! decoupling: a workflow is specified once ([`graph`]) and executed under
//! different models of computation (the directors: thread-based PNCWF, SDF,
//! DDF, DE — and, in the `confluence-sched` crate, the STAFiLOS scheduled
//! director).

pub mod actor;
pub mod actors;
pub mod channel;
pub mod checkpoint;
pub mod director;
pub mod engine;
pub mod testing;
pub mod error;
pub mod event;
pub mod graph;
pub mod postable;
pub mod receiver;
pub mod spec;
pub mod telemetry;
pub mod time;
pub mod token;
pub mod wave;
pub mod window;

pub use actor::{Actor, FireContext, IoSignature};
pub use channel::{ChannelPolicy, OnFull};
pub use checkpoint::{Checkpoint, CheckpointResource, QuiesceHook};
pub use engine::{Engine, ExecConfig, StopCondition};
pub use error::{Error, Result};
pub use event::CwEvent;
pub use graph::{ActorId, Endpoint, Workflow, WorkflowBuilder};
pub use telemetry::{MetricsRecorder, MetricsSnapshot, Observer, RunPhase, Telemetry};
pub use time::{Clock, Micros, SharedClock, Timestamp, VirtualClock, WallClock};
pub use token::Token;
pub use wave::WaveTag;
pub use window::{GroupBy, Measure, Window, WindowOperator, WindowSpec};
