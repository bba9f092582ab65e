#![doc = include_str!("../README.md")]

pub use confluence_core as core;
pub use confluence_linearroad as linearroad;
pub use confluence_relstore as relstore;
pub use confluence_sched as sched;

// The engine facade and its observability surface, re-exported flat.
pub use confluence_core::engine::{Engine, ExecConfig, StopCondition};
pub use confluence_core::telemetry::{
    MetricsRecorder, MetricsSnapshot, Observer, QuantileSketch, RunPhase, SketchSnapshot,
    Telemetry, TimeSeriesRecorder,
};

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use confluence_core::actor::{Actor, FireContext, IoSignature};
    pub use confluence_core::actors::*;
    pub use confluence_core::channel::{ChannelPolicy, OnFull};
    pub use confluence_core::director::ddf::DdfDirector;
    pub use confluence_core::director::de::DeDirector;
    pub use confluence_core::director::pool::PoolDirector;
    pub use confluence_core::director::pool_policy::{
        Fifo, OldestWave, PolicyView, PoolPolicy, Quantum, RateBased,
    };
    pub use confluence_core::director::sdf::SdfDirector;
    pub use confluence_core::director::threaded::ThreadedDirector;
    pub use confluence_core::director::{Director, RunReport};
    pub use confluence_core::engine::{Engine, ExecConfig, StopCondition};
    pub use confluence_core::error::{Error, Result};
    pub use confluence_core::graph::{ActorId, Endpoint, Workflow, WorkflowBuilder};
    pub use confluence_core::telemetry::{
        MetricsRecorder, MetricsSnapshot, Observer, QuantileSketch, RunPhase, SketchSnapshot,
        StatsModule, Telemetry, TimeSeriesRecorder,
    };
    pub use confluence_core::time::{Micros, Timestamp};
    pub use confluence_core::token::Token;
    pub use confluence_core::window::{GroupBy, Measure, Window, WindowSpec};
    pub use confluence_sched::ScwfDirector;
}
