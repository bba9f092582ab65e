//! # confluence-sched — STAFiLOS
//!
//! **STreAm FLOw Scheduling for Continuous Workflows**: an integrated
//! scheduling framework inside CONFLuEnCE (paper §3). Instead of
//! implementing one scheduling policy per director, STAFiLOS provides a
//! generic, pluggable **Scheduled CWF director** ([`scwf::ScwfDirector`])
//! enacted by any policy implementing the abstract scheduler interface
//! ([`framework::Scheduler`]), backed by a runtime statistics module
//! ([`stats::StatsModule`]) exposing per-actor cost, input/output rates,
//! and selectivity.
//!
//! Shipped policies (paper §3.1): Quantum Priority Based
//! ([`policies::QbsScheduler`]), Round-Robin ([`policies::RrScheduler`]),
//! Rate-Based / Highest Rate ([`policies::RbScheduler`]) — plus a FIFO
//! baseline and the simulated thread-based PNCWF baseline
//! ([`policies::FifoScheduler::pncwf`]).
//!
//! The director runs in real time or in **virtual time** (a discrete-event
//! mode where firing costs come from a [`cost::CostModel`]), which is how
//! the Linear Road experiments of the paper are regenerated in
//! milliseconds instead of 600-second wall-clock runs.
//!
//! Extensions beyond the paper's evaluation (its §5 future work):
//! multi-workflow two-level scheduling ([`multi`]) and load shedding
//! ([`shedding`]).

pub mod cost;
pub mod framework;
pub mod multi;
pub mod policies;
pub mod scwf;
pub mod shedding;
pub mod stats;

pub use cost::{CostModel, TableCostModel, ThreadOverheadCost};
pub use framework::{ActorInfo, ActorState, Scheduler};
pub use policies::{EdfScheduler, FifoScheduler, QbsScheduler, RbScheduler, RrScheduler};
pub use scwf::ScwfDirector;
pub use stats::{ActorStats, StatsModule};
