//! # confluence-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (§4): the Figure 5 workload curve, the Figure 6/7
//! sensitivity sweeps, the Figure 8 scheduler comparison, and Tables 1–3.
//!
//! Everything runs in virtual time with the calibrated cost models of
//! `confluence-linearroad::cost`; a full 600-second Linear Road run takes
//! well under a second of wall time in release mode.

pub mod config;
pub mod extensions;
pub mod figures;
pub mod runner;

pub use config::ExperimentConfig;
pub use runner::{run_linear_road, LrRun, PolicyKind, RunOptions};
