//! # confluence-linearroad
//!
//! The Linear Road benchmark (Arasu et al., VLDB 2004) as a continuous
//! workflow — the evaluation workload of the CONFLuEnCE/STAFiLOS paper
//! (its Appendix A): variable tolling with accident detection and alerts,
//! per-segment traffic statistics, and toll calculation/notification,
//! backed by the `confluence-relstore` relational store.
//!
//! * [`model`] — position reports, toll notifications, the toll formula;
//! * [`gen`] — the workload generator (Figure 5's 0.5-expressway ramp);
//! * [`tables`] — the relational tables and their queries;
//! * [`actors`] — the domain actors of Figures 10–15;
//! * [`workflow`] — the two-level workflow hierarchy: the top level as
//!   spec-language text, parsed over a registry of the actors above;
//! * [`golden`] — an engine-independent reference implementation;
//! * [`metrics`] — response-time series and thrash detection;
//! * [`cost`] — calibrated virtual-time cost models.

pub mod actors;
pub mod cost;
pub mod gen;
pub mod golden;
pub mod metrics;
pub mod model;
pub mod tables;
pub mod workflow;

pub use gen::{Workload, WorkloadConfig};
pub use metrics::ResponseSeries;
pub use model::{PositionReport, TollNotification};
pub use workflow::{build, spec_text, LinearRoad, LrOptions};
