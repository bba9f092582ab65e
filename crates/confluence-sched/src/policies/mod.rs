//! Concrete scheduling policies for the STAFiLOS framework.
//!
//! Case studies from the paper (§3.1): the Quantum Priority Based
//! scheduler ([`qbs::QbsScheduler`]), the traditional fair Round-Robin
//! scheduler ([`rr::RrScheduler`]), and the Rate-Based scheduler from the
//! continuous-query literature ([`rb::RbScheduler`]) — plus a plain FIFO
//! policy ([`fifo::FifoScheduler`]) that doubles as the simulated
//! thread-based baseline ([`fifo::FifoScheduler::pncwf`]), and an
//! earliest-deadline-first extension ([`edf::EdfScheduler`]).

pub mod edf;
pub mod fifo;
pub mod qbs;
pub mod rb;
pub mod rr;

pub use edf::EdfScheduler;
pub use fifo::FifoScheduler;
pub use qbs::QbsScheduler;
pub use rb::RbScheduler;
pub use rr::RrScheduler;
