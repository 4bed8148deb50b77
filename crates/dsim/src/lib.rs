//! # ivdss-dsim — the end-to-end DSS simulator and experiment drivers
//!
//! Plays the role JavaSim played in the paper: a discrete-event simulation
//! of the hybrid DSS (remote servers, the local federation server,
//! replica synchronization, query arrivals) with a pluggable planner, plus
//! one driver per figure of the evaluation section.
//!
//! * [`simulator`] — arrival-driven and prioritized (aging-aware)
//!   execution disciplines over [`ivdss_core::planner::Planner`]s;
//! * [`metrics`] — per-query outcomes and the aggregates the figures
//!   report;
//! * [`experiments`] — `run_fig4` … `run_fig9`, each reproducing one
//!   figure.
//!
//! # Example
//!
//! ```
//! use ivdss_dsim::experiments::fig4::run_fig4;
//!
//! let results = run_fig4();
//! // The paper's scatter step: IV = 0.9^10 × 0.9^10, boundary t = 31.
//! assert!((results.first_boundary.value() - 31.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod simulator;

pub use metrics::{QueryOutcome, RunMetrics};
pub use simulator::{run_arrival_driven, run_prioritized, Environment, ReplicaLoading};
