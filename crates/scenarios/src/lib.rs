//! # ivdss-scenarios — seeded, composable traffic scenarios
//!
//! The paper evaluates IV-driven planning on uniform TPC-H-footprint
//! draws with a single homogeneous arrival stream (§4.1). This crate
//! opens the "as many scenarios as you can imagine" axis: realistic,
//! fully reproducible traffic regimes built from four orthogonal
//! ingredients —
//!
//! * [`arrival`] — non-homogeneous Poisson arrival processes
//!   (constant, diurnal, flash-crowd) sampled exactly by thinning;
//! * [`popularity`] — Zipf-skewed template popularity with
//!   eligibility-prefix renormalization;
//! * [`tenant`] — multi-tenant mixes with per-tenant business-value
//!   distributions and SLA deadlines;
//! * [`growth`] — schema growth: tables born mid-run with cold sync
//!   timelines.
//!
//! A [`ScenarioSpec`] composes them into a
//! named, seeded regime; [`named`] holds the canonical registry
//! documented in `docs/SCENARIOS.md`. Every stochastic choice rides a
//! named sub-seed, so a scenario's event stream replays bit-identically
//! — the property suites and the dsim golden trace pin this.
//!
//! # Example
//!
//! ```
//! use ivdss_scenarios::named::{all_scenarios, flash_crowd};
//!
//! let crowd = flash_crowd();
//! let world = crowd.build_world().unwrap();
//! let events: Vec<_> = crowd.stream(&world).collect();
//! assert!(!events.is_empty());
//! assert_eq!(all_scenarios().len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod growth;
pub mod named;
pub mod popularity;
pub mod scenario;
pub mod tenant;

pub use arrival::{ArrivalProcess, IntensityProfile};
pub use growth::{grow_catalog, BornTable, GrowthSpec};
pub use named::all_scenarios;
pub use popularity::ZipfSampler;
pub use scenario::{Popularity, ScenarioEvent, ScenarioSpec, ScenarioStream, ScenarioWorld};
pub use tenant::{TenantDraw, TenantMix, TenantSpec};
