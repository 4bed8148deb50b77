//! # ivdss-serve — online query serving for the IV-driven DSS
//!
//! The rest of the workspace studies the paper's planner *offline*:
//! fixed request batches replayed through experiments. This crate turns
//! the machinery into an **online serving engine** — queries arrive
//! continuously, are admitted (or shed) by information value, planned
//! through a sync-phase plan cache, and dispatched onto reservation
//! calendars — with a metrics registry suitable for near-real-time
//! operation of the system the paper envisions.
//!
//! * [`clock`] — the [`Clock`] abstraction: deterministic DES time for
//!   tests and benches, wall time for live runs;
//! * [`admission`] — a bounded queue whose overflow policy sheds the
//!   minimum *marginal IV* (business value after projected CL/SL
//!   discounts, aged per §3.3), never blindly the newest arrival;
//! * [`cache`] — a plan cache keyed by (query footprint, cost profile,
//!   discount rates, per-table sync phase); within one inter-sync
//!   window the cached per-class champions reproduce the full
//!   scatter-and-gather optimum exactly, and completed syncs garbage-
//!   collect dead windows;
//! * [`engine`] — [`ServeEngine`]: admission → planning through the
//!   cache → calendar dispatch, with delivered IV re-costed against live
//!   queue state;
//! * [`metrics`] — counters, gauges, fixed-boundary CL/SL/IV histograms
//!   and a time-weighted queue-depth gauge, with snapshots and a text
//!   dump;
//! * [`loadgen`] — a deterministic open-loop (Poisson) harness.
//!
//! # Example
//!
//! ```
//! use ivdss_catalog::ids::TableId;
//! use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
//! use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
//! use ivdss_core::value::{BusinessValue, DiscountRates};
//! use ivdss_costmodel::model::StylizedCostModel;
//! use ivdss_costmodel::query::{QueryId, QuerySpec};
//! use ivdss_replication::timelines::{SyncMode, SyncTimelines};
//! use ivdss_serve::clock::DesClock;
//! use ivdss_serve::engine::{ServeConfig, ServeEngine};
//! use ivdss_serve::loadgen::{run_open_loop, OpenLoopConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = synthetic_catalog(&SyntheticConfig {
//!     tables: 4, sites: 2, replicated_tables: 0, ..SyntheticConfig::default()
//! })?;
//! let mut plan = ReplicationPlan::new();
//! plan.add(TableId::new(0), ReplicaSpec::new(8.0));
//! let catalog = base.with_replication(plan)?;
//! let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
//! let model = StylizedCostModel::paper_fig4();
//!
//! let config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
//! let mut engine = ServeEngine::new(&catalog, &timelines, &model, config, DesClock::new());
//! let report = run_open_loop(
//!     &mut engine,
//!     vec![QuerySpec::new(QueryId::new(0), vec![TableId::new(0), TableId::new(1)])],
//!     &OpenLoopConfig {
//!         queries: 50,
//!         mean_interarrival: 5.0,
//!         seed: 7,
//!         business_value: BusinessValue::UNIT,
//!     },
//! )?;
//! assert_eq!(report.completions.len(), 50);
//! assert!(report.total_delivered_iv() > 0.0);
//! let snapshot = engine.snapshot();
//! assert!(snapshot.plan_cache_hits > 0, "repeated footprints hit the cache");
//! println!("{}", snapshot.to_text());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod clock;
pub mod engine;
pub mod loadgen;
pub mod metrics;

pub use admission::{marginal_iv, AdmissionQueue, AdmitOutcome, QueuedQuery};
pub use cache::{CacheOutcome, PlanCache, PlanCacheKey};
pub use clock::{Clock, DesClock, WallClock};
pub use engine::{Completion, ServeConfig, ServeEngine, SubmitReport};
pub use loadgen::{run_open_loop, LoadReport, OpenLoopConfig};
pub use metrics::{MetricsSnapshot, ServeMetrics};
