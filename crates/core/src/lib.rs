//! # ivdss-core — information value-driven query processing (IVQP)
//!
//! The primary contribution of *Information Value-driven Near Real-Time
//! Decision Support Systems* (Yan, Li, Xu — ICDCS 2009): treat each
//! decision-support report as carrying a business value that time erodes,
//! and select query plans that maximize the **information value**
//!
//! ```text
//! IV = BusinessValue × (1 − λ_CL)^CL × (1 − λ_SL)^SL
//! ```
//!
//! instead of minimizing response time.
//!
//! * [`value`] — [`value::BusinessValue`], [`value::DiscountRate`]s and the
//!   IV formula;
//! * [`latency`] — computational (CL) and synchronization (SL) latency
//!   semantics;
//! * [`plan`] — candidate plans *(release time, local tables)* and their
//!   full evaluation against catalog, timelines, cost model and queues;
//! * [`search`] — the bounded scatter-and-gather optimal plan search of
//!   §3.1 plus an exhaustive oracle. One walk, two entry points:
//!   [`search::ScatterGatherSearch::search_from`] for the plain search and
//!   [`search::ScatterGatherSearch::search_with`], whose
//!   [`search::SearchOpts`] add a tracer and an audit;
//! * [`planner`] — [`planner::IvqpPlanner`] and the paper's two baselines,
//!   [`planner::FederationPlanner`] and [`planner::WarehousePlanner`];
//! * [`parallel`] — [`parallel::PlannerPool`], a deterministic fork-join
//!   helper for callers that plan many independent queries at once;
//! * [`starvation`] — the §3.3 aging adaptation for long-queued queries.
//!
//! # Example
//!
//! Select the optimal plan for a two-table query whose replicas are
//! refreshed on different cycles:
//!
//! ```
//! use ivdss_catalog::ids::TableId;
//! use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
//! use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
//! use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
//! use ivdss_core::planner::{IvqpPlanner, Planner};
//! use ivdss_core::value::DiscountRates;
//! use ivdss_costmodel::model::StylizedCostModel;
//! use ivdss_costmodel::query::{QueryId, QuerySpec};
//! use ivdss_replication::timelines::{SyncMode, SyncTimelines};
//! use ivdss_simkernel::time::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = synthetic_catalog(&SyntheticConfig {
//!     tables: 4, sites: 2, replicated_tables: 0, ..SyntheticConfig::default()
//! })?;
//! let mut plan = ReplicationPlan::new();
//! plan.add(TableId::new(0), ReplicaSpec::new(8.0));
//! plan.add(TableId::new(1), ReplicaSpec::new(2.0));
//! let catalog = base.with_replication(plan)?;
//! let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
//! let model = StylizedCostModel::paper_fig4();
//!
//! let ctx = PlanContext {
//!     catalog: &catalog,
//!     timelines: &timelines,
//!     model: &model,
//!     rates: DiscountRates::new(0.01, 0.05),
//!     queues: &NoQueues,
//! };
//! let request = QueryRequest::new(
//!     QuerySpec::new(QueryId::new(1), vec![TableId::new(0), TableId::new(1)]),
//!     SimTime::new(11.0),
//! );
//! let best = IvqpPlanner::new().select_plan(&ctx, &request)?;
//! assert!(best.information_value.value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod parallel;
pub mod plan;
pub mod planner;
pub mod search;
pub mod starvation;
pub mod value;

pub use latency::Latencies;
pub use parallel::PlannerPool;
pub use plan::{
    evaluate_plan, CandidateScore, FacilityQueues, IvCeilings, NoQueues, PlanContext, PlanError,
    PlanEvaluation, QueryRequest, QueueEstimator, SiteFloors, SubsetArena, Wave,
};
pub use planner::{FederationPlanner, IvqpPlanner, Planner, WarehousePlanner};
pub use search::{
    exhaustive_search, is_better, is_better_score, local_subsets, replicated_footprint,
    ScatterGatherSearch, SearchOpts, SearchOutcome,
};
pub use starvation::AgingPolicy;
pub use value::{BusinessValue, DiscountRate, DiscountRates, InformationValue};
