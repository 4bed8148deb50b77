//! # ivdss-costmodel — query footprints and computational-latency models
//!
//! The paper's computational latency is "query queuing time + query
//! processing time + query result transmission time" (§2). This crate
//! estimates the processing and transmission components of a query for
//! one *combination* of its tables over {remote base table, local
//! replica}. The planner compiles each query once per combination, as §3.1
//! prescribes ("this step needs to be done only once and can be done in
//! advance"): that per-mask table is `ivdss_core::plan::SubsetArena::build`.
//!
//! * [`query::QuerySpec`] — a query's table footprint plus cost profile;
//! * [`model::StylizedCostModel`] — the paper's Fig. 4 cost function;
//! * [`model::AnalyticCostModel`] — a size-based model with per-site
//!   parallelism, bounded-bandwidth result shipping and per-site
//!   coordination overhead;
//! * [`calibrate::fit_local`] — a least-squares fit of local-scan
//!   latency against bytes, from measured storage scans
//!   (see `ivdss-storage`).
//!
//! # Example
//!
//! ```
//! use std::collections::BTreeSet;
//!
//! use ivdss_catalog::tpch::{tpch_catalog, TpchConfig};
//! use ivdss_costmodel::model::{AnalyticCostModel, CostModel};
//! use ivdss_costmodel::query::{QueryId, QuerySpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let catalog = tpch_catalog(&TpchConfig::default())?;
//! let query = QuerySpec::new(QueryId::new(1), catalog.table_ids()[..4].to_vec());
//! let model = AnalyticCostModel::paper_scale();
//! // The all-remote plan reads every footprint table from its base copy…
//! let remote: BTreeSet<_> = query.tables().iter().copied().collect();
//! let cost = model.plan_cost(&catalog, &query, &remote);
//! assert!(cost.total().value() > 0.0);
//! // …and ships a result, which a plan reading only replicas never does.
//! assert!(cost.transmission.value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod model;
pub mod query;

pub use calibrate::{fit_local, CalibrationSample, LocalFit};
pub use model::{AnalyticCostModel, CostModel, PlanCost, StylizedCostModel};
pub use query::{QueryId, QuerySpec};
