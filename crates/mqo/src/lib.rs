//! # ivdss-mqo — multi-query optimization for workload information value
//!
//! The paper's §3.2: when the candidate execution ranges of several
//! queries overlap, optimizing each in isolation is not enough — "an
//! optimal query plan for one query may conflict with the other plans of
//! others", so the queries are grouped into a *workload* and the execution
//! order of the whole workload is optimized for total information value
//! with a genetic algorithm.
//!
//! * [`workload`] — execution ranges, overlap detection and workload
//!   formation;
//! * [`evaluate`] — the deterministic order-evaluation function (plan each
//!   query with IVQP against the queue state induced by its predecessors);
//! * [`scheduler`] — [`scheduler::MqoScheduler`] (GA) plus FIFO ("without
//!   MQO"), exhaustive (oracle) and greedy baselines.
//!
//! # Example
//!
//! ```
//! use ivdss_catalog::ids::TableId;
//! use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
//! use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
//! use ivdss_core::plan::QueryRequest;
//! use ivdss_core::value::DiscountRates;
//! use ivdss_costmodel::model::StylizedCostModel;
//! use ivdss_costmodel::query::{QueryId, QuerySpec};
//! use ivdss_mqo::evaluate::WorkloadEvaluator;
//! use ivdss_mqo::scheduler::{FifoScheduler, MqoScheduler, WorkloadScheduler};
//! use ivdss_replication::timelines::{SyncMode, SyncTimelines};
//! use ivdss_simkernel::time::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = synthetic_catalog(&SyntheticConfig {
//!     tables: 4, sites: 2, replicated_tables: 0, ..SyntheticConfig::default()
//! })?;
//! let mut plan = ReplicationPlan::new();
//! plan.add(TableId::new(0), ReplicaSpec::new(5.0));
//! plan.add(TableId::new(1), ReplicaSpec::new(5.0));
//! let catalog = base.with_replication(plan)?;
//! let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
//! let model = StylizedCostModel::paper_fig4();
//!
//! let requests = vec![
//!     QueryRequest::new(QuerySpec::new(QueryId::new(0), vec![TableId::new(0), TableId::new(1)]), SimTime::new(1.0)),
//!     QueryRequest::new(QuerySpec::new(QueryId::new(1), vec![TableId::new(0), TableId::new(1)]), SimTime::new(1.2)),
//! ];
//! let evaluator = WorkloadEvaluator::new(
//!     &catalog, &timelines, &model, DiscountRates::new(0.15, 0.15), &requests,
//! );
//! let mqo = MqoScheduler::new().schedule(&evaluator)?;
//! let fifo = FifoScheduler::new().schedule(&evaluator)?;
//! assert!(mqo.total_information_value >= fifo.total_information_value - 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluate;
pub mod scheduler;
pub mod workload;

pub use evaluate::{ScheduleOutcome, ScheduledQuery, WorkloadEvaluator};
pub use scheduler::{
    ExhaustiveScheduler, FifoScheduler, GreedyScheduler, MqoScheduler, WorkloadScheduler,
};
pub use workload::{execution_ranges, form_workloads, ExecutionRange};
