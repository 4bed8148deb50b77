//! The three planners the paper compares (§4.1):
//!
//! * [`IvqpPlanner`] — the proposed information value-driven query
//!   processing: full scatter-and-gather plan selection;
//! * [`FederationPlanner`] — "all tables are stored at the remote servers
//!   and no replicas are present at the DSS server, and all queries are
//!   decomposed and executed at remote servers";
//! * [`WarehousePlanner`] — "maintains a replica at the DSS server for
//!   each base table … and answers queries using these replicas without
//!   communicating with the remote servers".
//!
//! All three implement [`Planner`], so the simulator and experiments can
//! swap them on identical workloads.

use std::collections::BTreeSet;

use ivdss_simkernel::time::SimTime;

use crate::plan::{evaluate_plan, PlanContext, PlanError, PlanEvaluation, QueryRequest};
use crate::search::ScatterGatherSearch;

/// Selects an execution plan for a query under a given context.
pub trait Planner {
    /// A short human-readable name ("IVQP", "Federation", …).
    fn name(&self) -> &str;

    /// Selects a plan for `request`, released no earlier than its
    /// submission.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when no feasible plan exists under this
    /// planner's policy (e.g. the warehouse planner on a footprint that is
    /// not fully replicated).
    fn select_plan(
        &self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
    ) -> Result<PlanEvaluation, PlanError> {
        self.select_plan_from(ctx, request, request.submitted_at)
    }

    /// Selects a plan that is released no earlier than `not_before` —
    /// used when a queued query is (re-)planned after its submission
    /// time. Latencies still count from the true submission.
    ///
    /// # Errors
    ///
    /// As for [`Planner::select_plan`].
    fn select_plan_from(
        &self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        not_before: SimTime,
    ) -> Result<PlanEvaluation, PlanError>;
}

/// The paper's proposed planner: maximize information value over
/// local/remote combinations and delayed release times.
///
/// # Examples
///
/// IVQP never does worse than either baseline on the same context —
/// it can always pick the all-remote or all-local candidate itself:
///
/// ```
/// use ivdss_catalog::ids::TableId;
/// use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
/// use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
/// use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
/// use ivdss_core::planner::{FederationPlanner, IvqpPlanner, Planner};
/// use ivdss_core::value::DiscountRates;
/// use ivdss_costmodel::model::StylizedCostModel;
/// use ivdss_costmodel::query::{QueryId, QuerySpec};
/// use ivdss_replication::timelines::{SyncMode, SyncTimelines};
/// use ivdss_simkernel::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base = synthetic_catalog(&SyntheticConfig {
///     tables: 4, sites: 2, replicated_tables: 0, ..SyntheticConfig::default()
/// })?;
/// let mut plan = ReplicationPlan::new();
/// plan.add(TableId::new(0), ReplicaSpec::new(8.0));
/// plan.add(TableId::new(1), ReplicaSpec::new(2.0));
/// let catalog = base.with_replication(plan)?;
/// let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
/// let model = StylizedCostModel::paper_fig4();
/// let ctx = PlanContext {
///     catalog: &catalog,
///     timelines: &timelines,
///     model: &model,
///     rates: DiscountRates::new(0.01, 0.05),
///     queues: &NoQueues,
/// };
/// let request = QueryRequest::new(
///     QuerySpec::new(QueryId::new(1), vec![TableId::new(0), TableId::new(1)]),
///     SimTime::new(11.0),
/// );
///
/// let ivqp = IvqpPlanner::new().select_plan(&ctx, &request)?;
/// let federation = FederationPlanner::new().select_plan(&ctx, &request)?;
/// assert!(ivqp.information_value >= federation.information_value);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IvqpPlanner;

impl IvqpPlanner {
    /// Creates an IVQP planner with the default search settings.
    #[must_use]
    pub fn new() -> Self {
        IvqpPlanner
    }
}

impl Planner for IvqpPlanner {
    fn name(&self) -> &str {
        "IVQP"
    }

    fn select_plan_from(
        &self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        not_before: SimTime,
    ) -> Result<PlanEvaluation, PlanError> {
        Ok(ScatterGatherSearch::new()
            .search_from(ctx, request, not_before)?
            .best)
    }
}

/// The federation baseline: always decompose to the remote servers,
/// immediately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationPlanner;

impl FederationPlanner {
    /// Creates a federation planner.
    #[must_use]
    pub fn new() -> Self {
        FederationPlanner
    }
}

impl Planner for FederationPlanner {
    fn name(&self) -> &str {
        "Federation"
    }

    fn select_plan_from(
        &self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        not_before: SimTime,
    ) -> Result<PlanEvaluation, PlanError> {
        let release = request.submitted_at.max(not_before);
        evaluate_plan(ctx, request, release, &BTreeSet::new())
    }
}

/// The data-warehouse baseline: always answer from local replicas,
/// immediately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarehousePlanner;

impl WarehousePlanner {
    /// Creates a warehouse planner.
    #[must_use]
    pub fn new() -> Self {
        WarehousePlanner
    }
}

impl Planner for WarehousePlanner {
    fn name(&self) -> &str {
        "Data Warehouse"
    }

    fn select_plan_from(
        &self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        not_before: SimTime,
    ) -> Result<PlanEvaluation, PlanError> {
        let local: BTreeSet<_> = request.query.tables().iter().copied().collect();
        for &t in &local {
            if !ctx.timelines.has_replica(t) {
                return Err(PlanError::NoFeasiblePlan {
                    query: request.id(),
                });
            }
        }
        let release = request.submitted_at.max(not_before);
        evaluate_plan(ctx, request, release, &local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NoQueues;
    use crate::value::DiscountRates;
    use ivdss_catalog::catalog::Catalog;
    use ivdss_catalog::ids::TableId;
    use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_replication::timelines::{SyncMode, SyncTimelines};
    use ivdss_simkernel::time::SimTime;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn fixture(replicated: &[u32]) -> (Catalog, SyncTimelines) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 4,
            sites: 2,
            replicated_tables: 0,
            seed: 5,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        for &i in replicated {
            plan.add(t(i), ReplicaSpec::new(6.0));
        }
        let catalog = base.with_replication(plan).unwrap();
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        (catalog, timelines)
    }

    fn request(tables: &[u32]) -> QueryRequest {
        QueryRequest::new(
            QuerySpec::new(QueryId::new(0), tables.iter().map(|&i| t(i)).collect()),
            SimTime::new(11.0),
        )
    }

    #[test]
    fn planners_report_names() {
        assert_eq!(IvqpPlanner::new().name(), "IVQP");
        assert_eq!(FederationPlanner::new().name(), "Federation");
        assert_eq!(WarehousePlanner::new().name(), "Data Warehouse");
    }

    #[test]
    fn ivqp_dominates_both_baselines() {
        let (catalog, timelines) = fixture(&[0, 1]);
        let model = StylizedCostModel::paper_fig4();
        for rates in [
            DiscountRates::new(0.01, 0.01),
            DiscountRates::new(0.01, 0.05),
            DiscountRates::new(0.05, 0.01),
            DiscountRates::new(0.05, 0.05),
        ] {
            let ctx = PlanContext {
                catalog: &catalog,
                timelines: &timelines,
                model: &model,
                rates,
                queues: &NoQueues,
            };
            let req = request(&[0, 1]);
            let ivqp = IvqpPlanner::new().select_plan(&ctx, &req).unwrap();
            let fed = FederationPlanner::new().select_plan(&ctx, &req).unwrap();
            let dw = WarehousePlanner::new().select_plan(&ctx, &req).unwrap();
            let best_baseline = fed
                .information_value
                .value()
                .max(dw.information_value.value());
            assert!(
                ivqp.information_value.value() >= best_baseline - 1e-12,
                "{rates}: IVQP {} < baseline {best_baseline}",
                ivqp.information_value
            );
        }
    }

    #[test]
    fn federation_always_all_remote() {
        let (catalog, timelines) = fixture(&[0, 1]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let plan = FederationPlanner::new()
            .select_plan(&ctx, &request(&[0, 1, 2]))
            .unwrap();
        assert!(plan.is_all_remote());
        assert_eq!(plan.execute_at, SimTime::new(11.0));
    }

    #[test]
    fn warehouse_requires_full_replication() {
        let (catalog, timelines) = fixture(&[0]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let err = WarehousePlanner::new()
            .select_plan(&ctx, &request(&[0, 1]))
            .unwrap_err();
        assert!(matches!(err, PlanError::NoFeasiblePlan { .. }));
        // Fully replicated footprint works.
        let ok = WarehousePlanner::new()
            .select_plan(&ctx, &request(&[0]))
            .unwrap();
        assert_eq!(ok.local_tables.len(), 1);
    }

    #[test]
    fn planners_are_object_safe() {
        let planners: Vec<Box<dyn Planner>> = vec![
            Box::new(IvqpPlanner::new()),
            Box::new(FederationPlanner::new()),
            Box::new(WarehousePlanner::new()),
        ];
        let (catalog, timelines) = fixture(&[0, 1, 2, 3]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        for p in &planners {
            let eval = p.select_plan(&ctx, &request(&[0, 1])).unwrap();
            assert!(eval.information_value.value() > 0.0, "{}", p.name());
        }
    }

    #[test]
    fn ivqp_search_exposes_counters() {
        let (catalog, timelines) = fixture(&[0, 1]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let req = request(&[0, 1]);
        let outcome = ScatterGatherSearch::new()
            .search_from(&ctx, &req, req.submitted_at)
            .unwrap();
        assert!(outcome.plans_explored >= 4);
    }
}
