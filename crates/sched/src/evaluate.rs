//! Workload-IV evaluation of candidate schedules.
//!
//! A candidate schedule's fitness is the total information value the
//! *existing* planner delivers for a seeded query workload replayed
//! under that schedule — `mqo::WorkloadEvaluator` replays the requests
//! in submission order against fresh server queues, planning each query
//! with the scatter-and-gather search and committing its service window,
//! so schedule fitness and query planning share one source of truth
//! (same search, same cost model, same queueing).

use ivdss_catalog::catalog::Catalog;
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::CostModel;
use ivdss_mqo::evaluate::WorkloadEvaluator;
use ivdss_replication::timelines::SyncTimelines;

/// Evaluates schedules by replaying a fixed workload under them.
pub struct ScheduleEvaluator<'a> {
    catalog: &'a Catalog,
    model: &'a dyn CostModel,
    rates: DiscountRates,
    requests: &'a [QueryRequest],
}

impl<'a> ScheduleEvaluator<'a> {
    /// Creates an evaluator over `requests` (replayed in slice order,
    /// which callers should keep as submission order — the serving
    /// engine's FIFO).
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    #[must_use]
    pub fn new(
        catalog: &'a Catalog,
        model: &'a dyn CostModel,
        rates: DiscountRates,
        requests: &'a [QueryRequest],
    ) -> Self {
        assert!(!requests.is_empty(), "workload must contain a query");
        ScheduleEvaluator {
            catalog,
            model,
            rates,
            requests,
        }
    }

    /// The requests under evaluation.
    #[must_use]
    pub fn requests(&self) -> &[QueryRequest] {
        self.requests
    }

    /// Total workload IV delivered under `timelines`: the submission
    /// order replayed with queue commitment.
    ///
    /// # Panics
    ///
    /// Panics if plan selection fails, which indicates an inconsistent
    /// evaluator (the search only generates valid candidates).
    #[must_use]
    pub fn workload_iv(&self, timelines: &SyncTimelines) -> f64 {
        let order: Vec<usize> = (0..self.requests.len()).collect();
        WorkloadEvaluator::new(
            self.catalog,
            timelines,
            self.model,
            self.rates,
            self.requests,
        )
        .evaluate_order(&order)
        .expect("workload evaluation cannot fail on valid context")
        .total_information_value
    }
}

impl std::fmt::Debug for ScheduleEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleEvaluator")
            .field("queries", &self.requests.len())
            .field("rates", &self.rates)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::TableId;
    use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_replication::timelines::SyncMode;
    use ivdss_simkernel::time::SimTime;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn fixture() -> (Catalog, SyncTimelines, Vec<QueryRequest>) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 5,
            sites: 2,
            replicated_tables: 0,
            seed: 23,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        for i in 0..3 {
            plan.add(t(i), ReplicaSpec::new(6.0 + f64::from(i)));
        }
        let catalog = base.with_replication(plan).unwrap();
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        let requests = vec![
            QueryRequest::new(
                QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
                SimTime::new(9.0),
            ),
            QueryRequest::new(
                QuerySpec::new(QueryId::new(1), vec![t(1), t(2)]),
                SimTime::new(12.0),
            ),
        ];
        (catalog, timelines, requests)
    }

    #[test]
    fn workload_iv_is_deterministic_and_positive() {
        let (catalog, timelines, requests) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let eval =
            ScheduleEvaluator::new(&catalog, &model, DiscountRates::new(0.02, 0.08), &requests);
        let a = eval.workload_iv(&timelines);
        let b = eval.workload_iv(&timelines);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a > 0.0);
    }

    #[test]
    #[should_panic(expected = "workload must contain")]
    fn empty_workload_rejected() {
        let (catalog, _, _) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let requests: Vec<QueryRequest> = Vec::new();
        let _ = ScheduleEvaluator::new(&catalog, &model, DiscountRates::new(0.02, 0.08), &requests);
    }
}
