//! The deterministic workload evaluation function (paper §3.2):
//!
//! "An important GA component is the evaluation function. Given a
//! particular chromosome representing one workload permutation, the
//! function deterministically calculates the information value of a given
//! workload execution order."
//!
//! [`WorkloadEvaluator::evaluate_order`] replays an order against fresh
//! server queues: queries are planned one by one with the IVQP search,
//! each plan *commits* its service time to the local federation server and
//! to every remote site it touches, so later queries in the order see the
//! queueing the earlier ones induce. The total information value of the
//! order is the GA's fitness.

use ivdss_catalog::catalog::Catalog;
use ivdss_core::plan::{FacilityQueues, PlanContext, PlanError, PlanEvaluation, QueryRequest};
use ivdss_core::planner::{IvqpPlanner, Planner};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::CostModel;
use ivdss_ga::permutation::Permutation;
use ivdss_replication::timelines::SyncTimelines;

/// One query's slot in an evaluated schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledQuery {
    /// Index of the request in the evaluator's request slice.
    pub request_index: usize,
    /// The plan selected for it under the schedule's queue state.
    pub plan: PlanEvaluation,
}

/// A fully evaluated execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Request indices in execution (priority) order.
    pub order: Vec<usize>,
    /// Sum of the information values delivered by all queries.
    pub total_information_value: f64,
    /// Per-query plans, in execution order.
    pub plans: Vec<ScheduledQuery>,
}

impl ScheduleOutcome {
    /// Mean information value per query.
    #[must_use]
    pub fn mean_information_value(&self) -> f64 {
        if self.plans.is_empty() {
            0.0
        } else {
            self.total_information_value / self.plans.len() as f64
        }
    }
}

/// Evaluates workload execution orders deterministically.
pub struct WorkloadEvaluator<'a> {
    catalog: &'a Catalog,
    timelines: &'a SyncTimelines,
    model: &'a dyn CostModel,
    rates: DiscountRates,
    requests: &'a [QueryRequest],
    planner: IvqpPlanner,
}

impl<'a> WorkloadEvaluator<'a> {
    /// Creates an evaluator over `requests`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    #[must_use]
    pub fn new(
        catalog: &'a Catalog,
        timelines: &'a SyncTimelines,
        model: &'a dyn CostModel,
        rates: DiscountRates,
        requests: &'a [QueryRequest],
    ) -> Self {
        assert!(!requests.is_empty(), "workload must contain a query");
        WorkloadEvaluator {
            catalog,
            timelines,
            model,
            rates,
            requests,
            planner: IvqpPlanner::new(),
        }
    }

    /// The requests under evaluation.
    #[must_use]
    pub fn requests(&self) -> &[QueryRequest] {
        self.requests
    }

    /// Number of queries in the workload.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` if the workload is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Evaluates the order given by request indices.
    ///
    /// Each query is planned with the scatter-and-gather search against
    /// the queue state left by the queries before it in the order, then
    /// its service window is committed to the involved servers.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from plan selection.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..len`.
    pub fn evaluate_order(&self, order: &[usize]) -> Result<ScheduleOutcome, PlanError> {
        assert_eq!(order.len(), self.requests.len(), "order length mismatch");
        let mut queues = FacilityQueues::new(self.catalog.site_count());
        let mut plans = Vec::with_capacity(order.len());
        let mut total = 0.0;
        for &idx in order {
            let request = &self.requests[idx];
            let ctx = PlanContext {
                catalog: self.catalog,
                timelines: self.timelines,
                model: self.model,
                rates: self.rates,
                queues: &queues,
            };
            let plan = self.planner.select_plan(&ctx, request)?;
            queues.commit(self.catalog, request, &plan);
            total += plan.information_value.value();
            plans.push(ScheduledQuery {
                request_index: idx,
                plan,
            });
        }
        Ok(ScheduleOutcome {
            order: order.to_vec(),
            total_information_value: total,
            plans,
        })
    }

    /// GA fitness: the total information value of the order encoded by
    /// `perm`.
    ///
    /// # Panics
    ///
    /// Panics if plan selection fails, which indicates an inconsistent
    /// evaluator (the search only generates valid candidates).
    #[must_use]
    pub fn fitness(&self, perm: &Permutation) -> f64 {
        self.evaluate_order(perm.as_slice())
            .expect("workload evaluation cannot fail on valid context")
            .total_information_value
    }
}

impl std::fmt::Debug for WorkloadEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadEvaluator")
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
    use ivdss_core::value::BusinessValue;
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_replication::timelines::SyncMode;
    use ivdss_simkernel::time::SimTime;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn fixture() -> (Catalog, SyncTimelines) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 6,
            sites: 2,
            replicated_tables: 0,
            seed: 11,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        for i in 0..4 {
            plan.add(t(i), ReplicaSpec::new(4.0 + f64::from(i)));
        }
        let catalog = base.with_replication(plan).unwrap();
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        (catalog, timelines)
    }

    fn requests() -> Vec<QueryRequest> {
        vec![
            QueryRequest::new(
                QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
                SimTime::new(10.0),
            ),
            QueryRequest::new(
                QuerySpec::new(QueryId::new(1), vec![t(1), t(2)]),
                SimTime::new(10.5),
            )
            .with_business_value(BusinessValue::new(2.0)),
            QueryRequest::new(
                QuerySpec::new(QueryId::new(2), vec![t(0), t(3)]),
                SimTime::new(11.0),
            ),
        ]
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs = requests();
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.05, 0.05),
            &reqs,
        );
        let a = eval.evaluate_order(&[0, 1, 2]).unwrap();
        let b = eval.evaluate_order(&[0, 1, 2]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.plans.len(), 3);
        assert!(a.total_information_value > 0.0);
        assert!(a.mean_information_value() <= a.total_information_value);
    }

    #[test]
    fn order_changes_outcome_under_contention() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs = requests();
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.05, 0.05),
            &reqs,
        );
        let fifo = eval.evaluate_order(&[0, 1, 2]).unwrap();
        let rev = eval.evaluate_order(&[2, 1, 0]).unwrap();
        // Orders must both be valid; totals will generally differ because
        // queue contention shifts (equality would mean zero contention).
        assert!(fifo.total_information_value > 0.0);
        assert!(rev.total_information_value > 0.0);
        assert_ne!(fifo.plans[0].request_index, rev.plans[0].request_index);
    }

    #[test]
    fn later_queries_see_queue_contention() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        // Two identical heavy queries submitted simultaneously.
        let reqs = vec![
            QueryRequest::new(
                QuerySpec::new(QueryId::new(0), vec![t(0), t(1), t(2)]),
                SimTime::new(5.0),
            ),
            QueryRequest::new(
                QuerySpec::new(QueryId::new(1), vec![t(0), t(1), t(2)]),
                SimTime::new(5.0),
            ),
        ];
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.05, 0.05),
            &reqs,
        );
        let outcome = eval.evaluate_order(&[0, 1]).unwrap();
        let first = &outcome.plans[0].plan;
        let second = &outcome.plans[1].plan;
        // The second query's plan cannot start processing before the first
        // finishes occupying the local server.
        assert!(second.service_start >= first.service_start);
        assert!(second.information_value.value() <= first.information_value.value() + 1e-12);
    }

    #[test]
    fn fitness_matches_evaluate_order() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs = requests();
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.05, 0.05),
            &reqs,
        );
        let perm = Permutation::new(vec![2, 0, 1]).unwrap();
        let by_fitness = eval.fitness(&perm);
        let by_eval = eval
            .evaluate_order(&[2, 0, 1])
            .unwrap()
            .total_information_value;
        assert_eq!(by_fitness, by_eval);
    }

    #[test]
    #[should_panic(expected = "workload must contain")]
    fn empty_workload_rejected() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs: Vec<QueryRequest> = vec![];
        let _ = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.05, 0.05),
            &reqs,
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_order_length_rejected() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs = requests();
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.05, 0.05),
            &reqs,
        );
        let _ = eval.evaluate_order(&[0]);
    }
}
