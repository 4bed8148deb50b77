//! Workload schedulers: the GA-driven multi-query optimizer and its
//! baselines.
//!
//! * [`MqoScheduler`] — the paper's proposal: a genetic algorithm over
//!   execution-order permutations (§3.2);
//! * [`FifoScheduler`] — submission order, the "Without MQO" baseline of
//!   Fig. 9;
//! * [`ExhaustiveScheduler`] — brute force over all orders, the optimality
//!   oracle for small workloads;
//! * [`GreedyScheduler`] — highest-value-first heuristic, an extra
//!   reference point for the ablation benches.

use ivdss_core::plan::PlanError;
use ivdss_ga::engine::{optimize_permutation, GaConfig};

use crate::evaluate::{ScheduleOutcome, WorkloadEvaluator};

/// Produces an execution order for a workload.
pub trait WorkloadScheduler {
    /// A short human-readable name.
    fn name(&self) -> &str;

    /// Chooses an order and returns its full evaluation.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from workload evaluation.
    fn schedule(&self, evaluator: &WorkloadEvaluator<'_>) -> Result<ScheduleOutcome, PlanError>;
}

/// The GA-driven multi-query optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MqoScheduler {
    config: GaConfig,
}

impl MqoScheduler {
    /// Creates a scheduler with the paper's GA configuration (50
    /// generations).
    #[must_use]
    pub fn new() -> Self {
        MqoScheduler {
            config: GaConfig::paper(),
        }
    }

    /// Creates a scheduler with a custom GA configuration.
    #[must_use]
    pub fn with_config(config: GaConfig) -> Self {
        MqoScheduler { config }
    }
}

impl WorkloadScheduler for MqoScheduler {
    fn name(&self) -> &str {
        "MQO"
    }

    fn schedule(&self, evaluator: &WorkloadEvaluator<'_>) -> Result<ScheduleOutcome, PlanError> {
        let n = evaluator.len();
        if n == 1 {
            return evaluator.evaluate_order(&[0]);
        }
        let result = optimize_permutation(n, &self.config, |perm| evaluator.fitness(perm));
        evaluator.evaluate_order(result.best.as_slice())
    }
}

/// Executes queries in submission order ("Without MQO").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FifoScheduler;

impl FifoScheduler {
    /// Creates a FIFO scheduler.
    #[must_use]
    pub fn new() -> Self {
        FifoScheduler
    }
}

impl WorkloadScheduler for FifoScheduler {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn schedule(&self, evaluator: &WorkloadEvaluator<'_>) -> Result<ScheduleOutcome, PlanError> {
        let mut order: Vec<usize> = (0..evaluator.len()).collect();
        order.sort_by(|&a, &b| {
            evaluator.requests()[a]
                .submitted_at
                .cmp(&evaluator.requests()[b].submitted_at)
                .then_with(|| a.cmp(&b))
        });
        evaluator.evaluate_order(&order)
    }
}

/// Tries every permutation — optimal, but `n!`; refuses workloads larger
/// than its cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveScheduler {
    max_queries: usize,
}

impl ExhaustiveScheduler {
    /// Creates an exhaustive scheduler with a workload-size cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_queries == 0` or `max_queries > 10` (10! ≈ 3.6 M
    /// orders is already the practical ceiling).
    #[must_use]
    pub fn new(max_queries: usize) -> Self {
        assert!(
            (1..=10).contains(&max_queries),
            "exhaustive scheduling only feasible for 1..=10 queries"
        );
        ExhaustiveScheduler { max_queries }
    }
}

impl Default for ExhaustiveScheduler {
    fn default() -> Self {
        ExhaustiveScheduler::new(8)
    }
}

impl WorkloadScheduler for ExhaustiveScheduler {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    fn schedule(&self, evaluator: &WorkloadEvaluator<'_>) -> Result<ScheduleOutcome, PlanError> {
        let n = evaluator.len();
        assert!(
            n <= self.max_queries,
            "workload of {n} queries exceeds exhaustive cap {}",
            self.max_queries
        );
        let mut order: Vec<usize> = (0..n).collect();
        let mut best: Option<ScheduleOutcome> = None;
        // Heap's algorithm, iterative.
        let mut c = vec![0usize; n];
        let consider =
            |order: &[usize], best: &mut Option<ScheduleOutcome>| -> Result<(), PlanError> {
                let outcome = evaluator.evaluate_order(order)?;
                let better = match best {
                    None => true,
                    Some(b) => outcome.total_information_value > b.total_information_value,
                };
                if better {
                    *best = Some(outcome);
                }
                Ok(())
            };
        consider(&order, &mut best)?;
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    order.swap(0, i);
                } else {
                    order.swap(c[i], i);
                }
                consider(&order, &mut best)?;
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        Ok(best.expect("at least one order considered"))
    }
}

/// Plans the highest business-value queries first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyScheduler;

impl GreedyScheduler {
    /// Creates a greedy scheduler.
    #[must_use]
    pub fn new() -> Self {
        GreedyScheduler
    }
}

impl WorkloadScheduler for GreedyScheduler {
    fn name(&self) -> &str {
        "Greedy"
    }

    fn schedule(&self, evaluator: &WorkloadEvaluator<'_>) -> Result<ScheduleOutcome, PlanError> {
        let mut order: Vec<usize> = (0..evaluator.len()).collect();
        order.sort_by(|&a, &b| {
            let va = evaluator.requests()[a].business_value.value();
            let vb = evaluator.requests()[b].business_value.value();
            vb.partial_cmp(&va)
                .expect("business values are finite")
                .then_with(|| a.cmp(&b))
        });
        evaluator.evaluate_order(&order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::catalog::Catalog;
    use ivdss_catalog::ids::TableId;
    use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_core::plan::QueryRequest;
    use ivdss_core::value::{BusinessValue, DiscountRates};
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_replication::timelines::{SyncMode, SyncTimelines};
    use ivdss_simkernel::time::SimTime;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn fixture() -> (Catalog, SyncTimelines) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 6,
            sites: 2,
            replicated_tables: 0,
            seed: 13,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        for i in 0..4 {
            plan.add(t(i), ReplicaSpec::new(5.0));
        }
        let catalog = base.with_replication(plan).unwrap();
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        (catalog, timelines)
    }

    /// Overlapping queries arriving together — contention makes ordering
    /// matter.
    fn contended_requests(n: usize) -> Vec<QueryRequest> {
        (0..n)
            .map(|i| {
                QueryRequest::new(
                    QuerySpec::new(
                        QueryId::new(i as u64),
                        vec![t((i % 3) as u32), t(((i + 1) % 3) as u32)],
                    ),
                    SimTime::new(10.0 + 0.1 * i as f64),
                )
                .with_business_value(BusinessValue::new(1.0 + (i % 3) as f64))
            })
            .collect()
    }

    #[test]
    fn mqo_at_least_fifo() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs = contended_requests(5);
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.15, 0.15),
            &reqs,
        );
        let mqo = MqoScheduler::new().schedule(&eval).unwrap();
        let fifo = FifoScheduler::new().schedule(&eval).unwrap();
        assert!(
            mqo.total_information_value >= fifo.total_information_value - 1e-9,
            "MQO {} < FIFO {}",
            mqo.total_information_value,
            fifo.total_information_value
        );
    }

    #[test]
    fn mqo_near_exhaustive_on_small_workloads() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs = contended_requests(4);
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.15, 0.15),
            &reqs,
        );
        let mqo = MqoScheduler::new().schedule(&eval).unwrap();
        let opt = ExhaustiveScheduler::default().schedule(&eval).unwrap();
        assert!(mqo.total_information_value <= opt.total_information_value + 1e-9);
        // 4! = 24 orders, GA budget ≫ 24 → should find the optimum.
        assert!(
            (opt.total_information_value - mqo.total_information_value).abs() < 1e-9,
            "MQO {} vs optimal {}",
            mqo.total_information_value,
            opt.total_information_value
        );
    }

    #[test]
    fn singleton_workload_trivial() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs = contended_requests(1);
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.15, 0.15),
            &reqs,
        );
        for sched in [
            &MqoScheduler::new() as &dyn WorkloadScheduler,
            &FifoScheduler,
        ] {
            let s = sched.schedule(&eval).unwrap();
            assert_eq!(s.order, vec![0]);
        }
    }

    #[test]
    fn fifo_respects_submission_order() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        // Reverse submission times.
        let reqs = vec![
            QueryRequest::new(
                QuerySpec::new(QueryId::new(0), vec![t(0)]),
                SimTime::new(20.0),
            ),
            QueryRequest::new(
                QuerySpec::new(QueryId::new(1), vec![t(1)]),
                SimTime::new(10.0),
            ),
        ];
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.05, 0.05),
            &reqs,
        );
        let s = FifoScheduler::new().schedule(&eval).unwrap();
        assert_eq!(s.order, vec![1, 0]);
    }

    #[test]
    fn greedy_orders_by_value() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs = contended_requests(3); // values 1, 2, 3
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.05, 0.05),
            &reqs,
        );
        let s = GreedyScheduler::new().schedule(&eval).unwrap();
        assert_eq!(s.order, vec![2, 1, 0]);
        assert_eq!(GreedyScheduler::new().name(), "Greedy");
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(MqoScheduler::new().name(), "MQO");
        assert_eq!(FifoScheduler::new().name(), "FIFO");
        assert_eq!(ExhaustiveScheduler::default().name(), "Exhaustive");
    }

    #[test]
    #[should_panic(expected = "exceeds exhaustive cap")]
    fn exhaustive_cap_enforced() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let reqs = contended_requests(5);
        let eval = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.05, 0.05),
            &reqs,
        );
        let _ = ExhaustiveScheduler::new(3).schedule(&eval);
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn exhaustive_rejects_huge_cap() {
        let _ = ExhaustiveScheduler::new(11);
    }
}
