//! Property-based tests for workload formation and scheduling.

use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_catalog::Catalog;
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::{BusinessValue, DiscountRates};
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_ga::engine::GaConfig;
use ivdss_mqo::evaluate::WorkloadEvaluator;
use ivdss_mqo::scheduler::{FifoScheduler, MqoScheduler, WorkloadScheduler};
use ivdss_mqo::workload::{execution_ranges, form_workloads, ExecutionRange};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::time::SimTime;
use proptest::prelude::*;

fn fixture() -> (Catalog, SyncTimelines) {
    let base = synthetic_catalog(&SyntheticConfig {
        tables: 6,
        sites: 2,
        replicated_tables: 0,
        seed: 99,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut plan = ReplicationPlan::new();
    for i in 0..4 {
        plan.add(TableId::new(i), ReplicaSpec::new(4.0));
    }
    let catalog = base.with_replication(plan).unwrap();
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    (catalog, timelines)
}

proptest! {
    /// Workload formation: every query lands in exactly one group, and
    /// queries in different groups never overlap.
    #[test]
    fn workloads_partition_queries(
        ranges in prop::collection::vec((0.0..100.0f64, 0.0..20.0f64), 1..30)
    ) {
        let ranges: Vec<ExecutionRange> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(start, len))| {
                ExecutionRange::new(
                    QueryId::new(i as u64),
                    SimTime::new(start),
                    SimTime::new(start + len),
                )
            })
            .collect();
        let groups = form_workloads(&ranges);
        let total: usize = groups.iter().map(Vec::len).sum();
        prop_assert_eq!(total, ranges.len());
        // Cross-group pairs never overlap.
        for (gi, g) in groups.iter().enumerate() {
            for (gj, h) in groups.iter().enumerate() {
                if gi == gj { continue; }
                for &qa in g {
                    for &qb in h {
                        let ra = ranges.iter().find(|r| r.query == qa).unwrap();
                        let rb = ranges.iter().find(|r| r.query == qb).unwrap();
                        prop_assert!(!ra.overlaps(rb));
                    }
                }
            }
        }
    }

    /// Any evaluated order yields exactly one plan per query, causally
    /// timed, and the reported total equals the sum of plan IVs.
    #[test]
    fn evaluated_orders_are_consistent(
        seed in any::<u64>(),
        n in 1usize..6,
        spacing in 0.1..5.0f64
    ) {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let requests: Vec<QueryRequest> = (0..n)
            .map(|i| {
                QueryRequest::new(
                    QuerySpec::new(
                        QueryId::new(i as u64),
                        vec![TableId::new((i % 4) as u32)],
                    ),
                    SimTime::new(10.0 + spacing * i as f64),
                )
                .with_business_value(BusinessValue::new(1.0 + (seed % 3) as f64))
            })
            .collect();
        let evaluator = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.1, 0.1),
            &requests,
        );
        // A deterministic pseudo-random order derived from the seed.
        let mut order: Vec<usize> = (0..n).collect();
        order.rotate_left((seed as usize) % n.max(1));
        let outcome = evaluator.evaluate_order(&order).unwrap();
        prop_assert_eq!(outcome.plans.len(), n);
        let sum: f64 = outcome
            .plans
            .iter()
            .map(|p| p.plan.information_value.value())
            .sum();
        prop_assert!((sum - outcome.total_information_value).abs() < 1e-9);
        for p in &outcome.plans {
            let req = &requests[p.request_index];
            prop_assert!(p.plan.execute_at >= req.submitted_at);
            prop_assert!(p.plan.finish >= p.plan.service_start);
        }
    }

    /// Workloads formed over the execution ranges the plan search
    /// derives partition the requests: every query lands in exactly one
    /// workload, and each range starts at its query's submission.
    #[test]
    fn execution_range_workloads_partition_requests(
        n in 1usize..8,
        spacing in 0.1..6.0f64
    ) {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = ivdss_core::plan::PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.1, 0.1),
            queues: &ivdss_core::plan::NoQueues,
        };
        let requests: Vec<QueryRequest> = (0..n)
            .map(|i| {
                QueryRequest::new(
                    QuerySpec::new(
                        QueryId::new(i as u64),
                        vec![TableId::new((i % 4) as u32), TableId::new(4)],
                    ),
                    SimTime::new(spacing * i as f64),
                )
            })
            .collect();

        let ranges = execution_ranges(&ctx, &requests).unwrap();
        prop_assert_eq!(ranges.len(), n);
        for (range, request) in ranges.iter().zip(&requests) {
            prop_assert_eq!(range.query, request.id());
            prop_assert_eq!(range.start, request.submitted_at);
        }
        let mut seen: Vec<u64> = form_workloads(&ranges)
            .iter()
            .flatten()
            .map(|q| q.raw())
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The GA scheduler never returns less total IV than FIFO (elitism +
    /// the identity permutation is seeded into the population).
    #[test]
    fn mqo_at_least_fifo(seed in any::<u64>(), n in 2usize..5) {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let requests: Vec<QueryRequest> = (0..n)
            .map(|i| {
                QueryRequest::new(
                    QuerySpec::new(
                        QueryId::new(i as u64),
                        vec![TableId::new((i % 3) as u32), TableId::new(((i + 1) % 3) as u32)],
                    ),
                    SimTime::new(10.0 + 0.3 * i as f64),
                )
            })
            .collect();
        let evaluator = WorkloadEvaluator::new(
            &catalog,
            &timelines,
            &model,
            DiscountRates::new(0.15, 0.15),
            &requests,
        );
        let ga = GaConfig { seed, population: 10, generations: 8, parents: 4, elites: 2, mutation_rate: 0.3 };
        let mqo = MqoScheduler::with_config(ga).schedule(&evaluator).unwrap();
        let fifo = FifoScheduler::new().schedule(&evaluator).unwrap();
        prop_assert!(
            mqo.total_information_value >= fifo.total_information_value - 1e-9,
            "MQO {} < FIFO {}",
            mqo.total_information_value,
            fifo.total_information_value
        );
    }
}
