//! Property-based tests for the IVQP core: the information-value formula,
//! plan evaluation and the optimality of the scatter-and-gather search.

use std::collections::BTreeSet;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::latency::Latencies;
use ivdss_core::plan::{evaluate_plan, NoQueues, PlanContext, QueryRequest};
use ivdss_core::planner::{FederationPlanner, IvqpPlanner, Planner, WarehousePlanner};
use ivdss_core::search::{exhaustive_search, ScatterGatherSearch};
use ivdss_core::value::{BusinessValue, DiscountRates, InformationValue};
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

/// Builds a catalog of `n` tables over 2 sites, replicating tables with the
/// given periods.
fn fixture(n: usize, periods: &[f64]) -> (Catalog, SyncTimelines) {
    let base = synthetic_catalog(&SyntheticConfig {
        tables: n,
        sites: 2,
        replicated_tables: 0,
        seed: 7,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut plan = ReplicationPlan::new();
    for (i, &p) in periods.iter().enumerate() {
        plan.add(t(i as u32), ReplicaSpec::new(p));
    }
    let catalog = base.with_replication(plan).unwrap();
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    (catalog, timelines)
}

/// Pinned from a proptest-recorded failure that shipped with the seed
/// (`properties.proptest-regressions`): extreme discount rates drive the
/// retention product below `f64::MIN_POSITIVE` and the IV underflows to
/// exactly zero. The bound assertions in `iv_bounded_by_business_value`
/// deliberately accept that, so the recorded case now passes; it is kept
/// here as a deterministic unit test and the regressions file was removed.
#[test]
fn iv_underflows_to_zero_at_extreme_discounts() {
    let iv = InformationValue::compute(
        BusinessValue::new(0.001),
        DiscountRates::new(0.961_616_578_874_064_9, 0.957_541_571_393_890_8),
        Latencies::new(
            SimDuration::new(154.396_473_433_162_64),
            SimDuration::new(162.752_146_478_074_48),
        ),
    );
    assert_eq!(iv.value(), 0.0);
    assert!(iv.value() <= 0.001 + 1e-12);
}

proptest! {
    /// IV never exceeds the business value and is always positive.
    #[test]
    fn iv_bounded_by_business_value(
        bv in 0.001..1000.0f64,
        lcl in 0.0..0.99f64,
        lsl in 0.0..0.99f64,
        cl in 0.0..1000.0f64,
        sl in 0.0..1000.0f64
    ) {
        let iv = InformationValue::compute(
            BusinessValue::new(bv),
            DiscountRates::new(lcl, lsl),
            Latencies::new(SimDuration::new(cl), SimDuration::new(sl)),
        );
        // Extreme discounts can underflow f64 to exactly zero; IV is still
        // non-negative and never exceeds the business value.
        prop_assert!(iv.value() >= 0.0);
        prop_assert!(iv.value() <= bv + 1e-12);
    }

    /// IV is monotone non-increasing in each latency.
    #[test]
    fn iv_monotone_in_latencies(
        lcl in 0.001..0.5f64,
        lsl in 0.001..0.5f64,
        cl in 0.0..100.0f64,
        sl in 0.0..100.0f64,
        bump in 0.001..50.0f64
    ) {
        let rates = DiscountRates::new(lcl, lsl);
        let base = InformationValue::compute(
            BusinessValue::UNIT,
            rates,
            Latencies::new(SimDuration::new(cl), SimDuration::new(sl)),
        );
        let more_cl = InformationValue::compute(
            BusinessValue::UNIT,
            rates,
            Latencies::new(SimDuration::new(cl + bump), SimDuration::new(sl)),
        );
        let more_sl = InformationValue::compute(
            BusinessValue::UNIT,
            rates,
            Latencies::new(SimDuration::new(cl), SimDuration::new(sl + bump)),
        );
        prop_assert!(more_cl.value() <= base.value());
        prop_assert!(more_sl.value() <= base.value());
    }

    /// Scatter-gather equals the exhaustive oracle on random
    /// configurations — the bound never prunes the optimum.
    #[test]
    fn search_is_optimal(
        p0 in 1.0..20.0f64,
        p1 in 1.0..20.0f64,
        p2 in 1.0..20.0f64,
        lcl in 0.005..0.3f64,
        lsl in 0.005..0.3f64,
        submit in 0.0..50.0f64
    ) {
        let (catalog, timelines) = fixture(5, &[p0, p1, p2]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(lcl, lsl),
            queues: &NoQueues,
        };
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1), t(2), t(3)]),
            SimTime::new(submit),
        );
        let sg = ScatterGatherSearch::new().search_from(&ctx, &req, req.submitted_at).unwrap();
        let ex = exhaustive_search(&ctx, &req, 96).unwrap();
        prop_assert!(
            sg.best.information_value.value() >= ex.best.information_value.value() - 1e-12,
            "sg {} < exhaustive {}",
            sg.best.information_value.value(),
            ex.best.information_value.value()
        );
    }

    /// IVQP dominates both baselines on every random configuration (the
    /// headline claim of the paper's evaluation).
    #[test]
    fn ivqp_dominates_baselines(
        p0 in 1.0..20.0f64,
        p1 in 1.0..20.0f64,
        lcl in 0.005..0.3f64,
        lsl in 0.005..0.3f64,
        submit in 0.0..50.0f64
    ) {
        let (catalog, timelines) = fixture(4, &[p0, p1]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(lcl, lsl),
            queues: &NoQueues,
        };
        // Footprint fully replicated so the warehouse baseline is feasible.
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(submit),
        );
        let ivqp = IvqpPlanner::new().select_plan(&ctx, &req).unwrap();
        let fed = FederationPlanner::new().select_plan(&ctx, &req).unwrap();
        let dw = WarehousePlanner::new().select_plan(&ctx, &req).unwrap();
        prop_assert!(ivqp.information_value.value()
            >= fed.information_value.value().max(dw.information_value.value()) - 1e-12);
    }

    /// Plan evaluation produces causally ordered timestamps and
    /// non-negative latencies for arbitrary valid candidates.
    #[test]
    fn plan_evaluation_is_causal(
        p0 in 1.0..20.0f64,
        p1 in 1.0..20.0f64,
        submit in 0.0..100.0f64,
        delay in 0.0..40.0f64,
        use_t0 in any::<bool>(),
        use_t1 in any::<bool>()
    ) {
        let (catalog, timelines) = fixture(4, &[p0, p1]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.05, 0.05),
            queues: &NoQueues,
        };
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1), t(2)]),
            SimTime::new(submit),
        );
        let mut local = BTreeSet::new();
        if use_t0 { local.insert(t(0)); }
        if use_t1 { local.insert(t(1)); }
        let eval = evaluate_plan(&ctx, &req, SimTime::new(submit + delay), &local).unwrap();
        prop_assert!(eval.execute_at >= req.submitted_at);
        prop_assert!(eval.service_start >= eval.execute_at);
        prop_assert!(eval.finish >= eval.service_start);
        prop_assert!(!eval.latencies.computational.is_negative());
        prop_assert!(!eval.latencies.synchronization.is_negative());
        // CL accounts for the whole span from submission to receipt.
        let span = (eval.finish - req.submitted_at).value();
        prop_assert!((eval.latencies.computational.value() - span).abs() < 1e-9);
    }

    /// The search boundary is sound: the chosen plan's release time never
    /// exceeds the reported boundary.
    #[test]
    fn chosen_release_within_boundary(
        p0 in 1.0..20.0f64,
        lcl in 0.01..0.3f64,
        lsl in 0.01..0.3f64
    ) {
        let (catalog, timelines) = fixture(3, &[p0]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(lcl, lsl),
            queues: &NoQueues,
        };
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(10.0),
        );
        let sg = ScatterGatherSearch::new().search_from(&ctx, &req, req.submitted_at).unwrap();
        prop_assert!(sg.best.execute_at <= sg.boundary);
    }
}
