//! Integration test: the paper's Fig. 4 worked example, end to end
//! through the facade crate.

use std::collections::BTreeSet;

use ivdss::core::local_subsets;
use ivdss::dsim::experiments::fig4::{fig4_setup, run_fig4};
use ivdss::prelude::*;

#[test]
fn scatter_step_matches_paper() {
    let r = run_fig4();
    // "the information value using {T1, T2, T3, T4} is
    //  BusinessValue × (1 − 0.1)^10 × (1 − 0.1)^10"
    assert!((r.all_remote.information_value.value() - 0.9f64.powi(20)).abs() < 1e-12);
    assert_eq!(r.all_remote.latencies.computational.value(), 10.0);
    assert_eq!(r.all_remote.latencies.synchronization.value(), 10.0);
    // "the searching boundary (b) is 11 + 20 = 31"
    assert!((r.first_boundary.value() - 31.0).abs() < 1e-9);
}

#[test]
fn search_is_optimal_and_prunes() {
    let r = run_fig4();
    assert!(
        (r.search.best.information_value.value() - r.oracle.best.information_value.value()).abs()
            < 1e-12,
        "scatter-gather must find the oracle optimum"
    );
    assert!(r.search.plans_explored <= r.oracle.plans_explored);
    assert!(r.search.sync_points_visited >= 1, "gather phase must run");
}

#[test]
fn stylized_costs_match_paper() {
    // "the computation time is 2 if the query evaluation only uses the
    //  replications and 4, 6, 8, and 10 if the query evaluation involves
    //  1, 2, 3, and 4 base tables"
    let setup = fig4_setup();
    let model = StylizedCostModel::paper_fig4();
    let query = &setup.request.query;
    assert!(query
        .tables()
        .iter()
        .all(|&t| setup.catalog.is_replicated(t)));
    // Every local/remote combination of the footprint, in the order the
    // search enumerates them.
    let combinations = local_subsets(query.tables());
    assert_eq!(combinations.len(), 16);
    for local in combinations {
        let remote: BTreeSet<TableId> = query
            .tables()
            .iter()
            .copied()
            .filter(|t| !local.contains(t))
            .collect();
        let total = model.plan_cost(&setup.catalog, query, &remote).total();
        assert_eq!(total.value(), 2.0 + 2.0 * remote.len() as f64, "{remote:?}");
    }
}

#[test]
fn delayed_plans_enter_the_plan_space() {
    // Under a staleness-heavy preference the optimal Fig. 4 plan waits
    // for a future synchronization (the paper's Fig. 2 scenario).
    let setup = fig4_setup();
    let model = StylizedCostModel::paper_fig4();
    let ctx = PlanContext {
        catalog: &setup.catalog,
        timelines: &setup.timelines,
        model: &model,
        rates: DiscountRates::new(0.01, 0.3),
        queues: &NoQueues,
    };
    let outcome = ScatterGatherSearch::new()
        .search_from(&ctx, &setup.request, setup.request.submitted_at)
        .unwrap();
    assert!(
        outcome.best.execute_at > setup.request.submitted_at || outcome.best.is_all_remote(),
        "staleness-sensitive optimum must delay or read base tables"
    );
}
