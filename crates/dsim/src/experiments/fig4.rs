//! Figure 4 — the scatter-and-gather worked example.
//!
//! Paper §3.1: four tables R1–R4 synchronized with different frequencies;
//! "the computation time is 2 if the query evaluation only uses the
//! replications and 4, 6, 8, and 10 if the query evaluation involves 1, 2,
//! 3, and 4 base tables"; the query is submitted at time 11, both discount
//! rates are 0.1, and the latest synchronization at submission is R3's at
//! time 8.
//!
//! The paper's scatter step: using all four base tables gives
//! `IV = BV × 0.9^10 × 0.9^10`, and the tolerable computational latency is
//! 20, so the first search boundary is `11 + 20 = 31`. This module
//! recreates that exact configuration and exposes the search trace.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::{SiteId, TableId};
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::table::TableMeta;
use ivdss_core::plan::{NoQueues, PlanContext, PlanEvaluation, QueryRequest};
use ivdss_core::search::{exhaustive_search, ScatterGatherSearch, SearchOutcome};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_replication::schedule::Schedule;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;

/// The Fig. 4 worked-example setup: catalog, timelines and the submitted
/// query.
#[derive(Debug, Clone)]
pub struct Fig4Setup {
    /// Four tables, all replicated.
    pub catalog: Catalog,
    /// Deterministic schedules with distinct periods/phases such that the
    /// last syncs before t = 11 are R4: 2, R1: 4, R2: 6, R3: 8 (the
    /// paper's "current order of the replications … R4, R1, R2, R3").
    pub timelines: SyncTimelines,
    /// The query over all four tables, submitted at t = 11.
    pub request: QueryRequest,
}

/// Builds the paper's Fig. 4 configuration.
///
/// # Panics
///
/// Never panics; the configuration is statically valid.
#[must_use]
pub fn fig4_setup() -> Fig4Setup {
    let tables: Vec<TableMeta> = (0..4)
        .map(|i| TableMeta::new(TableId::new(i), format!("r{}", i + 1), 1_000, 100))
        .collect();
    let placement = vec![
        SiteId::new(0),
        SiteId::new(0),
        SiteId::new(1),
        SiteId::new(1),
    ];
    let mut plan = ReplicationPlan::new();
    for i in 0..4 {
        plan.add(TableId::new(i), ReplicaSpec::new(10.0));
    }
    let catalog = Catalog::new(tables, 2, placement, plan).expect("static configuration");

    // Last syncs before t=11: R1 at 4, R2 at 6, R3 at 8, R4 at 2; the next
    // sync after 11 is R4's at 14 (the paper pushes the time line to R4).
    let mut timelines = SyncTimelines::new();
    timelines.insert(TableId::new(0), Schedule::periodic(11.0, 4.0)); // R1: 4, 15, 26…
    timelines.insert(TableId::new(1), Schedule::periodic(20.0, 6.0)); // R2: 6, 26…
    timelines.insert(TableId::new(2), Schedule::periodic(8.0, 0.0)); // R3: 0, 8, 16…
    timelines.insert(TableId::new(3), Schedule::periodic(12.0, 2.0)); // R4: 2, 14, 26…

    let request = QueryRequest::new(
        QuerySpec::new(QueryId::new(0), (0..4).map(TableId::new).collect()),
        SimTime::new(11.0),
    );
    Fig4Setup {
        catalog,
        timelines,
        request,
    }
}

/// The outcome of running the worked example.
#[derive(Debug, Clone)]
pub struct Fig4Results {
    /// The scatter-and-gather outcome.
    pub search: SearchOutcome,
    /// The exhaustive oracle's outcome (must agree on the optimum).
    pub oracle: SearchOutcome,
    /// The information value of the all-base-tables scatter plan —
    /// `BV × 0.9^10 × 0.9^10` in the paper.
    pub all_remote: PlanEvaluation,
    /// The first search boundary implied by the scatter plan (t = 31 in
    /// the paper).
    pub first_boundary: SimTime,
}

impl Fig4Results {
    /// Renders the worked example as text.
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== Fig. 4 — scatter-and-gather worked example ==");
        let _ = writeln!(
            out,
            "scatter: all-base plan IV = {:.6} (paper: 0.9^10 × 0.9^10 = {:.6})",
            self.all_remote.information_value.value(),
            0.9f64.powi(20)
        );
        let _ = writeln!(out, "first boundary: {} (paper: t=31)", self.first_boundary);
        let _ = writeln!(
            out,
            "optimal plan: release at {}, local tables {:?}, IV = {:.6}",
            self.search.best.execute_at,
            self.search
                .best
                .local_tables
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
            self.search.best.information_value.value()
        );
        let _ = writeln!(
            out,
            "plans explored: {} (exhaustive oracle: {}), sync points visited: {}, final boundary: {}",
            self.search.plans_explored,
            self.oracle.plans_explored,
            self.search.sync_points_visited,
            self.search.boundary
        );
        out
    }
}

/// Runs the Fig. 4 worked example.
///
/// # Panics
///
/// Panics if the search fails, which the static configuration rules out.
#[must_use]
pub fn run_fig4() -> Fig4Results {
    let setup = fig4_setup();
    let model = StylizedCostModel::paper_fig4();
    let ctx = PlanContext {
        catalog: &setup.catalog,
        timelines: &setup.timelines,
        model: &model,
        rates: DiscountRates::paper_fig4(),
        queues: &NoQueues,
    };
    let search = ScatterGatherSearch::new()
        .search_from(&ctx, &setup.request, setup.request.submitted_at)
        .expect("worked example is feasible");
    let oracle = exhaustive_search(&ctx, &setup.request, 64).expect("oracle is feasible");
    let all_remote = ivdss_core::plan::evaluate_plan(
        &ctx,
        &setup.request,
        setup.request.submitted_at,
        &std::collections::BTreeSet::new(),
    )
    .expect("all-remote plan is always feasible");
    // (1 - 0.1)^CL ≥ IV ⇒ CL ≤ log_{0.9}(IV); scatter IV = 0.9^20 ⇒ 20.
    let threshold = all_remote.information_value.value() / setup.request.business_value.value();
    let max_cl = DiscountRates::paper_fig4()
        .cl
        .max_latency_for_factor(threshold)
        .expect("rate is non-zero");
    Fig4Results {
        first_boundary: setup.request.submitted_at + max_cl,
        search,
        oracle,
        all_remote,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_simkernel::time::SimDuration;

    #[test]
    fn scatter_plan_matches_paper_numbers() {
        let r = run_fig4();
        // "synchronization latency and computational latency are both 10".
        assert_eq!(r.all_remote.latencies.computational, SimDuration::new(10.0));
        assert_eq!(
            r.all_remote.latencies.synchronization,
            SimDuration::new(10.0)
        );
        // IV = 0.9^10 × 0.9^10.
        assert!((r.all_remote.information_value.value() - 0.9f64.powi(20)).abs() < 1e-12);
    }

    #[test]
    fn first_boundary_is_31() {
        // "the computational latency we can tolerate to wait for a better
        // solution is obviously 20, and the searching boundary is
        // 11 + 20 = 31."
        let r = run_fig4();
        assert!((r.first_boundary.value() - 31.0).abs() < 1e-9);
    }

    #[test]
    fn search_agrees_with_oracle_and_prunes() {
        let r = run_fig4();
        assert!(
            (r.search.best.information_value.value() - r.oracle.best.information_value.value())
                .abs()
                < 1e-12
        );
        assert!(r.search.plans_explored <= r.oracle.plans_explored);
    }

    #[test]
    fn optimum_beats_all_remote_scatter_plan() {
        // Replicas are cheap (cost 2 vs 10) and reasonably fresh; some
        // combination must beat the all-base plan.
        let r = run_fig4();
        assert!(r.search.best.information_value.value() > r.all_remote.information_value.value());
    }

    #[test]
    fn sync_order_matches_paper() {
        // Last syncs at t=11 must order R4 < R1 < R2 < R3.
        let s = fig4_setup();
        let at = SimTime::new(11.0);
        let last = |i: u32| s.timelines.last_sync(TableId::new(i), at).unwrap().value();
        assert_eq!(last(3), 2.0); // R4
        assert_eq!(last(0), 4.0); // R1
        assert_eq!(last(1), 6.0); // R2
        assert_eq!(last(2), 8.0); // R3
                                  // The very next sync is R4's at 14.
        let next = s
            .timelines
            .next_sync_among(&(0..4).map(TableId::new).collect::<Vec<_>>(), at)
            .unwrap();
        assert_eq!(next, (TableId::new(3), SimTime::new(14.0)));
    }

    #[test]
    fn table_renders() {
        assert!(run_fig4().to_table().contains("worked example"));
    }
}
