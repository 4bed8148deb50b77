//! Direct test of the floored-outage re-plan path.
//!
//! Site floors are time-dependent queue state, which the plan cache's
//! key cannot carry, so the outage re-plan bypasses the cache and runs
//! a fresh search with the floors visible. This test scripts one outage
//! over a site the nominal plan spans remotely, drives a single query
//! through [`ServeEngine`], and asserts — through the plan-decision
//! audit and the trace — that the re-plan (a) actually fired and is
//! audited as [`PlanSource::OutageReplan`], and (b) chose exactly the
//! plan, planned IV (bit for bit) and explored count that
//! [`ScatterGatherSearch::search_from`] gives over the identical
//! floored context.

use std::sync::Arc;

use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest, SiteFloors};
use ivdss_core::search::ScatterGatherSearch;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_faults::{FaultPlan, Outage};
use ivdss_obs::{PlanSource, Trace, Tracer};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{ServeConfig, ServeEngine};
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

const SUBMIT: f64 = 1.0;
const OUTAGE_END: f64 = 80.0;

#[test]
fn outage_replan_is_audited_and_matches_search_from_over_the_floors() {
    let catalog = synthetic_catalog(&SyntheticConfig {
        tables: 8,
        sites: 3,
        placement: PlacementStrategy::Skewed,
        replicated_tables: 4,
        mean_sync_period: 5.0,
        seed: 0xB7FA55,
        ..SyntheticConfig::default()
    })
    .expect("catalog configuration is valid");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let model = StylizedCostModel::paper_fig4();
    let rates = DiscountRates::new(0.01, 0.05);
    let templates = random_queries(&RandomQueryConfig {
        queries: 6,
        tables: 8,
        max_tables_per_query: 6,
        weight_range: (0.8, 2.0),
        seed: 0x5EED,
    });

    // Pick a template whose *nominal* plan leaves remote work, and the
    // site that work spans: that is the site the scripted outage takes
    // down, guaranteeing the dispatched plan trips the re-plan check.
    let nominal_ctx = PlanContext {
        catalog: &catalog,
        timelines: &timelines,
        model: &model,
        rates,
        queues: &NoQueues,
    };
    let search = ScatterGatherSearch::new();
    let (request, down_site) = templates
        .iter()
        .find_map(|spec| {
            let request = QueryRequest::new(spec.clone(), SimTime::new(SUBMIT));
            let best = search
                .search_from(&nominal_ctx, &request, request.submitted_at)
                .ok()?
                .best;
            let remote: Vec<_> = request
                .query
                .tables()
                .iter()
                .copied()
                .filter(|t| !best.local_tables.contains(t))
                .collect();
            if remote.is_empty() || best.execute_at >= SimTime::new(OUTAGE_END) {
                return None;
            }
            let site = catalog.sites_spanned(&remote).into_iter().next()?;
            Some((request, site))
        })
        .expect("some template plans remote work before the outage ends");

    let faults = FaultPlan::from_parts(
        Vec::new(),
        vec![Outage {
            site: down_site,
            start: SimTime::ZERO,
            end: SimTime::new(OUTAGE_END),
        }],
        (1.0, 1.0),
        0,
        SimTime::new(1_000.0),
    );

    let trace = Arc::new(Trace::new());
    let mut engine = ServeEngine::with_faults(
        &catalog,
        &timelines,
        &model,
        ServeConfig::new(rates),
        DesClock::new(),
        faults.clone(),
    )
    .with_tracer(Tracer::recording(Arc::clone(&trace)));

    let outcome = engine.submit(request.clone()).expect("submission plans");
    let completions: Vec<_> = outcome
        .completed
        .into_iter()
        .chain(engine.drain().expect("drain plans"))
        .collect();
    assert_eq!(completions.len(), 1, "the single query completes");
    let completion = &completions[0];
    assert!(
        completion.replanned,
        "the plan spans the down site, so dispatch must re-plan"
    );
    assert_eq!(trace.counts().get("replanned").copied().unwrap_or(0), 1);
    assert_eq!(engine.snapshot().faults_replans, 1);

    // (a): the audit records the re-plan with its search record.
    let audit = engine
        .plan_audit(request.id())
        .expect("audit collection is on by default");
    assert_eq!(audit.source, PlanSource::OutageReplan);
    let search_audit = audit
        .search
        .as_ref()
        .expect("an outage re-plan carries its full search audit");
    assert!(search_audit.explored() > 0);

    // (b): the chosen plan is exactly what the plain search picks over
    // the same floored context at the dispatch time.
    let floors = faults.site_floors(SimTime::new(SUBMIT));
    assert_eq!(floors.get(&down_site), Some(&SimTime::new(OUTAGE_END)));
    let floored = SiteFloors::new(&NoQueues, floors);
    let floored_ctx = PlanContext {
        catalog: &catalog,
        timelines: &timelines,
        model: &model,
        rates,
        queues: &floored,
    };
    let reference = search
        .search_from(&floored_ctx, &request, SimTime::new(SUBMIT))
        .expect("floored search succeeds")
        .best;
    assert_eq!(audit.chosen_release, reference.execute_at);
    assert_eq!(
        audit.chosen_local,
        reference.local_tables.iter().copied().collect::<Vec<_>>()
    );
    assert_eq!(
        audit.planned_iv.to_bits(),
        reference.information_value.value().to_bits(),
        "audited planned IV must match the floored search bit for bit"
    );
    assert_eq!(search_audit.explored(), {
        let outcome = search
            .search_from(&floored_ctx, &request, SimTime::new(SUBMIT))
            .unwrap();
        outcome.plans_explored
    });
}
