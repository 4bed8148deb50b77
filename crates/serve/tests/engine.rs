//! End-to-end tests of the serving engine: overload shedding, cache
//! behaviour under syncs, determinism, and the MQO batch-window seam.

use std::sync::Arc;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::QueryRequest;
use ivdss_core::plan::{NoQueues, PlanContext};
use ivdss_core::search::ScatterGatherSearch;
use ivdss_core::value::{BusinessValue, DiscountRates};
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_faults::FaultPlan;
use ivdss_obs::{Trace, Tracer};
use ivdss_replication::events::TimelineRevision;
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{ServeConfig, ServeEngine};
use ivdss_serve::loadgen::{run_open_loop, OpenLoopConfig};
use ivdss_simkernel::time::{SimDuration, SimTime};
use ivdss_workloads::stream::ArrivalStream;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

fn fixture() -> (Catalog, SyncTimelines, StylizedCostModel) {
    let base = synthetic_catalog(&SyntheticConfig {
        tables: 6,
        sites: 2,
        replicated_tables: 0,
        seed: 42,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut plan = ReplicationPlan::new();
    plan.add(t(0), ReplicaSpec::new(5.0));
    plan.add(t(1), ReplicaSpec::new(8.0));
    let catalog = base.with_replication(plan).unwrap();
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    (catalog, timelines, StylizedCostModel::paper_fig4())
}

fn templates() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
        QuerySpec::new(QueryId::new(1), vec![t(0), t(2)]),
        QuerySpec::new(QueryId::new(2), vec![t(1), t(3), t(4)]),
    ]
}

fn overload_config() -> ServeConfig {
    let mut config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
    config.queue_capacity = 3;
    // Dispatch only into an idle local server; with ~2-minute service
    // times and sub-minute arrivals the queue must fill.
    config.dispatch_backlog = SimDuration::ZERO;
    config
}

#[test]
fn overload_sheds_and_metrics_balance() {
    let (catalog, timelines, model) = fixture();
    let mut engine = ServeEngine::new(
        &catalog,
        &timelines,
        &model,
        overload_config(),
        DesClock::new(),
    );
    let report = run_open_loop(
        &mut engine,
        templates(),
        &OpenLoopConfig {
            queries: 200,
            mean_interarrival: 0.5,
            seed: 9,
            business_value: BusinessValue::UNIT,
        },
    )
    .unwrap();
    assert!(!report.shed.is_empty(), "undersized queue must shed");
    let snap = engine.snapshot();
    assert_eq!(snap.queries_submitted, 200);
    assert_eq!(snap.queries_shed, report.shed.len() as u64);
    // Conservation: every submitted query was either shed or delivered
    // (drain() empties the queue at the end).
    assert_eq!(snap.queries_completed + snap.queries_shed, 200);
    assert_eq!(report.completions.len() as u64, snap.queries_completed);
    assert!(snap.queue_depth_peak >= 3.0, "queue must have filled");
    assert!(snap.total_delivered_iv > 0.0);
    // Delivered IV is reported consistently between report and registry.
    assert!((report.total_delivered_iv() - snap.total_delivered_iv).abs() < 1e-9);
}

#[test]
fn cache_hits_and_sync_invalidations_accumulate() {
    let (catalog, timelines, model) = fixture();
    let config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
    let mut engine = ServeEngine::new(&catalog, &timelines, &model, config, DesClock::new());
    let report = run_open_loop(
        &mut engine,
        templates(),
        &OpenLoopConfig {
            queries: 300,
            mean_interarrival: 1.0,
            seed: 3,
            business_value: BusinessValue::UNIT,
        },
    )
    .unwrap();
    assert_eq!(report.completions.len(), 300);
    let snap = engine.snapshot();
    assert!(
        snap.plan_cache_hits > 0,
        "repeated templates in one sync window must hit"
    );
    assert!(
        snap.plan_cache_invalidations > 0,
        "periodic syncs across a 300-minute run must invalidate entries"
    );
    assert!(snap.cache_hit_rate() > 0.0 && snap.cache_hit_rate() < 1.0);
}

#[test]
fn tracing_does_not_change_what_syncs_evict() {
    // Untraced, a tick evicts by each table's latest sync in its window;
    // traced, it hands every sync to the trace and evicts by all of them.
    // Sparse arrivals make one tick cross several syncs of a table.
    let (catalog, timelines, model) = fixture();
    for mean_interarrival in [1.0, 20.0] {
        let run = |tracer: Tracer| {
            let config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
            let mut engine =
                ServeEngine::new(&catalog, &timelines, &model, config, DesClock::new())
                    .with_tracer(tracer);
            let report = run_open_loop(
                &mut engine,
                templates(),
                &OpenLoopConfig {
                    queries: 300,
                    mean_interarrival,
                    seed: 3,
                    business_value: BusinessValue::UNIT,
                },
            )
            .unwrap();
            (report, engine.snapshot())
        };
        let (untraced, untraced_snap) = run(Tracer::disabled());
        let (traced, traced_snap) = run(Tracer::recording(Arc::new(Trace::new())));
        assert_eq!(untraced, traced);
        assert_eq!(untraced_snap.plan_cache_hits, traced_snap.plan_cache_hits);
        assert_eq!(
            untraced_snap.plan_cache_invalidations,
            traced_snap.plan_cache_invalidations
        );
        assert!(untraced_snap.plan_cache_invalidations > 0);
    }
}

#[test]
fn runs_are_deterministic() {
    let (catalog, timelines, model) = fixture();
    let run = || {
        let mut engine = ServeEngine::new(
            &catalog,
            &timelines,
            &model,
            overload_config(),
            DesClock::new(),
        );
        let report = run_open_loop(
            &mut engine,
            templates(),
            &OpenLoopConfig {
                queries: 120,
                mean_interarrival: 0.7,
                seed: 77,
                business_value: BusinessValue::UNIT,
            },
        )
        .unwrap();
        (report, engine.snapshot())
    };
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(r1, r2);
    assert_eq!(s1, s2);
    assert_eq!(s1.to_text(), s2.to_text());
}

#[test]
fn dispatched_plans_equal_the_search_at_submission() {
    // The plan cache is the engine's only planner, and it is exact: every
    // dispatched plan is the scatter-and-gather search's answer under
    // `NoQueues` at the query's submission time, bit for bit.
    let (catalog, timelines, model) = fixture();
    let rates = DiscountRates::new(0.01, 0.05);
    let requests = ArrivalStream::new(templates(), 1.5, 5).take_requests(150);
    let mut engine = ServeEngine::new(
        &catalog,
        &timelines,
        &model,
        ServeConfig::new(rates),
        DesClock::new(),
    );
    for request in &requests {
        engine.submit(request.clone()).unwrap();
    }
    engine.drain().unwrap();
    assert!(engine.cache().hits() > 0 && engine.cache().misses() > 0);

    let ctx = PlanContext {
        catalog: &catalog,
        timelines: &timelines,
        model: &model,
        rates,
        queues: &NoQueues,
    };
    let search = ScatterGatherSearch::new();
    for request in &requests {
        let query = request.id();
        let audit = engine.plan_audit(query).expect("every query is dispatched");
        assert_eq!(audit.decided_at, request.submitted_at, "{query}");
        let best = search
            .search_from(&ctx, request, request.submitted_at)
            .unwrap()
            .best;
        assert_eq!(audit.chosen_release, best.execute_at, "{query}");
        assert_eq!(
            audit.chosen_local,
            best.local_tables.iter().copied().collect::<Vec<_>>(),
            "{query}"
        );
        assert_eq!(audit.planned_iv, best.information_value.value(), "{query}");
    }
}

/// A scripted revision may move a completion earlier than any sync the
/// engine's cursor expected next (`FaultPlan::generate` only slips later;
/// `FaultPlan::from_parts` takes anything). Table 0 syncs every 5; at
/// t=1 the engine learns that its t=10 sync lands at t=2 instead. By
/// t=3 that sync has completed, so the entry planned at t=1 (phase 0)
/// must be gone: an engine whose cursor still waited for t=5 would keep
/// it.
#[test]
fn an_earlier_slip_is_delivered_before_the_sync_the_cursor_expected() {
    let (catalog, timelines, model) = fixture();
    let faults = FaultPlan::from_parts(
        vec![TimelineRevision {
            revealed_at: SimTime::new(1.0),
            table: t(0),
            scheduled: SimTime::new(10.0),
            new_time: Some(SimTime::new(2.0)),
        }],
        Vec::new(),
        (1.0, 1.0),
        0,
        SimTime::new(100.0),
    );
    let config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
    let mut engine = ServeEngine::with_faults(
        &catalog,
        &timelines,
        &model,
        config,
        DesClock::new(),
        faults,
    );
    let spec = QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]);
    for (i, at) in [0.5, 1.0, 3.0].into_iter().enumerate() {
        let query = spec.with_id(QueryId::new(i as u64));
        engine
            .submit(QueryRequest::new(query, SimTime::new(at)))
            .unwrap();
        assert_eq!(
            engine
                .cache()
                .stale_entries(engine.timelines(), engine.now()),
            0,
            "t={at}: the cache keeps an entry from before a delivered sync"
        );
    }
    assert_eq!(
        engine.timelines().last_sync(t(0), SimTime::new(3.0)),
        Some(SimTime::new(2.0))
    );
}
