//! End-to-end tests of the serving engine: overload shedding, cache
//! behaviour under syncs and tracing, determinism, exact planning, and
//! the replay of fault revisions.

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
use ivdss_obs::{EventKind, Trace, Tracer};
use ivdss_replication::events::TimelineRevision;
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::{Clock, DesClock};
use ivdss_serve::engine::{ServeConfig, ServeEngine};
use ivdss_serve::loadgen::{run_open_loop, OpenLoopConfig};
use ivdss_simkernel::time::{SimDuration, SimTime};
use ivdss_workloads::stream::ArrivalStream;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

fn fixture() -> (Catalog, SyncTimelines, StylizedCostModel) {
    fixture_with_periods(5.0, 8.0)
}

/// Six tables on two sites; tables 0 and 1 replicated with the given
/// sync periods.
fn fixture_with_periods(first: f64, second: f64) -> (Catalog, SyncTimelines, StylizedCostModel) {
    let base = synthetic_catalog(&SyntheticConfig {
        tables: 6,
        sites: 2,
        replicated_tables: 0,
        seed: 42,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut plan = ReplicationPlan::new();
    plan.add(t(0), ReplicaSpec::new(first));
    plan.add(t(1), ReplicaSpec::new(second));
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
    // A tick evicts by each table's latest sync in its window, traced or
    // not; traced, it also lists every sync of the window in the trace.
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

/// One step may cross several completions of a table: with periods 1
/// and 3, the step from t=0.5 to t=7.5 crosses seven syncs of table 0
/// and two of table 1. The engine finds them through its sync-due
/// watermark, traced or not; the tracer lists every completion of the
/// window, in (time, table) order and stamped at the step, and the
/// cache ends as an untraced twin's does.
#[test]
fn a_traced_step_lists_every_sync_it_crosses() {
    let (catalog, timelines, model) = fixture_with_periods(1.0, 3.0);
    let run = |tracer: Tracer| {
        let config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
        let mut engine = ServeEngine::new(&catalog, &timelines, &model, config, DesClock::new())
            .with_tracer(tracer);
        let spec = QuerySpec::new(QueryId::new(0), vec![t(0), t(1), t(2)]);
        for (i, at) in [0.5, 7.5].into_iter().enumerate() {
            let query = spec.with_id(QueryId::new(i as u64));
            engine
                .submit(QueryRequest::new(query, SimTime::new(at)))
                .unwrap();
        }
        let cache = engine.cache();
        (
            cache.hits(),
            cache.misses(),
            cache.invalidations(),
            cache.len(),
        )
    };
    let trace = Arc::new(Trace::new());
    let traced = run(Tracer::recording(Arc::clone(&trace)));
    assert_eq!(traced, run(Tracer::disabled()));
    // The t=7.5 step evicts the entry planned at t=0.5 and plans afresh.
    assert_eq!(traced, (0, 2, 1, 1));

    let delivered: Vec<(f64, usize, f64)> = trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SyncDelivered {
                table,
                completed_at,
            } => Some((e.at.value(), table.index(), completed_at.value())),
            _ => None,
        })
        .collect();
    let every = [
        (1.0, 0),
        (2.0, 0),
        (3.0, 0),
        (3.0, 1),
        (4.0, 0),
        (5.0, 0),
        (6.0, 0),
        (6.0, 1),
        (7.0, 0),
    ];
    let expected: Vec<(f64, usize, f64)> = every
        .iter()
        .map(|&(completed_at, table)| (7.5, table, completed_at))
        .collect();
    assert_eq!(delivered, expected);
}

/// Fault revisions replay in order from the first one revealed after the
/// engine's start. Table 0 syncs every 5 and table 1 every 8; the engine
/// starts at t=2. A revision revealed before or at the start is never
/// applied; one revealed exactly at the tick instant t=4 is applied at
/// that tick, and counted once although the next step repeats t=4.
#[test]
fn revisions_apply_from_the_first_tick_after_the_start_and_once() {
    let (catalog, timelines, model) = fixture();
    let revision = |revealed_at: f64, table: TableId, scheduled: f64, new_time: Option<f64>| {
        TimelineRevision {
            revealed_at: SimTime::new(revealed_at),
            table,
            scheduled: SimTime::new(scheduled),
            new_time: new_time.map(SimTime::new),
        }
    };
    let faults = FaultPlan::from_parts(
        vec![
            revision(1.0, t(0), 5.0, None),
            revision(2.0, t(0), 10.0, None),
            revision(4.0, t(1), 8.0, Some(9.0)),
        ],
        Vec::new(),
        (1.0, 1.0),
        0,
        SimTime::new(100.0),
    );
    let mut clock = DesClock::new();
    clock.advance_to(SimTime::new(2.0));
    let config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
    let mut engine = ServeEngine::with_faults(&catalog, &timelines, &model, config, clock, faults);
    let spec = QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]);
    // (submission instant, (slips, drops) applied after the step)
    let steps = [(2.0, (0, 0)), (4.0, (1, 0)), (4.0, (1, 0)), (12.0, (1, 0))];
    for (i, (at, applied)) in steps.into_iter().enumerate() {
        let query = spec.with_id(QueryId::new(i as u64));
        engine
            .submit(QueryRequest::new(query, SimTime::new(at)))
            .unwrap();
        let snap = engine.snapshot();
        assert_eq!(
            (snap.faults_syncs_slipped, snap.faults_syncs_dropped),
            applied,
            "step {i} at t={at}"
        );
    }
    let belief = engine.timelines();
    assert_eq!(
        belief.last_sync(t(0), SimTime::new(6.0)),
        Some(SimTime::new(5.0))
    );
    assert_eq!(
        belief.last_sync(t(0), SimTime::new(11.0)),
        Some(SimTime::new(10.0))
    );
    assert_eq!(
        belief.last_sync(t(1), SimTime::new(8.5)),
        Some(SimTime::ZERO)
    );
    assert_eq!(
        belief.last_sync(t(1), SimTime::new(9.0)),
        Some(SimTime::new(9.0))
    );
}
