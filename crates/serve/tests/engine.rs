//! End-to-end tests of the serving engine: overload shedding, cache
//! behaviour under syncs, determinism, and the MQO batch-window seam.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::value::{BusinessValue, DiscountRates};
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{ServeConfig, ServeEngine};
use ivdss_serve::loadgen::{run_open_loop, OpenLoopConfig};
use ivdss_simkernel::time::{SimDuration, SimTime};

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
fn cache_off_delivers_identical_iv() {
    // The cache is an exactness-preserving optimization: the delivered
    // IV stream must be bit-identical with and without it.
    let (catalog, timelines, model) = fixture();
    let run = |use_cache: bool| {
        let mut config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
        config.use_cache = use_cache;
        let mut engine = ServeEngine::new(&catalog, &timelines, &model, config, DesClock::new());
        run_open_loop(
            &mut engine,
            templates(),
            &OpenLoopConfig {
                queries: 150,
                mean_interarrival: 1.5,
                seed: 5,
                business_value: BusinessValue::UNIT,
            },
        )
        .unwrap()
        .completions
        .iter()
        .map(|c| (c.query, c.evaluation.information_value.value()))
        .collect::<Vec<_>>()
    };
    let cached = run(true);
    let fresh = run(false);
    assert_eq!(cached.len(), fresh.len());
    for ((qc, ivc), (qf, ivf)) in cached.iter().zip(fresh.iter()) {
        assert_eq!(qc, qf);
        assert!(
            (ivc - ivf).abs() <= 1e-12 * ivf.max(1.0),
            "{qc}: cached {ivc} vs fresh {ivf}"
        );
    }
}

#[test]
fn queued_queries_form_batch_windows() {
    let (catalog, timelines, model) = fixture();
    let mut engine = ServeEngine::new(
        &catalog,
        &timelines,
        &model,
        overload_config(),
        DesClock::new(),
    );
    // Fill the queue with near-simultaneous arrivals; nothing dispatches
    // while the first booking occupies the local server.
    let specs = templates();
    for (i, spec) in specs.iter().enumerate() {
        let req = ivdss_core::plan::QueryRequest::new(
            spec.with_id(QueryId::new(i as u64)),
            SimTime::new(0.1 * i as f64),
        );
        engine.submit(req).unwrap();
    }
    assert!(engine.queue_depth() > 0, "backlog gate must leave a queue");
    let windows = engine.batch_windows().unwrap();
    let grouped: usize = windows.iter().map(Vec::len).sum();
    assert_eq!(grouped, engine.queue_depth(), "windows partition the queue");
    assert!(!windows.is_empty());
}
