//! Cluster-vs-single differential suite.
//!
//! Two anchor properties over 100 seeded workloads each:
//!
//! 1. **Degeneracy**: a 1-shard cluster is *bit-identical* — same
//!    plans, same delivered IV, same metrics snapshot — to a bare
//!    [`ServeEngine`] fed the same arrival sequence, with the plan cache
//!    on and with it off (a fresh search per dispatch). The cluster
//!    layer (routing, restricted timelines, steal pass, lockstep
//!    driving) must add exactly nothing when there is nothing to shard.
//! 2. **Stealing is non-destructive**: on a 2-shard cluster where one
//!    shard owns every replica (so the other is a pure helper that can
//!    only receive stolen work), total realized IV with work stealing
//!    enabled is ≥ the same seeded run without it — the IV guard only
//!    ever moves a query when the move strictly beats staying put.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::{ShardId, TableId};
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::sharding::{ShardAssignment, ShardStrategy};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_cluster::{Cluster, ClusterConfig, ShardRouter, ShardTimelines};
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::{Completion, ServeConfig, ServeEngine};
use ivdss_serve::metrics::MetricsSnapshot;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::SimDuration;
use ivdss_workloads::stream::ArrivalStream;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

const SEED_COUNT: u64 = 100;
const QUERIES: usize = 10;

fn scenario_catalog(seed: u64, replicated: usize) -> Catalog {
    synthetic_catalog(&SyntheticConfig {
        tables: 8,
        sites: 3,
        placement: PlacementStrategy::Skewed,
        replicated_tables: replicated,
        mean_sync_period: 5.0,
        seed,
        ..SyntheticConfig::default()
    })
    .expect("differential catalog configuration is valid")
}

fn arrivals(seed: u64) -> Vec<QueryRequest> {
    let seeds = SeedFactory::new(seed);
    let templates = random_queries(&RandomQueryConfig {
        queries: 5,
        tables: 8,
        max_tables_per_query: 4,
        weight_range: (0.8, 2.0),
        seed: seeds.seed_for("queries"),
    });
    ArrivalStream::new(templates, 2.0, seeds.seed_for("arrivals")).take_requests(QUERIES)
}

/// Runs a bare engine over the arrival sequence; returns its final
/// snapshot plus every completion in dispatch order.
fn run_bare(
    catalog: &Catalog,
    timelines: &SyncTimelines,
    config: ServeConfig,
    requests: &[QueryRequest],
) -> (MetricsSnapshot, Vec<Completion>) {
    let model = StylizedCostModel::paper_fig4();
    let mut engine = ServeEngine::new(catalog, timelines, &model, config, DesClock::new());
    let mut completed = Vec::new();
    for request in requests {
        let report = engine.submit(request.clone()).expect("bare submit plans");
        completed.extend(report.completed);
    }
    completed.extend(engine.drain().expect("bare drain plans"));
    (engine.snapshot(), completed)
}

/// Runs an N-shard cluster over the arrival sequence; returns the
/// per-shard snapshots plus every completion (with its shard tag) in
/// dispatch order, and the steal count.
fn run_cluster(
    catalog: &Catalog,
    n_shards: usize,
    config: ClusterConfig,
    requests: &[QueryRequest],
    seed: u64,
) -> (Vec<MetricsSnapshot>, Vec<(ShardId, Completion)>, u64) {
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let assignment = ShardAssignment::partition(catalog, n_shards, ShardStrategy::Balanced, seed);
    let router = ShardRouter::new(assignment);
    let shard_timelines = ShardTimelines::build(&timelines, &router);
    let model = StylizedCostModel::paper_fig4();
    let mut cluster = Cluster::new(
        catalog,
        &shard_timelines,
        &model,
        router,
        config,
        DesClock::new(),
    );
    let mut completed = Vec::new();
    for request in requests {
        let report = cluster
            .submit(request.clone())
            .expect("cluster submit plans");
        completed.extend(report.completed);
    }
    completed.extend(cluster.drain().expect("cluster drain plans").completed);
    let snapshot = cluster.snapshot();
    (snapshot.shards, completed, snapshot.steals)
}

#[test]
fn one_shard_cluster_is_bit_identical_to_a_bare_engine() {
    for seed in 0..SEED_COUNT {
        let catalog = scenario_catalog(SeedFactory::new(seed).seed_for("catalog"), 4);
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        let requests = arrivals(seed);
        for use_cache in [true, false] {
            let mut config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
            config.use_cache = use_cache;
            let case = format!("seed {seed}, use_cache {use_cache}");

            let (bare_snapshot, bare_completed) = run_bare(&catalog, &timelines, config, &requests);
            let cluster_config = ClusterConfig {
                serve: config,
                steal: true,
            };
            let (shards, cluster_completed, steals) =
                run_cluster(&catalog, 1, cluster_config, &requests, seed);

            assert_eq!(steals, 0, "{case}: nothing to steal with one shard");
            assert_eq!(shards.len(), 1);
            // Plans and IV, completion by completion, bit for bit.
            assert_eq!(
                bare_completed.len(),
                cluster_completed.len(),
                "{case}: completion counts diverged"
            );
            for (bare, (shard, clustered)) in bare_completed.iter().zip(&cluster_completed) {
                assert_eq!(*shard, ShardId::new(0));
                assert_eq!(bare, clustered, "{case}: completion diverged");
            }
            // The full metrics registry, including histograms and
            // time-weighted queue depths.
            assert_eq!(
                bare_snapshot, shards[0],
                "{case}: metrics snapshot diverged"
            );
            assert_eq!(
                bare_snapshot.to_text(),
                shards[0].to_text(),
                "{case}: metrics exposition diverged"
            );
        }
    }
}

/// A workload in which every query touches the single replicated table,
/// so with 2 shards every query routes to the owner (shard 0) and the
/// helper shard can only receive stolen work.
fn helper_shard_arrivals(catalog: &Catalog, seed: u64) -> Vec<QueryRequest> {
    let replicated: Vec<TableId> = catalog
        .replication()
        .iter()
        .map(|(table, _)| table)
        .collect();
    assert_eq!(replicated.len(), 1, "scenario wants exactly one replica");
    let anchor = replicated[0];
    let table_count = catalog.table_count() as u64;
    let templates: Vec<QuerySpec> = (0..4u64)
        .map(|i| {
            // Footprint: the replicated anchor plus one or two seeded
            // extra base tables — enough variety to exercise planning
            // without ever escaping the owner's coverage.
            let mut tables = vec![anchor];
            let extra = TableId::new(((seed.wrapping_mul(31) + i * 7) % table_count) as u32);
            if extra != anchor {
                tables.push(extra);
            }
            QuerySpec::new(QueryId::new(i), tables)
        })
        .collect();
    ArrivalStream::new(
        templates,
        0.5,
        SeedFactory::new(seed).seed_for("helper-arrivals"),
    )
    .take_requests(QUERIES)
}

#[test]
fn stealing_never_lowers_total_realized_iv() {
    let mut total_steals = 0u64;
    for seed in 0..SEED_COUNT {
        let catalog = scenario_catalog(SeedFactory::new(seed).seed_for("catalog"), 1);
        let requests = helper_shard_arrivals(&catalog, seed);
        // A zero-tolerance dispatch gate makes the owner's queue build
        // up between arrivals, giving the steal pass real work. A
        // CL-only discount makes IV strictly decreasing in finish time,
        // so executing now on the idle helper beats waiting out the
        // owner's backlog (steals fire), and removing work from a queue
        // can only ever pull the remaining finish times earlier — which
        // makes the ≥ assertion below exact rather than statistical.
        let mut serve = ServeConfig::new(DiscountRates::new(0.05, 0.0));
        serve.dispatch_backlog = SimDuration::ZERO;

        let (with_shards, _, steals) = run_cluster(
            &catalog,
            2,
            ClusterConfig { serve, steal: true },
            &requests,
            seed,
        );
        let (without_shards, _, no_steals) = run_cluster(
            &catalog,
            2,
            ClusterConfig {
                serve,
                steal: false,
            },
            &requests,
            seed,
        );
        assert_eq!(no_steals, 0, "seed {seed}: steal pass disabled");
        total_steals += steals;

        let iv_with: f64 = with_shards.iter().map(|s| s.total_delivered_iv).sum();
        let iv_without: f64 = without_shards.iter().map(|s| s.total_delivered_iv).sum();
        assert!(
            iv_with >= iv_without - 1e-9,
            "seed {seed}: stealing lowered total IV ({iv_with} < {iv_without})"
        );
        // No query is lost either way.
        let delivered_with: u64 = with_shards.iter().map(|s| s.queries_completed).sum();
        let shed_with: u64 = with_shards.iter().map(|s| s.queries_shed).sum();
        assert_eq!(
            delivered_with + shed_with,
            QUERIES as u64,
            "seed {seed}: completions + shed must cover every submission"
        );
    }
    assert!(
        total_steals > 0,
        "the scenario must actually exercise work stealing"
    );
}
