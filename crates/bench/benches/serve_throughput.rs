//! Serving-engine throughput on a dashboard-style stream.
//!
//! Replays a deterministic open-loop arrival stream through a
//! [`ServeEngine`], which plans every query through the sync-phase plan
//! cache. Long sync periods and repeated templates make most lookups
//! hits. The cost of the scatter-and-gather search the cache replaces is
//! the `plan_search` bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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
use std::hint::black_box;

fn fixture() -> (ivdss_catalog::Catalog, SyncTimelines, StylizedCostModel) {
    let base = synthetic_catalog(&SyntheticConfig {
        tables: 12,
        sites: 3,
        replicated_tables: 0,
        seed: 31,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut plan = ReplicationPlan::new();
    // Long sync periods keep entries valid across many arrivals, which is
    // the regime dashboards live in.
    for i in 0..6 {
        plan.add(
            TableId::new(i),
            ReplicaSpec::new(60.0 + 10.0 * f64::from(i)),
        );
    }
    let catalog = base.with_replication(plan).unwrap();
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    (catalog, timelines, StylizedCostModel::paper_fig4())
}

fn templates() -> Vec<QuerySpec> {
    // Dashboard-style repeated templates over mostly-replicated footprints:
    // each fresh plan walks a 2^5 local-subset lattice of the
    // scatter-and-gather search, so a cache hit saves real work.
    (0..8u32)
        .map(|i| {
            let mut tables: Vec<TableId> = (0..5).map(|j| TableId::new((i + j) % 6)).collect();
            tables.push(TableId::new(6 + i % 6));
            tables.dedup();
            QuerySpec::new(QueryId::new(u64::from(i)), tables)
        })
        .collect()
}

fn bench_serve_throughput(c: &mut Criterion) {
    let (catalog, timelines, model) = fixture();
    let mut group = c.benchmark_group("serve_throughput");
    for &queries in &[200usize, 600] {
        group.bench_with_input(
            BenchmarkId::new("engine", queries),
            &queries,
            |b, &queries| {
                b.iter(|| {
                    let config = ServeConfig::new(DiscountRates::new(0.01, 0.05));
                    let mut engine =
                        ServeEngine::new(&catalog, &timelines, &model, config, DesClock::new());
                    let report = run_open_loop(
                        &mut engine,
                        templates(),
                        &OpenLoopConfig {
                            queries,
                            mean_interarrival: 2.5,
                            seed: 17,
                            business_value: BusinessValue::UNIT,
                        },
                    )
                    .unwrap();
                    black_box(report.total_delivered_iv())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
