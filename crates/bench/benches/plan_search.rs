//! Plan-search benchmarks: the scatter-and-gather bounded search vs the
//! exhaustive oracle — the ablation of the paper's §3.1 pruning bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
use ivdss_core::search::{exhaustive_search, ScatterGatherSearch};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::time::SimTime;
use std::hint::black_box;

fn fixture(replicated: usize) -> (ivdss_catalog::Catalog, SyncTimelines) {
    let base = synthetic_catalog(&SyntheticConfig {
        tables: replicated + 2,
        sites: 3,
        replicated_tables: 0,
        seed: 7,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut plan = ReplicationPlan::new();
    for i in 0..replicated {
        plan.add(
            TableId::new(i as u32),
            ReplicaSpec::new(2.0 + 1.7 * i as f64),
        );
    }
    let catalog = base.with_replication(plan).unwrap();
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    (catalog, timelines)
}

fn bench_search(c: &mut Criterion) {
    let model = StylizedCostModel::paper_fig4();
    let mut group = c.benchmark_group("plan_search");
    group.sample_size(20);
    for replicated in [2usize, 4, 6] {
        let (catalog, timelines) = fixture(replicated);
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.05, 0.05),
            queues: &NoQueues,
        };
        let request = QueryRequest::new(
            QuerySpec::new(
                QueryId::new(0),
                (0..(replicated + 2) as u32).map(TableId::new).collect(),
            ),
            SimTime::new(11.0),
        );
        group.bench_with_input(
            BenchmarkId::new("scatter_gather", replicated),
            &replicated,
            |b, _| {
                b.iter(|| {
                    black_box(
                        ScatterGatherSearch::new()
                            .search_from(black_box(&ctx), black_box(&request), request.submitted_at)
                            .unwrap(),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exhaustive", replicated),
            &replicated,
            |b, _| {
                b.iter(|| {
                    black_box(exhaustive_search(black_box(&ctx), black_box(&request), 64).unwrap())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
