//! Differential test: the memoized search (the frontier walk) vs. the
//! plain scatter-and-gather search, over seeded workloads on both
//! nominal and fault-revised synchronization timelines.
//!
//! Each request runs twice through a [`PhaseMemo`] shared per (seed,
//! timeline): a cold round that mostly records frontiers and a warm
//! round that reuses them. In both rounds the chosen plan, the final
//! boundary, and the sync points visited must match the plain search
//! exactly; only `plans_explored` may shrink (memo hits skip dominated
//! masks). The frontier walk probes every gather wave before it scores
//! any, then replays the plain walk's boundary pruning over the
//! precomputed scores, so this suite pins that the replay reproduces
//! the plain walk's decision.
//!
//! The faulted half runs on [`FaultPlan::degraded_timelines`]: slipped
//! and dropped syncs yield irregular finite traces, which exercise the
//! memo's offset keying away from the easy periodic case.

use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::memo::PhaseMemo;
use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
use ivdss_core::search::{ScatterGatherSearch, SearchOpts, SearchOutcome};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::rng::{SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::SimTime;

const SEEDS: u64 = 50;
const HORIZON: f64 = 400.0;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

/// A 5-table catalog with 3 replicated tables on seed-varied periods —
/// large enough that the scatter wave has 8 subset combinations and the
/// gather walks a non-trivial frontier.
fn fixture(seed: u64) -> (ivdss_catalog::catalog::Catalog, SyncTimelines) {
    let seeds = SeedFactory::new(seed);
    let mut periods = UniformStream::new(2.0, 15.0, seeds.seed_for("periods"));
    let base = synthetic_catalog(&SyntheticConfig {
        tables: 5,
        sites: 3,
        replicated_tables: 0,
        seed: seeds.seed_for("catalog"),
        ..SyntheticConfig::default()
    })
    .expect("differential catalog configuration is valid");
    let mut plan = ReplicationPlan::new();
    for i in 0..3 {
        plan.add(t(i), ReplicaSpec::new(periods.next_sample()));
    }
    let catalog = base.with_replication(plan).expect("replication is valid");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    (catalog, timelines)
}

fn assert_same_plan(a: &SearchOutcome, b: &SearchOutcome, label: &str) {
    assert_eq!(
        a.best.information_value, b.best.information_value,
        "{label}: information value diverged"
    );
    assert_eq!(
        a.best.local_tables, b.best.local_tables,
        "{label}: local subset diverged"
    );
    assert_eq!(
        a.best.execute_at, b.best.execute_at,
        "{label}: release time diverged"
    );
    assert_eq!(a.best.finish, b.best.finish, "{label}: finish diverged");
}

#[test]
fn parallel_planner_matches_sequential_over_seeded_workloads() {
    let search = ScatterGatherSearch::new();
    let model = StylizedCostModel::paper_fig4();
    let mut workloads = 0u64;
    let mut degraded_differs = 0u64;
    let mut memo_savings = 0u64;

    for seed in 0..SEEDS {
        let seeds = SeedFactory::new(seed ^ 0xA11E);
        let (catalog, nominal) = fixture(seed);
        let faults = FaultPlan::generate(
            &FaultConfig {
                slip_probability: 0.35,
                drop_probability: 0.1,
                slip_delay: (0.5, 6.0),
                horizon: SimTime::new(HORIZON),
                ..FaultConfig::default()
            },
            &nominal,
            catalog.site_count(),
            seeds.seed_for("faults"),
        );
        let degraded = faults.degraded_timelines(&nominal);
        if degraded != nominal {
            degraded_differs += 1;
        }

        let mut rate = UniformStream::new(0.005, 0.25, seeds.seed_for("rates"));
        let mut submit = UniformStream::new(0.0, 60.0, seeds.seed_for("submit"));
        let rates = DiscountRates::new(rate.next_sample(), rate.next_sample());
        let footprints: [&[TableId]; 2] = [&[t(0), t(1), t(2), t(3), t(4)], &[t(0), t(1), t(2)]];

        for timelines in [&nominal, &degraded] {
            let ctx = PlanContext {
                catalog: &catalog,
                timelines,
                model: &model,
                rates,
                queues: &NoQueues,
            };
            // One memo per (seed, timeline): requests at matching phase
            // offsets reuse each other's frontiers.
            let memo = PhaseMemo::new();
            for (i, tables) in footprints.into_iter().enumerate() {
                let request = QueryRequest::new(
                    QuerySpec::new(QueryId::new(i as u64), tables.to_vec()),
                    SimTime::new(submit.next_sample()),
                );
                let label = format!("seed {seed} footprint {i}");
                let sequential = search
                    .search_from(&ctx, &request, request.submitted_at)
                    .expect("sequential search is feasible");

                for round in ["cold", "warm"] {
                    // Same plan, boundary, and visit count; only the
                    // explored-plan counter may shrink.
                    let opts = SearchOpts {
                        memo: Some(&memo),
                        ..SearchOpts::default()
                    };
                    let memoized = search
                        .search_with(&ctx, &request, request.submitted_at, opts)
                        .expect("memoized search is feasible");
                    let label = format!("{label} ({round} memo)");
                    assert_same_plan(&memoized, &sequential, &label);
                    assert_eq!(
                        memoized.boundary, sequential.boundary,
                        "{label}: memoized boundary diverged"
                    );
                    assert_eq!(
                        memoized.sync_points_visited, sequential.sync_points_visited,
                        "{label}: memoized visit count diverged"
                    );
                    assert!(
                        memoized.plans_explored <= sequential.plans_explored,
                        "{label}: memo explored more plans than sequential"
                    );
                    if memoized.plans_explored < sequential.plans_explored {
                        memo_savings += 1;
                    }
                }
                workloads += 1;
            }
        }
    }

    assert!(
        workloads >= 200,
        "the band must cover at least 200 workloads, got {workloads}"
    );
    assert!(
        degraded_differs > SEEDS * 3 / 4,
        "most seeds should actually degrade the timelines, got {degraded_differs}/{SEEDS}"
    );
    assert!(
        memo_savings > 0,
        "the memo never pruned anything across the whole band"
    );
}
