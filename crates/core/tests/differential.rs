//! Differential test: scatter-gather vs. the exhaustive oracle, with
//! and without injected timeline slips.
//!
//! Small enough to brute-force — at most 3 tables and 6 synchronization
//! points — so the oracle enumerates the *entire* candidate space and
//! the scatter-gather search must match its optimum exactly. The
//! faulted half of the band re-runs the same comparison on
//! [`FaultPlan::degraded_timelines`]: revised (slipped/dropped)
//! timelines are irregular finite traces, precisely the shape the
//! search's periodic-case reasoning could silently mishandle.

use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
use ivdss_core::search::{exhaustive_search, ScatterGatherSearch};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::rng::{SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::SimTime;

const SEEDS: u64 = 80;
const SYNC_POINTS: usize = 6;
const HORIZON: f64 = 400.0;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

/// A 3-table catalog with 2 replicated tables on seed-varied periods.
fn fixture(seed: u64) -> (ivdss_catalog::catalog::Catalog, SyncTimelines) {
    let seeds = SeedFactory::new(seed);
    let mut periods = UniformStream::new(2.0, 15.0, seeds.seed_for("periods"));
    let base = synthetic_catalog(&SyntheticConfig {
        tables: 3,
        sites: 2,
        replicated_tables: 0,
        seed: seeds.seed_for("catalog"),
        ..SyntheticConfig::default()
    })
    .expect("differential catalog configuration is valid");
    let mut plan = ReplicationPlan::new();
    plan.add(t(0), ReplicaSpec::new(periods.next_sample()));
    plan.add(t(1), ReplicaSpec::new(periods.next_sample()));
    let catalog = base.with_replication(plan).expect("replication is valid");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    (catalog, timelines)
}

/// Asserts scatter-gather (capped at [`SYNC_POINTS`]) matches the
/// oracle's optimum over the identical candidate space.
fn assert_search_matches_oracle(
    catalog: &ivdss_catalog::catalog::Catalog,
    timelines: &SyncTimelines,
    rates: DiscountRates,
    request: &QueryRequest,
    label: &str,
) {
    let model = StylizedCostModel::paper_fig4();
    let ctx = PlanContext {
        catalog,
        timelines,
        model: &model,
        rates,
        queues: &NoQueues,
    };
    let sg = ScatterGatherSearch::with_max_sync_points(SYNC_POINTS)
        .search_from(&ctx, request, request.submitted_at)
        .expect("scatter-gather is feasible");
    let ex = exhaustive_search(&ctx, request, SYNC_POINTS).expect("oracle is feasible");
    let (sg_iv, ex_iv) = (
        sg.best.information_value.value(),
        ex.best.information_value.value(),
    );
    assert!(
        (sg_iv - ex_iv).abs() <= 1e-12,
        "{label}: scatter-gather IV {sg_iv} != oracle IV {ex_iv} \
         (sg explored {}, oracle explored {})",
        sg.plans_explored,
        ex.plans_explored
    );
    assert!(
        sg.plans_explored <= ex.plans_explored,
        "{label}: pruning must never explore more than the oracle"
    );
}

#[test]
fn scatter_gather_matches_oracle_with_and_without_slips() {
    let mut degraded_differs = 0u64;
    for seed in 0..SEEDS {
        let seeds = SeedFactory::new(seed ^ 0xD1FF);
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
        let footprints: [&[TableId]; 3] = [&[t(0), t(1), t(2)], &[t(0), t(1)], &[t(1), t(2)]];
        for (i, tables) in footprints.into_iter().enumerate() {
            let request = QueryRequest::new(
                QuerySpec::new(QueryId::new(i as u64), tables.to_vec()),
                SimTime::new(submit.next_sample()),
            );
            assert_search_matches_oracle(
                &catalog,
                &nominal,
                rates,
                &request,
                &format!("seed {seed} footprint {i} nominal"),
            );
            assert_search_matches_oracle(
                &catalog,
                &degraded,
                rates,
                &request,
                &format!("seed {seed} footprint {i} degraded"),
            );
        }
    }
    // The faulted half must not vacuously re-test the nominal timelines.
    assert!(
        degraded_differs > SEEDS * 3 / 4,
        "most seeds should actually degrade the timelines, got {degraded_differs}/{SEEDS}"
    );
}

/// Runs the deep-capped search for one request under the given
/// timelines and returns the optimal IV.
fn optimum(
    catalog: &ivdss_catalog::catalog::Catalog,
    timelines: &SyncTimelines,
    rates: DiscountRates,
    request: &QueryRequest,
) -> f64 {
    let model = StylizedCostModel::paper_fig4();
    let ctx = PlanContext {
        catalog,
        timelines,
        model: &model,
        rates,
        queues: &NoQueues,
    };
    ScatterGatherSearch::with_max_sync_points(64)
        .search_from(&ctx, request, request.submitted_at)
        .expect("search is feasible")
        .best
        .information_value
        .value()
}

#[test]
fn dropped_syncs_never_raise_the_optimum() {
    // Dropping a completion makes every replica read at or after it
    // strictly staler, so a drops-only fault plan can never raise any
    // query's optimal IV. (Slips are deliberately excluded — see
    // `a_slip_can_raise_one_querys_optimum` below.)
    //
    // Both searches run with a deep sync-point cap: under a shallow cap
    // the comparison is unfair, because dropped syncs stretch the same
    // number of points over a longer wall-clock window, letting the
    // degraded search consider late releases the nominal search never
    // reaches. (The IV-boundary pruning still terminates the search.)
    let rates = DiscountRates::new(0.02, 0.08);
    for seed in 0..SEEDS {
        let (catalog, nominal) = fixture(seed);
        let faults = FaultPlan::generate(
            &FaultConfig {
                drop_probability: 0.4,
                horizon: SimTime::new(HORIZON),
                ..FaultConfig::default()
            },
            &nominal,
            catalog.site_count(),
            seed ^ 0x5EED,
        );
        let degraded = faults.degraded_timelines(&nominal);
        let request = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1), t(2)]),
            SimTime::new(17.0),
        );
        let clean = optimum(&catalog, &nominal, rates, &request);
        let faulty = optimum(&catalog, &degraded, rates, &request);
        assert!(
            faulty <= clean + 1e-9,
            "seed {seed}: drops-degraded optimum {faulty} beats nominal optimum {clean}"
        );
    }
}

#[test]
fn a_slip_can_raise_one_querys_optimum() {
    // Slips are NOT pointwise degrading, and this pins the reason: a
    // slipped synchronization completes late but carries data current as
    // of its *completion*, so the slip inserts a fresh sync point into
    // the gap between a query's submission and its next nominal refresh.
    // At this seed, table 0's sync scheduled at t≈9.35 slips to t≈17.54;
    // a query submitted at t=17.0 would nominally wait until t≈18.70 for
    // fresh data, but under the slip it gets a refresh sooner and pays
    // less CL for the same SL. The *aggregate* effect of slips across a
    // workload is still negative (see the serving chaos suite); the
    // per-query direction is simply not an invariant.
    let rates = DiscountRates::new(0.02, 0.08);
    let (catalog, nominal) = fixture(1);
    let faults = FaultPlan::generate(
        &FaultConfig {
            slip_probability: 0.4,
            drop_probability: 0.15,
            slip_delay: (1.0, 10.0),
            horizon: SimTime::new(HORIZON),
            ..FaultConfig::default()
        },
        &nominal,
        catalog.site_count(),
        1 ^ 0x5EED,
    );
    let degraded = faults.degraded_timelines(&nominal);
    let request = QueryRequest::new(
        QuerySpec::new(QueryId::new(0), vec![t(0), t(1), t(2)]),
        SimTime::new(17.0),
    );
    let clean = optimum(&catalog, &nominal, rates, &request);
    let faulty = optimum(&catalog, &degraded, rates, &request);
    assert!(
        faulty > clean,
        "this seed demonstrates a slip helping one query \
         (degraded {faulty} vs nominal {clean}); if it stopped, the slip \
         semantics changed"
    );
}
