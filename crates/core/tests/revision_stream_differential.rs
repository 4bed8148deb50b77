//! Differential test: the arena search vs. the boxed reference search
//! under seeded revision streams.
//!
//! Per seed, a [`FaultPlan`] yields a stream of slipped and dropped
//! sync completions, re-revealed with seeded *advance notice*
//! (`revealed_at < scheduled` — an operator announcing a slip before
//! the sync was due). The belief timelines absorb each revision in
//! reveal order, and after every step each query is re-planned at its
//! floored release time, `max(submitted_at, revealed_at)`. There the
//! arena search ([`ScatterGatherSearch::search_from`]) must equal the
//! boxed reference search *bit for bit*: the whole [`SearchOutcome`],
//! counters and boundary included, not just the chosen plan.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
use ivdss_core::search::ScatterGatherSearch;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_replication::events::TimelineRevision;
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::rng::{SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::SimTime;

const SEEDS: u64 = 50;
const HORIZON: f64 = 400.0;
/// Revisions absorbed per seed: 50 seeds × 4 revisions × 2 footprints
/// gives up to 400 arena-vs-boxed comparisons (plus the pristine pass).
const REVISIONS_PER_SEED: usize = 4;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

/// A 5-table, 3-replica shape: 8-subset scatter waves and a
/// non-trivial gather walk.
fn fixture(seed: u64) -> (Catalog, SyncTimelines) {
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

/// One seed's workload: the fixture, its discount rates, two requests
/// (a wide and a narrow footprint), and a stream of its fault plan's
/// revisions re-revealed with seeded advance notice (0–10 time units
/// before the sync was due), in reveal order.
struct Scenario {
    catalog: Catalog,
    nominal: SyncTimelines,
    rates: DiscountRates,
    requests: Vec<QueryRequest>,
    stream: Vec<TimelineRevision>,
}

fn scenario(seed: u64) -> Scenario {
    let seeds = SeedFactory::new(seed ^ 0x5EED);
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

    let mut rate = UniformStream::new(0.005, 0.25, seeds.seed_for("rates"));
    let mut submit = UniformStream::new(0.0, 60.0, seeds.seed_for("submit"));
    let rates = DiscountRates::new(rate.next_sample(), rate.next_sample());
    let requests: Vec<QueryRequest> =
        [&[t(0), t(1), t(2), t(3), t(4)][..], &[t(0), t(1), t(2)][..]]
            .iter()
            .enumerate()
            .map(|(i, tables)| {
                QueryRequest::new(
                    QuerySpec::new(QueryId::new(i as u64), tables.to_vec()),
                    SimTime::new(submit.next_sample()),
                )
            })
            .collect();

    let mut notice = UniformStream::new(0.0, 10.0, seeds.seed_for("notice"));
    let mut stream: Vec<TimelineRevision> = faults
        .revisions()
        .iter()
        .take(REVISIONS_PER_SEED)
        .copied()
        .map(|mut revision| {
            let lead = notice.next_sample();
            revision.revealed_at = SimTime::new((revision.scheduled.value() - lead).max(0.0));
            revision
        })
        .collect();
    stream.sort_by(|a, b| {
        a.revealed_at
            .partial_cmp(&b.revealed_at)
            .expect("reveal times are finite")
            .then(a.table.cmp(&b.table))
    });
    Scenario {
        catalog,
        nominal,
        rates,
        requests,
        stream,
    }
}

/// Runs the arena search and the boxed reference search and pins them
/// against each other.
fn assert_arena_matches_boxed(
    search: &ScatterGatherSearch,
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    not_before: SimTime,
    label: &str,
) {
    let arena = search
        .search_from(ctx, request, not_before)
        .expect("arena search is feasible");
    let boxed = search
        .reference_search_boxed(ctx, request, not_before)
        .expect("boxed reference search is feasible");
    assert_eq!(arena, boxed, "{label}: arena diverged from boxed oracle");
}

#[test]
fn arena_search_matches_boxed_oracle_over_revision_streams() {
    let search = ScatterGatherSearch::new();
    let model = StylizedCostModel::paper_fig4();
    let horizon = SimTime::new(HORIZON);
    let mut comparisons = 0u64;
    let mut revised_seeds = 0u64;

    for seed in 0..SEEDS {
        let Scenario {
            catalog,
            nominal,
            rates,
            requests,
            stream,
        } = scenario(seed);

        // One belief per seed, revised in reveal order.
        let mut belief = nominal.clone();

        // Pristine pass: the arena against the boxed oracle before any
        // revision lands.
        for (i, request) in requests.iter().enumerate() {
            assert_arena_matches_boxed(
                &search,
                &PlanContext {
                    catalog: &catalog,
                    timelines: &belief,
                    model: &model,
                    rates,
                    queues: &NoQueues,
                },
                request,
                request.submitted_at,
                &format!("seed {seed} pristine footprint {i}"),
            );
        }

        for (r, revision) in stream.iter().enumerate() {
            if !belief.revise(revision, horizon) {
                continue; // A drop already consumed this completion.
            }
            for (i, request) in requests.iter().enumerate() {
                // Re-plan at the reveal instant, like a queued query
                // re-planned when the revision lands.
                let not_before = request.submitted_at.max(revision.revealed_at);
                assert_arena_matches_boxed(
                    &search,
                    &PlanContext {
                        catalog: &catalog,
                        timelines: &belief,
                        model: &model,
                        rates,
                        queues: &NoQueues,
                    },
                    request,
                    not_before,
                    &format!("seed {seed} revision {r} footprint {i}"),
                );
                comparisons += 1;
            }
        }
        if belief != nominal {
            revised_seeds += 1;
        }
    }

    assert!(
        comparisons >= 200,
        "the band must cover at least 200 revised workloads, got {comparisons}"
    );
    assert!(
        revised_seeds > SEEDS * 3 / 4,
        "most seeds should actually revise the belief, got {revised_seeds}/{SEEDS}"
    );
}
