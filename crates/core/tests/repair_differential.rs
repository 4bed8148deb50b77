//! Differential test: incremental re-planning vs. from-scratch search
//! under seeded revision streams.
//!
//! Per seed, a [`FaultPlan`] yields a stream of slipped and dropped
//! sync completions, re-revealed with seeded *advance notice*
//! (`revealed_at < scheduled` — an operator announcing a slip before
//! the sync was due; [`FaultPlan`] itself only reveals at the instant,
//! where the dirty floor coincides with the replan point and nothing
//! can be reused). The belief timelines absorb each revision in reveal
//! order while a shared [`ReplanCache`] is invalidated with the
//! revision's dirty floor — and after every step the repaired search
//! must equal **both** the from-scratch arena search and the boxed
//! reference search *bit for bit*: the whole [`SearchOutcome`],
//! counters and boundary included, not just the chosen plan. Scores
//! that survive invalidation are exactly the ones whose release times
//! precede every dirty window, so reuse is free and exact.
//!
//! A second test runs the same streams through the memoized search
//! (the frontier walk, which the serve engine's cache-off dispatch and
//! its replan-on-revision pass take) with and without the cache: two
//! memos that start empty and see the same searches must yield equal
//! outcomes, equal audits and byte-equal traces.
//!
//! A third pin shows the serve engine's floored-outage repair bypass
//! is load-bearing: a [`ReplanCache`] warmed under a stateless queue
//! belief *corrupts* a search run under [`SiteFloors`] (the replan key
//! cannot see queue state), while a fresh cache under the same floors
//! repairs exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::{SiteId, TableId};
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::memo::PhaseMemo;
use ivdss_core::plan::{NoQueues, PlanContext, PlanError, QueryRequest, SiteFloors};
use ivdss_core::repair::ReplanCache;
use ivdss_core::search::{ScatterGatherSearch, SearchOpts, SearchOutcome};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_obs::{SearchAudit, Trace, Tracer};
use ivdss_replication::events::TimelineRevision;
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::rng::{SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::SimTime;

const SEEDS: u64 = 50;
const HORIZON: f64 = 400.0;
/// Revisions absorbed per seed: 50 seeds × 4 revisions × 2 footprints
/// gives 400 repaired-vs-scratch comparisons (plus the warm-up pass).
const REVISIONS_PER_SEED: usize = 4;

fn t(i: u32) -> TableId {
    TableId::new(i)
}

/// The same 5-table, 3-replica shape the parallel differential uses:
/// 8-subset scatter waves and a non-trivial gather frontier.
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
/// before the sync was due), in reveal order. The window
/// `[revealed_at, dirty floor)` is where repair earns its keep.
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

/// The plain search, reusing and feeding `cache`.
fn repaired(
    search: &ScatterGatherSearch,
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    not_before: SimTime,
    cache: &ReplanCache,
) -> Result<SearchOutcome, PlanError> {
    let opts = SearchOpts {
        repair: Some(cache),
        ..SearchOpts::default()
    };
    search.search_with(ctx, request, not_before, opts)
}

/// Runs the three search flavours and pins them against each other;
/// returns the agreed outcome.
fn assert_triple_identical(
    search: &ScatterGatherSearch,
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    not_before: SimTime,
    cache: &ReplanCache,
    label: &str,
) -> SearchOutcome {
    let repaired =
        repaired(search, ctx, request, not_before, cache).expect("repaired search is feasible");
    let scratch = search
        .search_from(ctx, request, not_before)
        .expect("from-scratch search is feasible");
    let boxed = search
        .reference_search_boxed(ctx, request, not_before)
        .expect("boxed reference search is feasible");
    assert_eq!(repaired, scratch, "{label}: repair diverged from scratch");
    assert_eq!(scratch, boxed, "{label}: arena diverged from boxed oracle");
    scratch
}

#[test]
fn repaired_search_matches_from_scratch_over_revision_streams() {
    let search = ScatterGatherSearch::new();
    let model = StylizedCostModel::paper_fig4();
    let horizon = SimTime::new(HORIZON);
    let mut comparisons = 0u64;
    let mut total_hits = 0u64;
    let mut revised_seeds = 0u64;

    for seed in 0..SEEDS {
        let Scenario {
            catalog,
            nominal,
            rates,
            requests,
            stream,
        } = scenario(seed);

        // One belief + one cache per seed, evolving together: exactly
        // the serve engine's replan-on-revision shape.
        let mut belief = nominal.clone();
        let cache = ReplanCache::new();

        // Warm pass: populates the cache (all misses) and pins the
        // arena against the boxed oracle on the pristine belief.
        for (i, request) in requests.iter().enumerate() {
            assert_triple_identical(
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
                &cache,
                &format!("seed {seed} warm footprint {i}"),
            );
        }

        for (r, revision) in stream.iter().enumerate() {
            if !belief.revise(revision, horizon) {
                continue; // A drop already consumed this completion.
            }
            cache.invalidate_revision(revision);
            for (i, request) in requests.iter().enumerate() {
                // Re-plan at the reveal instant, like a queued query
                // being repaired when the revision lands.
                let not_before = request.submitted_at.max(revision.revealed_at);
                assert_triple_identical(
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
                    &cache,
                    &format!("seed {seed} revision {r} footprint {i}"),
                );
                comparisons += 1;
            }
        }
        if belief != nominal {
            revised_seeds += 1;
        }
        total_hits += cache.stats().hits;
    }

    assert!(
        comparisons >= 200,
        "the band must cover at least 200 repaired workloads, got {comparisons}"
    );
    assert!(
        revised_seeds > SEEDS * 3 / 4,
        "most seeds should actually revise the belief, got {revised_seeds}/{SEEDS}"
    );
    assert!(
        total_hits > 0,
        "repair never reused a score across the whole band"
    );
}

/// One memoized search under observation: its outcome, audit and
/// rendered trace.
fn observed_memo_search(
    search: &ScatterGatherSearch,
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    not_before: SimTime,
    memo: &PhaseMemo,
    repair: Option<&ReplanCache>,
) -> (SearchOutcome, SearchAudit, String) {
    let trace = Arc::new(Trace::new());
    let tracer = Tracer::recording(Arc::clone(&trace));
    let mut audit = SearchAudit::default();
    let opts = SearchOpts {
        memo: Some(memo),
        repair,
        tracer: Some(&tracer),
        audit: Some(&mut audit),
    };
    let outcome = search
        .search_with(ctx, request, not_before, opts)
        .expect("memoized search is feasible");
    (outcome, audit, trace.render())
}

#[test]
fn repaired_frontier_walk_matches_unrepaired_over_revision_streams() {
    let search = ScatterGatherSearch::new();
    let model = StylizedCostModel::paper_fig4();
    let horizon = SimTime::new(HORIZON);
    let mut comparisons = 0u64;
    let mut total_hits = 0u64;

    for seed in 0..SEEDS {
        let Scenario {
            catalog,
            nominal,
            rates,
            requests,
            stream,
        } = scenario(seed);
        let mut belief = nominal.clone();
        let cache = ReplanCache::new();
        // Two memos that start empty and see the same searches, so
        // their probes agree and only the cache differs between runs.
        let (memo_a, memo_b) = (PhaseMemo::new(), PhaseMemo::new());

        // Step 0 is the warm-up on the pristine belief; every later
        // step absorbs one revision and re-plans at its reveal instant.
        let steps = std::iter::once(None).chain(stream.iter().map(Some));
        for (step, revision) in steps.enumerate() {
            if let Some(revision) = revision {
                if !belief.revise(revision, horizon) {
                    continue; // A drop already consumed this completion.
                }
                cache.invalidate_revision(revision);
            }
            let ctx = PlanContext {
                catalog: &catalog,
                timelines: &belief,
                model: &model,
                rates,
                queues: &NoQueues,
            };
            for (i, request) in requests.iter().enumerate() {
                let not_before = revision.map_or(request.submitted_at, |r| {
                    request.submitted_at.max(r.revealed_at)
                });
                let label = format!("seed {seed} step {step} footprint {i}");
                let (with_repair, repaired_audit, repaired_trace) =
                    observed_memo_search(&search, &ctx, request, not_before, &memo_a, Some(&cache));
                let (without, audit, trace) =
                    observed_memo_search(&search, &ctx, request, not_before, &memo_b, None);
                assert_eq!(with_repair, without, "{label}: repair changed the outcome");
                assert_eq!(repaired_audit, audit, "{label}: repair changed the audit");
                assert_eq!(repaired_trace, trace, "{label}: repair changed the trace");
                comparisons += 1;
            }
        }
        total_hits += cache.stats().hits;
    }

    assert!(
        comparisons >= 200,
        "the band must cover at least 200 memoized workloads, got {comparisons}"
    );
    assert!(
        total_hits > 0,
        "repair never reused a score in the frontier walk across the whole band"
    );
}

#[test]
fn stale_cache_under_floored_outage_corrupts_what_the_bypass_protects() {
    let base = synthetic_catalog(&SyntheticConfig {
        tables: 4,
        sites: 2,
        replicated_tables: 0,
        ..SyntheticConfig::default()
    })
    .expect("base catalog configuration is valid");
    let mut plan = ReplicationPlan::new();
    plan.add(t(0), ReplicaSpec::new(8.0));
    plan.add(t(1), ReplicaSpec::new(2.0));
    let catalog = base.with_replication(plan).expect("replication is valid");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let model = StylizedCostModel::paper_fig4();
    let search = ScatterGatherSearch::new();
    // t(2) and t(3) have no replicas: every candidate reads them
    // remotely, which is exactly the work a site floor delays.
    let request = QueryRequest::new(
        QuerySpec::new(QueryId::new(9), vec![t(0), t(1), t(2), t(3)]),
        SimTime::new(11.0),
    );
    let nominal_ctx = PlanContext {
        catalog: &catalog,
        timelines: &timelines,
        model: &model,
        rates: DiscountRates::new(0.01, 0.05),
        queues: &NoQueues,
    };

    // Warm a cache under the stateless-queue belief.
    let stale = ReplanCache::new();
    let nominal = repaired(
        &search,
        &nominal_ctx,
        &request,
        request.submitted_at,
        &stale,
    )
    .expect("warming search is feasible");

    // Every site floored until t = 40: the outage-replan context.
    let floors: BTreeMap<SiteId, SimTime> = (0..catalog.site_count() as u32)
        .map(|s| (SiteId::new(s), SimTime::new(40.0)))
        .collect();
    let floored = SiteFloors::new(&NoQueues, floors);
    let floored_ctx = PlanContext {
        queues: &floored,
        ..nominal_ctx
    };
    let scratch = search
        .search_from(&floored_ctx, &request, request.submitted_at)
        .expect("floored search is feasible");
    assert_ne!(
        scratch.best.finish, nominal.best.finish,
        "the floor must actually delay the optimum for this pin to bite"
    );

    // The replan key cannot see queue state, so the warm cache serves
    // stateless scores into the floored search and corrupts it — the
    // exact divergence the serve engine's bypass rules out.
    let corrupted = repaired(
        &search,
        &floored_ctx,
        &request,
        request.submitted_at,
        &stale,
    )
    .expect("poisoned search still runs");
    assert_ne!(
        corrupted, scratch,
        "a stateless-warmed cache must visibly corrupt a floored search \
         (if it ever stops doing so, the engine bypass is dead weight)"
    );

    // Repair itself is sound under floors — only *cross-belief* reuse
    // is not: a cache warmed under the same floored belief is exact.
    let fresh = ReplanCache::new();
    let fresh_repaired = repaired(
        &search,
        &floored_ctx,
        &request,
        request.submitted_at,
        &fresh,
    )
    .expect("fresh repaired search is feasible");
    assert_eq!(
        fresh_repaired, scratch,
        "fresh-cache repair diverged under floors"
    );
}
