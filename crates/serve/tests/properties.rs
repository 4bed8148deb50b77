//! Property tests for the serving subsystem: cache exactness against the
//! full scatter-and-gather search and, bit for bit, against the boxed
//! champion enumeration the cache's arena kernel replaced; searches over
//! the cache's template arenas against searches that build their own;
//! and admission ranking over cached kernel rows against ranking by plan
//! evaluation.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::{SiteId, TableId};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_catalog::tpch::{tpch_catalog, TpchConfig};
use ivdss_core::plan::{
    evaluate_plan, NoQueues, PlanContext, PlanError, PlanEvaluation, QueryRequest, SiteFloors,
    SubsetArena,
};
use ivdss_core::search::{
    is_better, local_subsets, replicated_footprint, ScatterGatherSearch, SearchOpts, SearchOutcome,
    DEFAULT_MAX_SYNC_POINTS,
};
use ivdss_core::starvation::AgingPolicy;
use ivdss_core::value::{BusinessValue, DiscountRates};
use ivdss_costmodel::model::{AnalyticCostModel, StylizedCostModel};
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_obs::{SearchAudit, Trace, Tracer};
use ivdss_replication::events::TimelineRevision;
use ivdss_replication::schedule::Schedule;
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::admission::{AdmissionQueue, AdmitOutcome, QueuedQuery};
use ivdss_serve::cache::{CacheOutcome, PlanCache, PlanCacheKey};
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::stream::{ArrivalStream, FrequencyRatio};
use ivdss_workloads::tpch::tpch_query_specs;
use proptest::prelude::*;

/// A cached champion of the boxed oracle: release policy (`None` =
/// immediately at the submit time, `Some(τ)` = at the sync point `τ`)
/// plus local replica set.
type BoxedChampion = (Option<SimTime>, BTreeSet<TableId>);

/// The boxed champion enumeration the plan cache ran before it moved
/// onto the search's arena kernel: every candidate heap-materialized
/// through [`evaluate_plan`], per-class champions chosen by
/// [`is_better`]. Returns the miss answer, the champions an entry keeps,
/// and whether the sync-point cap cut the delayed enumeration short.
fn boxed_populate(
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    max_sync_points: usize,
) -> Result<(PlanEvaluation, Vec<BoxedChampion>, bool), PlanError> {
    let submit = request.submitted_at;
    let replicated = replicated_footprint(ctx, request);
    let subsets = local_subsets(&replicated);

    let all_remote = evaluate_plan(ctx, request, submit, &subsets[0])?;
    let mut immediate_local: Option<PlanEvaluation> = None;
    for local in &subsets[1..] {
        let eval = evaluate_plan(ctx, request, submit, local)?;
        if is_better(&eval, immediate_local.as_ref()) {
            immediate_local = Some(eval);
        }
    }

    let mut delayed: Option<PlanEvaluation> = None;
    let mut capped = false;
    if !replicated.is_empty() {
        let fallback_ratio = all_remote.information_value.value() / request.business_value.value();
        let mut horizon: Option<SimTime> = None;
        let mut cursor = submit;
        let mut visited = 0usize;
        while let Some((_, sync_at)) = ctx.timelines.next_sync_among(&replicated, cursor) {
            if visited == 0 && fallback_ratio > 0.0 {
                horizon = ctx
                    .rates
                    .cl
                    .max_latency_for_factor(fallback_ratio.min(1.0))
                    .map(|slack| sync_at + slack);
            }
            if let Some(h) = horizon {
                if sync_at > h {
                    break;
                }
            }
            visited += 1;
            if visited > max_sync_points {
                capped = true;
                break;
            }
            for local in &subsets[1..] {
                let eval = evaluate_plan(ctx, request, sync_at, local)?;
                if is_better(&eval, delayed.as_ref()) {
                    delayed = Some(eval);
                }
            }
            cursor = sync_at;
        }
    }

    let mut champions = vec![(None, BTreeSet::new())];
    let mut best = all_remote;
    if let Some(eval) = immediate_local {
        champions.push((None, eval.local_tables.clone()));
        if is_better(&eval, Some(&best)) {
            best = eval;
        }
    }
    if let Some(eval) = delayed {
        champions.push((Some(eval.execute_at), eval.local_tables.clone()));
        if is_better(&eval, Some(&best)) {
            best = eval;
        }
    }
    Ok((best, champions, capped))
}

/// The boxed hit: every champion re-evaluated at the live submit time.
fn boxed_hit(
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    champions: &[BoxedChampion],
) -> Result<PlanEvaluation, PlanError> {
    let mut best: Option<PlanEvaluation> = None;
    for (release, local) in champions {
        let execute_at = release.map_or(request.submitted_at, |at| at.max(request.submitted_at));
        let eval = evaluate_plan(ctx, request, execute_at, local)?;
        if is_better(&eval, best.as_ref()) {
            best = Some(eval);
        }
    }
    Ok(best.expect("the all-remote champion is always present"))
}

/// A submit instant `fraction` of the way from `at` to the next sync of
/// any table in the request's replicated footprint: the same
/// inter-sync window, so the same cache entry.
fn later_in_window(ctx: &PlanContext<'_>, request: &QueryRequest, fraction: f64) -> SimTime {
    let replicated = replicated_footprint(ctx, request);
    let at = request.submitted_at;
    match ctx.timelines.next_sync_among(&replicated, at) {
        Some((_, next)) => SimTime::new(at.value() + fraction * (next.value() - at.value())),
        None => at,
    }
}

/// Plans `request` (a miss on a fresh entry) and then `later` (a hit on
/// it) through `cache`, and asserts both answers are `==` to the boxed
/// oracle's. Returns whether the sync-point cap bound on the miss.
fn assert_cache_matches_boxed(
    cache: &mut PlanCache,
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    later: &QueryRequest,
) -> bool {
    let (miss, outcome) = cache.plan(ctx, request).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    let (oracle_miss, champions, capped) =
        boxed_populate(ctx, request, DEFAULT_MAX_SYNC_POINTS).unwrap();
    assert_eq!(miss, oracle_miss, "miss of {request:?}");

    let (hit, outcome) = cache.plan(ctx, later).unwrap();
    assert_eq!(outcome, CacheOutcome::Hit);
    let oracle_hit = boxed_hit(ctx, later, &champions).unwrap();
    assert_eq!(hit, oracle_hit, "hit of {later:?}");
    capped
}

/// Plans `request` through `cache`, which may hold earlier entries and
/// template arenas, and asserts the answer is `==` to the boxed
/// oracle's: a miss to a fresh boxed enumeration, whose champions `seen`
/// records under the request's key, and a hit to those champions
/// re-scored at the live submit time.
fn assert_lookup_matches_boxed(
    cache: &mut PlanCache,
    seen: &mut HashMap<PlanCacheKey, Vec<BoxedChampion>>,
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
) -> CacheOutcome {
    let key = PlanCacheKey::for_request(ctx, request);
    let (answer, outcome) = cache.plan(ctx, request).unwrap();
    match outcome {
        CacheOutcome::Miss => {
            let (oracle, champions, _) =
                boxed_populate(ctx, request, DEFAULT_MAX_SYNC_POINTS).unwrap();
            assert_eq!(answer, oracle, "miss of {request:?}");
            seen.insert(key, champions);
        }
        CacheOutcome::Hit => {
            let champions = &seen[&key];
            let oracle = boxed_hit(ctx, request, champions).unwrap();
            assert_eq!(answer, oracle, "hit of {request:?}");
        }
    }
    outcome
}

/// Five tables over two sites; tables 0–2 replicated with the given
/// periodic schedules (period, phase), so sync phases are fully
/// randomizable.
fn fixture(schedules: &[(f64, f64)]) -> (Catalog, SyncTimelines) {
    let catalog = synthetic_catalog(&SyntheticConfig {
        tables: 5,
        sites: 2,
        replicated_tables: 0,
        seed: 23,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut timelines = SyncTimelines::new();
    for (i, &(period, phase)) in schedules.iter().enumerate() {
        timelines.insert(TableId::new(i as u32), Schedule::periodic(period, phase));
    }
    (catalog, timelines)
}

fn footprint(with_t3: bool, with_t4: bool) -> Vec<TableId> {
    let mut tables = vec![TableId::new(0), TableId::new(1), TableId::new(2)];
    if with_t3 {
        tables.push(TableId::new(3));
    }
    if with_t4 {
        tables.push(TableId::new(4));
    }
    tables
}

proptest! {
    /// The headline cache property: a *hit* returns a plan whose IV is
    /// identical to a fresh scatter-and-gather search at the live submit
    /// time, across randomized sync periods, phases, footprints, rates
    /// and submit offsets. (The entry is populated at one instant of the
    /// inter-sync window and hit at a different one.)
    #[test]
    fn cache_hit_iv_matches_fresh_search(
        p0 in 1.0..20.0f64,
        p1 in 1.0..20.0f64,
        p2 in 1.0..20.0f64,
        ph0 in 0.0..1.0f64,
        ph1 in 0.0..1.0f64,
        ph2 in 0.0..1.0f64,
        lcl in 0.005..0.3f64,
        lsl in 0.005..0.3f64,
        populate_at in 0.0..50.0f64,
        offset in 0.0..0.999f64,
        with_t3 in any::<bool>(),
        with_t4 in any::<bool>(),
        bv in 0.1..10.0f64
    ) {
        let (catalog, timelines) =
            fixture(&[(p0, ph0 * p0), (p1, ph1 * p1), (p2, ph2 * p2)]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(lcl, lsl),
            queues: &NoQueues,
        };
        let tables = footprint(with_t3, with_t4);
        let replicated = [TableId::new(0), TableId::new(1), TableId::new(2)];

        let s1 = SimTime::new(populate_at);
        // A second submit instant in the same inter-sync window: strictly
        // before the next sync of any footprint table.
        let (_, next_sync) = timelines.next_sync_among(&replicated, s1).unwrap();
        let s2 = SimTime::new(
            populate_at + offset * (next_sync.value() - populate_at),
        );

        let mut cache = PlanCache::new(16);
        let req1 = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), tables.clone()),
            s1,
        );
        let (eval1, outcome1) = cache.plan(&ctx, &req1).unwrap();
        prop_assert_eq!(outcome1, CacheOutcome::Miss);
        let fresh1 = ScatterGatherSearch::new().search_from(&ctx, &req1, req1.submitted_at).unwrap();
        prop_assert!(
            (eval1.information_value.value() - fresh1.best.information_value.value()).abs()
                <= 1e-12 * fresh1.best.information_value.value().max(1.0),
            "miss path: cache {} vs search {}",
            eval1.information_value.value(),
            fresh1.best.information_value.value()
        );

        // Different id and business value must not matter: neither is in
        // the key, and BV scales every candidate equally.
        let req2 = QueryRequest::new(
            QuerySpec::new(QueryId::new(1), tables),
            s2,
        )
        .with_business_value(BusinessValue::new(bv));
        let (eval2, outcome2) = cache.plan(&ctx, &req2).unwrap();
        prop_assert_eq!(outcome2, CacheOutcome::Hit);
        let fresh2 = ScatterGatherSearch::new().search_from(&ctx, &req2, req2.submitted_at).unwrap();
        prop_assert!(
            (eval2.information_value.value() - fresh2.best.information_value.value()).abs()
                <= 1e-12 * fresh2.best.information_value.value().max(1.0),
            "hit path at s2={} (window [{}, {})): cache {} vs search {}",
            s2.value(),
            populate_at,
            next_sync.value(),
            eval2.information_value.value(),
            fresh2.best.information_value.value()
        );
    }

    /// The arena kernel is bit-identical to the boxed enumeration on the
    /// stylized fixture: the miss and a later hit in the same window are
    /// `==` to the oracle's, not merely within a tolerance.
    #[test]
    fn cache_kernel_matches_boxed_oracle_bit_for_bit(
        p0 in 1.0..20.0f64,
        p1 in 1.0..20.0f64,
        p2 in 1.0..20.0f64,
        ph0 in 0.0..1.0f64,
        ph1 in 0.0..1.0f64,
        ph2 in 0.0..1.0f64,
        lcl in 0.0..0.3f64,
        lsl in 0.005..0.3f64,
        populate_at in 0.0..50.0f64,
        offset in 0.0..0.999f64,
        with_t3 in any::<bool>(),
        with_t4 in any::<bool>(),
        bv in 0.1..10.0f64
    ) {
        let (catalog, timelines) =
            fixture(&[(p0, ph0 * p0), (p1, ph1 * p1), (p2, ph2 * p2)]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(lcl, lsl),
            queues: &NoQueues,
        };
        let tables = footprint(with_t3, with_t4);
        let request = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), tables.clone()),
            SimTime::new(populate_at),
        );
        let later = QueryRequest::new(
            QuerySpec::new(QueryId::new(1), tables),
            later_in_window(&ctx, &request, offset),
        )
        .with_business_value(BusinessValue::new(bv));
        let mut cache = PlanCache::new(4);
        assert_cache_matches_boxed(&mut cache, &ctx, &request, &later);
    }

    /// The kernel stays bit-identical to the boxed enumeration when a
    /// discount rate is zero: with `λ_CL = 0` no horizon ends the sync
    /// walk and a ceiling never falls from wave to wave; with
    /// `λ_SL = 0` a ceiling only charges computational latency.
    #[test]
    fn cache_kernel_matches_boxed_oracle_with_a_zero_rate(
        p0 in 1.0..20.0f64,
        p1 in 1.0..20.0f64,
        p2 in 1.0..20.0f64,
        ph0 in 0.0..1.0f64,
        ph1 in 0.0..1.0f64,
        ph2 in 0.0..1.0f64,
        rate in 0.005..0.3f64,
        zeroed in 0u32..3,
        populate_at in 0.0..50.0f64,
        offset in 0.0..0.999f64,
        with_t3 in any::<bool>(),
        with_t4 in any::<bool>()
    ) {
        let (catalog, timelines) =
            fixture(&[(p0, ph0 * p0), (p1, ph1 * p1), (p2, ph2 * p2)]);
        let model = StylizedCostModel::paper_fig4();
        let rates = match zeroed {
            0 => DiscountRates::new(0.0, rate),
            1 => DiscountRates::new(rate, 0.0),
            _ => DiscountRates::new(0.0, 0.0),
        };
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates,
            queues: &NoQueues,
        };
        let tables = footprint(with_t3, with_t4);
        let request = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), tables.clone()),
            SimTime::new(populate_at),
        );
        let later = QueryRequest::new(
            QuerySpec::new(QueryId::new(1), tables),
            later_in_window(&ctx, &request, offset),
        );
        let mut cache = PlanCache::new(4);
        assert_cache_matches_boxed(&mut cache, &ctx, &request, &later);
    }

    /// Queries whose footprint has no replicated table still plan
    /// through the cache (all-remote champion only) and match the fresh
    /// search.
    #[test]
    fn cache_handles_unreplicated_footprints(
        submit in 0.0..100.0f64,
        lcl in 0.005..0.3f64,
        lsl in 0.005..0.3f64
    ) {
        let (catalog, timelines) = fixture(&[(5.0, 0.0)]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(lcl, lsl),
            queues: &NoQueues,
        };
        let mut cache = PlanCache::new(4);
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![TableId::new(3), TableId::new(4)]),
            SimTime::new(submit),
        );
        let (eval, _) = cache.plan(&ctx, &req).unwrap();
        let fresh = ScatterGatherSearch::new().search_from(&ctx, &req, req.submitted_at).unwrap();
        prop_assert!(
            (eval.information_value.value() - fresh.best.information_value.value()).abs() <= 1e-12
        );
        // And the second lookup is a hit (no sync phase in the key).
        let (_, outcome) = cache.plan(&ctx, &req).unwrap();
        prop_assert_eq!(outcome, CacheOutcome::Hit);
    }
}

/// The arena kernel is bit-identical to the boxed enumeration on the
/// paper's TPC-H setting: all 22 templates, `AnalyticCostModel::paper_scale`,
/// stochastic sync traces at Fq:Fs = 1:10 and λ = 0.01, where the
/// 64-sync-point cap binds on a large share of misses.
#[test]
fn tpch_cache_kernel_matches_boxed_oracle_bit_for_bit() {
    const QUERIES: usize = 120;
    const INTERARRIVAL: f64 = 20.0;
    let catalog = tpch_catalog(&TpchConfig {
        mean_sync_period: FrequencyRatio::one_to(10.0).sync_period(INTERARRIVAL),
        ..TpchConfig::default()
    })
    .unwrap();
    let model = AnalyticCostModel::paper_scale();
    let mut capped = 0usize;
    for seed in [1u64, 2] {
        let timelines = SyncTimelines::from_plan(
            catalog.replication(),
            SyncMode::Stochastic {
                horizon: SimTime::new((QUERIES as f64 * 1.1 + 50.0) * INTERARRIVAL),
                seed,
            },
        );
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::new(0.01, 0.01),
            queues: &NoQueues,
        };
        let requests =
            ArrivalStream::new(tpch_query_specs(), INTERARRIVAL, seed).take_requests(QUERIES);
        for (i, request) in requests.iter().enumerate() {
            let later =
                QueryRequest::new(request.query.clone(), later_in_window(&ctx, request, 0.5))
                    .with_business_value(BusinessValue::new(1.0 + (i % 3) as f64));
            // A fresh cache per query, so every first lookup is a miss.
            let mut cache = PlanCache::new(1);
            if assert_cache_matches_boxed(&mut cache, &ctx, request, &later) {
                capped += 1;
            }
        }
    }
    assert!(capped > 0, "the sync-point cap never bound");
}

/// The cache stays bit-identical to the boxed enumeration while its
/// entries and template arenas are evicted and rebuilt: with capacity 3
/// against 22 round-robin TPC-H templates, every template's arena is
/// gone by the time it recurs. Each template is also planned again in
/// the next sync window, a miss that reuses the arena the previous
/// lookup built. With capacity 64 every arena is kept, and templates
/// that share a footprint but not a cost profile (Q1 and Q6 both read
/// only `lineitem`) must not share one.
#[test]
fn tpch_cache_arenas_evicted_or_kept_match_boxed_oracle() {
    for capacity in [3, 64] {
        tpch_stream_matches_boxed_oracle(capacity);
    }
}

fn tpch_stream_matches_boxed_oracle(capacity: usize) {
    const QUERIES: usize = 66;
    const INTERARRIVAL: f64 = 20.0;
    let catalog = tpch_catalog(&TpchConfig {
        mean_sync_period: FrequencyRatio::one_to(10.0).sync_period(INTERARRIVAL),
        ..TpchConfig::default()
    })
    .unwrap();
    let model = AnalyticCostModel::paper_scale();
    let timelines = SyncTimelines::from_plan(
        catalog.replication(),
        SyncMode::Stochastic {
            horizon: SimTime::new((QUERIES as f64 * 1.1 + 50.0) * INTERARRIVAL),
            seed: 3,
        },
    );
    let ctx = PlanContext {
        catalog: &catalog,
        timelines: &timelines,
        model: &model,
        rates: DiscountRates::new(0.01, 0.01),
        queues: &NoQueues,
    };
    let mut cache = PlanCache::new(capacity);
    let mut seen = HashMap::new();
    let (mut hits, mut misses) = (0usize, 0usize);
    let requests = ArrivalStream::new(tpch_query_specs(), INTERARRIVAL, 3).take_requests(QUERIES);
    for request in &requests {
        let replicated = replicated_footprint(&ctx, request);
        let later = QueryRequest::new(request.query.clone(), later_in_window(&ctx, request, 0.5));
        let mut lookups = vec![request.clone(), later];
        if let Some((_, next)) = ctx
            .timelines
            .next_sync_among(&replicated, request.submitted_at)
        {
            lookups.push(QueryRequest::new(request.query.clone(), next));
        }
        for lookup in &lookups {
            match assert_lookup_matches_boxed(&mut cache, &mut seen, &ctx, lookup) {
                CacheOutcome::Hit => hits += 1,
                CacheOutcome::Miss => misses += 1,
            }
        }
    }
    assert!(
        hits > 0 && misses > QUERIES,
        "capacity {capacity}: hits {hits}, misses {misses}"
    );
}

/// A constructed near tie on the delayed class's ceiling. Under the
/// stylized model with `λ_CL = λ_SL = 0.01`, replica A (table 0) was
/// last synced long before the submit at `s = 100` and syncs again at
/// `τ = 101`; replica B (table 1) syncs `5e-5` before and `2e-5` after
/// that. The all-local candidate released at `τ` (SL charged from B's
/// earlier sync) is beaten by the one released at `τ + 2e-5` by about
/// `1e-7` relative, and sits only about `3e-7` below the later one's
/// ceiling. A ceiling tightened by `1e-6` would drop the later
/// candidate unscored and keep the wrong champion.
#[test]
fn delayed_champion_within_a_ceiling_margin_is_not_dropped() {
    let catalog = synthetic_catalog(&SyntheticConfig {
        tables: 2,
        sites: 2,
        replicated_tables: 0,
        seed: 23,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let (a, b) = (TableId::new(0), TableId::new(1));
    let tau = 101.0;
    let mut timelines = SyncTimelines::new();
    timelines.insert(a, Schedule::trace(vec![SimTime::ZERO, SimTime::new(tau)]));
    timelines.insert(
        b,
        Schedule::trace(vec![
            SimTime::ZERO,
            SimTime::new(tau - 5e-5),
            SimTime::new(tau + 2e-5),
        ]),
    );
    let model = StylizedCostModel::paper_fig4();
    let ctx = PlanContext {
        catalog: &catalog,
        timelines: &timelines,
        model: &model,
        rates: DiscountRates::new(0.01, 0.01),
        queues: &NoQueues,
    };
    let request = QueryRequest::new(
        QuerySpec::new(QueryId::new(0), vec![a, b]),
        SimTime::new(100.0),
    );
    let later = QueryRequest::new(request.query.clone(), later_in_window(&ctx, &request, 0.5));
    let mut cache = PlanCache::new(4);
    assert_cache_matches_boxed(&mut cache, &ctx, &request, &later);

    // The fixture is the near tie it claims to be.
    let (best, _) = cache.plan(&ctx, &request).unwrap();
    assert_eq!(best.execute_at, SimTime::new(tau + 2e-5));
    assert_eq!(best.local_tables, [a, b].into_iter().collect());
    let at_tau = evaluate_plan(&ctx, &request, SimTime::new(tau), &best.local_tables).unwrap();
    let gain = best.information_value.value() / at_tau.information_value.value() - 1.0;
    assert!((0.5e-7..2e-7).contains(&gain), "gain {gain}");
}

/// `timelines` with completion `k` of each table in `(0, 60]`, for every
/// third `k`, dropped when `k % 4 == 3` and otherwise slipped by half a
/// period (earlier for odd `k`): a belief a fault plan can leave, which
/// replicates the same tables.
fn revised(timelines: &SyncTimelines) -> SyncTimelines {
    let horizon = SimTime::new(60.0);
    let mut revised = timelines.clone();
    for (table, schedule) in timelines.iter() {
        let period = schedule.mean_period().unwrap_or(1.0);
        let times = schedule.completions_in(SimTime::ZERO, horizon);
        for (k, &at) in times.iter().enumerate().step_by(3) {
            let shift = if k % 2 == 0 { 0.5 } else { -0.5 } * period;
            let revision = TimelineRevision {
                revealed_at: at,
                table,
                scheduled: at,
                new_time: (k % 4 != 3).then(|| SimTime::new(at.value() + shift)),
            };
            revised.revise(&revision, horizon);
        }
    }
    revised
}

/// A search traced and audited, with or without a prebuilt arena: its
/// outcome, its audit and the rendered trace bytes.
fn observed_search(
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    not_before: SimTime,
    arena: Option<&SubsetArena>,
) -> (SearchOutcome, SearchAudit, String) {
    let trace = Arc::new(Trace::new());
    let tracer = Tracer::recording(Arc::clone(&trace));
    let mut audit = SearchAudit::default();
    let opts = SearchOpts {
        tracer: Some(&tracer),
        audit: Some(&mut audit),
        arena,
    };
    let outcome = ScatterGatherSearch::new()
        .search_with(ctx, request, not_before, opts)
        .unwrap();
    (outcome, audit, trace.render())
}

/// The admission queue as it ranked before entries kept kernel rows:
/// every rank evaluates the all-remote plan through [`evaluate_plan`].
struct ReferenceQueue {
    entries: VecDeque<QueuedQuery>,
    capacity: usize,
    aging: AgingPolicy,
}

impl ReferenceQueue {
    fn marginal_iv(&self, ctx: &PlanContext<'_>, request: &QueryRequest, now: SimTime) -> f64 {
        let at = now.max(request.submitted_at);
        let eval = evaluate_plan(ctx, request, at, &BTreeSet::new()).unwrap();
        let waiting = (now - request.submitted_at).clamp_non_negative();
        self.aging.effective_value(eval.information_value, waiting)
    }

    fn push(&mut self, ctx: &PlanContext<'_>, queued: QueuedQuery, now: SimTime) -> AdmitOutcome {
        if self.entries.len() < self.capacity {
            self.entries.push_back(queued);
            return AdmitOutcome::Admitted;
        }
        let incoming_iv = self.marginal_iv(ctx, &queued.request, now);
        let victim = self
            .entries
            .iter()
            .enumerate()
            .map(|(idx, q)| (idx, self.marginal_iv(ctx, &q.request, now)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match victim {
            Some((idx, queued_iv)) if queued_iv < incoming_iv => {
                let shed = self.entries.remove(idx).unwrap();
                self.entries.push_back(queued);
                AdmitOutcome::AdmittedAfterShedding {
                    shed: shed.request.id(),
                    shed_marginal_iv: queued_iv,
                }
            }
            _ => AdmitOutcome::Rejected {
                marginal_iv: incoming_iv,
            },
        }
    }
}

/// An admission outcome with its marginal IV as bits.
fn outcome_bits(outcome: AdmitOutcome) -> (Option<QueryId>, Option<u64>) {
    match outcome {
        AdmitOutcome::Admitted => (None, None),
        AdmitOutcome::AdmittedAfterShedding {
            shed,
            shed_marginal_iv,
        } => (Some(shed), Some(shed_marginal_iv.to_bits())),
        AdmitOutcome::Rejected { marginal_iv } => (None, Some(marginal_iv.to_bits())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A search over the template arena the plan cache keeps equals
    /// (`==`) a search that builds its own, under nominal and revised
    /// timelines, with and without outage floors, whichever of the two
    /// timeline sets the arena was built under (they replicate the same
    /// tables); traced and audited, the audits and the trace bytes are
    /// equal too.
    #[test]
    fn search_over_a_template_arena_equals_a_fresh_search(
        periods in (1.0..15.0f64, 1.0..15.0f64, 1.0..15.0f64),
        rates in (0.005..0.2f64, 0.005..0.2f64),
        (at, not_before, floor_len) in (0.0..50.0f64, 0.0..5.0f64, 0.0..30.0f64),
        (footprint_mask, floored_sites, arena_under_revised, search_under_revised)
            in (1u8..32, 0u8..4, any::<bool>(), any::<bool>())
    ) {
        let (catalog, nominal) =
            fixture(&[(periods.0, 0.0), (periods.1, 0.3), (periods.2, 0.7)]);
        let belief = revised(&nominal);
        let model = StylizedCostModel::paper_fig4();
        let rates = DiscountRates::new(rates.0, rates.1);
        let request = QueryRequest::new(
            QuerySpec::new(
                QueryId::new(9),
                (0..5u32).filter(|t| footprint_mask & (1 << t) != 0).map(TableId::new).collect(),
            ),
            SimTime::new(at),
        );
        let not_before = SimTime::new(at + not_before);
        let floors: BTreeMap<SiteId, SimTime> = (0..2u32)
            .filter(|s| floored_sites & (1 << s) != 0)
            .map(|s| (SiteId::new(s), SimTime::new(at + floor_len)))
            .collect();
        let floored = SiteFloors::new(&NoQueues, &floors);
        let ctx_over = |timelines| PlanContext {
            catalog: &catalog,
            timelines,
            model: &model,
            rates,
            queues: &floored,
        };
        let arena_ctx = ctx_over(if arena_under_revised { &belief } else { &nominal });
        let search_ctx = ctx_over(if search_under_revised { &belief } else { &nominal });

        let mut cache = PlanCache::new(4);
        let arena = cache.arena(&arena_ctx, &request);
        let search = ScatterGatherSearch::new();
        let plain = search.search_from(&search_ctx, &request, not_before).unwrap();
        let opts = SearchOpts {
            arena: Some(arena),
            ..SearchOpts::default()
        };
        prop_assert_eq!(
            search.search_with(&search_ctx, &request, not_before, opts).unwrap(),
            plain.clone()
        );

        let over_arena = observed_search(&search_ctx, &request, not_before, Some(arena));
        let built = observed_search(&search_ctx, &request, not_before, None);
        prop_assert_eq!(&over_arena.0, &plain);
        prop_assert_eq!(over_arena, built);
    }

    /// Admission over cached kernel rows takes the decisions a queue that
    /// ranks by [`evaluate_plan`] takes, to the bit: the same victims and
    /// marginal IVs, the same entries in the same order, through offers
    /// and transfers at capacity, `pop_front`, `pop_back` and whole-queue
    /// evacuation, under outage floors that change every step and with
    /// §3.3 aging on.
    #[test]
    fn admission_over_cached_rows_matches_ranking_by_evaluation(
        (capacity, aging_rate, lcl, lsl) in (1usize..5, 0.0..0.1f64, 0.005..0.2f64, 0.005..0.2f64),
        ops in prop::collection::vec(
            (0u8..10, 1u8..32, 0.0..3.0f64, (0.05..5.0f64, 0u8..4, 0.0..20.0f64, 0.0..4.0f64)),
            1..80
        )
    ) {
        let (catalog, timelines) = fixture(&[(4.0, 0.0), (7.0, 0.5)]);
        let model = StylizedCostModel::paper_fig4();
        let rates = DiscountRates::new(lcl, lsl);
        let aging = AgingPolicy::new(aging_rate);
        let mut queue = AdmissionQueue::new(capacity, aging);
        let mut reference = ReferenceQueue {
            entries: VecDeque::new(),
            capacity,
            aging,
        };
        let mut now = SimTime::ZERO;
        for (i, &(op, footprint_mask, dt, (bv, floored_sites, floor_len, age))) in ops.iter().enumerate() {
            now = SimTime::new(now.value() + dt);
            let floors: BTreeMap<SiteId, SimTime> = (0..2u32)
                .filter(|s| floored_sites & (1 << s) != 0)
                .map(|s| (SiteId::new(s), SimTime::new(now.value() + floor_len)))
                .collect();
            let floored = SiteFloors::new(&NoQueues, &floors);
            let ctx = PlanContext {
                catalog: &catalog,
                timelines: &timelines,
                model: &model,
                rates,
                queues: &floored,
            };
            let submitted = SimTime::new((now.value() - age).max(0.0));
            let request = QueryRequest::new(
                QuerySpec::new(
                    QueryId::new(i as u64),
                    (0..5u32).filter(|t| footprint_mask & (1 << t) != 0).map(TableId::new).collect(),
                ),
                submitted,
            )
            .with_business_value(BusinessValue::new(bv));
            match op {
                0..=4 => {
                    let got = queue.offer(&ctx, request.clone(), now);
                    let want = reference.push(
                        &ctx,
                        QueuedQuery { request, enqueued_at: now },
                        now,
                    );
                    prop_assert_eq!(outcome_bits(got), outcome_bits(want));
                }
                5 | 6 => {
                    let queued = QueuedQuery { request, enqueued_at: submitted };
                    let got = queue.push(&ctx, queued.clone(), now);
                    let want = reference.push(&ctx, queued, now);
                    prop_assert_eq!(outcome_bits(got), outcome_bits(want));
                }
                7 => prop_assert_eq!(queue.pop_front(), reference.entries.pop_front()),
                8 => prop_assert_eq!(queue.pop_back(), reference.entries.pop_back()),
                _ => {
                    let evacuated: Vec<QueuedQuery> =
                        std::iter::from_fn(|| queue.pop_front()).collect();
                    let expected: Vec<QueuedQuery> = reference.entries.drain(..).collect();
                    prop_assert_eq!(evacuated, expected);
                }
            }
            prop_assert!(queue.iter().eq(reference.entries.iter()));
            prop_assert_eq!(queue.peek(), reference.entries.front());
        }
    }
}
