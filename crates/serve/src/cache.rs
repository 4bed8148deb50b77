//! Sync-phase plan cache.
//!
//! Plan search is the expensive step of serving: a scatter-and-gather
//! search evaluates every local subset at every candidate release time.
//! But under a [`NoQueues`] planning context the search's verdict depends
//! on the query only through its footprint and cost profile, and on time
//! only through *where the submit instant falls between synchronizations*.
//! Within one inter-sync window each candidate's information value, as a
//! function of the submit time `s`, is `K · r^s` with exactly three
//! possible growth classes:
//!
//! * **immediate, some local replicas** — CL is constant, SL grows with
//!   `s` (the replicas age): `r = 1 − λ_SL`;
//! * **immediate, all-remote** — CL and SL are both constant:  `r = 1`;
//! * **delayed to a future sync `τ`** — SL is constant, CL shrinks as the
//!   submit instant approaches `τ`: `r = (1 − λ_CL)⁻¹`.
//!
//! Ordering *within* a class is therefore submit-invariant across the
//! window, so caching the per-class champion (at most three candidates)
//! and re-evaluating those champions at the live submit time reproduces
//! the full search's optimum **exactly** — this is verified against
//! [`ScatterGatherSearch`] by a property test. The champion enumeration
//! must only be careful to consider every sync point that could win for
//! *any* submit instant in the window: a delayed candidate at `τ` beats
//! the always-available all-remote fallback `F` only if
//! `(1 − λ_CL)^(τ − s) > F/BV`, and `s < τ₁` throughout the window, so
//! sync points up to `τ₁ + maxCL(F/BV)` suffice (bounded by a fixed cap
//! when `λ_CL = 0`).
//!
//! The cache key captures everything else the verdict depends on: the
//! footprint, the cost profile, the discount rates and the per-table
//! last-sync times (which *define* the window — any completed sync
//! changes the key, so entries for old windows can never be hit again).
//! Invalidation driven by [`SyncEvent`]s is thus garbage collection, not
//! correctness: it evicts entries whose window has closed.
//!
//! The cache assumes a fixed catalog and cost model, and a model that
//! prices a query only through its footprint and cost profile; do not
//! share one cache across differently configured engines. Business
//! value is deliberately *not* in the key — it scales every candidate's
//! IV equally and never changes the argmax.
//!
//! # Kernel
//!
//! Misses and hits both score through the search's own kernel,
//! [`SubsetArena::score`], never through [`evaluate_plan`]. A miss
//! builds one [`SubsetArena`] for the request, so the cost model runs
//! once per mask rather than once per (mask, release time), and looks
//! each replicated table's last sync up once per release time (a
//! [`Wave`]) rather than once per candidate. The entry then keeps the
//! kernel inputs of its champions only ([`SubsetArena::select`]), not the
//! whole `2^r`-row arena, and a hit re-scores them from those inputs at
//! the live submit time. The candidates, release instants and
//! tie-breaks ([`is_better_score`]) are those of the boxed enumeration
//! the property suite keeps as its oracle, so plans are bit-identical
//! to it.
//!
//! [`NoQueues`]: ivdss_core::plan::NoQueues
//! [`ScatterGatherSearch`]: ivdss_core::search::ScatterGatherSearch
//! [`evaluate_plan`]: ivdss_core::plan::evaluate_plan
//! [`Wave`]: ivdss_core::plan::Wave

use std::collections::{HashMap, VecDeque};

use ivdss_catalog::ids::TableId;
use ivdss_core::plan::{
    CandidateScore, PlanContext, PlanError, PlanEvaluation, QueryRequest, SubsetArena,
};
use ivdss_core::search::{is_better_score, replicated_footprint, DEFAULT_MAX_SYNC_POINTS};
use ivdss_replication::events::SyncEvent;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;

/// Sentinel for "this replica has never completed a sync".
const NEVER_SYNCED: u64 = u64::MAX;

/// Everything a cached planning verdict depends on (except business
/// value, which cannot change the argmax).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    /// Sorted query footprint.
    footprint: Vec<TableId>,
    /// `(weight, selectivity)` bit patterns of the cost profile.
    profile: (u64, u64),
    /// `(λ_CL, λ_SL)` bit patterns.
    rates: (u64, u64),
    /// Bit pattern of each replicated footprint table's last sync time
    /// at submission (sorted by table), identifying the inter-sync
    /// window.
    sync_phase: Vec<u64>,
}

impl PlanCacheKey {
    /// Builds the key for `request` under `ctx` at its submission time.
    #[must_use]
    pub fn for_request(ctx: &PlanContext<'_>, request: &QueryRequest) -> Self {
        let mut footprint: Vec<TableId> = request.query.tables().to_vec();
        footprint.sort_unstable();
        footprint.dedup();
        let sync_phase = footprint
            .iter()
            .filter(|&&t| ctx.timelines.has_replica(t))
            .map(|&t| {
                ctx.timelines
                    .last_sync(t, request.submitted_at)
                    .map_or(NEVER_SYNCED, |at| at.value().to_bits())
            })
            .collect();
        PlanCacheKey {
            footprint,
            profile: (
                request.query.weight().to_bits(),
                request.query.selectivity().to_bits(),
            ),
            rates: (ctx.rates.cl.rate().to_bits(), ctx.rates.sl.rate().to_bits()),
            sync_phase,
        }
    }
}

/// Whether a lookup was answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Champions were re-evaluated at the live submit time.
    Hit,
    /// The entry was populated by a fresh champion enumeration.
    Miss,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    /// Last sync time per replicated footprint table (aligned with
    /// `champions.replicated()`) when the entry was built.
    last_syncs: Vec<Option<SimTime>>,
    /// Release policy of each champion row: `None` = release immediately
    /// at the submit time; `Some(τ)` = delayed to the absolute sync point
    /// `τ` (valid for every submit instant in the entry's window, which
    /// `τ` strictly follows).
    releases: Vec<Option<SimTime>>,
    /// The kernel inputs of the per-growth-class champions (1–3 rows,
    /// aligned with `releases`).
    champions: SubsetArena,
}

impl CacheEntry {
    /// Re-scores the champions at `request`'s submit time and returns
    /// the best, exactly as the search would rank them.
    fn best(&self, ctx: &PlanContext<'_>, request: &QueryRequest) -> PlanEvaluation {
        let submit = request.submitted_at;
        let now = self.champions.wave(ctx, submit);
        let mut best: Option<(CandidateScore, usize)> = None;
        for (row, &release) in self.releases.iter().enumerate() {
            let score = match release {
                None => self.champions.score(ctx, request, &now, row),
                Some(at) => {
                    let wave = self.champions.wave(ctx, at.max(submit));
                    self.champions.score(ctx, request, &wave, row)
                }
            };
            if is_better_score(&score, best.as_ref().map(|(s, _)| s)) {
                best = Some((score, row));
            }
        }
        let (score, row) = best.expect("the all-remote champion is always cached");
        self.champions.evaluation(request, row, score)
    }
}

/// A bounded plan cache keyed by (footprint, cost profile, discount
/// rates, per-table sync phase), with FIFO eviction at capacity and
/// sync-event-driven garbage collection.
///
/// # Examples
///
/// A repeated lookup in the same sync window is a hit and returns the
/// exact search answer:
///
/// ```
/// use ivdss_catalog::ids::TableId;
/// use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
/// use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
/// use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
/// use ivdss_core::planner::{IvqpPlanner, Planner};
/// use ivdss_core::value::DiscountRates;
/// use ivdss_costmodel::model::StylizedCostModel;
/// use ivdss_costmodel::query::{QueryId, QuerySpec};
/// use ivdss_replication::timelines::{SyncMode, SyncTimelines};
/// use ivdss_serve::cache::{CacheOutcome, PlanCache};
/// use ivdss_simkernel::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base = synthetic_catalog(&SyntheticConfig {
///     tables: 3, sites: 2, replicated_tables: 0, ..SyntheticConfig::default()
/// })?;
/// let mut plan = ReplicationPlan::new();
/// plan.add(TableId::new(0), ReplicaSpec::new(6.0));
/// let catalog = base.with_replication(plan)?;
/// let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
/// let model = StylizedCostModel::paper_fig4();
/// let ctx = PlanContext {
///     catalog: &catalog,
///     timelines: &timelines,
///     model: &model,
///     rates: DiscountRates::new(0.01, 0.05),
///     queues: &NoQueues,
/// };
/// let request = QueryRequest::new(
///     QuerySpec::new(QueryId::new(7), vec![TableId::new(0), TableId::new(1)]),
///     SimTime::new(2.0),
/// );
///
/// let mut cache = PlanCache::new(64);
/// let (first, outcome) = cache.plan(&ctx, &request)?;
/// assert_eq!(outcome, CacheOutcome::Miss);
/// let (second, outcome) = cache.plan(&ctx, &request)?;
/// assert_eq!(outcome, CacheOutcome::Hit);
/// // A hit is exactly the scatter-and-gather answer, not an approximation.
/// assert_eq!(second, first);
/// assert_eq!(second, IvqpPlanner::new().select_plan(&ctx, &request)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlanCache {
    entries: HashMap<PlanCacheKey, CacheEntry>,
    insertion_order: VecDeque<PlanCacheKey>,
    capacity: usize,
    max_sync_points: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PlanCache {
            entries: HashMap::new(),
            insertion_order: VecDeque::new(),
            capacity,
            max_sync_points: DEFAULT_MAX_SYNC_POINTS,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups answered from cached champions.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh enumeration.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by synchronization events.
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Selects the IV-optimal plan for `request`, from cached champions
    /// when the (footprint, sync-phase) entry exists, populating it
    /// otherwise.
    ///
    /// The planning context must use [`NoQueues`] (or any queue
    /// estimator whose answer is state-independent); the cacheability
    /// argument in the module docs does not hold for live queues.
    ///
    /// # Errors
    ///
    /// None in practice: every candidate the cache scores is valid by
    /// construction. The [`PlanError`] result matches the search's entry
    /// points.
    ///
    /// [`NoQueues`]: ivdss_core::plan::NoQueues
    pub fn plan(
        &mut self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
    ) -> Result<(PlanEvaluation, CacheOutcome), PlanError> {
        let key = PlanCacheKey::for_request(ctx, request);
        if let Some(entry) = self.entries.get(&key) {
            self.hits += 1;
            return Ok((entry.best(ctx, request), CacheOutcome::Hit));
        }

        let (best, entry) = Self::populate(ctx, request, self.max_sync_points);
        self.misses += 1;
        while self.entries.len() >= self.capacity {
            match self.insertion_order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
        self.insertion_order.push_back(key.clone());
        self.entries.insert(key, entry);
        Ok((best, CacheOutcome::Miss))
    }

    /// Enumerates the per-class champions for `request` over one
    /// [`SubsetArena`] and returns the overall best plus the cache entry.
    fn populate(
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        max_sync_points: usize,
    ) -> (PlanEvaluation, CacheEntry) {
        let submit = request.submitted_at;
        let replicated = replicated_footprint(ctx, request);
        let arena = SubsetArena::build(ctx, request, &replicated);
        let now = arena.wave(ctx, submit);

        // Class "immediate all-remote": always feasible, constant IV
        // across the window; also the fallback that bounds how far
        // delaying can pay off.
        let all_remote = arena.score(ctx, request, &now, 0);

        // Class "immediate with local replicas".
        let mut immediate_local: Option<(CandidateScore, usize)> = None;
        for mask in 1..arena.len() {
            let score = arena.score(ctx, request, &now, mask);
            if is_better_score(&score, immediate_local.as_ref().map(|(s, _)| s)) {
                immediate_local = Some((score, mask));
            }
        }

        // Class "delayed to a future sync": enumerate sync points far
        // enough that no candidate which could win for *any* submit
        // instant in the window is missed (see module docs).
        let mut delayed: Option<(CandidateScore, usize)> = None;
        if !replicated.is_empty() {
            let fallback_ratio =
                all_remote.information_value.value() / request.business_value.value();
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
                    break;
                }
                let wave = arena.wave(ctx, sync_at);
                for mask in 1..arena.len() {
                    let score = arena.score(ctx, request, &wave, mask);
                    if is_better_score(&score, delayed.as_ref().map(|(s, _)| s)) {
                        delayed = Some((score, mask));
                    }
                }
                cursor = sync_at;
            }
        }

        let last_syncs = replicated
            .iter()
            .map(|&t| ctx.timelines.last_sync(t, submit))
            .collect();
        let mut rows = vec![0];
        let mut releases = vec![None];
        let (mut best, mut best_mask) = (all_remote, 0);
        if let Some((score, mask)) = immediate_local {
            rows.push(mask);
            releases.push(None);
            if is_better_score(&score, Some(&best)) {
                (best, best_mask) = (score, mask);
            }
        }
        if let Some((score, mask)) = delayed {
            rows.push(mask);
            releases.push(Some(score.execute_at));
            if is_better_score(&score, Some(&best)) {
                (best, best_mask) = (score, mask);
            }
        }
        (
            arena.evaluation(request, best_mask, best),
            CacheEntry {
                last_syncs,
                releases,
                champions: arena.select(&rows),
            },
        )
    }

    /// Evicts every entry whose replicated footprint includes `table` and
    /// returns how many entries were dropped. Used when `table`'s
    /// timeline is *revised* (a scheduled sync slipped or dropped): the
    /// entry's delayed champions may reference the revised sync point, so
    /// unlike ordinary sync-event GC the eviction is a correctness
    /// matter, not just garbage collection.
    pub fn invalidate_table(&mut self, table: TableId) -> usize {
        let stale: Vec<PlanCacheKey> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.champions.replicated().contains(&table))
            .map(|(key, _)| key.clone())
            .collect();
        for key in &stale {
            self.entries.remove(key);
        }
        self.insertion_order
            .retain(|key| self.entries.contains_key(key));
        self.invalidations += stale.len() as u64;
        stale.len()
    }

    /// Counts entries whose recorded sync phase disagrees with
    /// `timelines` at `now` — entries a lookup *could not hit* (the key
    /// embeds the phase) but that invalidation should have collected.
    /// The chaos suite asserts this is zero after every tick; it is an
    /// observability probe, not part of the serving path.
    #[must_use]
    pub fn stale_entries(&self, timelines: &SyncTimelines, now: SimTime) -> usize {
        self.entries
            .values()
            .filter(|entry| {
                entry
                    .champions
                    .replicated()
                    .iter()
                    .zip(&entry.last_syncs)
                    .any(|(&t, &seen)| timelines.last_sync(t, now) != seen)
            })
            .count()
    }

    /// Evicts every entry invalidated by the given synchronization
    /// events (an entry is stale once any table of its replicated
    /// footprint completed a sync after the entry's recorded phase) and
    /// returns how many entries were dropped.
    pub fn apply_sync_events(&mut self, events: &[SyncEvent]) -> usize {
        if events.is_empty() || self.entries.is_empty() {
            return 0;
        }
        let stale: Vec<PlanCacheKey> = self
            .entries
            .iter()
            .filter(|(_, entry)| {
                events.iter().any(|event| {
                    entry
                        .champions
                        .replicated()
                        .iter()
                        .position(|&t| t == event.table)
                        .is_some_and(|idx| entry.last_syncs[idx].is_none_or(|seen| seen < event.at))
                })
            })
            .map(|(key, _)| key.clone())
            .collect();
        for key in &stale {
            self.entries.remove(key);
        }
        self.insertion_order
            .retain(|key| self.entries.contains_key(key));
        self.invalidations += stale.len() as u64;
        stale.len()
    }
}
