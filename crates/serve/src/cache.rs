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
//! correctness: it evicts entries whose window has closed. An entry keeps
//! its sync phase only in its key, and the collector reads it there.
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
//! scores over its query template's full [`SubsetArena`], in which the
//! cost model ran once per mask rather than once per (mask, release
//! time), and looks each replicated table's last sync up once per
//! release time (a [`Wave`]) rather than once per candidate. The entry
//! then keeps the kernel inputs of its champions only
//! ([`SubsetArena::select`]), not the whole `2^r`-row arena, and a hit
//! re-scores them from those inputs at the live submit time. The
//! candidates, release instants and tie-breaks ([`is_better_score`]) are
//! those of the boxed enumeration the property suite keeps as its
//! oracle, so plans are bit-identical to it.
//!
//! Two things keep a miss from doing work that cannot change its answer:
//!
//! * **The delayed class is bounded.** A row of cost `c` released at a
//!   sync `τ` has `IV ≤ BV·(1 − λ_CL)^(τ − s + c)·(1 − λ_SL)^c`
//!   ([`IvCeilings`] gives the argument). The walk keeps the masks still
//!   in the race in ascending order, and drops one for good once its
//!   ceiling, widened by 1e-9 relative, is strictly below the
//!   delayed incumbent's IV: the ceiling only falls as `τ` grows, and the
//!   incumbent only rises. The walk stops when no mask is left. The
//!   horizon, the cap, the enumeration order and the tie-breaks are
//!   unchanged; only candidates that could not have displaced the
//!   incumbent go unscored, so the champion is the one the full
//!   enumeration finds.
//! * **Arenas outlive their window.** A query template (footprint, cost
//!   profile and rates) keeps its full arena and ceilings in a FIFO
//!   bounded by the cache's capacity, so a miss in a later sync window
//!   does not re-run the cost model. Entries keep their own selected
//!   champions, so evicting a template's arena never changes a hit.
//!
//! The template arenas also serve the engine's searches outside the
//! cache — outage re-planning, the IV-lost bound and the cluster's
//! steal guard — through [`PlanCache::arena`] and
//! [`SearchOpts::arena`]: an arena depends on the catalog, the cost
//! model and which tables are replicated, never on when they sync or on
//! queue state, so one arena is exact under every timeline belief and
//! queue estimator of the engine.
//!
//! Garbage collection that evicts nothing costs one pass over the
//! entries and no rebuild of the FIFO order.
//!
//! [`NoQueues`]: ivdss_core::plan::NoQueues
//! [`ScatterGatherSearch`]: ivdss_core::search::ScatterGatherSearch
//! [`SearchOpts::arena`]: ivdss_core::search::SearchOpts::arena
//! [`evaluate_plan`]: ivdss_core::plan::evaluate_plan
//! [`Wave`]: ivdss_core::plan::Wave

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use ivdss_catalog::ids::TableId;
use ivdss_core::plan::{
    CandidateScore, IvCeilings, PlanContext, PlanError, PlanEvaluation, QueryRequest, SubsetArena,
};
use ivdss_core::search::{is_better_score, replicated_footprint, DEFAULT_MAX_SYNC_POINTS};
use ivdss_replication::events::SyncEvent;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;

/// Sentinel for "this replica has never completed a sync".
const NEVER_SYNCED: u64 = u64::MAX;

/// A query template: everything [`SubsetArena::build`] and
/// [`SubsetArena::ceilings`] read of a request besides the fixed catalog,
/// cost model and replica set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TemplateKey {
    /// The query footprint, in request order (sorted and deduplicated,
    /// as [`QuerySpec`](ivdss_costmodel::query::QuerySpec) keeps it).
    footprint: Vec<TableId>,
    /// `(weight, selectivity)` bit patterns of the cost profile.
    profile: (u64, u64),
    /// `(λ_CL, λ_SL)` bit patterns.
    rates: (u64, u64),
}

impl TemplateKey {
    fn for_request(ctx: &PlanContext<'_>, request: &QueryRequest) -> Self {
        TemplateKey {
            footprint: request.query.tables().to_vec(),
            profile: (
                request.query.weight().to_bits(),
                request.query.selectivity().to_bits(),
            ),
            rates: (ctx.rates.cl.rate().to_bits(), ctx.rates.sl.rate().to_bits()),
        }
    }
}

/// Everything a cached planning verdict depends on (except business
/// value, which cannot change the argmax).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    template: TemplateKey,
    /// Bit pattern of each replicated footprint table's last sync time
    /// at submission (sorted by table), identifying the inter-sync
    /// window.
    sync_phase: Vec<u64>,
}

impl PlanCacheKey {
    /// The last sync time of the key's `idx`-th replicated footprint
    /// table (the `idx`-th of the entry's `champions.replicated()`).
    fn last_sync(&self, idx: usize) -> Option<SimTime> {
        let bits = self.sync_phase[idx];
        (bits != NEVER_SYNCED).then(|| SimTime::new(f64::from_bits(bits)))
    }

    /// Builds the key for `request` under `ctx` at its submission time.
    #[must_use]
    pub fn for_request(ctx: &PlanContext<'_>, request: &QueryRequest) -> Self {
        let template = TemplateKey::for_request(ctx, request);
        let sync_phase = template
            .footprint
            .iter()
            .filter(|&&t| ctx.timelines.has_replica(t))
            .map(|&t| {
                ctx.timelines
                    .last_sync(t, request.submitted_at)
                    .map_or(NEVER_SYNCED, |at| at.value().to_bits())
            })
            .collect();
        PlanCacheKey {
            template,
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

/// A cached verdict. Its sync phase lives in its [`PlanCacheKey`],
/// whose `sync_phase` is aligned with `champions.replicated()`: both
/// list the footprint's replicated tables in footprint order.
#[derive(Debug, Clone)]
struct CacheEntry {
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

/// A template's full [`SubsetArena`] and its [`IvCeilings`], kept across
/// sync windows so a miss does not re-run the cost model.
#[derive(Debug, Clone)]
struct Template {
    arena: SubsetArena,
    ceilings: IvCeilings,
}

/// A `HashMap` with FIFO eviction: inserting into a full map first
/// evicts the oldest keys.
#[derive(Debug, Clone)]
struct Fifo<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Clone + Eq + Hash, V> Fifo<K, V> {
    fn new(capacity: usize) -> Self {
        Fifo {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Inserts `value` under `key`, which must be absent.
    fn insert(&mut self, key: K, value: V) {
        debug_assert!(!self.map.contains_key(&key), "keys are inserted once");
        while self.map.len() >= self.capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.map.remove(&oldest);
                }
                None => break,
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
    }

    /// Drops every entry `keep` rejects and returns how many were
    /// dropped. The FIFO order is rebuilt only when something was dropped.
    fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|key, value| keep(key, value));
        let dropped = before - self.map.len();
        if dropped > 0 {
            let map = &self.map;
            self.order.retain(|key| map.contains_key(key));
        }
        dropped
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
    entries: Fifo<PlanCacheKey, CacheEntry>,
    /// Full arenas of recent query templates, bounded by the same
    /// capacity as `entries`. Entries never point into them, so an
    /// evicted template only costs its next miss a rebuild.
    templates: Fifo<TemplateKey, Template>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` entries (and at most
    /// `capacity` query templates' arenas).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PlanCache {
            entries: Fifo::new(capacity),
            templates: Fifo::new(capacity),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.map.len()
    }

    /// `true` if the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.map.is_empty()
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
        if let Some(entry) = self.entries.map.get(&key) {
            self.hits += 1;
            return Ok((entry.best(ctx, request), CacheOutcome::Hit));
        }

        let template = Self::template(&mut self.templates, ctx, request, &key.template);
        let (best, entry) = Self::populate(ctx, request, template);
        self.misses += 1;
        self.entries.insert(key, entry);
        Ok((best, CacheOutcome::Miss))
    }

    /// The full [`SubsetArena`] of `request`'s query template under `ctx`
    /// — the arena a [`ScatterGatherSearch`] of `request` builds — from
    /// the store [`PlanCache::plan`]'s misses keep, built and stored on
    /// first use. Pass it as [`SearchOpts::arena`] so a search outside
    /// the cache does not re-run the cost model. Like the cache, the
    /// store assumes a fixed catalog, cost model and replica set; the
    /// timelines' completions and the queue estimator do not matter.
    ///
    /// [`ScatterGatherSearch`]: ivdss_core::search::ScatterGatherSearch
    /// [`SearchOpts::arena`]: ivdss_core::search::SearchOpts::arena
    pub fn arena(&mut self, ctx: &PlanContext<'_>, request: &QueryRequest) -> &SubsetArena {
        let key = TemplateKey::for_request(ctx, request);
        &Self::template(&mut self.templates, ctx, request, &key).arena
    }

    /// The stored template under `key` (`request`'s under `ctx`), built
    /// and inserted if absent.
    fn template<'c>(
        templates: &'c mut Fifo<TemplateKey, Template>,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        key: &TemplateKey,
    ) -> &'c Template {
        if !templates.map.contains_key(key) {
            let arena = SubsetArena::build(ctx, request, &replicated_footprint(ctx, request));
            let ceilings = arena.ceilings(ctx.rates);
            templates.insert(key.clone(), Template { arena, ceilings });
        }
        &templates.map[key]
    }

    /// Enumerates the per-class champions for `request` over its
    /// template's [`SubsetArena`] and returns the overall best plus the
    /// cache entry.
    fn populate(
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        template: &Template,
    ) -> (PlanEvaluation, CacheEntry) {
        let Template { arena, ceilings } = template;
        let submit = request.submitted_at;
        let replicated = arena.replicated();
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
        // instant in the window is missed (see module docs). A mask
        // leaves `live` once its ceiling falls below the incumbent's IV;
        // it could never have displaced the incumbent, so the champion
        // is the one the full enumeration finds.
        let mut delayed: Option<(CandidateScore, usize)> = None;
        if !replicated.is_empty() {
            let fallback_ratio =
                all_remote.information_value.value() / request.business_value.value();
            let mut horizon: Option<SimTime> = None;
            let mut cursor = submit;
            let mut visited = 0usize;
            let mut live: Vec<usize> = (1..arena.len()).collect();
            while let Some((_, sync_at)) = ctx.timelines.next_sync_among(replicated, cursor) {
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
                if visited > DEFAULT_MAX_SYNC_POINTS {
                    break;
                }
                // The versions are looked up only if some mask survives:
                // the last wave usually drops every one unscored.
                let mut wave = None;
                let release = ceilings.release(request, sync_at);
                live.retain(|&mask| {
                    if let Some((incumbent, _)) = &delayed {
                        let iv = incumbent.information_value.value();
                        if ceilings.rules_out(release, mask, iv) {
                            return false;
                        }
                    }
                    let wave = wave.get_or_insert_with(|| arena.wave(ctx, sync_at));
                    let score = arena.score(ctx, request, wave, mask);
                    if is_better_score(&score, delayed.as_ref().map(|(s, _)| s)) {
                        delayed = Some((score, mask));
                    }
                    true
                });
                if live.is_empty() {
                    break;
                }
                cursor = sync_at;
            }
        }

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
    /// matter, not just garbage collection. Template arenas do not depend
    /// on the timelines and stay.
    pub fn invalidate_table(&mut self, table: TableId) -> usize {
        let evicted = self
            .entries
            .retain(|_, entry| !entry.champions.replicated().contains(&table));
        self.invalidations += evicted as u64;
        evicted
    }

    /// Counts entries whose recorded sync phase disagrees with
    /// `timelines` at `now` — entries a lookup *could not hit* (the key
    /// embeds the phase) but that invalidation should have collected.
    /// The chaos suite asserts this is zero after every tick; it is an
    /// observability probe, not part of the serving path.
    #[must_use]
    pub fn stale_entries(&self, timelines: &SyncTimelines, now: SimTime) -> usize {
        self.entries
            .map
            .iter()
            .filter(|(key, entry)| {
                entry
                    .champions
                    .replicated()
                    .iter()
                    .enumerate()
                    .any(|(idx, &t)| timelines.last_sync(t, now) != key.last_sync(idx))
            })
            .count()
    }

    /// Evicts every entry invalidated by the given synchronization
    /// events (an entry is stale once any table of its replicated
    /// footprint completed a sync after the entry's recorded phase) and
    /// returns how many entries were dropped. Only each table's latest
    /// event can decide that, so each table's latest sync of a window
    /// ([`SyncEventCursor::advance_latest`]) evicts exactly what every
    /// sync of the window ([`SyncEventCursor::advance_to`]) evicts.
    ///
    /// [`SyncEventCursor::advance_latest`]: ivdss_replication::events::SyncEventCursor::advance_latest
    /// [`SyncEventCursor::advance_to`]: ivdss_replication::events::SyncEventCursor::advance_to
    pub fn apply_sync_events(&mut self, events: &[SyncEvent]) -> usize {
        if events.is_empty() || self.entries.map.is_empty() {
            return 0;
        }
        let evicted = self.entries.retain(|key, entry| {
            !events.iter().any(|event| {
                entry
                    .champions
                    .replicated()
                    .iter()
                    .position(|&t| t == event.table)
                    .is_some_and(|idx| key.last_sync(idx).is_none_or(|seen| seen < event.at))
            })
        });
        self.invalidations += evicted as u64;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_core::plan::NoQueues;
    use ivdss_core::value::DiscountRates;
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_replication::events::{SyncEventCursor, TimelineRevision};
    use ivdss_replication::schedule::Schedule;
    use proptest::prelude::*;

    use super::*;

    const HORIZON: f64 = 60.0;

    /// Tables `0..schedules.len()` replicated: `kind` 0 keeps the
    /// periodic schedule, 1 lists every completion twice in a trace, 2
    /// slips or drops every third completion through a revision.
    fn timelines(schedules: &[(u8, f64, f64)]) -> SyncTimelines {
        let horizon = SimTime::new(HORIZON);
        let mut timelines = SyncTimelines::new();
        for (i, &(kind, period, phase)) in schedules.iter().enumerate() {
            let table = TableId::new(i as u32);
            let periodic = Schedule::periodic(period, phase);
            let times = periodic.materialize(horizon);
            if kind % 3 == 1 {
                let doubled = times.iter().chain(&times).copied().collect();
                timelines.insert(table, Schedule::trace(doubled));
                continue;
            }
            timelines.insert(table, periodic);
            if kind % 3 == 2 {
                for (k, &at) in times.iter().enumerate().step_by(3) {
                    let revision = TimelineRevision {
                        revealed_at: at,
                        table,
                        scheduled: at,
                        new_time: (k % 2 == 0).then(|| SimTime::new(at.value() + period / 2.0)),
                    };
                    timelines.revise(&revision, horizon);
                }
            }
        }
        timelines
    }

    fn keys(cache: &PlanCache) -> HashSet<PlanCacheKey> {
        cache.entries.map.keys().cloned().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Passing each table's latest sync of a window evicts the same
        /// entries, with the same count, as passing every sync of it.
        #[test]
        fn latest_syncs_evict_what_every_sync_evicts(
            schedules in prop::collection::vec((0u8..3, 1.0..15.0f64, 0.0..1.0f64), 1..5),
            queries in prop::collection::vec((1u8..32, 0.0..HORIZON), 1..24),
            window in (0.0..HORIZON, 0.0..HORIZON, any::<bool>()),
        ) {
            let schedules: Vec<(u8, f64, f64)> =
                schedules.into_iter().map(|(k, p, ph)| (k, p, ph * p)).collect();
            let timelines = timelines(&schedules);
            let catalog = synthetic_catalog(&SyntheticConfig {
                tables: 5,
                sites: 2,
                replicated_tables: 0,
                seed: 29,
                ..SyntheticConfig::default()
            })
            .expect("fixture catalog is valid");
            let model = StylizedCostModel::paper_fig4();
            let ctx = PlanContext {
                catalog: &catalog,
                timelines: &timelines,
                model: &model,
                rates: DiscountRates::new(0.02, 0.05),
                queues: &NoQueues,
            };
            let mut cache = PlanCache::new(64);
            for (i, &(mask, at)) in queries.iter().enumerate() {
                let tables = (0..5u32)
                    .filter(|t| mask & (1 << t) != 0)
                    .map(TableId::new)
                    .collect();
                let request =
                    QueryRequest::new(QuerySpec::new(QueryId::new(i as u64), tables), SimTime::new(at));
                cache.plan(&ctx, &request).expect("the fixture plans");
            }

            let (mut from, mut to) = (SimTime::new(window.0), SimTime::new(window.1));
            if window.2 {
                // The window starts and ends on completion instants.
                let first = timelines.schedule(TableId::new(0)).expect("table 0 is replicated");
                from = first.last_completion_at(from).unwrap_or(from);
                to = first.next_completion_after(to).unwrap_or(to);
            }
            let every = SyncEventCursor::new(from).advance_to(&timelines, to);
            let mut latest = Vec::new();
            SyncEventCursor::new(from).advance_latest(&timelines, to, &mut latest);
            for table in timelines.iter().map(|(t, _)| t) {
                let last = every.iter().filter(|e| e.table == table).map(|e| e.at).max();
                let reduced = latest.iter().find(|e| e.table == table).map(|e| e.at);
                prop_assert_eq!(last, reduced);
            }

            let (mut by_every, mut by_latest) = (cache.clone(), cache);
            let evicted = by_every.apply_sync_events(&every);
            prop_assert_eq!(by_latest.apply_sync_events(&latest), evicted);
            prop_assert_eq!(keys(&by_latest), keys(&by_every));
            prop_assert_eq!(by_latest.invalidations(), by_every.invalidations());
        }
    }
}
