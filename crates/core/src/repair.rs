//! Incremental re-planning: repair a previous search instead of
//! re-running it.
//!
//! A near-real-time planner re-plans the same queued query many times —
//! after every [`TimelineRevision`] the fault stream reveals, after
//! every re-scheduling pass, at every dispatch attempt with a later
//! release floor. Each re-plan re-derives mostly the *same* candidate
//! scores: a revision that moves table `T`'s completion from `s` to `n`
//! only changes `last_sync(T, t)` for `t ≥ min(s, n)` — every candidate
//! released strictly before that *dirty floor* still scores bit-for-bit
//! the same, because under a stateless queue estimator a
//! [`CandidateScore`] depends on the timelines **only** through
//! `last_sync(table, execute_at)` of its local tables (see
//! [`score_candidate` in `plan`](crate::plan::evaluate_plan)).
//!
//! [`ReplanCache`] exploits exactly that at two tiers:
//!
//! * **Per-candidate scores** — it keeps, per query, the scores of
//!   every `(execute_at, mask)` candidate the search has already
//!   computed, and [`ReplanCache::invalidate`] drops only the scores at
//!   or past a revision's dirty floor. The repaired search
//!   ([`ScatterGatherSearch::search_with`] with a `repair` cache in its
//!   [`SearchOpts`]) consults the cache
//!   *below* the search algorithm — wave enumeration, boundary
//!   tightening, memo probes, effort counters and emitted events are
//!   all unchanged; only the floating-point evaluation of an unchanged
//!   candidate is skipped — so the outcome is bit-identical to a
//!   from-scratch search by construction.
//! * **Whole outcomes** — alongside the scores it keeps one
//!   [`OutcomeCard`]: the full result of the last completed search,
//!   plus the *scan horizon* (the largest boundary the search ever
//!   held; no scored slot lies beyond it). A revision whose dirty floor
//!   is past the scan horizon cannot have touched anything that search
//!   observed — the sync points it walked, the `last_sync` stamps it
//!   read, and its break condition are all decided strictly below the
//!   horizon — so a re-plan at the *same release floor* under the same
//!   gather cap may return the recorded outcome without re-walking a
//!   single wave. Revisions at or below the horizon drop the card.
//!
//! The `repair_differential` suite pins both tiers against from-scratch
//! searches over seeded revision streams.
//!
//! # Soundness preconditions
//!
//! Like [`PhaseMemo`], the cache is sound **only under a stateless queue
//! estimator** ([`NoQueues`]): stateful estimators (`FacilityQueues`,
//! `SiteFloors`) make scores depend on calendar state and absolute time,
//! which no invalidation key captures. The serving engine therefore
//! bypasses the cache on its floored-outage re-plan path, exactly as it
//! bypasses the memo. One cache serves **one** evolving timeline set
//! under **one** catalog/cost-model/rates configuration: apply every
//! revision to the timelines *and* the cache before the next search
//! (never mid-search), and do not share a cache across divergent
//! timeline copies (the serving engine keeps its cache on the belief
//! timelines and plans nominal-context searches uncached).
//!
//! [`TimelineRevision`]: ivdss_replication::events::TimelineRevision
//! [`CandidateScore`]: crate::plan::CandidateScore
//! [`ScatterGatherSearch::search_with`]: crate::search::ScatterGatherSearch::search_with
//! [`SearchOpts`]: crate::search::SearchOpts
//! [`PhaseMemo`]: crate::memo::PhaseMemo
//! [`NoQueues`]: crate::plan::NoQueues
//!
//! # Examples
//!
//! ```
//! use ivdss_core::repair::ReplanCache;
//!
//! let cache = ReplanCache::new();
//! assert!(cache.stats().scores == 0);
//! ```

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use ivdss_catalog::ids::TableId;
use ivdss_replication::events::TimelineRevision;
use ivdss_simkernel::time::SimTime;

use crate::plan::{CandidateScore, PlanContext, QueryRequest, SubsetArena, Wave};

/// Default bound on distinct queries tracked by a [`ReplanCache`].
pub const DEFAULT_REPLAN_CAPACITY: usize = 256;

/// Everything a cached score's *value* depends on besides the candidate
/// `(execute_at, mask)` and the shared context: the footprint and cost
/// profile (they fix the mask space and costs), the discount rates, the
/// business value and the submission time (latencies are measured from
/// it). Deliberately **not** the query id — two requests differing only
/// in id share every score.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ReplanKey {
    footprint: Vec<TableId>,
    profile: (u64, u64),
    rates: (u64, u64),
    business_value: u64,
    submitted_at: u64,
}

impl ReplanKey {
    fn new(ctx: &PlanContext<'_>, request: &QueryRequest) -> Self {
        ReplanKey {
            footprint: request.query.tables().to_vec(),
            profile: (
                request.query.weight().to_bits(),
                request.query.selectivity().to_bits(),
            ),
            rates: (ctx.rates.cl.rate().to_bits(), ctx.rates.sl.rate().to_bits()),
            business_value: request.business_value.value().to_bits(),
            submitted_at: request.submitted_at.value().to_bits(),
        }
    }
}

/// The whole-search checkpoint of one completed repaired search:
/// everything [`SearchOutcome`] carries, minus the query id (two
/// requests differing only in id share the card; the id is
/// rematerialized at reuse), plus the reuse gates — the release floor
/// and gather cap the search ran under, and the scan horizon that
/// bounds every slot it observed.
///
/// [`SearchOutcome`]: crate::search::SearchOutcome
#[derive(Debug, Clone)]
pub struct OutcomeCard {
    /// Bit pattern of the release floor (`submitted_at.max(not_before)`)
    /// the recorded search ran at; reuse requires an exact match.
    pub release_floor: u64,
    /// The recording search's gather-iteration cap; reuse requires an
    /// exact match (the cap shapes both the plan and the counters).
    pub max_sync_points: usize,
    /// The winning candidate's score.
    pub best: CandidateScore,
    /// The winning candidate's local subset, ascending.
    pub local_tables: Vec<TableId>,
    /// `plans_explored` of the recorded search.
    pub plans_explored: usize,
    /// `sync_points_visited` of the recorded search.
    pub sync_points_visited: usize,
    /// Final boundary of the recorded search.
    pub boundary: SimTime,
    /// The largest boundary the search held at any point (≥ the release
    /// floor): every scored slot, every `last_sync` read and the final
    /// break decision sit at or below it, so only a dirty floor at or
    /// below the horizon can invalidate the card.
    pub scan_horizon: SimTime,
}

/// A query's surviving scores: the replicated footprint that defines its
/// mask space, the scores themselves, keyed by
/// `(execute_at bit pattern, mask)`, and the last completed search's
/// whole-outcome card.
#[derive(Debug, Default)]
struct QueryScores {
    replicated: Vec<TableId>,
    scores: HashMap<(u64, usize), CandidateScore>,
    outcome: Option<OutcomeCard>,
}

#[derive(Debug, Default)]
struct ReplanInner {
    queries: HashMap<ReplanKey, QueryScores>,
    insertion_order: VecDeque<ReplanKey>,
    hits: u64,
    misses: u64,
    invalidated: u64,
    outcome_hits: u64,
}

/// Counters exposed by [`ReplanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplanStats {
    /// Candidate evaluations answered from a cached score.
    pub hits: u64,
    /// Candidate evaluations that had to run the scoring kernel.
    pub misses: u64,
    /// Scores dropped by revision invalidation.
    pub invalidated: u64,
    /// Whole searches answered from a cached [`OutcomeCard`] without
    /// walking a single wave.
    pub outcome_hits: u64,
    /// Distinct queries currently tracked.
    pub queries: usize,
    /// Live cached scores across all queries.
    pub scores: usize,
}

/// A bounded, thread-safe store of candidate-plan scores that survive
/// timeline revisions (see the [module docs](self) for the delta
/// argument and the stateless-queues precondition). FIFO-evicts whole
/// query entries beyond its capacity.
#[derive(Debug)]
pub struct ReplanCache {
    inner: Mutex<ReplanInner>,
    capacity: usize,
}

impl Default for ReplanCache {
    fn default() -> Self {
        ReplanCache::new()
    }
}

impl ReplanCache {
    /// Creates a cache tracking at most [`DEFAULT_REPLAN_CAPACITY`]
    /// queries.
    #[must_use]
    pub fn new() -> Self {
        ReplanCache::with_capacity(DEFAULT_REPLAN_CAPACITY)
    }

    /// Creates a cache tracking at most `capacity` queries (FIFO
    /// eviction beyond that).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "replan capacity must be positive");
        ReplanCache {
            inner: Mutex::new(ReplanInner::default()),
            capacity,
        }
    }

    /// Hit/miss/invalidation/occupancy counters.
    #[must_use]
    pub fn stats(&self) -> ReplanStats {
        let inner = self.lock();
        ReplanStats {
            hits: inner.hits,
            misses: inner.misses,
            invalidated: inner.invalidated,
            outcome_hits: inner.outcome_hits,
            queries: inner.queries.len(),
            scores: inner.queries.values().map(|q| q.scores.len()).sum(),
        }
    }

    /// Drops every cached score (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.queries.clear();
        inner.insertion_order.clear();
    }

    /// Opens a repair session for one search of `request` under `ctx`:
    /// the query's surviving scores are checked out of the cache (and
    /// checked back in, merged with the session's fresh scores, by
    /// [`RepairSession::finish`]). `replicated` must be the request's
    /// replicated footprint — it defines the mask space, so a stored
    /// entry recorded under a different footprint is discarded.
    #[must_use]
    pub fn begin<'c>(
        &'c self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        replicated: &[TableId],
    ) -> RepairSession<'c> {
        let key = ReplanKey::new(ctx, request);
        let (scores, outcome) = {
            let mut inner = self.lock();
            match inner.queries.remove(&key) {
                Some(entry) if entry.replicated == replicated => (entry.scores, entry.outcome),
                Some(_) | None => (HashMap::new(), None),
            }
        };
        RepairSession {
            cache: self,
            key,
            replicated: replicated.to_vec(),
            scores,
            outcome,
            hits: 0,
            misses: 0,
            outcome_hits: 0,
        }
    }

    /// Drops the scores a completion move of `table` invalidates: every
    /// cached candidate of a query whose mask space includes `table`
    /// released at or after `dirty_floor`. Candidates released strictly
    /// before the floor observe an unchanged `last_sync` and stay
    /// bit-valid.
    pub fn invalidate(&self, table: TableId, dirty_floor: SimTime) {
        let floor = dirty_floor.value();
        let mut inner = self.lock();
        let mut dropped = 0u64;
        for entry in inner.queries.values_mut() {
            if !entry.replicated.contains(&table) {
                continue;
            }
            let before = entry.scores.len();
            entry
                .scores
                .retain(|&(bits, _), _| f64::from_bits(bits) < floor);
            dropped += (before - entry.scores.len()) as u64;
            // A dirty floor at or below the scan horizon may have moved
            // a slot, a data version, or the break decision the recorded
            // search saw — the whole-outcome card is no longer a proof.
            if entry
                .outcome
                .as_ref()
                .is_some_and(|card| floor <= card.scan_horizon.value())
            {
                entry.outcome = None;
                dropped += 1;
            }
        }
        inner.invalidated += dropped;
    }

    /// [`ReplanCache::invalidate`] for a [`TimelineRevision`]: the dirty
    /// floor is the earlier of the completion's old and new times (a
    /// drop dirties from the dropped completion onward).
    pub fn invalidate_revision(&self, revision: &TimelineRevision) {
        let floor = match revision.new_time {
            Some(new_time) => revision.scheduled.min(new_time),
            None => revision.scheduled,
        };
        self.invalidate(revision.table, floor);
    }

    #[allow(clippy::too_many_arguments)]
    fn restore(
        &self,
        key: ReplanKey,
        replicated: Vec<TableId>,
        scores: HashMap<(u64, usize), CandidateScore>,
        outcome: Option<OutcomeCard>,
        hits: u64,
        misses: u64,
        outcome_hits: u64,
    ) {
        let mut inner = self.lock();
        inner.hits += hits;
        inner.misses += misses;
        inner.outcome_hits += outcome_hits;
        if !inner.queries.contains_key(&key) {
            while inner.queries.len() >= self.capacity {
                match inner.insertion_order.pop_front() {
                    Some(oldest) => {
                        inner.queries.remove(&oldest);
                    }
                    None => break,
                }
            }
            // The key may still sit in the order queue from the `begin`
            // that checked it out; avoid double-queuing it.
            if !inner.insertion_order.contains(&key) {
                inner.insertion_order.push_back(key.clone());
            }
        }
        inner.queries.insert(
            key,
            QueryScores {
                replicated,
                scores,
                outcome,
            },
        );
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ReplanInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One search's view of the [`ReplanCache`]: scores checked out at
/// [`ReplanCache::begin`], probed/extended lock-free during the search,
/// and checked back in by [`RepairSession::finish`]. Dropping a session
/// without finishing discards its scores (they are recomputed next
/// time) — harmless, since the cache is purely an effort optimization.
#[derive(Debug)]
pub struct RepairSession<'c> {
    cache: &'c ReplanCache,
    key: ReplanKey,
    replicated: Vec<TableId>,
    scores: HashMap<(u64, usize), CandidateScore>,
    outcome: Option<OutcomeCard>,
    hits: u64,
    misses: u64,
    outcome_hits: u64,
}

impl RepairSession<'_> {
    /// The whole-search outcome recorded by the previous re-plan, if it
    /// is reusable here: same release floor, same gather cap, and not
    /// invalidated by any revision since. Counts a hit when it is.
    pub fn cached_outcome(
        &mut self,
        release_floor: SimTime,
        max_sync_points: usize,
    ) -> Option<OutcomeCard> {
        let card = self.outcome.as_ref()?;
        if card.release_floor == release_floor.value().to_bits()
            && card.max_sync_points == max_sync_points
        {
            self.outcome_hits += 1;
            Some(card.clone())
        } else {
            None
        }
    }

    /// Records the completed search's whole-outcome card for the next
    /// identical re-plan, replacing any previous card.
    pub fn record_outcome(&mut self, card: OutcomeCard) {
        self.outcome = Some(card);
    }
    /// The cached score of `(execute_at, mask)`, counting the probe as a
    /// hit or miss.
    pub fn probe(&mut self, execute_at: SimTime, mask: usize) -> Option<CandidateScore> {
        match self.scores.get(&Self::slot(execute_at, mask)) {
            Some(&score) => {
                self.hits += 1;
                Some(score)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly computed score (no counter movement — the miss
    /// was counted by the [`RepairSession::probe`] that preceded it).
    pub fn put(&mut self, execute_at: SimTime, mask: usize, score: CandidateScore) {
        self.scores.insert(Self::slot(execute_at, mask), score);
    }

    /// Probe-or-compute: the cached score of `mask` released at the
    /// `wave`'s time if present, otherwise [`SubsetArena::score`],
    /// remembered for the next re-plan.
    pub fn score(
        &mut self,
        arena: &SubsetArena,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        wave: &Wave,
        mask: usize,
    ) -> CandidateScore {
        match self.probe(wave.at(), mask) {
            Some(score) => score,
            None => {
                let score = arena.score(ctx, request, wave, mask);
                self.put(wave.at(), mask, score);
                score
            }
        }
    }

    /// Hits recorded so far in this session.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checks the (merged) scores and outcome card back into the cache
    /// and folds the session's hit/miss counters into its stats.
    pub fn finish(self) {
        self.cache.restore(
            self.key,
            self.replicated,
            self.scores,
            self.outcome,
            self.hits,
            self.misses,
            self.outcome_hits,
        );
    }

    fn slot(execute_at: SimTime, mask: usize) -> (u64, usize) {
        (execute_at.value().to_bits(), mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NoQueues;
    use crate::search::replicated_footprint;
    use crate::value::DiscountRates;
    use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_replication::timelines::{SyncMode, SyncTimelines};

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn fixture() -> (ivdss_catalog::catalog::Catalog, SyncTimelines) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 4,
            sites: 2,
            replicated_tables: 0,
            seed: 1,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        plan.add(t(0), ReplicaSpec::new(10.0));
        plan.add(t(1), ReplicaSpec::new(4.0));
        let catalog = base.with_replication(plan).unwrap();
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        (catalog, timelines)
    }

    #[test]
    fn session_round_trips_scores_across_searches() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(3.0),
        );
        let replicated = replicated_footprint(&ctx, &req);
        let arena = SubsetArena::build(&ctx, &req, &replicated);
        let cache = ReplanCache::new();

        let mut session = cache.begin(&ctx, &req, &replicated);
        let fresh = session.score(&arena, &ctx, &req, &arena.wave(&ctx, SimTime::new(3.0)), 1);
        assert_eq!(session.hits(), 0);
        session.finish();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().scores, 1);

        let mut session = cache.begin(&ctx, &req, &replicated);
        let cached = session.score(&arena, &ctx, &req, &arena.wave(&ctx, SimTime::new(3.0)), 1);
        assert_eq!(cached, fresh, "cached score is the bit-identical value");
        assert_eq!(session.hits(), 1);
        session.finish();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn query_id_does_not_partition_the_cache() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let a = QueryRequest::new(
            QuerySpec::new(QueryId::new(7), vec![t(0), t(1)]),
            SimTime::new(3.0),
        );
        let b = QueryRequest::new(
            QuerySpec::new(QueryId::new(8), vec![t(0), t(1)]),
            SimTime::new(3.0),
        );
        let replicated = replicated_footprint(&ctx, &a);
        let arena = SubsetArena::build(&ctx, &a, &replicated);
        let cache = ReplanCache::new();
        let mut session = cache.begin(&ctx, &a, &replicated);
        session.score(&arena, &ctx, &a, &arena.wave(&ctx, SimTime::new(3.0)), 2);
        session.finish();
        let mut session = cache.begin(&ctx, &b, &replicated);
        assert!(
            session.probe(SimTime::new(3.0), 2).is_some(),
            "same footprint/profile/bv/submit shares scores across ids"
        );
        session.finish();
    }

    #[test]
    fn invalidation_drops_only_at_or_past_the_dirty_floor() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(1.0),
        );
        let replicated = replicated_footprint(&ctx, &req);
        let arena = SubsetArena::build(&ctx, &req, &replicated);
        let cache = ReplanCache::new();
        let mut session = cache.begin(&ctx, &req, &replicated);
        for at in [1.0, 4.0, 12.0] {
            session.score(&arena, &ctx, &req, &arena.wave(&ctx, SimTime::new(at)), 1);
        }
        session.finish();
        assert_eq!(cache.stats().scores, 3);

        // Revision moves t0's completion from 10 to 8: floor = 8.
        cache.invalidate_revision(&TimelineRevision {
            revealed_at: SimTime::new(5.0),
            table: t(0),
            scheduled: SimTime::new(10.0),
            new_time: Some(SimTime::new(8.0)),
        });
        let stats = cache.stats();
        assert_eq!(stats.scores, 2, "only the candidate at t=12 is dirty");
        assert_eq!(stats.invalidated, 1);

        // A revision to an unrelated table leaves everything alone.
        cache.invalidate(t(3), SimTime::ZERO);
        assert_eq!(cache.stats().scores, 2);

        // A drop dirties from the dropped completion onward.
        cache.invalidate_revision(&TimelineRevision {
            revealed_at: SimTime::new(5.0),
            table: t(1),
            scheduled: SimTime::new(4.0),
            new_time: None,
        });
        assert_eq!(cache.stats().scores, 1, "t=4 and t=12 are dirty");
    }

    #[test]
    fn mismatched_replicated_footprint_discards_the_entry() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(1.0),
        );
        let replicated = replicated_footprint(&ctx, &req);
        let arena = SubsetArena::build(&ctx, &req, &replicated);
        let cache = ReplanCache::new();
        let mut session = cache.begin(&ctx, &req, &replicated);
        session.score(&arena, &ctx, &req, &arena.wave(&ctx, SimTime::new(1.0)), 1);
        session.finish();

        // A session opened under a different mask space starts cold.
        let other = vec![t(0)];
        let mut session = cache.begin(&ctx, &req, &other);
        assert!(session.probe(SimTime::new(1.0), 1).is_none());
        session.finish();
    }

    #[test]
    fn outcome_card_gates_on_the_scan_horizon() {
        use crate::search::{ScatterGatherSearch, SearchOpts};

        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
            SimTime::new(3.0),
        );
        let search = ScatterGatherSearch::new();
        let cache = ReplanCache::new();
        let scratch = search.search_from(&ctx, &req, req.submitted_at).unwrap();
        let repaired = || {
            let opts = SearchOpts {
                repair: Some(&cache),
                ..SearchOpts::default()
            };
            search
                .search_with(&ctx, &req, req.submitted_at, opts)
                .unwrap()
        };
        let cold = repaired();
        assert_eq!(cold, scratch, "cold repaired run matches from-scratch");

        // A dirty floor far past anything the search looked at leaves
        // the card alive: the identical re-plan is answered whole.
        cache.invalidate(t(0), SimTime::new(1.0e9));
        let warm = repaired();
        assert_eq!(warm, scratch, "outcome reuse matches from-scratch");
        assert_eq!(cache.stats().outcome_hits, 1);

        // A floor at or below the horizon retires the card: the next
        // re-plan walks the waves again (and re-records).
        cache.invalidate(t(0), SimTime::ZERO);
        let after = repaired();
        assert_eq!(after, scratch, "post-invalidation re-plan matches");
        assert_eq!(
            cache.stats().outcome_hits,
            1,
            "a dirtied card must not answer"
        );
    }

    #[test]
    fn capacity_evicts_whole_queries_fifo() {
        let (catalog, timelines) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let ctx = PlanContext {
            catalog: &catalog,
            timelines: &timelines,
            model: &model,
            rates: DiscountRates::paper_fig4(),
            queues: &NoQueues,
        };
        let cache = ReplanCache::with_capacity(2);
        let reqs: Vec<QueryRequest> = (0..3)
            .map(|i| {
                QueryRequest::new(
                    QuerySpec::new(QueryId::new(i), vec![t(0)]),
                    SimTime::new(1.0 + i as f64),
                )
            })
            .collect();
        for req in &reqs {
            let replicated = replicated_footprint(&ctx, req);
            let arena = SubsetArena::build(&ctx, req, &replicated);
            let mut session = cache.begin(&ctx, req, &replicated);
            session.score(&arena, &ctx, req, &arena.wave(&ctx, req.submitted_at), 1);
            session.finish();
        }
        assert_eq!(cache.stats().queries, 2);
        let replicated = replicated_footprint(&ctx, &reqs[0]);
        let mut session = cache.begin(&ctx, &reqs[0], &replicated);
        assert!(
            session.probe(reqs[0].submitted_at, 1).is_none(),
            "oldest query evicted"
        );
        session.finish();
        cache.clear();
        assert_eq!(cache.stats().queries, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ReplanCache::with_capacity(0);
    }
}
