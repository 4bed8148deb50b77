//! The online serving engine.
//!
//! [`ServeEngine`] accepts a continuous stream of [`QueryRequest`]s and,
//! per query: (1) drains completed synchronization events from the
//! replication timelines into the plan cache's invalidator, (2) runs
//! IV-aware admission ([`AdmissionQueue`]), (3) selects a plan from the
//! sync-phase [`PlanCache`], which reproduces the §3.1 scatter-and-gather
//! search exactly, under a [`NoQueues`] planning context, and (4)
//! dispatches the plan through reservation-calendar facilities
//! ([`FacilityQueues`]), re-evaluating the chosen candidate against
//! live calendar state so the *delivered* information value reflects
//! actual queuing.
//!
//! Planning and dispatch are deliberately split across two queue
//! estimators. Plans are *chosen* under [`NoQueues`], which is what
//! makes the cache sound (its key needs no queue state); they are then
//! *booked* and re-costed against the live calendars, which is what
//! makes the delivered IV honest. The same split mirrors the paper's
//! structure: §3.1 selects plans analytically, the evaluation replays
//! them against contended servers.
//!
//! Dispatch is gated by a backlog bound: a query leaves the admission
//! queue only while the local federation server's backlog (time until
//! its calendar has an idle instant) is below
//! [`ServeConfig::dispatch_backlog`]. Under overload the queue fills and
//! the IV-aware shedding policy starts choosing victims.
//!
//! # Fault injection
//!
//! [`ServeEngine::with_faults`] arms the engine with a precomputed
//! [`FaultPlan`]. The engine then maintains a *belief* copy of the
//! synchronization timelines ([`std::borrow::Cow`]): each fault-plan
//! revision, once its reveal time passes, is applied to the belief via
//! [`SyncTimelines::revise`] and evicts every cache entry touching the
//! revised table ([`PlanCache::invalidate_table`]) — a cached delayed
//! champion may reference the slipped sync point, so this is a
//! correctness eviction, not garbage collection. Site outages become
//! [`SiteFloors`] over both the planning context (admission's marginal
//! IV and dispatch-time re-planning see the degraded topology) and the
//! live calendars (delivered IV pays for waiting out the outage), and a
//! dispatched plan that would span a down site is re-planned on the
//! spot by a [`ScatterGatherSearch`] with the floors visible. Cost jitter
//! applies only at delivery
//! ([`JitteredCostModel`]): plans are chosen from estimates, execution
//! runs hotter — so the cache's exactness argument is untouched. Every
//! completion under faults additionally reports the IV it lost versus
//! the fault-free planning bound.
//!
//! # Work per step
//!
//! A step pays for what changed since the last one, not for what the
//! engine holds:
//!
//! * the sync cursor looks the tables up only once a completion is due
//!   ([`SyncEventCursor::advance_latest`]); an applied revision tells it
//!   to look again. A traced run takes the same path: the tracer only
//!   lists the completions of a window the cursor found non-empty;
//! * fault revisions and outage windows are replayed by index into the
//!   fault plan's sorted lists;
//! * the outage floors are held per outage boundary: a tick recomputes
//!   them only once an outage has started or a covering one has ended
//!   since ([`FaultPlan::site_floors_until`]), and every reader borrows
//!   the one map;
//! * the searches outside the cache (outage re-planning, the IV-lost
//!   bound and [`ServeEngine::best_iv`]) score over the query template's
//!   arena from the plan cache ([`PlanCache::arena`]) instead of
//!   re-running the cost model.

use std::borrow::Cow;
use std::collections::BTreeMap;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::{SiteId, TableId};
use ivdss_core::plan::{
    evaluate_plan, FacilityQueues, NoQueues, PlanContext, PlanError, PlanEvaluation, QueryRequest,
    SiteFloors,
};
use ivdss_core::search::{ScatterGatherSearch, SearchOpts};
use ivdss_core::starvation::AgingPolicy;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::CostModel;
use ivdss_costmodel::query::QueryId;
use ivdss_faults::{FaultPlan, JitteredCostModel};
use ivdss_obs::{
    AdmissionVerdict, AuditLog, EventKind, PlanAudit, PlanSource, SearchAudit, Tracer,
};
use ivdss_replication::events::{SyncEvent, SyncEventCursor};
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::{SimDuration, SimTime};

use crate::admission::{AdmissionQueue, AdmitOutcome, QueuedQuery};
use crate::cache::{CacheOutcome, PlanCache};
use crate::clock::Clock;
use crate::metrics::{MetricsSnapshot, ServeMetrics};

/// Tuning knobs of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Discount rates applied to every query.
    pub rates: DiscountRates,
    /// Admission-queue bound; arrivals beyond it trigger IV-aware
    /// shedding.
    pub queue_capacity: usize,
    /// Plan-cache entry bound (FIFO eviction beyond it).
    pub cache_capacity: usize,
    /// Aging applied to queued queries' marginal IV (§3.3); disabled by
    /// default.
    pub aging: AgingPolicy,
    /// Maximum local-server backlog tolerated before dispatch defers
    /// and queries wait in the admission queue.
    pub dispatch_backlog: SimDuration,
}

/// Plan-decision audits an engine retains; beyond it the oldest goes.
pub const AUDIT_CAPACITY: usize = 256;

impl ServeConfig {
    /// A permissive default configuration for the given rates: deep
    /// queue, no aging, effectively unbounded dispatch.
    #[must_use]
    pub fn new(rates: DiscountRates) -> Self {
        ServeConfig {
            rates,
            queue_capacity: 64,
            cache_capacity: 256,
            aging: AgingPolicy::DISABLED,
            dispatch_backlog: SimDuration::new(f64::INFINITY),
        }
    }
}

/// A delivered query: its full evaluation against live calendar state.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The completed query.
    pub query: QueryId,
    /// The delivered plan evaluation (latencies and IV include actual
    /// calendar queuing and any injected degradation).
    pub evaluation: PlanEvaluation,
    /// How long the query sat in the admission queue before dispatch.
    pub waited: SimDuration,
    /// IV lost to degradation: the fault-free planning bound minus the
    /// delivered IV, clamped at zero. Always zero when no fault plan is
    /// armed.
    pub iv_lost: f64,
    /// `true` if the dispatched plan was re-planned because its original
    /// choice spanned a site that an injected outage had taken down.
    pub replanned: bool,
}

/// What one [`ServeEngine::submit`] call did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SubmitReport {
    /// Query shed by admission control, if any (possibly the submitted
    /// one).
    pub shed: Option<QueryId>,
    /// Queries dispatched and delivered during this step, in dispatch
    /// order.
    pub completed: Vec<Completion>,
}

/// Zero hit and miss counters, for reuse layers the workspace no longer
/// has. Returned by [`ServeEngine::replan_cache`] and by the cluster's
/// `shared_memo`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroStats {
    pub hits: u64,
    pub misses: u64,
}

#[doc(hidden)]
impl ZeroStats {
    #[must_use]
    pub fn stats(self) -> Self {
        self
    }
}

/// Replay state of an armed [`FaultPlan`]: the index of the next
/// revision and of the next outage not yet replayed, each into the
/// plan's sorted list.
struct FaultState {
    plan: FaultPlan,
    next_revision: usize,
    next_outage: usize,
}

/// Builds the engine's planning context ([`NoQueues`], belief
/// timelines) inline, so the borrow checker sees disjoint field borrows
/// and mutation of `queue`/`cache` can overlap with it.
macro_rules! planning_ctx {
    ($engine:expr) => {
        PlanContext {
            catalog: $engine.catalog,
            timelines: &$engine.timelines,
            model: $engine.model,
            rates: $engine.config.rates,
            queues: &NoQueues,
        }
    };
    ($engine:expr, $queues:expr) => {
        PlanContext {
            catalog: $engine.catalog,
            timelines: &$engine.timelines,
            model: $engine.model,
            rates: $engine.config.rates,
            queues: $queues,
        }
    };
}

/// The online query-serving engine. See the module docs for the
/// pipeline.
pub struct ServeEngine<'a, C: Clock> {
    catalog: &'a Catalog,
    /// The published (fault-free) timelines.
    nominal: &'a SyncTimelines,
    /// The engine's timeline belief: borrows `nominal` until the first
    /// applied revision forces a private revised copy.
    timelines: Cow<'a, SyncTimelines>,
    model: &'a dyn CostModel,
    config: ServeConfig,
    clock: C,
    queue: AdmissionQueue,
    cache: PlanCache,
    facilities: FacilityQueues,
    cursor: SyncEventCursor,
    /// The syncs the last tick delivered to the cache, reused across
    /// ticks.
    synced: Vec<SyncEvent>,
    metrics: ServeMetrics,
    faults: Option<FaultState>,
    /// Release floors of the sites inside an injected outage (empty
    /// without faults), as of the last tick that recomputed them.
    floors: BTreeMap<SiteId, SimTime>,
    /// The next outage boundary: the floors hold until this instant, and
    /// the first tick at or after it recomputes them.
    floors_until: SimTime,
    /// The plan searches outside the cache: outage re-planning, the
    /// fault-free IV bound and [`ServeEngine::best_iv`].
    search: ScatterGatherSearch,
    /// Structured-event emission handle (disabled unless a trace is
    /// attached via [`ServeEngine::with_tracer`]).
    tracer: Tracer,
    /// Per-query plan-decision audits, bounded by [`AUDIT_CAPACITY`].
    audits: AuditLog,
}

impl<'a, C: Clock> ServeEngine<'a, C> {
    /// Creates an engine over the given catalog, timelines and cost
    /// model, starting at the clock's current time.
    #[must_use]
    pub fn new(
        catalog: &'a Catalog,
        timelines: &'a SyncTimelines,
        model: &'a dyn CostModel,
        config: ServeConfig,
        clock: C,
    ) -> Self {
        let start = clock.now();
        ServeEngine {
            catalog,
            nominal: timelines,
            timelines: Cow::Borrowed(timelines),
            model,
            queue: AdmissionQueue::new(config.queue_capacity, config.aging),
            cache: PlanCache::new(config.cache_capacity),
            facilities: FacilityQueues::new(catalog.site_count()),
            cursor: SyncEventCursor::new(start),
            synced: Vec::new(),
            metrics: ServeMetrics::new(start),
            config,
            clock,
            faults: None,
            floors: BTreeMap::new(),
            floors_until: SimTime::MAX,
            search: ScatterGatherSearch::new(),
            tracer: Tracer::disabled(),
            audits: AuditLog::new(AUDIT_CAPACITY),
        }
    }

    /// Attaches a structured-event tracer (builder-style). The engine
    /// then emits the full pipeline trace — submissions, admission
    /// verdicts, sync deliveries, fault revisions, cache and search
    /// activity, dispatch→completion spans — into the tracer's shared
    /// [`Trace`](ivdss_obs::Trace). Identical seeded runs emit
    /// byte-identical traces; a disabled tracer (the default) costs one
    /// branch per would-be event.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Creates an engine that replays `faults` on top of the nominal
    /// timelines (see the module docs for the degradation semantics).
    /// The fault plan's horizon should cover the intended run length:
    /// once a table's timeline is revised it becomes a finite trace
    /// materialized out to that horizon.
    #[must_use]
    pub fn with_faults(
        catalog: &'a Catalog,
        timelines: &'a SyncTimelines,
        model: &'a dyn CostModel,
        config: ServeConfig,
        clock: C,
        faults: FaultPlan,
    ) -> Self {
        let start = clock.now();
        let mut engine = ServeEngine::new(catalog, timelines, model, config, clock);
        // Revisions revealed at or before the start are never applied.
        let next_revision = faults
            .revisions()
            .partition_point(|r| r.revealed_at <= start);
        engine.faults = Some(FaultState {
            plan: faults,
            next_revision,
            next_outage: 0,
        });
        // The first tick computes the floors.
        engine.floors_until = start;
        engine
    }

    /// The engine's current time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Queries waiting in the admission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Time until the local federation server's calendar has an idle
    /// instant at the engine's current time — the backlog the dispatch
    /// gate compares against [`ServeConfig::dispatch_backlog`].
    #[must_use]
    pub fn backlog(&self) -> SimDuration {
        self.local_backlog(self.clock.now())
    }

    /// The queries currently waiting for dispatch, in FIFO order.
    pub fn queued(&self) -> impl Iterator<Item = &QueuedQuery> {
        self.queue.iter()
    }

    /// Removes the youngest queued query for a work-stealing transfer
    /// to another engine. The youngest entry is the correct victim: it
    /// is last in FIFO order, so its departure never delays the queries
    /// ahead of it.
    pub fn steal_youngest(&mut self) -> Option<QueuedQuery> {
        let stolen = self.queue.pop_back();
        if stolen.is_some() {
            self.metrics
                .set_queue_depth(self.clock.now(), self.queue.len());
        }
        stolen
    }

    /// Drains the whole admission queue without dispatching — the
    /// shard-outage failover path: a cluster evacuates a down engine's
    /// queue and re-admits the entries elsewhere via
    /// [`ServeEngine::accept`].
    pub fn evacuate(&mut self) -> Vec<QueuedQuery> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(q) = self.queue.pop_front() {
            out.push(q);
        }
        if !out.is_empty() {
            self.metrics.set_queue_depth(self.clock.now(), 0);
        }
        out
    }

    /// The plan cache.
    #[must_use]
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The live reservation calendars.
    #[must_use]
    pub fn facilities(&self) -> &FacilityQueues {
        &self.facilities
    }

    /// The engine's current timeline belief (the nominal timelines until
    /// a fault revision is applied).
    #[must_use]
    pub fn timelines(&self) -> &SyncTimelines {
        &self.timelines
    }

    /// The armed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Kept only for servebench's traced run, which reads
    /// `replan_cache().stats()` for its `replan.hit_share` metric. The
    /// engine has no replan cache, so both counters read zero.
    #[doc(hidden)]
    #[must_use]
    pub fn replan_cache(&self) -> ZeroStats {
        ZeroStats::default()
    }

    /// The most recent plan-decision audit for `query` — *why* the
    /// engine dispatched the plan it did.
    #[must_use]
    pub fn plan_audit(&self, query: QueryId) -> Option<&PlanAudit> {
        self.audits.get(query)
    }

    /// Freezes the metrics, with the plan cache's own counters, at the
    /// current time.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.clock.now(), &self.cache)
    }

    /// Prometheus-style text exposition: the serve metrics dump (its
    /// counters and its CL, SL, delivered-IV and IV-lost histograms),
    /// followed — when a tracer is attached — by the trace's per-kind
    /// event counters. The histograms come from the registry alone, so
    /// a traced and an untraced run of one stream differ only in the
    /// `obs_events_total` lines.
    #[must_use]
    pub fn exposition(&self) -> String {
        let mut out = self.snapshot().to_text();
        if let Some(trace) = self.tracer.trace() {
            out.push_str(&trace.exposition());
        }
        out
    }

    /// The IV of the best plan for `request` released no earlier than
    /// `not_before`, under the engine's planning context (its timeline
    /// belief, no queues, no outage floors): the answer of a
    /// [`ScatterGatherSearch`], which scores over the request's template
    /// arena from the plan cache. A cluster's steal guard compares a
    /// transfer's two sides by it.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from the search.
    pub fn best_iv(
        &mut self,
        request: &QueryRequest,
        not_before: SimTime,
    ) -> Result<f64, PlanError> {
        let arena = self.cache.arena(&planning_ctx!(self), request);
        let opts = SearchOpts {
            arena: Some(arena),
            ..SearchOpts::default()
        };
        let outcome = self
            .search
            .search_with(&planning_ctx!(self), request, not_before, opts)?;
        Ok(outcome.best.information_value.value())
    }

    /// Applies due fault revisions to the timeline belief, counts outage
    /// windows that have opened, refreshes the outage floors once an
    /// outage boundary has passed, then delivers the syncs completed
    /// since the last tick to the cache's invalidator. Every entry point
    /// ticks before it reads the floors.
    ///
    /// Revisions are applied *before* the sync cursor advances, so a
    /// slipped or dropped completion is never delivered at its nominal
    /// time: the cursor walks the already-revised belief.
    fn sync_tick(&mut self, now: SimTime) {
        if let Some(faults) = &mut self.faults {
            let revisions = faults.plan.revisions();
            while faults.next_revision < revisions.len()
                && revisions[faults.next_revision].revealed_at <= now
            {
                let revision = revisions[faults.next_revision];
                faults.next_revision += 1;
                if self
                    .timelines
                    .to_mut()
                    .revise(&revision, faults.plan.horizon())
                {
                    self.cursor.timelines_changed();
                    let evicted = self.cache.invalidate_table(revision.table);
                    if revision.new_time.is_some() {
                        self.metrics.record_fault_slip();
                    } else {
                        self.metrics.record_fault_drop();
                    }
                    self.tracer.emit_with(now, || EventKind::RevisionApplied {
                        table: revision.table,
                        scheduled: revision.scheduled,
                        new_time: revision.new_time,
                        evicted,
                    });
                }
            }
            let outages = faults.plan.outages();
            while faults.next_outage < outages.len() && outages[faults.next_outage].start <= now {
                let outage = outages[faults.next_outage];
                faults.next_outage += 1;
                self.metrics.record_fault_outage();
                self.tracer.emit_with(now, || EventKind::OutageStarted {
                    site: outage.site,
                    until: outage.end,
                });
            }
            if now >= self.floors_until {
                (self.floors, self.floors_until) = faults.plan.site_floors_until(now);
            }
        }
        // Eviction reads only each table's latest sync in the window.
        // The watermark skips only windows without a completion, so a
        // traced run lists every completion of a non-empty window, as
        // `sync_delivered` lines stamped at `now`, in (time, table) order.
        let from = self.cursor.position();
        self.cursor
            .advance_latest(&self.timelines, now, &mut self.synced);
        if !self.synced.is_empty() {
            if self.tracer.enabled() {
                for event in SyncEventCursor::new(from).advance_to(&self.timelines, now) {
                    self.tracer.emit_with(now, || EventKind::SyncDelivered {
                        table: event.table,
                        completed_at: event.at,
                    });
                }
            }
            let evicted = self.cache.apply_sync_events(&self.synced);
            if evicted > 0 {
                self.tracer
                    .emit_with(now, || EventKind::CacheInvalidated { evicted });
            }
        }
    }

    /// Moves the engine's clock to `to` (if in the future), delivering
    /// sync events and dispatching whatever the backlog bound now
    /// admits.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning a dispatched query.
    pub fn advance_to(&mut self, to: SimTime) -> Result<Vec<Completion>, PlanError> {
        self.clock.advance_to(to);
        let now = self.clock.now();
        self.sync_tick(now);
        self.pump(now, false)
    }

    /// Submits a query: admission, planning, dispatch. The clock is
    /// advanced to the request's submission time first.
    ///
    /// Admission estimates marginal IV under the *degraded* topology:
    /// the belief timelines plus release floors for sites currently in
    /// an outage, so a query whose fallback depends on a down site ranks
    /// honestly low.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning a dispatched query.
    pub fn submit(&mut self, request: QueryRequest) -> Result<SubmitReport, PlanError> {
        self.clock.advance_to(request.submitted_at);
        let now = self.clock.now();
        self.sync_tick(now);
        self.metrics.record_submitted();

        let floored = SiteFloors::new(&NoQueues, &self.floors);
        let submitted_id = request.id();
        let business_value = request.business_value.value();
        self.tracer.emit_with(now, || EventKind::Submitted {
            query: submitted_id,
            business_value,
        });
        let outcome = self
            .queue
            .offer(&planning_ctx!(self, &floored), request, now);
        let shed = self.note_admission(outcome, submitted_id, now);
        let completed = self.pump(now, false)?;
        Ok(SubmitReport { shed, completed })
    }

    /// Accepts a query handed over from another engine of a sharded
    /// cluster — a work-stealing transfer or a shard-outage failover.
    /// The entry keeps its original enqueue time (waiting and §3.3
    /// aging accounting stay honest) and passes through the same
    /// IV-aware admission policy as a fresh arrival, but is *not*
    /// counted as a new submission: the shard it was routed to already
    /// counted it.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning a dispatched query.
    pub fn accept(&mut self, queued: QueuedQuery) -> Result<SubmitReport, PlanError> {
        let now = self.clock.now();
        self.sync_tick(now);
        let floored = SiteFloors::new(&NoQueues, &self.floors);
        let arrival = queued.request.id();
        let outcome = self.queue.push(&planning_ctx!(self, &floored), queued, now);
        let shed = self.note_admission(outcome, arrival, now);
        let completed = self.pump(now, false)?;
        Ok(SubmitReport { shed, completed })
    }

    /// Records the metrics and trace event of an admission outcome;
    /// returns the shed victim, if any.
    fn note_admission(
        &mut self,
        outcome: AdmitOutcome,
        arrival: QueryId,
        now: SimTime,
    ) -> Option<QueryId> {
        let (shed, verdict, shed_marginal_iv) = match outcome {
            AdmitOutcome::Admitted => {
                self.metrics.record_admitted();
                (None, AdmissionVerdict::Admitted, None)
            }
            AdmitOutcome::AdmittedAfterShedding {
                shed,
                shed_marginal_iv,
            } => {
                self.metrics.record_admitted();
                self.metrics.record_shed(shed_marginal_iv);
                (
                    Some(shed),
                    AdmissionVerdict::AdmittedAfterShedding,
                    Some(shed_marginal_iv),
                )
            }
            AdmitOutcome::Rejected { marginal_iv } => {
                // The arrival itself was the lowest-value query.
                self.metrics.record_shed(marginal_iv);
                (Some(arrival), AdmissionVerdict::Rejected, Some(marginal_iv))
            }
        };
        let depth = self.queue.len();
        self.tracer.emit_with(now, || EventKind::Admission {
            query: arrival,
            verdict,
            shed,
            shed_marginal_iv,
            depth,
        });
        shed
    }

    /// Dispatches queued queries while the backlog bound admits them
    /// (or unconditionally when `force` is set).
    fn pump(&mut self, now: SimTime, force: bool) -> Result<Vec<Completion>, PlanError> {
        let mut completed = Vec::new();
        while self.queue.peek().is_some() {
            if !force && self.local_backlog(now) > self.config.dispatch_backlog {
                break;
            }
            let queued = self.queue.pop_front().expect("peeked entry exists");
            completed.push(self.dispatch(queued, now)?);
        }
        self.metrics.set_queue_depth(now, self.queue.len());
        Ok(completed)
    }

    /// Time until the local federation server's calendar has an idle
    /// instant at or after `now`.
    fn local_backlog(&self, now: SimTime) -> SimDuration {
        (self.facilities.local().probe(now, SimDuration::ZERO).start - now).clamp_non_negative()
    }

    /// The remote footprint of a chosen plan.
    fn remote_tables(request: &QueryRequest, planned: &PlanEvaluation) -> Vec<TableId> {
        request
            .query
            .tables()
            .iter()
            .copied()
            .filter(|t| !planned.local_tables.contains(t))
            .collect()
    }

    /// Plans and dispatches one query against the live calendars.
    fn dispatch(&mut self, queued: QueuedQuery, now: SimTime) -> Result<Completion, PlanError> {
        let request = queued.request;
        let query = request.id();
        let (planned, outcome) = self.cache.plan(&planning_ctx!(self), &request)?;
        let hit = outcome == CacheOutcome::Hit;
        self.tracer
            .emit_with(now, || EventKind::CacheLookup { query, hit });
        let mut source = if hit {
            PlanSource::CacheHit
        } else {
            PlanSource::CacheMiss
        };
        let mut search_audit: Option<SearchAudit> = None;

        // Outage-aware re-planning: if the chosen plan would span a site
        // that is down at its release, re-plan with the floors visible so
        // replica-only and delayed options can win on merit. The cache is
        // bypassed — floors are queue state, which its key cannot carry.
        let mut replanned = false;
        let planned = if self.floors.is_empty() {
            planned
        } else {
            let release = planned.execute_at.max(now);
            let remote = Self::remote_tables(&request, &planned);
            let hits_outage = !remote.is_empty()
                && self
                    .catalog
                    .sites_spanned(&remote)
                    .into_iter()
                    .any(|site| self.floors.get(&site).is_some_and(|&floor| floor > release));
            if hits_outage {
                replanned = true;
                self.metrics.record_fault_replan();
                let floored_sites = self.floors.len();
                self.tracer.emit_with(now, || EventKind::Replanned {
                    query,
                    floored_sites,
                });
                source = PlanSource::OutageReplan;
                let floored = SiteFloors::new(&NoQueues, &self.floors);
                let mut audit = SearchAudit::default();
                let opts = SearchOpts {
                    tracer: Some(&self.tracer),
                    audit: Some(&mut audit),
                    arena: Some(self.cache.arena(&planning_ctx!(self), &request)),
                };
                let best = self
                    .search
                    .search_with(&planning_ctx!(self, &floored), &request, now, opts)?
                    .best;
                search_audit = Some(audit);
                best
            } else {
                planned
            }
        };

        // Re-evaluate the chosen candidate against live calendar state:
        // the delivered IV must pay for real queuing — and, under faults,
        // for outage floors and cost jitter.
        let release = planned.execute_at.max(now);
        let jittered;
        let live_model: &dyn CostModel = match &self.faults {
            Some(faults) => {
                let factor = faults.plan.jitter_factor(query);
                if factor != 1.0 {
                    self.tracer
                        .emit_with(now, || EventKind::JitterApplied { query, factor });
                }
                jittered = JitteredCostModel::new(self.model, &faults.plan);
                &jittered
            }
            None => self.model,
        };
        let live_queues = SiteFloors::new(&self.facilities, &self.floors);
        let live_ctx = PlanContext {
            catalog: self.catalog,
            timelines: &self.timelines,
            model: live_model,
            rates: self.config.rates,
            queues: &live_queues,
        };
        let delivered = evaluate_plan(&live_ctx, &request, release, &planned.local_tables)?;

        // Commit the reservations the estimator just probed: the local
        // server from the release, each remote site no earlier than its
        // outage floor.
        self.facilities
            .book_plan(self.catalog, &request, &delivered, release, |site| {
                self.floors
                    .get(&site)
                    .map_or(release, |&floor| release.max(floor))
            });

        // Under faults, measure what the degradation cost this query:
        // the IV an unfaulted planner (nominal timelines, no queues, no
        // jitter) could have promised at the same dispatch instant,
        // minus what was actually delivered.
        let mut iv_lost = 0.0;
        if self.faults.is_some() {
            let nominal_ctx = PlanContext {
                catalog: self.catalog,
                timelines: self.nominal,
                model: self.model,
                rates: self.config.rates,
                queues: &NoQueues,
            };
            // Untraced: this bound feeds a metric and decides nothing.
            // The belief's template arena serves the nominal timelines
            // too: a revision never adds or removes a replica, so both
            // replicate the same tables.
            let opts = SearchOpts {
                arena: Some(self.cache.arena(&planning_ctx!(self), &request)),
                ..SearchOpts::default()
            };
            let ideal = self
                .search
                .search_with(&nominal_ctx, &request, now, opts)?
                .best;
            iv_lost =
                (ideal.information_value.value() - delivered.information_value.value()).max(0.0);
            self.metrics.record_fault_iv_lost(iv_lost);
        }

        self.metrics.record_completion(
            delivered.latencies.computational,
            delivered.latencies.synchronization,
            delivered.information_value.value(),
        );
        let waited = (now - queued.enqueued_at).clamp_non_negative();
        self.tracer
            .emit_with(delivered.finish, || EventKind::Completed {
                query,
                waited,
                release,
                service_start: delivered.service_start,
                finish: delivered.finish,
                cl: delivered.latencies.computational,
                sl: delivered.latencies.synchronization,
                planned_iv: planned.information_value.value(),
                delivered_iv: delivered.information_value.value(),
                iv_lost,
                replanned,
            });
        self.audits.push(PlanAudit {
            query,
            decided_at: now,
            source,
            search: search_audit,
            chosen_release: planned.execute_at,
            chosen_local: planned.local_tables.iter().copied().collect(),
            planned_iv: planned.information_value.value(),
        });
        Ok(Completion {
            query,
            evaluation: delivered,
            waited,
            iv_lost,
            replanned,
        })
    }

    /// Dispatches everything still queued, ignoring the backlog bound.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning a dispatched query.
    pub fn drain(&mut self) -> Result<Vec<Completion>, PlanError> {
        let now = self.clock.now();
        self.sync_tick(now);
        self.pump(now, true)
    }
}
