//! The sharded cluster: N per-shard [`ServeEngine`]s behind one front
//! door.
//!
//! # Pipeline
//!
//! A submitted query is routed by the [`ShardRouter`] to the live shard
//! whose owned replicas best cover its footprint, then goes through
//! that shard's ordinary serve pipeline (IV-aware admission, plan
//! caching, calendar dispatch). Every engine runs against *restricted*
//! timelines — only the replicas its shard owns — so a shard planning a
//! query with partial coverage naturally falls back to remote base
//! reads for the missing tables: partial routing degrades IV, it never
//! fails.
//!
//! # Lockstep determinism
//!
//! All engines are driven from clones of one starting [`Clock`] and
//! advanced together, in shard-id order, at every front-door step.
//! Randomness never enters: routing, stealing and failover are pure
//! functions of the catalog, the assignment, the outage windows and
//! the arrival sequence, so identical seeded runs are bit-identical —
//! the property the differential and golden-trace suites pin down.
//!
//! # Work stealing
//!
//! After every step, an idle shard may take the *youngest* queued query
//! of the most backlogged shard — but only when executing it now on the
//! thief strictly beats the plan it would get by waiting out the
//! victim's backlog, both sides evaluated with the same
//! scatter-and-gather search that dispatch uses. Stealing therefore
//! never trades IV away, which is exactly the differential suite's
//! cluster-level assertion (total realized IV with stealing ≥ without).
//!
//! # Shard outages
//!
//! A [`ShardOutage`] window takes a whole shard out of routing. The
//! moment the cluster observes an open window it evacuates the down
//! shard's admission queue and re-admits every entry at the surviving
//! shards (original enqueue times kept, so waiting and aging accounting
//! stay honest). Queries are only ever dropped — with their IV
//! accounted — when *no* shard is live.

use std::collections::BTreeSet;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::ShardId;
use ivdss_core::plan::{NoQueues, PlanContext, PlanError, QueryRequest};
use ivdss_core::search::ScatterGatherSearch;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::CostModel;
use ivdss_costmodel::query::QueryId;
use ivdss_faults::FaultPlan;
use ivdss_obs::{EventKind, Tracer};
use ivdss_replication::timelines::SyncTimelines;
use ivdss_serve::admission::QueuedQuery;
use ivdss_serve::clock::Clock;
use ivdss_serve::engine::{Completion, ServeConfig, ServeEngine, SubmitReport, ZeroStats};
use ivdss_simkernel::time::SimTime;

use crate::metrics::{ClusterMetrics, ClusterSnapshot};
use crate::router::{RouteDecision, ShardRouter};

/// Tuning knobs of a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Per-shard engine configuration (every shard gets the same).
    pub serve: ServeConfig,
    /// Enables the cross-shard work-stealing pass (on by default).
    /// Stealing only ever fires when a finite
    /// [`ServeConfig::dispatch_backlog`] lets queues build.
    pub steal: bool,
}

impl ClusterConfig {
    /// The permissive serve defaults with stealing enabled.
    #[must_use]
    pub fn new(rates: DiscountRates) -> Self {
        ClusterConfig {
            serve: ServeConfig::new(rates),
            steal: true,
        }
    }
}

/// The per-shard restrictions of one published timeline set, built once
/// and borrowed by every engine of a [`Cluster`].
///
/// Two-phase construction (build the restrictions, then hand them to
/// [`Cluster::new`]) keeps the borrow graph acyclic: engines borrow
/// from this struct, never from the cluster that owns them.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTimelines {
    shards: Vec<SyncTimelines>,
}

impl ShardTimelines {
    /// Restricts `full` to each shard's owned tables, in shard-id
    /// order. A single-shard assignment owns every replicated table, so
    /// its restriction *is* the full timeline set — the degenerate case
    /// the differential suite compares against a bare engine.
    #[must_use]
    pub fn build(full: &SyncTimelines, router: &ShardRouter) -> Self {
        let assignment = router.assignment();
        ShardTimelines {
            shards: assignment
                .shards()
                .map(|s| full.restricted(&assignment.owned_by(s)))
                .collect(),
        }
    }

    /// The timelines shard `shard` owns.
    #[must_use]
    pub fn shard(&self, shard: ShardId) -> &SyncTimelines {
        &self.shards[shard.index()]
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` when built for zero shards (never the case for a valid
    /// assignment).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// A scheduled full-shard outage window: the shard is excluded from
/// routing while `start <= now < end` and its queue is failed over to
/// the surviving shards when the window opens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardOutage {
    /// The shard taken down.
    pub shard: ShardId,
    /// When the outage opens.
    pub start: SimTime,
    /// When the shard comes back.
    pub end: SimTime,
}

impl ShardOutage {
    /// Creates a window; `end` must not precede `start`.
    #[must_use]
    pub fn new(shard: ShardId, start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "outage window must not end before it starts");
        ShardOutage { shard, start, end }
    }

    /// `true` while the shard is down.
    #[must_use]
    pub fn covers(&self, at: SimTime) -> bool {
        self.start <= at && at < self.end
    }
}

/// What one cluster step (submit or advance) did, with every completion
/// and shed tagged by the shard it happened on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterReport {
    /// The routing decision of the submitted query (`None` for pure
    /// advances, and for submissions dropped because every shard was
    /// down).
    pub routed: Option<RouteDecision>,
    /// Queries dropped during this step: by a shard's IV-aware
    /// admission (tagged with the shard) or cluster-wide because no
    /// shard was live (`None`).
    pub shed: Vec<(Option<ShardId>, QueryId)>,
    /// Queries delivered during this step, in dispatch order per shard.
    pub completed: Vec<(ShardId, Completion)>,
}

impl ClusterReport {
    /// Sum of delivered IV across this step's completions.
    #[must_use]
    pub fn delivered_iv(&self) -> f64 {
        self.completed
            .iter()
            .map(|(_, c)| c.evaluation.information_value.value())
            .sum()
    }

    fn absorb(&mut self, shard: ShardId, report: SubmitReport) {
        if let Some(q) = report.shed {
            self.shed.push((Some(shard), q));
        }
        self.completed
            .extend(report.completed.into_iter().map(|c| (shard, c)));
    }
}

/// A sharded serving cluster: router, per-shard engines, stealing and
/// failover. See the module docs for the pipeline.
pub struct Cluster<'a, C: Clock + Clone> {
    catalog: &'a Catalog,
    timelines: &'a ShardTimelines,
    model: &'a dyn CostModel,
    router: ShardRouter,
    config: ClusterConfig,
    /// Pristine copy of the starting clock; every (re)built engine
    /// starts from a clone of it.
    clock0: C,
    engines: Vec<ServeEngine<'a, C>>,
    faults: Option<FaultPlan>,
    tracer: Tracer,
    metrics: ClusterMetrics,
    outages: Vec<ShardOutage>,
    /// Parallel to `outages`: whether the window's failover already ran.
    handled: Vec<bool>,
    search: ScatterGatherSearch,
}

impl<'a, C: Clock + Clone> Cluster<'a, C> {
    /// Creates a cluster of one engine per shard, all starting from
    /// clones of `clock`.
    ///
    /// # Panics
    ///
    /// Panics when `timelines` was built for a different shard count
    /// than the router's assignment.
    #[must_use]
    pub fn new(
        catalog: &'a Catalog,
        timelines: &'a ShardTimelines,
        model: &'a dyn CostModel,
        router: ShardRouter,
        config: ClusterConfig,
        clock: C,
    ) -> Self {
        assert_eq!(
            timelines.len(),
            router.assignment().n_shards(),
            "shard timelines must match the router's shard count"
        );
        let mut cluster = Cluster {
            catalog,
            timelines,
            model,
            router,
            config,
            clock0: clock,
            engines: Vec::new(),
            faults: None,
            tracer: Tracer::disabled(),
            metrics: ClusterMetrics::new(),
            outages: Vec::new(),
            handled: Vec::new(),
            search: ScatterGatherSearch::new(),
        };
        cluster.rebuild_engines();
        cluster
    }

    /// Attaches a tracer (builder-style, before any traffic): the
    /// cluster emits routing/stealing/failover events unscoped, and
    /// every engine re-emits its full pipeline trace scoped to its
    /// shard via [`Tracer::for_shard`] — one shared, interleaved,
    /// deterministic log.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self.rebuild_engines();
        self
    }

    /// Arms a fault plan (builder-style, before any traffic). Each
    /// engine replays the plan scoped to its own tables
    /// ([`FaultPlan::scoped_to_tables`]): sync revisions follow replica
    /// ownership while site outages and cost jitter — shared
    /// infrastructure — hit every shard.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self.rebuild_engines();
        self
    }

    /// Schedules full-shard outage windows (builder-style, before any
    /// traffic). Windows are replayed in `(start, shard)` order.
    #[must_use]
    pub fn with_shard_outages(mut self, mut outages: Vec<ShardOutage>) -> Self {
        outages.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .expect("outage times are finite")
                .then(a.shard.cmp(&b.shard))
        });
        self.handled = vec![false; outages.len()];
        self.outages = outages;
        self
    }

    /// Engines are pure functions of the construction inputs plus the
    /// builder state (tracer, faults), so builder calls just rebuild
    /// them — valid only before traffic, which is when builders run.
    fn rebuild_engines(&mut self) {
        let assignment = self.router.assignment();
        let engines = assignment
            .shards()
            .map(|s| {
                let timelines = self.timelines.shard(s);
                let engine = match &self.faults {
                    Some(plan) => ServeEngine::with_faults(
                        self.catalog,
                        timelines,
                        self.model,
                        self.config.serve,
                        self.clock0.clone(),
                        plan.scoped_to_tables(&assignment.owned_by(s)),
                    ),
                    None => ServeEngine::new(
                        self.catalog,
                        timelines,
                        self.model,
                        self.config.serve,
                        self.clock0.clone(),
                    ),
                };
                engine.with_tracer(self.tracer.for_shard(s))
            })
            .collect();
        self.engines = engines;
    }

    /// Kept only for servebench's traced run, which reads
    /// `shared_memo().stats()` for its `memo.hit_share` metric. The
    /// cluster has no memo, so both counters read zero.
    #[doc(hidden)]
    #[must_use]
    pub fn shared_memo(&self) -> ZeroStats {
        ZeroStats::default()
    }

    /// The cluster's current time (all engines move in lockstep).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.engines[0].now()
    }

    /// The router.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster-level counters.
    #[must_use]
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// The per-shard engines, in shard-id order.
    #[must_use]
    pub fn engines(&self) -> &[ServeEngine<'a, C>] {
        &self.engines
    }

    /// One shard's engine.
    #[must_use]
    pub fn engine(&self, shard: ShardId) -> &ServeEngine<'a, C> {
        &self.engines[shard.index()]
    }

    /// Shards currently inside a scheduled outage window.
    #[must_use]
    pub fn down_shards(&self, at: SimTime) -> BTreeSet<ShardId> {
        self.outages
            .iter()
            .filter(|o| o.covers(at))
            .map(|o| o.shard)
            .collect()
    }

    /// Point-in-time snapshot: cluster counters plus every shard's full
    /// metrics snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ClusterSnapshot {
        self.metrics.snapshot(
            self.now(),
            self.engines.iter().map(ServeEngine::snapshot).collect(),
        )
    }

    /// Prometheus-style text exposition: the cluster dump (with every
    /// shard's section), followed — when a tracer is attached — by the
    /// shared trace's event counters and derived histograms, which
    /// aggregate *all* shards' completions.
    #[must_use]
    pub fn exposition(&self) -> String {
        let mut out = self.snapshot().to_text();
        if let Some(trace) = self.tracer.trace() {
            out.push_str(&trace.exposition());
        }
        out
    }

    /// Submits a query: the cluster advances to the submission time
    /// (running any due failovers), routes the query to the
    /// best-covering live shard, and runs a stealing pass.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning dispatched queries.
    pub fn submit(&mut self, request: QueryRequest) -> Result<ClusterReport, PlanError> {
        let to = if request.submitted_at > self.now() {
            request.submitted_at
        } else {
            self.now()
        };
        let mut report = ClusterReport::default();
        self.step_to(to, &mut report)?;
        self.metrics.record_submitted();
        let down = self.down_shards(to);
        match self
            .router
            .route(self.catalog, request.id(), request.query.tables(), &down)
        {
            None => {
                self.metrics.record_unroutable();
                report.shed.push((None, request.id()));
            }
            Some(decision) => {
                self.metrics.record_routed(&decision);
                let (query, shard) = (request.id(), decision.shard);
                let (covered, missing) = (decision.covered, decision.missing.len());
                self.tracer.emit_with(to, || EventKind::ShardRouted {
                    query,
                    shard,
                    covered,
                    missing,
                });
                let engine_report = self.engines[shard.index()].submit(request)?;
                report.absorb(shard, engine_report);
                report.routed = Some(decision);
            }
        }
        self.steal_pass(to, &mut report)?;
        Ok(report)
    }

    /// Moves every engine to `to` (if in the future), running due
    /// failovers and a stealing pass.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning dispatched queries.
    pub fn advance_to(&mut self, to: SimTime) -> Result<ClusterReport, PlanError> {
        let to = if to > self.now() { to } else { self.now() };
        let mut report = ClusterReport::default();
        self.step_to(to, &mut report)?;
        self.steal_pass(to, &mut report)?;
        Ok(report)
    }

    /// Force-dispatches everything still queued, shard by shard in
    /// shard-id order (after a final stealing pass).
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from planning dispatched queries.
    pub fn drain(&mut self) -> Result<ClusterReport, PlanError> {
        let mut report = ClusterReport::default();
        self.steal_pass(self.now(), &mut report)?;
        for (idx, engine) in self.engines.iter_mut().enumerate() {
            let completed = engine.drain()?;
            report
                .completed
                .extend(completed.into_iter().map(|c| (ShardId::new(idx as u32), c)));
        }
        Ok(report)
    }

    /// Advances the whole cluster to `to`: evacuates shards whose
    /// outage window opens (before their engine could dispatch at
    /// `to`), advances every engine in shard-id order, then re-admits
    /// the evacuated queries at the surviving shards.
    fn step_to(&mut self, to: SimTime, report: &mut ClusterReport) -> Result<(), PlanError> {
        // Phase 1: open due outage windows and evacuate their queues.
        let mut displaced: Vec<(ShardId, Vec<QueuedQuery>)> = Vec::new();
        for idx in 0..self.outages.len() {
            let outage = self.outages[idx];
            if self.handled[idx] || outage.start > to {
                continue;
            }
            self.handled[idx] = true;
            self.metrics.record_shard_outage();
            self.tracer.emit_with(to, || EventKind::ShardOutageStarted {
                shard: outage.shard,
                until: outage.end,
            });
            if outage.end <= to {
                // The whole window fell between driving points: the
                // shard was never down at an instant the cluster acted
                // on, so there is nothing to fail over.
                continue;
            }
            let queue = self.engines[outage.shard.index()].evacuate();
            displaced.push((outage.shard, queue));
        }

        // Phase 2: lockstep advance, shard-id order.
        for (idx, engine) in self.engines.iter_mut().enumerate() {
            let completed = engine.advance_to(to)?;
            report
                .completed
                .extend(completed.into_iter().map(|c| (ShardId::new(idx as u32), c)));
        }

        // Phase 3: re-admit evacuated queries among the survivors.
        let down = self.down_shards(to);
        for (from, queue) in displaced {
            let mut rerouted = 0u64;
            let mut dropped = 0u64;
            for queued in queue {
                let routed = self.router.route(
                    self.catalog,
                    queued.request.id(),
                    queued.request.query.tables(),
                    &down,
                );
                match routed {
                    None => {
                        dropped += 1;
                        self.metrics.record_unroutable();
                        report.shed.push((None, queued.request.id()));
                    }
                    Some(decision) => {
                        rerouted += 1;
                        self.metrics.record_routed(&decision);
                        let (query, shard) = (queued.request.id(), decision.shard);
                        let (covered, missing) = (decision.covered, decision.missing.len());
                        self.tracer.emit_with(to, || EventKind::ShardRouted {
                            query,
                            shard,
                            covered,
                            missing,
                        });
                        let engine_report = self.engines[shard.index()].accept(queued)?;
                        report.absorb(shard, engine_report);
                    }
                }
            }
            self.metrics.record_failover(rerouted, dropped);
            self.tracer.emit_with(to, || EventKind::ShardFailover {
                shard: from,
                rerouted: rerouted as usize,
                shed: dropped as usize,
            });
        }
        Ok(())
    }

    /// The stateless planning context of one shard (its restricted
    /// timeline belief, no queue model) — what the steal guard
    /// evaluates both sides of a transfer under.
    fn plan_ctx(&self, idx: usize) -> PlanContext<'_> {
        PlanContext {
            catalog: self.catalog,
            timelines: self.engines[idx].timelines(),
            model: self.model,
            rates: self.config.serve.rates,
            queues: &NoQueues,
        }
    }

    /// One stealing sweep: each idle live shard may take the youngest
    /// queued query of the most backlogged live shard, but only when
    /// executing it on the thief *now* strictly beats the plan the
    /// victim would produce after waiting out its own backlog. At most
    /// one steal per thief per sweep keeps the pass linear and the
    /// trace readable.
    fn steal_pass(&mut self, now: SimTime, report: &mut ClusterReport) -> Result<(), PlanError> {
        if !self.config.steal || self.engines.len() < 2 {
            return Ok(());
        }
        let down = self.down_shards(now);
        for thief_idx in 0..self.engines.len() {
            let thief = ShardId::new(thief_idx as u32);
            if down.contains(&thief) || self.engines[thief_idx].queue_depth() != 0 {
                continue;
            }
            if self.engines[thief_idx].backlog() > self.config.serve.dispatch_backlog {
                continue; // Not actually idle: it could not dispatch.
            }
            let victim_idx = (0..self.engines.len())
                .filter(|i| *i != thief_idx)
                .filter(|i| !down.contains(&ShardId::new(*i as u32)))
                .filter(|i| self.engines[*i].queue_depth() > 0)
                .max_by_key(|i| (self.engines[*i].queue_depth(), std::cmp::Reverse(*i)));
            let Some(victim_idx) = victim_idx else {
                continue;
            };
            let candidate = match self.engines[victim_idx].queued().last() {
                Some(queued) => queued.request.clone(),
                None => continue,
            };
            let stay_at = now + self.engines[victim_idx].backlog();
            let stay_iv = self
                .search
                .search_from(&self.plan_ctx(victim_idx), &candidate, stay_at)?
                .best
                .information_value
                .value();
            let move_iv = self
                .search
                .search_from(&self.plan_ctx(thief_idx), &candidate, now)?
                .best
                .information_value
                .value();
            if move_iv <= stay_iv {
                continue;
            }
            let Some(stolen) = self.engines[victim_idx].steal_youngest() else {
                continue;
            };
            self.metrics.record_steal(move_iv - stay_iv);
            let (query, from) = (stolen.request.id(), ShardId::new(victim_idx as u32));
            self.tracer.emit_with(now, || EventKind::ShardStolen {
                query,
                from,
                to: thief,
            });
            let engine_report = self.engines[thief_idx].accept(stolen)?;
            report.absorb(thief, engine_report);
        }
        Ok(())
    }
}
