//! Structured trace events.
//!
//! One [`TraceEvent`] is a sim-time stamp plus an [`EventKind`] payload.
//! Payload fields are deliberately primitive — ids, times, floats — so
//! every crate in the stack can emit them without depending on the rich
//! planning types, and so rendering stays trivially deterministic.
//!
//! # Rendering
//!
//! [`TraceEvent::render_into`] writes one line per event:
//!
//! ```text
//! t=<sim time> <kind> key=value key=value ...
//! ```
//!
//! Floats use Rust's shortest-round-trip `Display`, which is a pure
//! function of the bits, and [`SimTime::MAX`] (an unbounded search
//! boundary) renders as `max` — so two runs that compute identical
//! values render identical bytes.

use std::fmt::Write as _;

use ivdss_catalog::ids::{ShardId, SiteId, TableId};
use ivdss_costmodel::query::QueryId;
use ivdss_simkernel::time::{SimDuration, SimTime};

/// The admission decision taken for one submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Admitted into the queue with capacity to spare.
    Admitted,
    /// Admitted, but the queue was full: the lowest-marginal-IV entry
    /// (under §3.3 aging) was shed to make room.
    AdmittedAfterShedding,
    /// The arrival itself carried the lowest marginal IV and was shed.
    Rejected,
}

impl AdmissionVerdict {
    fn label(self) -> &'static str {
        match self {
            AdmissionVerdict::Admitted => "admitted",
            AdmissionVerdict::AdmittedAfterShedding => "admitted_shed",
            AdmissionVerdict::Rejected => "rejected",
        }
    }
}

/// The payload of one trace event. See each variant for the emission
/// site.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A query arrived at the serving engine.
    Submitted {
        /// The arriving query.
        query: QueryId,
        /// Its business value.
        business_value: f64,
    },
    /// Admission control decided the arriving query's fate.
    Admission {
        /// The arriving query.
        query: QueryId,
        /// The decision.
        verdict: AdmissionVerdict,
        /// The shed victim (the arrival itself for
        /// [`AdmissionVerdict::Rejected`]).
        shed: Option<QueryId>,
        /// Marginal IV (aged, per §3.3) the victim carried when shed.
        shed_marginal_iv: Option<f64>,
        /// Queue depth after the decision.
        depth: usize,
    },
    /// A replica synchronization completed and was delivered to online
    /// consumers; `completed_at` is the completion instant on the
    /// timeline, the event stamp is when the cursor observed it.
    SyncDelivered {
        /// The refreshed table.
        table: TableId,
        /// When the synchronization completed.
        completed_at: SimTime,
    },
    /// A fault revision (sync slip or drop) was applied to the engine's
    /// timeline belief.
    RevisionApplied {
        /// The revised table.
        table: TableId,
        /// The nominally scheduled completion.
        scheduled: SimTime,
        /// The corrected completion (`None` = dropped).
        new_time: Option<SimTime>,
        /// Plan-cache entries evicted by the revision.
        evicted: usize,
    },
    /// An injected site-outage window opened.
    OutageStarted {
        /// The site taken down.
        site: SiteId,
        /// When it recovers.
        until: SimTime,
    },
    /// Synchronization events evicted plan-cache entries.
    CacheInvalidated {
        /// Entries evicted.
        evicted: usize,
    },
    /// The dispatch path consulted the plan cache.
    CacheLookup {
        /// The query being planned.
        query: QueryId,
        /// `true` on a hit.
        hit: bool,
    },
    /// The chosen plan spanned a site inside an outage and was
    /// re-planned with the release floors visible.
    Replanned {
        /// The re-planned query.
        query: QueryId,
        /// Sites under a release floor at re-plan time.
        floored_sites: usize,
    },
    /// Injected cost jitter applied at delivery.
    JitterApplied {
        /// The jittered query.
        query: QueryId,
        /// The multiplicative cost factor (≥ 1).
        factor: f64,
    },
    /// A query was dispatched and delivered: the full
    /// dispatch→completion span with its per-stage breakdown.
    Completed {
        /// The delivered query.
        query: QueryId,
        /// Time spent in the admission queue before dispatch.
        waited: SimDuration,
        /// The plan's release time.
        release: SimTime,
        /// When the local federation server actually started serving it
        /// (release plus calendar queuing).
        service_start: SimTime,
        /// When the result was delivered.
        finish: SimTime,
        /// Computational latency of the delivered evaluation.
        cl: SimDuration,
        /// Synchronization latency of the delivered evaluation.
        sl: SimDuration,
        /// IV the planner promised when the plan was chosen.
        planned_iv: f64,
        /// IV actually delivered against live calendars (and faults).
        delivered_iv: f64,
        /// Fault-free planning bound minus delivered IV, clamped at 0.
        iv_lost: f64,
        /// `true` if an outage forced a dispatch-time re-plan.
        replanned: bool,
    },
    /// A scatter-and-gather search began.
    SearchStarted {
        /// The query being planned.
        query: QueryId,
        /// Earliest admissible release (`max(submitted, not_before)`).
        release_floor: SimTime,
        /// Local-subset candidates per wave (2^replicated tables).
        subsets: usize,
    },
    /// One search wave (the scatter at the release floor, or a gather
    /// wave at a synchronization point) was evaluated.
    SearchWave {
        /// The query being planned.
        query: QueryId,
        /// The wave's release time.
        wave: SimTime,
        /// Candidates evaluated at this wave: every subset at the
        /// scatter, every subset but the all-remote one at a gather wave.
        candidates: usize,
    },
    /// The incumbent improved: a new bound-trajectory step.
    SearchBound {
        /// The query being planned.
        query: QueryId,
        /// The release time of the improving candidate.
        at: SimTime,
        /// The new incumbent IV.
        incumbent_iv: f64,
        /// The tightened search boundary.
        boundary: SimTime,
    },
    /// The search finished.
    SearchFinished {
        /// The planned query.
        query: QueryId,
        /// Candidate plans evaluated.
        explored: usize,
        /// Gather waves visited.
        waves: usize,
        /// The final boundary.
        boundary: SimTime,
        /// The chosen plan's release time.
        release: SimTime,
        /// The chosen plan's IV.
        iv: f64,
    },
    /// A fault plan scheduled a synchronization slip (trace header
    /// emitted before replay; the stamp is the reveal time).
    FaultSlipPlanned {
        /// The table whose sync slips.
        table: TableId,
        /// The nominal completion.
        scheduled: SimTime,
        /// The late completion.
        new_time: SimTime,
    },
    /// A fault plan scheduled a synchronization drop.
    FaultDropPlanned {
        /// The table whose sync is dropped.
        table: TableId,
        /// The nominal completion that never lands.
        scheduled: SimTime,
    },
    /// A fault plan scheduled a site outage.
    FaultOutagePlanned {
        /// The site taken down.
        site: SiteId,
        /// Window end (exclusive).
        end: SimTime,
    },
    /// A generic named span (e.g. one experiment point in a sweep). The
    /// event stamp is the span's end.
    Span {
        /// Span name (static so rendering never allocates labels).
        name: &'static str,
        /// When the span began.
        start: SimTime,
    },
    /// The cluster front door routed a query to a shard.
    ShardRouted {
        /// The routed query.
        query: QueryId,
        /// The chosen shard.
        shard: ShardId,
        /// Replicated footprint tables the shard's replicas cover.
        covered: usize,
        /// Replicated footprint tables it does *not* cover — served via
        /// remote-base fallback (`> 0` marks a partial-coverage route).
        missing: usize,
    },
    /// An idle shard stole a queued query from a backlogged one.
    ShardStolen {
        /// The stolen query.
        query: QueryId,
        /// The backlogged victim shard.
        from: ShardId,
        /// The idle thief shard.
        to: ShardId,
    },
    /// An injected shard-outage window opened: the shard stops serving
    /// and its queue is failed over.
    ShardOutageStarted {
        /// The shard taken down.
        shard: ShardId,
        /// When it recovers.
        until: SimTime,
    },
    /// A down shard's queue was failed over to the surviving shards.
    ShardFailover {
        /// The shard whose queue was evacuated.
        shard: ShardId,
        /// Queries re-admitted elsewhere.
        rerouted: usize,
        /// Queries shed during re-admission (their IV is accounted in
        /// the receiving shard's shed metrics).
        shed: usize,
    },
    /// The adaptive sync scheduler opened an optimization run: the
    /// refresh budget it inherited from the fixed schedules and the
    /// fixed schedules' workload IV (the never-worse floor).
    SchedBudget {
        /// Replicated tables under optimization.
        tables: usize,
        /// Total refresh budget (sum of per-table refresh costs the
        /// fixed schedules spend over the horizon).
        budget: f64,
        /// Workload IV of the fixed schedules at that budget.
        fixed_iv: f64,
    },
    /// The greedy marginal-IV pass allocated one more refresh.
    SchedPick {
        /// The table receiving the refresh.
        table: TableId,
        /// The table's refresh count after the pick.
        refreshes: usize,
        /// Cost of the refresh charged against the budget.
        cost: f64,
        /// Marginal workload-IV gain the pick bought.
        gain: f64,
    },
    /// The adaptive scheduler committed its final schedule.
    SchedChosen {
        /// Which candidate won: `fixed`, `greedy` or `ga`.
        source: &'static str,
        /// Workload IV of the chosen schedule.
        iv: f64,
        /// Budget the chosen schedule actually spends.
        budget_used: f64,
    },
    /// A named traffic scenario began replaying (emitted once, at the
    /// sim origin, before any scenario traffic).
    ScenarioStarted {
        /// The scenario's catalog name (static: scenarios are a fixed
        /// registry, so rendering never allocates labels).
        name: &'static str,
        /// The scenario's root seed.
        seed: u64,
        /// The replay horizon — no arrivals at or beyond this time.
        horizon: SimTime,
    },
    /// A schema-growth scenario's newborn table entered the catalog:
    /// from this instant its timeline is live (first sync exactly at
    /// birth) and templates referencing it become eligible.
    TableBorn {
        /// The newborn table.
        table: TableId,
        /// Its birth instant (also the event stamp).
        born: SimTime,
        /// Its replica's sync period from birth onward.
        sync_period: SimDuration,
    },
    /// The storage-backed serving path is about to execute a real scan
    /// for one local table of the chosen plan; the estimates are the
    /// plan node's pre-execution predictions.
    ScanStarted {
        /// The query being served.
        query: QueryId,
        /// The locally scanned table.
        table: TableId,
        /// Estimated block (page) accesses.
        blocks_est: u64,
        /// Estimated records output.
        records_est: u64,
    },
    /// A storage-backed scan finished: the counts the `StatManager`
    /// collector actually observed and the deterministic measured
    /// latency the device profile charged.
    ScanDone {
        /// The query being served.
        query: QueryId,
        /// The scanned table.
        table: TableId,
        /// Blocks actually accessed.
        blocks: u64,
        /// Records actually accessed.
        records: u64,
        /// Measured scan latency, model time units.
        seconds: f64,
    },
    /// Measured-scan samples were regressed into calibrated local-scan
    /// coefficients (`seconds = overhead + secs_per_byte × bytes`).
    CoefficientsFit {
        /// Samples the fit consumed.
        samples: usize,
        /// Fitted per-scan overhead (intercept).
        overhead: f64,
        /// Fitted marginal cost per byte (slope).
        secs_per_byte: f64,
    },
    /// A completed scenario query was checked against its tenant's SLA
    /// deadline.
    SlaChecked {
        /// The completed query.
        query: QueryId,
        /// The owning tenant's index in the scenario's tenant mix.
        tenant: u32,
        /// The absolute deadline (submission + the tenant's SLA).
        deadline: SimTime,
        /// When the result was delivered.
        finish: SimTime,
        /// `true` when `finish <= deadline`.
        met: bool,
    },
}

impl EventKind {
    /// The event's kind label, as rendered and as counted by
    /// [`Trace::counts`](crate::trace::Trace::counts).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Submitted { .. } => "submitted",
            EventKind::Admission { .. } => "admission",
            EventKind::SyncDelivered { .. } => "sync_delivered",
            EventKind::RevisionApplied { .. } => "revision_applied",
            EventKind::OutageStarted { .. } => "outage_started",
            EventKind::CacheInvalidated { .. } => "cache_invalidated",
            EventKind::CacheLookup { .. } => "cache_lookup",
            EventKind::Replanned { .. } => "replanned",
            EventKind::JitterApplied { .. } => "jitter",
            EventKind::Completed { .. } => "completed",
            EventKind::SearchStarted { .. } => "search_started",
            EventKind::SearchWave { .. } => "search_wave",
            EventKind::SearchBound { .. } => "search_bound",
            EventKind::SearchFinished { .. } => "search_finished",
            EventKind::FaultSlipPlanned { .. } => "fault_slip_planned",
            EventKind::FaultDropPlanned { .. } => "fault_drop_planned",
            EventKind::FaultOutagePlanned { .. } => "fault_outage_planned",
            EventKind::Span { .. } => "span",
            EventKind::ShardRouted { .. } => "shard_routed",
            EventKind::ShardStolen { .. } => "shard_stolen",
            EventKind::ShardOutageStarted { .. } => "shard_outage_started",
            EventKind::ShardFailover { .. } => "shard_failover",
            EventKind::SchedBudget { .. } => "sched_budget",
            EventKind::SchedPick { .. } => "sched_pick",
            EventKind::SchedChosen { .. } => "sched_chosen",
            EventKind::ScenarioStarted { .. } => "scenario_started",
            EventKind::TableBorn { .. } => "table_born",
            EventKind::ScanStarted { .. } => "scan_started",
            EventKind::ScanDone { .. } => "scan_done",
            EventKind::CoefficientsFit { .. } => "coefficients_fit",
            EventKind::SlaChecked { .. } => "sla_checked",
        }
    }
}

/// One sim-time-stamped trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When the event was emitted, on the sim clock.
    pub at: SimTime,
    /// The emitting shard, when the event came from one engine of a
    /// sharded cluster (stamped by a shard-scoped
    /// [`Tracer`](crate::trace::Tracer)). `None` — the single-server
    /// case — renders byte-identically to the pre-cluster format.
    pub shard: Option<ShardId>,
    /// The payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// An untagged (single-server) event.
    #[must_use]
    pub fn new(at: SimTime, kind: EventKind) -> Self {
        TraceEvent {
            at,
            shard: None,
            kind,
        }
    }
}

/// Renders a time deterministically; [`SimTime::MAX`] (unbounded
/// boundary) renders as `max`.
fn fmt_time(t: SimTime) -> String {
    if t == SimTime::MAX {
        "max".to_string()
    } else {
        format!("{}", t.value())
    }
}

impl TraceEvent {
    /// Appends this event's line (terminated by `\n`) to `out`.
    pub fn render_into(&self, out: &mut String) {
        let _ = write!(out, "t={} {}", fmt_time(self.at), self.kind.name());
        if let Some(shard) = self.shard {
            let _ = write!(out, " shard={}", shard.raw());
        }
        match &self.kind {
            EventKind::Submitted {
                query,
                business_value,
            } => {
                let _ = write!(out, " query={} bv={business_value}", query.raw());
            }
            EventKind::Admission {
                query,
                verdict,
                shed,
                shed_marginal_iv,
                depth,
            } => {
                let _ = write!(out, " query={} verdict={}", query.raw(), verdict.label());
                if let Some(victim) = shed {
                    let _ = write!(out, " shed={}", victim.raw());
                }
                if let Some(iv) = shed_marginal_iv {
                    let _ = write!(out, " shed_marginal_iv={iv}");
                }
                let _ = write!(out, " depth={depth}");
            }
            EventKind::SyncDelivered {
                table,
                completed_at,
            } => {
                let _ = write!(
                    out,
                    " table={} completed_at={}",
                    table.index(),
                    fmt_time(*completed_at)
                );
            }
            EventKind::RevisionApplied {
                table,
                scheduled,
                new_time,
                evicted,
            } => {
                let _ = write!(
                    out,
                    " table={} scheduled={}",
                    table.index(),
                    fmt_time(*scheduled)
                );
                match new_time {
                    Some(t) => {
                        let _ = write!(out, " kind=slip new_time={}", fmt_time(*t));
                    }
                    None => {
                        let _ = write!(out, " kind=drop");
                    }
                }
                let _ = write!(out, " evicted={evicted}");
            }
            EventKind::OutageStarted { site, until } => {
                let _ = write!(out, " site={} until={}", site.index(), fmt_time(*until));
            }
            EventKind::CacheInvalidated { evicted } => {
                let _ = write!(out, " evicted={evicted}");
            }
            EventKind::CacheLookup { query, hit } => {
                let _ = write!(
                    out,
                    " query={} outcome={}",
                    query.raw(),
                    if *hit { "hit" } else { "miss" }
                );
            }
            EventKind::Replanned {
                query,
                floored_sites,
            } => {
                let _ = write!(out, " query={} floored_sites={floored_sites}", query.raw());
            }
            EventKind::JitterApplied { query, factor } => {
                let _ = write!(out, " query={} factor={factor}", query.raw());
            }
            EventKind::Completed {
                query,
                waited,
                release,
                service_start,
                finish,
                cl,
                sl,
                planned_iv,
                delivered_iv,
                iv_lost,
                replanned,
            } => {
                let _ = write!(
                    out,
                    " query={} waited={} release={} service_start={} finish={} cl={} sl={} \
                     planned_iv={planned_iv} delivered_iv={delivered_iv} iv_lost={iv_lost} \
                     replanned={replanned}",
                    query.raw(),
                    waited.value(),
                    fmt_time(*release),
                    fmt_time(*service_start),
                    fmt_time(*finish),
                    cl.value(),
                    sl.value(),
                );
            }
            EventKind::SearchStarted {
                query,
                release_floor,
                subsets,
            } => {
                let _ = write!(
                    out,
                    " query={} release_floor={} subsets={subsets}",
                    query.raw(),
                    fmt_time(*release_floor),
                );
            }
            EventKind::SearchWave {
                query,
                wave,
                candidates,
            } => {
                let _ = write!(
                    out,
                    " query={} wave={} candidates={candidates}",
                    query.raw(),
                    fmt_time(*wave),
                );
            }
            EventKind::SearchBound {
                query,
                at,
                incumbent_iv,
                boundary,
            } => {
                let _ = write!(
                    out,
                    " query={} at={} incumbent_iv={incumbent_iv} boundary={}",
                    query.raw(),
                    fmt_time(*at),
                    fmt_time(*boundary)
                );
            }
            EventKind::SearchFinished {
                query,
                explored,
                waves,
                boundary,
                release,
                iv,
            } => {
                let _ = write!(
                    out,
                    " query={} explored={explored} waves={waves} boundary={} release={} iv={iv}",
                    query.raw(),
                    fmt_time(*boundary),
                    fmt_time(*release),
                );
            }
            EventKind::FaultSlipPlanned {
                table,
                scheduled,
                new_time,
            } => {
                let _ = write!(
                    out,
                    " table={} scheduled={} new_time={}",
                    table.index(),
                    fmt_time(*scheduled),
                    fmt_time(*new_time)
                );
            }
            EventKind::FaultDropPlanned { table, scheduled } => {
                let _ = write!(
                    out,
                    " table={} scheduled={}",
                    table.index(),
                    fmt_time(*scheduled)
                );
            }
            EventKind::FaultOutagePlanned { site, end } => {
                let _ = write!(out, " site={} end={}", site.index(), fmt_time(*end));
            }
            EventKind::Span { name, start } => {
                let _ = write!(out, " name={name} start={}", fmt_time(*start));
            }
            EventKind::ShardRouted {
                query,
                shard,
                covered,
                missing,
            } => {
                let _ = write!(
                    out,
                    " query={} to={} covered={covered} missing={missing} coverage={}",
                    query.raw(),
                    shard.raw(),
                    if *missing == 0 { "full" } else { "partial" }
                );
            }
            EventKind::ShardStolen { query, from, to } => {
                let _ = write!(
                    out,
                    " query={} from={} to={}",
                    query.raw(),
                    from.raw(),
                    to.raw()
                );
            }
            EventKind::ShardOutageStarted { shard, until } => {
                let _ = write!(out, " shard={} until={}", shard.raw(), fmt_time(*until));
            }
            EventKind::ShardFailover {
                shard,
                rerouted,
                shed,
            } => {
                let _ = write!(
                    out,
                    " shard={} rerouted={rerouted} shed={shed}",
                    shard.raw()
                );
            }
            EventKind::SchedBudget {
                tables,
                budget,
                fixed_iv,
            } => {
                let _ = write!(out, " tables={tables} budget={budget} fixed_iv={fixed_iv}");
            }
            EventKind::SchedPick {
                table,
                refreshes,
                cost,
                gain,
            } => {
                let _ = write!(
                    out,
                    " table={} refreshes={refreshes} cost={cost} gain={gain}",
                    table.index()
                );
            }
            EventKind::SchedChosen {
                source,
                iv,
                budget_used,
            } => {
                let _ = write!(out, " source={source} iv={iv} budget_used={budget_used}");
            }
            EventKind::ScenarioStarted {
                name,
                seed,
                horizon,
            } => {
                let _ = write!(
                    out,
                    " name={name} seed={seed} horizon={}",
                    fmt_time(*horizon)
                );
            }
            EventKind::TableBorn {
                table,
                born,
                sync_period,
            } => {
                let _ = write!(
                    out,
                    " table={} born={} sync_period={}",
                    table.index(),
                    fmt_time(*born),
                    sync_period.value()
                );
            }
            EventKind::ScanStarted {
                query,
                table,
                blocks_est,
                records_est,
            } => {
                let _ = write!(
                    out,
                    " query={} table={} blocks_est={blocks_est} records_est={records_est}",
                    query.raw(),
                    table.index()
                );
            }
            EventKind::ScanDone {
                query,
                table,
                blocks,
                records,
                seconds,
            } => {
                let _ = write!(
                    out,
                    " query={} table={} blocks={blocks} records={records} seconds={seconds}",
                    query.raw(),
                    table.index()
                );
            }
            EventKind::CoefficientsFit {
                samples,
                overhead,
                secs_per_byte,
            } => {
                let _ = write!(
                    out,
                    " samples={samples} overhead={overhead} secs_per_byte={secs_per_byte}"
                );
            }
            EventKind::SlaChecked {
                query,
                tenant,
                deadline,
                finish,
                met,
            } => {
                let _ = write!(
                    out,
                    " query={} tenant={tenant} deadline={} finish={} met={met}",
                    query.raw(),
                    fmt_time(*deadline),
                    fmt_time(*finish)
                );
            }
        }
        out.push('\n');
    }

    /// Renders this event as its own line (convenience over
    /// [`TraceEvent::render_into`]).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_deterministic_and_named() {
        let e = TraceEvent::new(
            SimTime::new(2.5),
            EventKind::CacheLookup {
                query: QueryId::new(7),
                hit: true,
            },
        );
        assert_eq!(e.render(), "t=2.5 cache_lookup query=7 outcome=hit\n");
        assert_eq!(e.kind.name(), "cache_lookup");
        assert_eq!(e.render(), e.clone().render());
    }

    #[test]
    fn unbounded_boundary_renders_as_max() {
        let e = TraceEvent::new(
            SimTime::ZERO,
            EventKind::SearchBound {
                query: QueryId::new(0),
                at: SimTime::ZERO,
                incumbent_iv: 0.5,
                boundary: SimTime::MAX,
            },
        );
        assert!(e.render().ends_with("boundary=max\n"), "{}", e.render());
    }

    #[test]
    fn drop_and_slip_revisions_render_distinctly() {
        let slip = TraceEvent::new(
            SimTime::new(4.0),
            EventKind::RevisionApplied {
                table: TableId::new(1),
                scheduled: SimTime::new(4.0),
                new_time: Some(SimTime::new(6.0)),
                evicted: 3,
            },
        );
        let drop = TraceEvent::new(
            SimTime::new(4.0),
            EventKind::RevisionApplied {
                table: TableId::new(1),
                scheduled: SimTime::new(4.0),
                new_time: None,
                evicted: 0,
            },
        );
        assert!(slip.render().contains("kind=slip new_time=6"));
        assert!(drop.render().contains("kind=drop"));
    }

    #[test]
    fn shard_tag_renders_after_the_kind() {
        let tagged = TraceEvent {
            at: SimTime::new(2.5),
            shard: Some(ShardId::new(1)),
            kind: EventKind::CacheLookup {
                query: QueryId::new(7),
                hit: false,
            },
        };
        assert_eq!(
            tagged.render(),
            "t=2.5 cache_lookup shard=1 query=7 outcome=miss\n"
        );
        // Untagged events keep the pre-cluster byte format.
        let untagged = TraceEvent::new(tagged.at, tagged.kind.clone());
        assert_eq!(
            untagged.render(),
            "t=2.5 cache_lookup query=7 outcome=miss\n"
        );
    }

    #[test]
    fn search_events_render() {
        let query = QueryId::new(6);
        let started = TraceEvent::new(
            SimTime::new(11.0),
            EventKind::SearchStarted {
                query,
                release_floor: SimTime::new(11.0),
                subsets: 4,
            },
        );
        assert_eq!(
            started.render(),
            "t=11 search_started query=6 release_floor=11 subsets=4\n"
        );
        let wave = TraceEvent::new(
            SimTime::new(11.0),
            EventKind::SearchWave {
                query,
                wave: SimTime::new(12.5),
                candidates: 3,
            },
        );
        assert_eq!(
            wave.render(),
            "t=11 search_wave query=6 wave=12.5 candidates=3\n"
        );
        let bound = TraceEvent::new(
            SimTime::new(11.0),
            EventKind::SearchBound {
                query,
                at: SimTime::new(12.5),
                incumbent_iv: 0.75,
                boundary: SimTime::new(40.25),
            },
        );
        assert_eq!(
            bound.render(),
            "t=11 search_bound query=6 at=12.5 incumbent_iv=0.75 boundary=40.25\n"
        );
        let finished = TraceEvent::new(
            SimTime::new(11.0),
            EventKind::SearchFinished {
                query,
                explored: 7,
                waves: 1,
                boundary: SimTime::new(40.25),
                release: SimTime::new(12.5),
                iv: 0.75,
            },
        );
        assert_eq!(
            finished.render(),
            "t=11 search_finished query=6 explored=7 waves=1 boundary=40.25 release=12.5 iv=0.75\n"
        );
        let unbounded = TraceEvent::new(
            SimTime::ZERO,
            EventKind::SearchFinished {
                query,
                explored: 1,
                waves: 0,
                boundary: SimTime::MAX,
                release: SimTime::ZERO,
                iv: 1.0,
            },
        );
        assert_eq!(
            unbounded.render(),
            "t=0 search_finished query=6 explored=1 waves=0 boundary=max release=0 iv=1\n"
        );
    }

    #[test]
    fn scheduler_events_render() {
        let budget = TraceEvent::new(
            SimTime::ZERO,
            EventKind::SchedBudget {
                tables: 3,
                budget: 12.0,
                fixed_iv: 1.75,
            },
        );
        assert_eq!(
            budget.render(),
            "t=0 sched_budget tables=3 budget=12 fixed_iv=1.75\n"
        );
        let pick = TraceEvent::new(
            SimTime::ZERO,
            EventKind::SchedPick {
                table: TableId::new(2),
                refreshes: 4,
                cost: 1.0,
                gain: 0.25,
            },
        );
        assert_eq!(
            pick.render(),
            "t=0 sched_pick table=2 refreshes=4 cost=1 gain=0.25\n"
        );
        let chosen = TraceEvent::new(
            SimTime::ZERO,
            EventKind::SchedChosen {
                source: "greedy",
                iv: 2.5,
                budget_used: 11.0,
            },
        );
        assert_eq!(
            chosen.render(),
            "t=0 sched_chosen source=greedy iv=2.5 budget_used=11\n"
        );
    }

    #[test]
    fn scenario_events_render() {
        let started = TraceEvent::new(
            SimTime::ZERO,
            EventKind::ScenarioStarted {
                name: "flash-crowd",
                seed: 0xC0FFEE,
                horizon: SimTime::new(120.0),
            },
        );
        assert_eq!(
            started.render(),
            "t=0 scenario_started name=flash-crowd seed=12648430 horizon=120\n"
        );
        let born = TraceEvent::new(
            SimTime::new(30.0),
            EventKind::TableBorn {
                table: TableId::new(24),
                born: SimTime::new(30.0),
                sync_period: SimDuration::new(6.0),
            },
        );
        assert_eq!(
            born.render(),
            "t=30 table_born table=24 born=30 sync_period=6\n"
        );
        let sla = TraceEvent::new(
            SimTime::new(18.5),
            EventKind::SlaChecked {
                query: QueryId::new(9),
                tenant: 1,
                deadline: SimTime::new(17.0),
                finish: SimTime::new(18.5),
                met: false,
            },
        );
        assert_eq!(
            sla.render(),
            "t=18.5 sla_checked query=9 tenant=1 deadline=17 finish=18.5 met=false\n"
        );
    }

    #[test]
    fn storage_events_render() {
        let started = TraceEvent::new(
            SimTime::new(1.5),
            EventKind::ScanStarted {
                query: QueryId::new(4),
                table: TableId::new(2),
                blocks_est: 17,
                records_est: 100,
            },
        );
        assert_eq!(
            started.render(),
            "t=1.5 scan_started query=4 table=2 blocks_est=17 records_est=100\n"
        );
        let done = TraceEvent::new(
            SimTime::new(1.5),
            EventKind::ScanDone {
                query: QueryId::new(4),
                table: TableId::new(2),
                blocks: 17,
                records: 100,
                seconds: 0.0039,
            },
        );
        assert_eq!(
            done.render(),
            "t=1.5 scan_done query=4 table=2 blocks=17 records=100 seconds=0.0039\n"
        );
        let fitted = TraceEvent::new(
            SimTime::new(9.0),
            EventKind::CoefficientsFit {
                samples: 6,
                overhead: 0.0005,
                secs_per_byte: 2.5e-9,
            },
        );
        assert_eq!(
            fitted.render(),
            "t=9 coefficients_fit samples=6 overhead=0.0005 secs_per_byte=0.0000000025\n"
        );
    }

    #[test]
    fn cluster_events_render_routing_and_stealing() {
        let routed = TraceEvent::new(
            SimTime::new(1.0),
            EventKind::ShardRouted {
                query: QueryId::new(3),
                shard: ShardId::new(2),
                covered: 2,
                missing: 1,
            },
        );
        assert_eq!(
            routed.render(),
            "t=1 shard_routed query=3 to=2 covered=2 missing=1 coverage=partial\n"
        );
        let stolen = TraceEvent::new(
            SimTime::new(2.0),
            EventKind::ShardStolen {
                query: QueryId::new(3),
                from: ShardId::new(0),
                to: ShardId::new(2),
            },
        );
        assert_eq!(stolen.render(), "t=2 shard_stolen query=3 from=0 to=2\n");
        let outage = TraceEvent::new(
            SimTime::new(3.0),
            EventKind::ShardOutageStarted {
                shard: ShardId::new(1),
                until: SimTime::new(9.0),
            },
        );
        assert_eq!(
            outage.render(),
            "t=3 shard_outage_started shard=1 until=9\n"
        );
        let failover = TraceEvent::new(
            SimTime::new(3.0),
            EventKind::ShardFailover {
                shard: ShardId::new(1),
                rerouted: 4,
                shed: 1,
            },
        );
        assert_eq!(
            failover.render(),
            "t=3 shard_failover shard=1 rerouted=4 shed=1\n"
        );
    }
}
