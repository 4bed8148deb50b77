//! Per-query plan-decision audits: *why this plan*.
//!
//! A [`SearchAudit`] is filled in by the scatter-and-gather search as
//! it runs — every candidate it evaluated, the bound trajectory
//! (incumbent IV and tightened boundary after each improvement), the
//! gather waves visited and the final boundary. The serving engine
//! wraps it in a [`PlanAudit`] recording *how* the decision was reached
//! (cache hit, fresh search, outage re-plan) and keeps the most recent
//! audit per query in a bounded [`AuditLog`].
//!
//! Audits are collection-only — they never influence the search — and
//! like trace events they are driven entirely by sim time, so the
//! rendered audit of a seeded run is deterministic.

use std::collections::VecDeque;
use std::fmt::Write as _;

use ivdss_catalog::ids::TableId;
use ivdss_costmodel::query::QueryId;
use ivdss_simkernel::time::SimTime;

/// One evaluated candidate plan: a `(release, local subset)` pair and
/// what the evaluator said about it.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCandidate {
    /// The candidate's release time.
    pub release: SimTime,
    /// The tables read from local replicas (the rest remotely).
    pub local: Vec<TableId>,
    /// Its information value.
    pub iv: f64,
    /// When it would deliver.
    pub finish: SimTime,
}

/// One step of the bound trajectory: the incumbent improved and the
/// boundary tightened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundStep {
    /// Release time of the improving candidate.
    pub at: SimTime,
    /// The new incumbent IV.
    pub incumbent_iv: f64,
    /// The tightened search boundary.
    pub boundary: SimTime,
}

/// What one scatter-and-gather search did, as recorded by the search
/// itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchAudit {
    /// Every candidate evaluated, in sequential decision order.
    pub candidates: Vec<SearchCandidate>,
    /// The bound trajectory (first entry is the scatter incumbent).
    pub bounds: Vec<BoundStep>,
    /// Gather waves visited.
    pub waves: usize,
    /// The final boundary.
    pub boundary: SimTime,
}

impl SearchAudit {
    /// Candidates actually evaluated.
    #[must_use]
    pub fn explored(&self) -> usize {
        self.candidates.len()
    }
}

/// How the serving engine arrived at a dispatched plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Re-scored champion from the sync-phase plan cache.
    CacheHit,
    /// Cache miss: a fresh search ran inside the cache fill.
    CacheMiss,
    /// Cache disabled: a fresh search at dispatch.
    FreshSearch,
    /// The chosen plan spanned a site inside an outage; the engine
    /// re-planned with release floors visible.
    OutageReplan,
}

impl PlanSource {
    fn label(self) -> &'static str {
        match self {
            PlanSource::CacheHit => "cache_hit",
            PlanSource::CacheMiss => "cache_miss",
            PlanSource::FreshSearch => "fresh_search",
            PlanSource::OutageReplan => "outage_replan",
        }
    }
}

/// The full decision record for one dispatched query.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAudit {
    /// The planned query.
    pub query: QueryId,
    /// When the decision was made (dispatch time).
    pub decided_at: SimTime,
    /// How the plan was obtained.
    pub source: PlanSource,
    /// The search record, when a search ran on the dispatch path
    /// (`None` for cache-served plans, whose search ran at fill time).
    pub search: Option<SearchAudit>,
    /// The chosen plan's release time.
    pub chosen_release: SimTime,
    /// The chosen plan's local tables.
    pub chosen_local: Vec<TableId>,
    /// The IV the planner promised.
    pub planned_iv: f64,
}

impl PlanAudit {
    /// Renders the audit as a human-readable multi-line report
    /// (deterministic, like everything else in this crate).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan-audit query={} decided_at={} source={}",
            self.query.raw(),
            self.decided_at.value(),
            self.source.label()
        );
        let locals: Vec<String> = self
            .chosen_local
            .iter()
            .map(|t| t.index().to_string())
            .collect();
        let _ = writeln!(
            out,
            "  chosen release={} local=[{}] iv={}",
            self.chosen_release.value(),
            locals.join(","),
            self.planned_iv
        );
        if let Some(search) = &self.search {
            let _ = writeln!(
                out,
                "  search explored={} waves={} boundary={}",
                search.explored(),
                search.waves,
                if search.boundary == SimTime::MAX {
                    "max".to_string()
                } else {
                    search.boundary.value().to_string()
                }
            );
            for step in &search.bounds {
                let _ = writeln!(
                    out,
                    "  bound at={} incumbent_iv={} boundary={}",
                    step.at.value(),
                    step.incumbent_iv,
                    if step.boundary == SimTime::MAX {
                        "max".to_string()
                    } else {
                        step.boundary.value().to_string()
                    }
                );
            }
            for c in &search.candidates {
                let locals: Vec<String> = c.local.iter().map(|t| t.index().to_string()).collect();
                let _ = writeln!(
                    out,
                    "  candidate release={} local=[{}] iv={} finish={}",
                    c.release.value(),
                    locals.join(","),
                    c.iv,
                    c.finish.value()
                );
            }
        }
        out
    }
}

/// A bounded FIFO log of the most recent [`PlanAudit`] per dispatch.
///
/// Lookup returns the *latest* audit for a query (a re-planned query's
/// final decision supersedes its first).
#[derive(Debug, Default)]
pub struct AuditLog {
    entries: VecDeque<PlanAudit>,
    capacity: usize,
}

impl AuditLog {
    /// Creates a log keeping at most `capacity` audits (0 disables
    /// collection entirely).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        AuditLog {
            entries: VecDeque::new(),
            capacity,
        }
    }

    /// `true` if the log keeps nothing.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Stores an audit, evicting the oldest beyond capacity.
    pub fn push(&mut self, audit: PlanAudit) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(audit);
    }

    /// The most recent audit for `query`, if still retained.
    #[must_use]
    pub fn get(&self, query: QueryId) -> Option<&PlanAudit> {
        self.entries.iter().rev().find(|a| a.query == query)
    }

    /// All retained audits, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &PlanAudit> {
        self.entries.iter()
    }

    /// Retained audits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(query: u64, source: PlanSource) -> PlanAudit {
        PlanAudit {
            query: QueryId::new(query),
            decided_at: SimTime::new(5.0),
            source,
            search: Some(SearchAudit {
                candidates: vec![SearchCandidate {
                    release: SimTime::new(5.0),
                    local: vec![TableId::new(2)],
                    iv: 0.75,
                    finish: SimTime::new(7.0),
                }],
                bounds: vec![BoundStep {
                    at: SimTime::new(5.0),
                    incumbent_iv: 0.75,
                    boundary: SimTime::MAX,
                }],
                waves: 0,
                boundary: SimTime::MAX,
            }),
            chosen_release: SimTime::new(5.0),
            chosen_local: vec![TableId::new(2)],
            planned_iv: 0.75,
        }
    }

    #[test]
    fn render_names_the_decision() {
        let text = audit(9, PlanSource::OutageReplan).render();
        assert!(text.contains("query=9"));
        assert!(text.contains("source=outage_replan"));
        assert!(text.contains("local=[2]"));
        assert!(text.contains("boundary=max"));
        assert!(text.contains("candidate release=5"));
    }

    #[test]
    fn log_keeps_latest_per_query_and_bounds_memory() {
        let mut log = AuditLog::new(2);
        log.push(audit(1, PlanSource::CacheMiss));
        log.push(audit(1, PlanSource::OutageReplan));
        assert_eq!(
            log.get(QueryId::new(1)).unwrap().source,
            PlanSource::OutageReplan,
            "latest audit wins"
        );
        log.push(audit(2, PlanSource::CacheHit));
        assert_eq!(log.len(), 2, "capacity evicts the oldest");
        assert!(log.get(QueryId::new(2)).is_some());
        assert_eq!(log.iter().count(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn zero_capacity_disables_collection() {
        let mut log = AuditLog::new(0);
        assert!(log.is_disabled());
        log.push(audit(1, PlanSource::FreshSearch));
        assert!(log.is_empty());
        assert!(log.get(QueryId::new(1)).is_none());
    }
}
