//! The scatter-and-gather plan search (paper §3.1, Fig. 4).
//!
//! The search space of a query is the cross product of
//!
//! * the *combinations* — which subset of the replicated footprint tables
//!   to read locally (the rest remotely), and
//! * the *release times* — now, or any future synchronization point of a
//!   replicated footprint table (a delayed plan, Fig. 2).
//!
//! The paper's key pruning insight: "if we have a current optimal solution
//! with information value opt, then the longest computational latency we
//! can tolerate to wait for a better solution can be bounded (just assume
//! if synchronization latency will not result in any discount …). This
//! boundary limits the searching space and any time during the search, if
//! a better solution opt is encountered, the boundary can be even
//! tighter."
//!
//! * **Scatter** — evaluate every combination at the submission time,
//!   establishing the incumbent and the first boundary;
//! * **Gather** — push the time line to the very next synchronization
//!   point, re-evaluate the combinations that could have improved (plans
//!   that read everything remotely never benefit from waiting, so they are
//!   only considered at submission), tighten the boundary on every
//!   improvement, and stop as soon as the next synchronization lies beyond
//!   the boundary.
//!
//! # Hot-path representation
//!
//! Candidates never touch the heap: the per-mask tables, sites and costs
//! live in a [`SubsetArena`] built once per search (the cost model runs
//! once per mask), each release time looks its replica versions up once
//! into a [`Wave`](crate::plan::Wave), each candidate scores into a `Copy`
//! [`CandidateScore`] through the same kernel [`evaluate_plan`] uses (so
//! the numbers are bit-identical by construction), the incumbent race
//! runs branchless ([`is_better_score`]), and only the final winner
//! materializes into a [`PlanEvaluation`]. [`ScatterGatherSearch::reference_search_boxed`]
//! preserves the historical per-candidate boxed implementation as a
//! differential oracle.
//!
//! # Entry points
//!
//! [`ScatterGatherSearch::search_from`] is the plain search.
//! [`ScatterGatherSearch::search_with`] takes the optional
//! instrumentation of a [`SearchOpts`]: a [`Tracer`] and a
//! [`SearchAudit`]. Neither changes the chosen plan, the boundary or the
//! candidates explored. The walk runs on the calling thread; callers
//! that plan many queries parallelize per query (see
//! [`crate::parallel::PlannerPool`]).

use std::collections::BTreeSet;

use ivdss_catalog::ids::TableId;
use ivdss_costmodel::query::QueryId;
use ivdss_obs::{BoundStep, EventKind, SearchAudit, SearchCandidate, Tracer};
use ivdss_simkernel::time::SimTime;

use crate::plan::{
    evaluate_plan, CandidateScore, PlanContext, PlanError, PlanEvaluation, QueryRequest,
    SubsetArena,
};

/// Hard cap on gather iterations, protecting against unbounded searches
/// when `λ_CL = 0` (no boundary exists) over infinite periodic schedules.
pub const DEFAULT_MAX_SYNC_POINTS: usize = 64;

/// Outcome of a plan search: the winning plan plus search-effort counters
/// (used by the pruning ablation benches).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The plan with the maximal information value.
    pub best: PlanEvaluation,
    /// Total candidate plans evaluated.
    pub plans_explored: usize,
    /// Synchronization points the time line was pushed to.
    pub sync_points_visited: usize,
    /// The final search boundary (release times beyond it were pruned).
    pub boundary: SimTime,
}

/// The bounded scatter-and-gather search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterGatherSearch {
    max_sync_points: usize,
}

impl Default for ScatterGatherSearch {
    fn default() -> Self {
        ScatterGatherSearch {
            max_sync_points: DEFAULT_MAX_SYNC_POINTS,
        }
    }
}

/// The optional instrumentation of one
/// [`ScatterGatherSearch::search_with`] call. `SearchOpts::default()`
/// is the plain search.
#[derive(Debug, Default)]
pub struct SearchOpts<'a> {
    /// Receives the search events (start, per-wave effort, bound
    /// trajectory, finish). `None` emits nothing.
    pub tracer: Option<&'a Tracer>,
    /// Accumulates the full candidate and bound record.
    pub audit: Option<&'a mut SearchAudit>,
}

impl ScatterGatherSearch {
    /// Creates a search with the default sync-point cap.
    #[must_use]
    pub fn new() -> Self {
        ScatterGatherSearch::default()
    }

    /// Overrides the gather-iteration cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_sync_points == 0`.
    #[must_use]
    pub fn with_max_sync_points(max_sync_points: usize) -> Self {
        assert!(max_sync_points > 0, "need at least one sync point");
        ScatterGatherSearch { max_sync_points }
    }

    /// Finds the plan maximizing the information value of `request`,
    /// releasing no candidate before `not_before`. A fresh query passes
    /// its `submitted_at`; a scheduler re-planning a queued query at
    /// dispatch time passes the current clock, because releasing into
    /// the past would violate causality.
    ///
    /// Latencies are still measured from the query's true submission time.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from plan evaluation (the search itself
    /// only generates valid candidates, so this indicates an inconsistent
    /// context).
    pub fn search_from(
        &self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        not_before: SimTime,
    ) -> Result<SearchOutcome, PlanError> {
        self.search_with(ctx, request, not_before, SearchOpts::default())
    }

    /// [`ScatterGatherSearch::search_from`] with the optional
    /// instrumentation in `opts`, which never changes the outcome. The
    /// search scatters, then gathers wave by wave. All events are
    /// stamped at the release floor; wave and bound payloads carry the
    /// release times they describe.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from plan evaluation.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use ivdss_catalog::ids::TableId;
    /// use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    /// use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    /// use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
    /// use ivdss_core::search::{ScatterGatherSearch, SearchOpts};
    /// use ivdss_core::value::DiscountRates;
    /// use ivdss_costmodel::model::StylizedCostModel;
    /// use ivdss_costmodel::query::{QueryId, QuerySpec};
    /// use ivdss_obs::{SearchAudit, Trace, Tracer};
    /// use ivdss_replication::timelines::{SyncMode, SyncTimelines};
    /// use ivdss_simkernel::time::SimTime;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let base = synthetic_catalog(&SyntheticConfig {
    ///     tables: 4, sites: 2, replicated_tables: 0, ..SyntheticConfig::default()
    /// })?;
    /// let mut plan = ReplicationPlan::new();
    /// plan.add(TableId::new(0), ReplicaSpec::new(8.0));
    /// plan.add(TableId::new(1), ReplicaSpec::new(2.0));
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
    ///     QuerySpec::new(QueryId::new(1), vec![TableId::new(0), TableId::new(1)]),
    ///     SimTime::new(11.0),
    /// );
    ///
    /// let search = ScatterGatherSearch::new();
    /// let plain = search.search_from(&ctx, &request, request.submitted_at)?;
    /// let trace = Arc::new(Trace::new());
    /// let tracer = Tracer::recording(Arc::clone(&trace));
    /// let mut audit = SearchAudit::default();
    /// let observed = search.search_with(
    ///     &ctx,
    ///     &request,
    ///     request.submitted_at,
    ///     SearchOpts {
    ///         tracer: Some(&tracer),
    ///         audit: Some(&mut audit),
    ///     },
    /// )?;
    /// // Same outcome as the plain search, now with a record of it.
    /// assert_eq!(observed, plain);
    /// assert_eq!(audit.explored(), observed.plans_explored);
    /// assert_eq!(trace.counts()["search_finished"], 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn search_with(
        &self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        not_before: SimTime,
        opts: SearchOpts<'_>,
    ) -> Result<SearchOutcome, PlanError> {
        let SearchOpts { tracer, mut audit } = opts;
        let disabled = Tracer::disabled();
        let tracer = tracer.unwrap_or(&disabled);
        let query = request.id();
        let submit = request.submitted_at.max(not_before);
        let replicated = replicated_footprint(ctx, request);
        let arena = SubsetArena::build(ctx, request, &replicated);
        let n_masks = arena.len();

        tracer.emit_with(submit, || EventKind::SearchStarted {
            query,
            release_floor: submit,
            subsets: n_masks,
        });

        let mut explored = 0usize;
        let mut best: Option<(CandidateScore, usize)> = None;

        // Scatter: every combination, released immediately.
        tracer.emit_with(submit, || EventKind::SearchWave {
            query,
            wave: submit,
            candidates: n_masks,
        });
        let wave = arena.wave(ctx, submit);
        for mask in 0..n_masks {
            let score = arena.score(ctx, request, &wave, mask);
            explored += 1;
            note_candidate_score(&mut audit, &arena, mask, score);
            if is_better_score(&score, best.as_ref().map(|(s, _)| s)) {
                best = Some((score, mask));
            }
        }
        let (mut best, mut best_mask) = best.expect("at least the all-remote plan exists");
        let mut boundary = self.boundary_for(ctx, request, best.information_value.value());
        note_bound(
            tracer,
            &mut audit,
            query,
            submit,
            submit,
            best.information_value.value(),
            boundary,
        );

        // Gather: walk the synchronization time line.
        let mut now = submit;
        let mut visited = 0usize;
        while visited < self.max_sync_points {
            let Some((_, next_sync)) = ctx.timelines.next_sync_among(&replicated, now) else {
                break; // trace schedules exhaust
            };
            if next_sync > boundary {
                break; // beyond the tolerable computational latency
            }
            now = next_sync;
            visited += 1;
            tracer.emit_with(submit, || EventKind::SearchWave {
                query,
                wave: now,
                candidates: n_masks - 1,
            });
            // "if only base tables are involved, then the query evaluation
            // should be executed immediately" — delaying the all-remote
            // mask 0 only adds CL, so gather waves start at mask 1.
            let wave = arena.wave(ctx, now);
            for mask in 1..n_masks {
                let score = arena.score(ctx, request, &wave, mask);
                explored += 1;
                note_candidate_score(&mut audit, &arena, mask, score);
                if is_better_score(&score, Some(&best)) {
                    best = score;
                    best_mask = mask;
                    boundary = self.boundary_for(ctx, request, best.information_value.value());
                    note_bound(
                        tracer,
                        &mut audit,
                        query,
                        submit,
                        now,
                        best.information_value.value(),
                        boundary,
                    );
                }
            }
        }

        if let Some(a) = audit {
            a.waves = visited;
            a.boundary = boundary;
        }
        tracer.emit_with(submit, || EventKind::SearchFinished {
            query,
            explored,
            waves: visited,
            boundary,
            release: best.execute_at,
            iv: best.information_value.value(),
        });
        Ok(SearchOutcome {
            best: arena.evaluation(request, best_mask, best),
            plans_explored: explored,
            sync_points_visited: visited,
            boundary,
        })
    }

    /// The historical per-candidate boxed implementation of the
    /// sequential search: every candidate heap-materialized into a
    /// [`PlanEvaluation`] through [`evaluate_plan`], the incumbent
    /// cloned on every improvement. Kept verbatim as the differential
    /// oracle the arena hot path is pinned against (the
    /// `revision_stream_differential` suite and the `arena_vs_boxed`
    /// bench cell).
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from plan evaluation.
    pub fn reference_search_boxed(
        &self,
        ctx: &PlanContext<'_>,
        request: &QueryRequest,
        not_before: SimTime,
    ) -> Result<SearchOutcome, PlanError> {
        let submit = request.submitted_at.max(not_before);
        let replicated = replicated_footprint(ctx, request);
        let subsets = local_subsets(&replicated);

        let mut explored = 0usize;
        let mut best: Option<PlanEvaluation> = None;
        for local in &subsets {
            let eval = evaluate_plan(ctx, request, submit, local)?;
            explored += 1;
            if is_better(&eval, best.as_ref()) {
                best = Some(eval);
            }
        }
        let mut best = best.expect("at least the all-remote plan exists");
        let mut boundary = self.boundary_for(ctx, request, best.information_value.value());

        let mut now = submit;
        let mut visited = 0usize;
        while visited < self.max_sync_points {
            let Some((_, next_sync)) = ctx.timelines.next_sync_among(&replicated, now) else {
                break;
            };
            if next_sync > boundary {
                break;
            }
            now = next_sync;
            visited += 1;
            for local in &subsets {
                if local.is_empty() {
                    continue;
                }
                let eval = evaluate_plan(ctx, request, now, local)?;
                explored += 1;
                if is_better(&eval, Some(&best)) {
                    best = eval;
                    boundary = self.boundary_for(ctx, request, best.information_value.value());
                }
            }
        }

        Ok(SearchOutcome {
            best,
            plans_explored: explored,
            sync_points_visited: visited,
            boundary,
        })
    }

    /// The latest release time that could still beat the incumbent: even
    /// with zero synchronization latency and zero service time, a plan
    /// released at `submit + L` has `CL ≥ L`, so it needs
    /// `(1 − λ_CL)^L ≥ best/BV`.
    fn boundary_for(&self, ctx: &PlanContext<'_>, request: &QueryRequest, best_iv: f64) -> SimTime {
        let threshold = (best_iv / request.business_value.value()).min(1.0);
        if threshold <= 0.0 {
            return SimTime::MAX;
        }
        match ctx.rates.cl.max_latency_for_factor(threshold) {
            Some(max_cl) => request.submitted_at + max_cl,
            None => SimTime::MAX, // λ_CL = 0: no boundary, the cap applies
        }
    }
}

/// Appends a candidate to the audit (no-op without one). Audit
/// collection is recording-only: the search never reads it back.
fn note_candidate_score(
    audit: &mut Option<&mut SearchAudit>,
    arena: &SubsetArena,
    mask: usize,
    score: CandidateScore,
) {
    if let Some(a) = audit.as_deref_mut() {
        a.candidates.push(SearchCandidate {
            release: score.execute_at,
            local: arena.local(mask).collect(),
            iv: score.information_value.value(),
            finish: score.finish,
        });
    }
}

/// Records one bound-trajectory step (incumbent improved, boundary
/// tightened) into the trace and the audit. `stamp` is the planning
/// instant (all search events share it); `at` is the release time of
/// the improving candidate.
fn note_bound(
    tracer: &Tracer,
    audit: &mut Option<&mut SearchAudit>,
    query: QueryId,
    stamp: SimTime,
    at: SimTime,
    incumbent_iv: f64,
    boundary: SimTime,
) {
    tracer.emit_with(stamp, || EventKind::SearchBound {
        query,
        at,
        incumbent_iv,
        boundary,
    });
    if let Some(a) = audit.as_deref_mut() {
        a.bounds.push(BoundStep {
            at,
            incumbent_iv,
            boundary,
        });
    }
}

/// Exhaustively evaluates every combination at the submission time and at
/// the first `sync_points` synchronization points, with no boundary
/// pruning. Reference oracle for tests and the pruning-ablation bench.
///
/// # Errors
///
/// Propagates [`PlanError`] from plan evaluation.
pub fn exhaustive_search(
    ctx: &PlanContext<'_>,
    request: &QueryRequest,
    sync_points: usize,
) -> Result<SearchOutcome, PlanError> {
    let submit = request.submitted_at;
    let replicated = replicated_footprint(ctx, request);
    let subsets = local_subsets(&replicated);

    let mut explored = 0usize;
    let mut best: Option<PlanEvaluation> = None;
    let mut times = vec![submit];
    let mut now = submit;
    for _ in 0..sync_points {
        match ctx.timelines.next_sync_among(&replicated, now) {
            Some((_, next)) => {
                times.push(next);
                now = next;
            }
            None => break,
        }
    }
    let visited = times.len() - 1;
    for (i, &at) in times.iter().enumerate() {
        for local in &subsets {
            if i > 0 && local.is_empty() {
                continue; // delayed all-remote is dominated, same as above
            }
            let eval = evaluate_plan(ctx, request, at, local)?;
            explored += 1;
            if is_better(&eval, best.as_ref()) {
                best = Some(eval);
            }
        }
    }
    Ok(SearchOutcome {
        best: best.expect("at least one candidate"),
        plans_explored: explored,
        sync_points_visited: visited,
        boundary: now,
    })
}

/// The footprint tables that have replicas (the combination dimension).
///
/// Public so schedulers and caches built on top of the search (e.g. the
/// serving engine's plan cache) can reason about the same candidate space
/// without re-deriving it.
#[must_use]
pub fn replicated_footprint(ctx: &PlanContext<'_>, request: &QueryRequest) -> Vec<TableId> {
    request
        .query
        .tables()
        .iter()
        .copied()
        .filter(|&t| ctx.timelines.has_replica(t))
        .collect()
}

/// All subsets of the replicated footprint, smallest mask first (the empty
/// set — the all-remote plan — comes first).
///
/// # Panics
///
/// Panics if the replicated footprint has `usize::BITS` or more tables.
#[must_use]
pub fn local_subsets(replicated: &[TableId]) -> Vec<BTreeSet<TableId>> {
    let n = replicated.len();
    assert!(n < usize::BITS as usize, "too many replicated tables");
    (0..(1usize << n))
        .map(|mask| {
            replicated
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &t)| t)
                .collect()
        })
        .collect()
}

/// Strict improvement with deterministic tie-breaking: higher IV wins;
/// ties prefer earlier finish, then fewer remote reads. Exposed so
/// downstream re-evaluators (the serving engine's plan cache re-scores
/// cached champions at the live submission time) rank candidates exactly
/// as the search itself would.
#[must_use]
pub fn is_better(candidate: &PlanEvaluation, incumbent: Option<&PlanEvaluation>) -> bool {
    let Some(inc) = incumbent else { return true };
    let c = candidate.information_value.value();
    let i = inc.information_value.value();
    if c != i {
        return c > i;
    }
    if candidate.finish != inc.finish {
        return candidate.finish < inc.finish;
    }
    candidate.local_tables.len() > inc.local_tables.len()
}

/// [`is_better`] over arena [`CandidateScore`]s, branchless: the three
/// tie-break comparisons fold into one boolean expression with no
/// short-circuit jumps, which the hot loop resolves without branch
/// mispredictions. Decision-identical to [`is_better`] on the
/// materialized evaluations (`local_len` is the local-table count).
#[must_use]
#[inline]
pub fn is_better_score(candidate: &CandidateScore, incumbent: Option<&CandidateScore>) -> bool {
    let Some(inc) = incumbent else { return true };
    let c = candidate.information_value.value();
    let i = inc.information_value.value();
    let better_iv = c > i;
    let tied_iv = c == i;
    let earlier_finish = candidate.finish < inc.finish;
    let tied_finish = candidate.finish == inc.finish;
    let more_local = candidate.local_len > inc.local_len;
    better_iv | (tied_iv & (earlier_finish | (tied_finish & more_local)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NoQueues;
    use crate::value::{BusinessValue, DiscountRates};
    use ivdss_catalog::catalog::Catalog;
    use ivdss_catalog::placement::PlacementStrategy;
    use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_replication::timelines::{SyncMode, SyncTimelines};

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn fixture(periods: &[(u32, f64)]) -> (Catalog, SyncTimelines) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 6,
            sites: 2,
            replicated_tables: 0,
            placement: PlacementStrategy::Uniform,
            seed: 5,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        for &(id, period) in periods {
            plan.add(t(id), ReplicaSpec::new(period));
        }
        let catalog = base.with_replication(plan).unwrap();
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        (catalog, timelines)
    }

    fn ctx<'a>(
        catalog: &'a Catalog,
        timelines: &'a SyncTimelines,
        model: &'a StylizedCostModel,
        rates: DiscountRates,
    ) -> PlanContext<'a> {
        PlanContext {
            catalog,
            timelines,
            model,
            rates,
            queues: &NoQueues,
        }
    }

    #[test]
    fn search_matches_exhaustive_oracle() {
        let (catalog, timelines) = fixture(&[(0, 8.0), (1, 2.0), (2, 5.0)]);
        let model = StylizedCostModel::paper_fig4();
        for (lcl, lsl) in [(0.1, 0.1), (0.01, 0.05), (0.05, 0.01), (0.2, 0.02)] {
            let ctx = ctx(&catalog, &timelines, &model, DiscountRates::new(lcl, lsl));
            let req = QueryRequest::new(
                QuerySpec::new(QueryId::new(0), vec![t(0), t(1), t(2), t(3)]),
                SimTime::new(11.0),
            );
            let sg = ScatterGatherSearch::new()
                .search_from(&ctx, &req, req.submitted_at)
                .unwrap();
            let ex = exhaustive_search(&ctx, &req, 64).unwrap();
            assert!(
                (sg.best.information_value.value() - ex.best.information_value.value()).abs()
                    < 1e-12,
                "λcl={lcl} λsl={lsl}: sg {} vs ex {}",
                sg.best.information_value,
                ex.best.information_value
            );
        }
    }

    #[test]
    fn arena_search_matches_boxed_reference_bit_for_bit() {
        let (catalog, timelines) = fixture(&[(0, 8.0), (1, 2.0), (2, 5.0)]);
        let model = StylizedCostModel::paper_fig4();
        let search = ScatterGatherSearch::new();
        for (lcl, lsl) in [(0.1, 0.1), (0.01, 0.05), (0.0, 0.1), (0.2, 0.02)] {
            let ctx = ctx(&catalog, &timelines, &model, DiscountRates::new(lcl, lsl));
            for submit in [0.0, 3.5, 11.0, 40.0] {
                let req = QueryRequest::new(
                    QuerySpec::new(QueryId::new(0), vec![t(0), t(1), t(2), t(3)]),
                    SimTime::new(submit),
                );
                let arena = search.search_from(&ctx, &req, req.submitted_at).unwrap();
                let boxed = search
                    .reference_search_boxed(&ctx, &req, req.submitted_at)
                    .unwrap();
                assert_eq!(arena, boxed, "λcl={lcl} λsl={lsl} submit={submit}");
            }
        }
    }

    #[test]
    fn bound_prunes_work() {
        let (catalog, timelines) = fixture(&[(0, 8.0), (1, 2.0), (2, 5.0)]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, DiscountRates::new(0.1, 0.1));
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0), t(1), t(2), t(3)]),
            SimTime::new(11.0),
        );
        let sg = ScatterGatherSearch::new()
            .search_from(&ctx, &req, req.submitted_at)
            .unwrap();
        let ex = exhaustive_search(&ctx, &req, 64).unwrap();
        assert!(
            sg.plans_explored < ex.plans_explored,
            "pruned {} vs exhaustive {}",
            sg.plans_explored,
            ex.plans_explored
        );
    }

    #[test]
    fn high_sl_rate_favors_delaying_for_fresh_replica() {
        // One replica syncing every 10; stale at submission.
        let (catalog, timelines) = fixture(&[(0, 10.0)]);
        let model = StylizedCostModel::paper_fig4();
        // SL hurts much more than CL.
        let ctx = ctx(&catalog, &timelines, &model, DiscountRates::new(0.01, 0.3));
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0)]),
            SimTime::new(11.0),
        );
        let sg = ScatterGatherSearch::new()
            .search_from(&ctx, &req, req.submitted_at)
            .unwrap();
        // Best plan should wait for the sync at t = 20 (Fig. 2's insight).
        assert!(
            sg.best.is_delayed(SimTime::new(11.0)),
            "expected delayed plan, got release at {}",
            sg.best.execute_at
        );
        assert_eq!(sg.best.execute_at, SimTime::new(20.0));
    }

    #[test]
    fn high_cl_rate_prefers_immediate_local() {
        let (catalog, timelines) = fixture(&[(0, 10.0)]);
        let model = StylizedCostModel::paper_fig4();
        // CL hurts much more than SL: run now on the (stale) replica,
        // because the replica plan is fastest (cost 2 vs 4 remote).
        let ctx = ctx(&catalog, &timelines, &model, DiscountRates::new(0.3, 0.01));
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0)]),
            SimTime::new(11.0),
        );
        let sg = ScatterGatherSearch::new()
            .search_from(&ctx, &req, req.submitted_at)
            .unwrap();
        assert!(!sg.best.is_delayed(SimTime::new(11.0)));
        assert!(sg.best.is_all_local(&req.query));
    }

    #[test]
    fn low_cl_rate_prefers_fresh_remote() {
        let (catalog, timelines) = fixture(&[(0, 100.0)]);
        let model = StylizedCostModel::paper_fig4();
        // Replica is very stale (last sync t=0, next far away); SL rate
        // dominates → read the base table (Fig. 1 plan 1).
        let ctx = ctx(&catalog, &timelines, &model, DiscountRates::new(0.01, 0.2));
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(0)]),
            SimTime::new(50.0),
        );
        let sg = ScatterGatherSearch::new()
            .search_from(&ctx, &req, req.submitted_at)
            .unwrap();
        assert!(sg.best.is_all_remote());
    }

    #[test]
    fn unreplicated_footprint_yields_single_plan() {
        let (catalog, timelines) = fixture(&[]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, DiscountRates::paper_fig4());
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(0), vec![t(3), t(4)]),
            SimTime::new(1.0),
        );
        let sg = ScatterGatherSearch::new()
            .search_from(&ctx, &req, req.submitted_at)
            .unwrap();
        assert_eq!(sg.plans_explored, 1);
        assert!(sg.best.is_all_remote());
        assert_eq!(sg.sync_points_visited, 0);
    }

    #[test]
    fn zero_cl_rate_respects_sync_cap() {
        let (catalog, timelines) = fixture(&[(0, 1.0)]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, DiscountRates::new(0.0, 0.1));
        let req = QueryRequest::new(QuerySpec::new(QueryId::new(0), vec![t(0)]), SimTime::ZERO);
        let search = ScatterGatherSearch::with_max_sync_points(5);
        let sg = search.search_from(&ctx, &req, req.submitted_at).unwrap();
        assert!(sg.sync_points_visited <= 5);
    }

    #[test]
    fn observed_search_matches_unobserved_and_audits_the_decision() {
        use ivdss_obs::Trace;
        use std::sync::Arc;

        let (catalog, timelines) = fixture(&[(0, 8.0), (1, 2.0), (2, 5.0)]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, DiscountRates::new(0.05, 0.05));
        let req = QueryRequest::new(
            QuerySpec::new(QueryId::new(3), vec![t(0), t(1), t(2), t(3)]),
            SimTime::new(11.0),
        );
        let search = ScatterGatherSearch::new();
        let plain = search.search_from(&ctx, &req, req.submitted_at).unwrap();

        let run_observed = || {
            let trace = Arc::new(Trace::new());
            let tracer = Tracer::recording(Arc::clone(&trace));
            let mut audit = SearchAudit::default();
            let opts = SearchOpts {
                tracer: Some(&tracer),
                audit: Some(&mut audit),
            };
            let outcome = search
                .search_with(&ctx, &req, req.submitted_at, opts)
                .unwrap();
            (outcome, trace.render(), audit)
        };
        let (outcome, rendered, audit) = run_observed();
        assert_eq!(outcome, plain, "instrumentation must not change the search");
        assert_eq!(audit.explored(), plain.plans_explored);
        assert_eq!(audit.waves, plain.sync_points_visited);
        assert_eq!(audit.boundary, plain.boundary);
        let last = audit.bounds.last().expect("at least the scatter incumbent");
        assert_eq!(last.incumbent_iv, plain.best.information_value.value());

        let counts_trace = Arc::new(Trace::new());
        let tracer = Tracer::recording(Arc::clone(&counts_trace));
        let opts = SearchOpts {
            tracer: Some(&tracer),
            ..SearchOpts::default()
        };
        search
            .search_with(&ctx, &req, req.submitted_at, opts)
            .unwrap();
        let counts = counts_trace.counts();
        assert_eq!(counts["search_started"], 1);
        assert_eq!(counts["search_finished"], 1);
        assert_eq!(
            counts["search_wave"],
            1 + plain.sync_points_visited as u64,
            "one scatter wave plus every visited gather wave"
        );

        let (outcome2, rendered2, _) = run_observed();
        assert_eq!(outcome2, plain);
        assert_eq!(rendered, rendered2, "identical runs render identical bytes");
    }

    #[test]
    fn business_value_scales_but_does_not_change_choice() {
        let (catalog, timelines) = fixture(&[(0, 8.0), (1, 2.0)]);
        let model = StylizedCostModel::paper_fig4();
        let ctx = ctx(&catalog, &timelines, &model, DiscountRates::new(0.05, 0.05));
        let spec = QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]);
        let small = QueryRequest::new(spec.clone(), SimTime::new(11.0));
        let big = QueryRequest::new(spec, SimTime::new(11.0))
            .with_business_value(BusinessValue::new(10.0));
        let s = ScatterGatherSearch::new()
            .search_from(&ctx, &small, small.submitted_at)
            .unwrap();
        let b = ScatterGatherSearch::new()
            .search_from(&ctx, &big, big.submitted_at)
            .unwrap();
        assert_eq!(s.best.local_tables, b.best.local_tables);
        assert_eq!(s.best.execute_at, b.best.execute_at);
        assert!(
            (b.best.information_value.value() / s.best.information_value.value() - 10.0).abs()
                < 1e-9
        );
    }
}
