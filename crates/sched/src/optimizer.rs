//! The adaptive scheduler: greedy + GA search under a never-worse guard.
//!
//! [`AdaptiveScheduler::optimize`] takes the paper's fixed timelines,
//! derives the refresh budget they spend, runs the greedy marginal-IV
//! pass and (optionally) the GA search at that budget, and commits the
//! best of **{fixed, greedy, GA}** by workload IV. The fixed schedules
//! stay in the candidate set and are only displaced by a *strict*
//! improvement, so the committed schedule never underperforms the
//! paper's — structurally, on every input. The differential suite
//! re-derives the chosen IV from the chosen timelines to keep this
//! honest.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::CostModel;
use ivdss_ga::engine::{optimize_permutation, GaConfig};
use ivdss_obs::{EventKind, Tracer};
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;

use crate::alloc::ScheduleAllocation;
use crate::cost::{fixed_budget, RefreshCosts};
use crate::evaluate::ScheduleEvaluator;
use crate::genome::UpgradePool;
use crate::greedy::{greedy_schedule, GreedyOutcome};

/// Configuration of one adaptive optimization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Scheduling horizon: budgets and allocations cover `(0, horizon]`.
    pub horizon: SimTime,
    /// GA search configuration; `None` runs the greedy pass only.
    pub ga: Option<GaConfig>,
}

impl AdaptiveConfig {
    /// Greedy + paper-configured GA over the given horizon.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not strictly positive.
    #[must_use]
    pub fn new(horizon: SimTime) -> Self {
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        AdaptiveConfig {
            horizon,
            ga: Some(GaConfig::paper()),
        }
    }
}

/// Which candidate the guard committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSource {
    /// The paper's fixed schedules (no candidate strictly improved).
    Fixed,
    /// The greedy marginal-IV allocation.
    Greedy,
    /// The GA search's best allocation.
    Ga,
}

impl ScheduleSource {
    /// Stable label, as rendered in traces.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ScheduleSource::Fixed => "fixed",
            ScheduleSource::Greedy => "greedy",
            ScheduleSource::Ga => "ga",
        }
    }
}

/// The GA stage's result.
#[derive(Debug, Clone, PartialEq)]
pub struct GaScheduleOutcome {
    /// The best allocation found.
    pub allocation: ScheduleAllocation,
    /// Its emitted timelines.
    pub timelines: SyncTimelines,
    /// Workload IV under those timelines.
    pub iv: f64,
    /// Budget the allocation spends (≤ the run's budget).
    pub budget_used: f64,
    /// Workload evaluations the GA performed.
    pub evaluations: usize,
    /// Best fitness per generation (monotone, from elitism).
    pub history: Vec<f64>,
    /// Genome length (refresh-increment items).
    pub genome_len: usize,
}

/// One adaptive optimization run's full result.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// The refresh budget, as spent by the fixed schedules.
    pub budget: f64,
    /// Workload IV under the fixed schedules — the never-worse floor.
    pub fixed_iv: f64,
    /// The greedy pass's result (raw, unguarded).
    pub greedy: GreedyOutcome,
    /// The GA stage's result, when configured and the genome is
    /// non-degenerate.
    pub ga: Option<GaScheduleOutcome>,
    /// Which candidate the guard committed.
    pub source: ScheduleSource,
    /// The committed timelines.
    pub chosen: SyncTimelines,
    /// Workload IV under the committed timelines (max of the candidate
    /// IVs — never below `fixed_iv`).
    pub chosen_iv: f64,
    /// Budget the committed timelines spend.
    pub chosen_budget_used: f64,
}

impl AdaptiveOutcome {
    /// Absolute IV improvement of the committed schedule over fixed
    /// (never negative).
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.chosen_iv - self.fixed_iv
    }
}

/// Searches sync-schedule space for maximum expected workload IV.
pub struct AdaptiveScheduler<'a> {
    evaluator: ScheduleEvaluator<'a>,
    costs: RefreshCosts,
    tracer: Tracer,
}

impl<'a> AdaptiveScheduler<'a> {
    /// Creates a scheduler evaluating candidates against `requests`
    /// (submission order) with the given planner inputs and per-table
    /// refresh costs.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    #[must_use]
    pub fn new(
        catalog: &'a Catalog,
        model: &'a dyn CostModel,
        rates: DiscountRates,
        requests: &'a [QueryRequest],
        costs: RefreshCosts,
    ) -> Self {
        AdaptiveScheduler {
            evaluator: ScheduleEvaluator::new(catalog, model, rates, requests),
            costs,
            tracer: Tracer::disabled(),
        }
    }

    /// Emits scheduler decisions (`sched_budget`, `sched_pick`,
    /// `sched_chosen`) into `tracer` (builder-style).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The evaluator candidates are scored with.
    #[must_use]
    pub fn evaluator(&self) -> &ScheduleEvaluator<'a> {
        &self.evaluator
    }

    /// The per-table refresh costs.
    #[must_use]
    pub fn costs(&self) -> &RefreshCosts {
        &self.costs
    }

    /// Optimizes the sync schedules at the budget the `fixed` timelines
    /// spend over `config.horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `fixed` is empty or a scheduled table has no cost.
    #[must_use]
    pub fn optimize(&self, fixed: &SyncTimelines, config: &AdaptiveConfig) -> AdaptiveOutcome {
        assert!(!fixed.is_empty(), "need at least one replicated table");
        let tables: Vec<TableId> = fixed.iter().map(|(t, _)| t).collect();
        let budget = fixed_budget(fixed, &self.costs, config.horizon);
        let fixed_iv = self.evaluator.workload_iv(fixed);
        self.tracer
            .emit_with(SimTime::ZERO, || EventKind::SchedBudget {
                tables: tables.len(),
                budget,
                fixed_iv,
            });

        let greedy = greedy_schedule(
            &self.evaluator,
            &self.costs,
            budget,
            &tables,
            config.horizon,
            &self.tracer,
        );

        let ga = config.ga.and_then(|ga_config| {
            let seed_picks: Vec<TableId> = greedy.picks.iter().map(|p| p.table).collect();
            let pool = UpgradePool::new(&tables, config.horizon, &self.costs, budget, &seed_picks);
            if pool.len() < 2 {
                return None;
            }
            let result = optimize_permutation(pool.len(), &ga_config, |perm| {
                self.evaluator
                    .workload_iv(&pool.decode(perm).to_timelines())
            });
            let allocation = pool.decode(&result.best);
            let budget_used = allocation.spend(&self.costs);
            Some(GaScheduleOutcome {
                timelines: allocation.to_timelines(),
                iv: result.best_fitness,
                budget_used,
                evaluations: result.evaluations,
                history: result.history,
                genome_len: pool.len(),
                allocation,
            })
        });

        // The never-worse guard: fixed is the incumbent; greedy, then
        // GA, must each *strictly* improve on the best so far to
        // displace it. Ties keep the earlier candidate.
        let mut source = ScheduleSource::Fixed;
        let mut chosen = fixed.clone();
        let mut chosen_iv = fixed_iv;
        let mut chosen_budget_used = budget;
        if greedy.iv > chosen_iv {
            source = ScheduleSource::Greedy;
            chosen = greedy.timelines.clone();
            chosen_iv = greedy.iv;
            chosen_budget_used = greedy.budget_used;
        }
        if let Some(ga_outcome) = &ga {
            if ga_outcome.iv > chosen_iv {
                source = ScheduleSource::Ga;
                chosen = ga_outcome.timelines.clone();
                chosen_iv = ga_outcome.iv;
                chosen_budget_used = ga_outcome.budget_used;
            }
        }
        self.tracer
            .emit_with(SimTime::ZERO, || EventKind::SchedChosen {
                source: source.label(),
                iv: chosen_iv,
                budget_used: chosen_budget_used,
            });

        AdaptiveOutcome {
            budget,
            fixed_iv,
            greedy,
            ga,
            source,
            chosen,
            chosen_iv,
            chosen_budget_used,
        }
    }
}

impl std::fmt::Debug for AdaptiveScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveScheduler")
            .field("evaluator", &self.evaluator)
            .field("costs", &self.costs)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_replication::timelines::SyncMode;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn fixture() -> (Catalog, SyncTimelines, Vec<QueryRequest>) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 5,
            sites: 2,
            replicated_tables: 0,
            seed: 77,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        plan.add(t(0), ReplicaSpec::new(9.0));
        plan.add(t(1), ReplicaSpec::new(7.0));
        plan.add(t(2), ReplicaSpec::new(11.0));
        let catalog = base.with_replication(plan).unwrap();
        let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        let requests = vec![
            QueryRequest::new(
                QuerySpec::new(QueryId::new(0), vec![t(0), t(1)]),
                SimTime::new(8.0),
            ),
            QueryRequest::new(
                QuerySpec::new(QueryId::new(1), vec![t(1), t(3)]),
                SimTime::new(15.0),
            ),
            QueryRequest::new(
                QuerySpec::new(QueryId::new(2), vec![t(2), t(4)]),
                SimTime::new(22.0),
            ),
        ];
        (catalog, timelines, requests)
    }

    fn small_ga() -> GaConfig {
        GaConfig {
            population: 6,
            generations: 4,
            parents: 3,
            mutation_rate: 0.3,
            elites: 1,
            seed: 0x5EED,
        }
    }

    #[test]
    fn optimize_never_loses_to_fixed() {
        let (catalog, fixed, requests) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let costs = RefreshCosts::uniform(&[t(0), t(1), t(2)]);
        let sched = AdaptiveScheduler::new(
            &catalog,
            &model,
            DiscountRates::new(0.02, 0.08),
            &requests,
            costs,
        );
        let mut config = AdaptiveConfig::new(SimTime::new(36.0));
        config.ga = Some(small_ga());
        let out = sched.optimize(&fixed, &config);
        assert!(out.chosen_iv >= out.fixed_iv);
        assert!(out.gain() >= 0.0);
        assert!(out.greedy.budget_used <= out.budget + 1e-9);
        if let Some(ga) = &out.ga {
            assert!(ga.budget_used <= out.budget + 1e-9);
        }
        // The committed IV is real: re-evaluating the chosen timelines
        // reproduces it bit-for-bit.
        let re = sched.evaluator().workload_iv(&out.chosen);
        assert_eq!(re.to_bits(), out.chosen_iv.to_bits());
    }

    #[test]
    fn optimize_is_deterministic() {
        let (catalog, fixed, requests) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let costs = RefreshCosts::uniform(&[t(0), t(1), t(2)]);
        let sched = AdaptiveScheduler::new(
            &catalog,
            &model,
            DiscountRates::new(0.02, 0.08),
            &requests,
            costs,
        );
        let mut config = AdaptiveConfig::new(SimTime::new(36.0));
        config.ga = Some(small_ga());
        let a = sched.optimize(&fixed, &config);
        let b = sched.optimize(&fixed, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn greedy_only_skips_the_ga() {
        let (catalog, fixed, requests) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let costs = RefreshCosts::uniform(&[t(0), t(1), t(2)]);
        let sched = AdaptiveScheduler::new(
            &catalog,
            &model,
            DiscountRates::new(0.02, 0.08),
            &requests,
            costs,
        );
        let config = AdaptiveConfig {
            ga: None,
            ..AdaptiveConfig::new(SimTime::new(36.0))
        };
        let out = sched.optimize(&fixed, &config);
        assert!(out.ga.is_none());
        assert_ne!(out.source, ScheduleSource::Ga);
    }

    #[test]
    fn tracer_sees_budget_picks_and_choice() {
        use ivdss_obs::Trace;
        use std::sync::Arc;

        let (catalog, fixed, requests) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let costs = RefreshCosts::uniform(&[t(0), t(1), t(2)]);
        let trace = Arc::new(Trace::new());
        let sched = AdaptiveScheduler::new(
            &catalog,
            &model,
            DiscountRates::new(0.02, 0.08),
            &requests,
            costs,
        )
        .with_tracer(Tracer::recording(Arc::clone(&trace)));
        let config = AdaptiveConfig {
            ga: None,
            ..AdaptiveConfig::new(SimTime::new(36.0))
        };
        let out = sched.optimize(&fixed, &config);
        let counts = trace.counts();
        assert_eq!(counts.get("sched_budget").copied().unwrap_or(0), 1);
        assert_eq!(
            counts.get("sched_pick").copied().unwrap_or(0),
            out.greedy.picks.len() as u64
        );
        assert_eq!(counts.get("sched_chosen").copied().unwrap_or(0), 1);
    }
}
