//! The marginal-IV greedy baseline.
//!
//! Start from zero refreshes and repeatedly buy the single refresh with
//! the highest workload-IV gain *per unit cost*, until the budget is
//! exhausted or no affordable refresh improves the workload.
//!
//! Tie-breaking is by gain-per-cost, then raw gain, then smaller table
//! id — a total order on exact `f64` equality, so the pick sequence is a
//! pure function of the candidate *set*, independent of the order tables
//! are presented in (`tests/sched_props.rs` pins this).

use ivdss_catalog::ids::TableId;
use ivdss_obs::{EventKind, Tracer};
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;

use crate::alloc::ScheduleAllocation;
use crate::cost::RefreshCosts;
use crate::evaluate::ScheduleEvaluator;

/// Gains at or below this threshold stop the greedy loop: buying noise
/// would spend budget without a meaningful IV return.
const GAIN_FLOOR: f64 = 1e-12;

/// One greedy decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyPick {
    /// The table granted a refresh.
    pub table: TableId,
    /// The table's refresh count after the pick.
    pub refreshes: usize,
    /// The refresh's cost, charged against the budget.
    pub cost: f64,
    /// The workload-IV gain the pick bought.
    pub gain: f64,
    /// Total workload IV after the pick.
    pub iv_after: f64,
}

/// The greedy pass's result.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyOutcome {
    /// The final allocation.
    pub allocation: ScheduleAllocation,
    /// The allocation's emitted timelines.
    pub timelines: SyncTimelines,
    /// Workload IV under those timelines.
    pub iv: f64,
    /// Budget actually spent (≤ the given budget).
    pub budget_used: f64,
    /// Every pick, in decision order.
    pub picks: Vec<GreedyPick>,
    /// Workload evaluations performed.
    pub evaluations: usize,
}

/// Runs the greedy marginal-IV pass. `tables` is the candidate set (the
/// replicated tables). Picks are emitted to `tracer` as `sched_pick`
/// events stamped at [`SimTime::ZERO`] (schedule decisions precede the
/// horizon).
///
/// # Panics
///
/// Panics if `tables` is empty, a table has no cost, or the budget is
/// negative or non-finite.
#[must_use]
pub fn greedy_schedule(
    evaluator: &ScheduleEvaluator<'_>,
    costs: &RefreshCosts,
    budget: f64,
    tables: &[TableId],
    horizon: SimTime,
    tracer: &Tracer,
) -> GreedyOutcome {
    assert!(
        budget.is_finite() && budget >= 0.0,
        "budget must be finite and non-negative, got {budget}"
    );
    let mut allocation = ScheduleAllocation::empty(tables, horizon);
    let mut iv = evaluator.workload_iv(&allocation.to_timelines());
    let mut evaluations = 1;
    let mut remaining = budget;
    let mut picks = Vec::new();

    loop {
        let candidates: Vec<TableId> = allocation
            .tables()
            .filter(|&t| costs.cost(t) <= remaining)
            .collect();
        if candidates.is_empty() {
            break;
        }
        let ivs: Vec<f64> = candidates
            .iter()
            .map(|&t| {
                let mut next = allocation.clone();
                next.add(t);
                evaluator.workload_iv(&next.to_timelines())
            })
            .collect();
        evaluations += ivs.len();

        // Best (gain/cost, gain, smaller id): a total order under exact
        // f64 comparison, so the winner is presentation-order-free.
        let best = candidates
            .iter()
            .zip(&ivs)
            .map(|(&t, &trial_iv)| {
                let cost = costs.cost(t);
                let gain = trial_iv - iv;
                (t, cost, gain, gain / cost, trial_iv)
            })
            .max_by(|a, b| {
                a.3.partial_cmp(&b.3)
                    .expect("gain per cost is finite")
                    .then(a.2.partial_cmp(&b.2).expect("gain is finite"))
                    .then(b.0.cmp(&a.0))
            })
            .expect("candidates are non-empty");
        let (table, cost, gain, _, trial_iv) = best;
        if gain <= GAIN_FLOOR {
            break;
        }
        allocation.add(table);
        remaining -= cost;
        iv = trial_iv;
        let pick = GreedyPick {
            table,
            refreshes: allocation.count(table),
            cost,
            gain,
            iv_after: trial_iv,
        };
        tracer.emit_with(SimTime::ZERO, || EventKind::SchedPick {
            table: pick.table,
            refreshes: pick.refreshes,
            cost: pick.cost,
            gain: pick.gain,
        });
        picks.push(pick);
    }

    GreedyOutcome {
        timelines: allocation.to_timelines(),
        iv,
        budget_used: budget - remaining,
        picks,
        evaluations,
        allocation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::catalog::Catalog;
    use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
    use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
    use ivdss_core::plan::QueryRequest;
    use ivdss_core::value::DiscountRates;
    use ivdss_costmodel::model::StylizedCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn fixture() -> (Catalog, Vec<QueryRequest>) {
        let base = synthetic_catalog(&SyntheticConfig {
            tables: 4,
            sites: 2,
            replicated_tables: 0,
            seed: 5,
            ..SyntheticConfig::default()
        })
        .unwrap();
        let mut plan = ReplicationPlan::new();
        plan.add(t(0), ReplicaSpec::new(8.0));
        plan.add(t(1), ReplicaSpec::new(8.0));
        let catalog = base.with_replication(plan).unwrap();
        let requests = vec![
            QueryRequest::new(
                QuerySpec::new(QueryId::new(0), vec![t(0), t(2)]),
                SimTime::new(10.0),
            ),
            QueryRequest::new(
                QuerySpec::new(QueryId::new(1), vec![t(0), t(3)]),
                SimTime::new(20.0),
            ),
        ];
        (catalog, requests)
    }

    #[test]
    fn greedy_respects_budget_and_gains() {
        let (catalog, requests) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let eval =
            ScheduleEvaluator::new(&catalog, &model, DiscountRates::new(0.02, 0.08), &requests);
        let costs = RefreshCosts::uniform(&[t(0), t(1)]);
        let out = greedy_schedule(
            &eval,
            &costs,
            6.0,
            &[t(0), t(1)],
            SimTime::new(30.0),
            &Tracer::disabled(),
        );
        assert!(out.budget_used <= 6.0);
        assert_eq!(out.budget_used, out.allocation.spend(&costs));
        // Every pick must strictly gain, and the IV trajectory must be
        // the cumulative sum of gains.
        let mut iv = eval.workload_iv(
            &ScheduleAllocation::empty(&[t(0), t(1)], SimTime::new(30.0)).to_timelines(),
        );
        for pick in &out.picks {
            assert!(pick.gain > 0.0);
            iv += pick.gain;
            assert!((iv - pick.iv_after).abs() < 1e-9);
        }
        assert_eq!(out.iv, out.picks.last().map_or(iv, |p| p.iv_after));
        // Only the queried table is worth refreshing: table 1 serves no
        // query, so greedy must not spend on it.
        assert_eq!(out.allocation.count(t(1)), 0);
        assert!(out.allocation.count(t(0)) >= 1);
    }

    #[test]
    fn zero_budget_buys_nothing() {
        let (catalog, requests) = fixture();
        let model = StylizedCostModel::paper_fig4();
        let eval =
            ScheduleEvaluator::new(&catalog, &model, DiscountRates::new(0.02, 0.08), &requests);
        let costs = RefreshCosts::uniform(&[t(0), t(1)]);
        let out = greedy_schedule(
            &eval,
            &costs,
            0.0,
            &[t(0), t(1)],
            SimTime::new(30.0),
            &Tracer::disabled(),
        );
        assert!(out.picks.is_empty());
        assert_eq!(out.budget_used, 0.0);
        assert_eq!(out.allocation.iter().map(|(_, c)| c).sum::<usize>(), 0);
    }
}
