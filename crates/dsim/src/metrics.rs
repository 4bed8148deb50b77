//! Metrics collected from a simulation run.

use ivdss_core::plan::{PlanEvaluation, QueryRequest};
use ivdss_simkernel::stats::OnlineStats;
use ivdss_simkernel::time::SimDuration;

/// One completed query: the request and the plan that served it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Position of the request in the submitted stream.
    pub index: usize,
    /// The request.
    pub request: QueryRequest,
    /// The executed plan, fully evaluated.
    pub plan: PlanEvaluation,
}

impl QueryOutcome {
    /// Time the query waited before processing started
    /// (`service_start − submitted_at`).
    #[must_use]
    pub fn waiting_time(&self) -> SimDuration {
        (self.plan.service_start - self.request.submitted_at).clamp_non_negative()
    }
}

/// All outcomes of one simulation run plus aggregate views.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMetrics {
    outcomes: Vec<QueryOutcome>,
}

impl RunMetrics {
    /// Creates an empty metrics collection.
    #[must_use]
    pub fn new() -> Self {
        RunMetrics::default()
    }

    /// Records one completed query.
    pub fn record(&mut self, outcome: QueryOutcome) {
        self.outcomes.push(outcome);
    }

    /// All outcomes, in completion-recording order.
    #[must_use]
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// Number of completed queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Returns `true` if no query completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Sum of delivered information values.
    #[must_use]
    pub fn total_information_value(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.plan.information_value.value())
            .sum()
    }

    /// Mean delivered information value per query.
    #[must_use]
    pub fn mean_information_value(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.total_information_value() / self.outcomes.len() as f64
        }
    }

    /// Mean computational latency.
    #[must_use]
    pub fn mean_computational_latency(&self) -> f64 {
        mean(
            self.outcomes
                .iter()
                .map(|o| o.plan.latencies.computational.value()),
        )
    }

    /// Mean synchronization latency.
    #[must_use]
    pub fn mean_synchronization_latency(&self) -> f64 {
        mean(
            self.outcomes
                .iter()
                .map(|o| o.plan.latencies.synchronization.value()),
        )
    }

    /// Waiting-time statistics (time from submission to processing start) —
    /// the starvation experiments' headline metric.
    #[must_use]
    pub fn waiting_stats(&self) -> OnlineStats {
        let mut stats = OnlineStats::new();
        for o in &self.outcomes {
            stats.record(o.waiting_time().value());
        }
        stats
    }

    /// Per-template mean computational latency, assuming instance ids
    /// cycle through `n_templates` templates (as
    /// [`ivdss_workloads::stream::ArrivalStream`] generates them) — the
    /// per-query series of Fig. 6.
    #[must_use]
    pub fn per_template_mean_cl(&self, n_templates: usize) -> Vec<f64> {
        self.per_template(n_templates, |o| o.plan.latencies.computational.value())
    }

    /// Per-template mean synchronization latency — the series of Fig. 7.
    #[must_use]
    pub fn per_template_mean_sl(&self, n_templates: usize) -> Vec<f64> {
        self.per_template(n_templates, |o| o.plan.latencies.synchronization.value())
    }

    fn per_template<F: Fn(&QueryOutcome) -> f64>(&self, n: usize, f: F) -> Vec<f64> {
        assert!(n > 0, "need at least one template");
        let mut sums = vec![0.0; n];
        let mut counts = vec![0u64; n];
        for o in &self.outcomes {
            let idx = (o.request.id().raw() as usize) % n;
            sums[idx] += f(o);
            counts[idx] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::TableId;
    use ivdss_core::latency::Latencies;
    use ivdss_core::value::{BusinessValue, DiscountRates, InformationValue};
    use ivdss_costmodel::model::PlanCost;
    use ivdss_costmodel::query::{QueryId, QuerySpec};
    use ivdss_simkernel::time::SimTime;
    use std::collections::BTreeSet;

    fn outcome(id: u64, iv: f64, cl: f64, sl: f64) -> QueryOutcome {
        let request = QueryRequest::new(
            QuerySpec::new(QueryId::new(id), vec![TableId::new(0)]),
            SimTime::new(1.0),
        );
        QueryOutcome {
            index: id as usize,
            request,
            plan: PlanEvaluation {
                query: QueryId::new(id),
                local_tables: BTreeSet::new(),
                execute_at: SimTime::new(1.0),
                service_start: SimTime::new(2.0),
                finish: SimTime::new(1.0 + cl),
                data_version: SimTime::ZERO,
                latencies: Latencies::new(SimDuration::new(cl), SimDuration::new(sl)),
                // Zero rates discount nothing: IV equals the business value.
                information_value: InformationValue::compute(
                    BusinessValue::new(iv),
                    DiscountRates::default(),
                    Latencies::new(SimDuration::new(cl), SimDuration::new(sl)),
                ),
                cost: PlanCost::ZERO,
            },
        }
    }

    #[test]
    fn aggregates() {
        let mut m = RunMetrics::new();
        m.record(outcome(0, 0.8, 2.0, 3.0));
        m.record(outcome(1, 0.4, 4.0, 5.0));
        assert_eq!(m.len(), 2);
        assert!((m.total_information_value() - 1.2).abs() < 1e-12);
        assert!((m.mean_information_value() - 0.6).abs() < 1e-12);
        assert!((m.mean_computational_latency() - 3.0).abs() < 1e-12);
        assert!((m.mean_synchronization_latency() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = RunMetrics::new();
        assert!(m.is_empty());
        assert_eq!(m.mean_information_value(), 0.0);
        assert_eq!(m.mean_computational_latency(), 0.0);
        assert_eq!(m.waiting_stats().count(), 0);
    }

    #[test]
    fn per_template_grouping_cycles_ids() {
        let mut m = RunMetrics::new();
        // 2 templates; ids 0..4 → template 0 gets ids 0, 2; template 1 gets 1, 3.
        m.record(outcome(0, 0.1, 2.0, 0.0));
        m.record(outcome(1, 0.2, 10.0, 0.0));
        m.record(outcome(2, 0.3, 4.0, 0.0));
        m.record(outcome(3, 0.4, 20.0, 0.0));
        let cl = m.per_template_mean_cl(2);
        assert_eq!(cl, vec![3.0, 15.0]);
    }

    #[test]
    fn waiting_time_clamped() {
        let o = outcome(0, 0.5, 2.0, 2.0);
        assert_eq!(o.waiting_time(), SimDuration::new(1.0));
    }

    #[test]
    #[should_panic(expected = "at least one template")]
    fn zero_templates_rejected() {
        let m = RunMetrics::new();
        let _ = m.per_template_mean_cl(0);
    }
}
