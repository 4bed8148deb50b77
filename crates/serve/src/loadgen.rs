//! Deterministic open-loop load generation for the serving engine.
//!
//! [`run_open_loop`] drives the engine on its own clock, so runs are
//! exactly reproducible from a seed: arrivals come from a Poisson
//! [`ArrivalStream`] regardless of how the engine keeps up — the model
//! for "queries arrive when analysts ask them" and the one the paper's
//! experiments use. Under overload the admission queue fills and
//! shedding begins.

use ivdss_core::plan::PlanError;
use ivdss_core::value::BusinessValue;
use ivdss_costmodel::query::{QueryId, QuerySpec};
use ivdss_workloads::stream::ArrivalStream;

use crate::clock::Clock;
use crate::engine::{Completion, ServeEngine};

/// Outcome of a load-generation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadReport {
    /// Every delivered query, in completion order.
    pub completions: Vec<Completion>,
    /// Every query dropped by IV-aware shedding.
    pub shed: Vec<QueryId>,
}

impl LoadReport {
    /// Sum of delivered information value.
    #[must_use]
    pub fn total_delivered_iv(&self) -> f64 {
        self.completions
            .iter()
            .map(|c| c.evaluation.information_value.value())
            .sum()
    }
}

/// Open-loop (arrival-driven) generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopConfig {
    /// Queries to submit.
    pub queries: usize,
    /// Mean exponential inter-arrival time.
    pub mean_interarrival: f64,
    /// Arrival-process seed.
    pub seed: u64,
    /// Business value assigned to every query.
    pub business_value: BusinessValue,
}

/// Submits `config.queries` Poisson arrivals built from the cycled
/// `templates`, then drains the engine.
///
/// # Errors
///
/// Propagates [`PlanError`] from the engine.
pub fn run_open_loop<C: Clock>(
    engine: &mut ServeEngine<'_, C>,
    templates: Vec<QuerySpec>,
    config: &OpenLoopConfig,
) -> Result<LoadReport, PlanError> {
    let mut stream = ArrivalStream::new(templates, config.mean_interarrival, config.seed)
        .with_business_value(config.business_value);
    let mut report = LoadReport::default();
    for _ in 0..config.queries {
        let outcome = engine.submit(stream.next_request())?;
        report.shed.extend(outcome.shed);
        report.completions.extend(outcome.completed);
    }
    report.completions.extend(engine.drain()?);
    Ok(report)
}
