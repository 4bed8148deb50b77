//! Adaptive-sync experiment — refresh schedules as a decision variable.
//!
//! Not a figure from the paper: the ROADMAP's "IV-driven adaptive
//! synchronization scheduling" study. Each seeded point builds a
//! synthetic federation, a seeded query workload and the paper's fixed
//! periodic timelines, then lets `ivdss-sched` re-spend the *same*
//! refresh budget — greedy marginal-IV and GA search, both evaluated
//! with the production planner — and reports the fixed / greedy / GA /
//! committed IV side by side. The `sched_gain` bench bin sweeps the
//! seeds and owns the table; `crates/sched/tests/golden_sched.rs` pins
//! the committed schedule served under faults.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_ga::engine::GaConfig;
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_sched::{AdaptiveConfig, AdaptiveScheduler, RefreshCosts};
use ivdss_simkernel::rng::{SeedFactory, Stream, UniformStream};
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

/// Configuration of the adaptive-sync sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSyncConfig {
    /// Catalog tables.
    pub tables: usize,
    /// Federation sites.
    pub sites: usize,
    /// Replicated tables (the scheduler's decision variables).
    pub replicated_tables: usize,
    /// Mean fixed sync period (the baseline the budget is read from).
    pub mean_sync_period: f64,
    /// Scheduling horizon.
    pub horizon: SimTime,
    /// Queries in the evaluation workload.
    pub queries: usize,
    /// GA configuration for the schedule search.
    pub ga: GaConfig,
    /// Discount rates for IV evaluation.
    pub rates: DiscountRates,
    /// Root seed.
    pub seed: u64,
}

impl Default for AdaptiveSyncConfig {
    fn default() -> Self {
        AdaptiveSyncConfig {
            tables: 8,
            sites: 3,
            replicated_tables: 4,
            mean_sync_period: 8.0,
            horizon: SimTime::new(48.0),
            queries: 6,
            ga: GaConfig {
                population: 8,
                generations: 6,
                parents: 4,
                mutation_rate: 0.25,
                elites: 2,
                seed: 0x9a,
            },
            rates: DiscountRates::new(0.01, 0.05),
            seed: 0xADA57,
        }
    }
}

/// One seeded scenario: catalog, fixed timelines and the workload the
/// scheduler optimizes for.
struct AdaptiveScenario {
    /// The federation catalog (with replication).
    catalog: Catalog,
    /// The paper's fixed periodic timelines.
    fixed: SyncTimelines,
    /// The evaluation workload, in submission order.
    requests: Vec<QueryRequest>,
    /// Per-table refresh costs (size-proportional).
    costs: RefreshCosts,
}

/// Builds the seeded scenario for `config` at `seed_index` of the
/// sweep (every point derives its own catalog, workload and costs).
fn adaptive_scenario(config: &AdaptiveSyncConfig, seed_index: u64) -> AdaptiveScenario {
    let seeds = SeedFactory::new(config.seed).seed_for_indexed("point", seed_index as usize);
    let seeds = SeedFactory::new(seeds);
    let catalog = synthetic_catalog(&SyntheticConfig {
        tables: config.tables,
        sites: config.sites,
        placement: PlacementStrategy::Skewed,
        replicated_tables: config.replicated_tables,
        mean_sync_period: config.mean_sync_period,
        seed: seeds.seed_for("catalog"),
        ..SyntheticConfig::default()
    })
    .expect("adaptive catalog configuration is valid");
    let fixed = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let templates = random_queries(&RandomQueryConfig {
        queries: config.queries,
        tables: config.tables,
        max_tables_per_query: 4,
        weight_range: (0.8, 2.0),
        seed: seeds.seed_for("queries"),
    });
    let mut arrivals = UniformStream::new(
        0.05 * config.horizon.value(),
        0.85 * config.horizon.value(),
        seeds.seed_for("arrivals"),
    );
    let mut times: Vec<f64> = (0..templates.len())
        .map(|_| arrivals.next_sample())
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("arrival times are finite"));
    let requests: Vec<QueryRequest> = templates
        .into_iter()
        .zip(times)
        .map(|(spec, at)| QueryRequest::new(spec, SimTime::new(at)))
        .collect();
    let replicated: Vec<TableId> = fixed.iter().map(|(t, _)| t).collect();
    let costs = RefreshCosts::from_catalog(&catalog, &replicated);
    AdaptiveScenario {
        catalog,
        fixed,
        requests,
        costs,
    }
}

/// One swept point: fixed vs greedy vs GA IV at equal refresh budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSyncPoint {
    /// Index of the point's seed within the sweep.
    pub seed_index: u64,
    /// The refresh budget (what the fixed schedules spend).
    pub budget: f64,
    /// Workload IV under the fixed schedules.
    pub fixed_iv: f64,
    /// Workload IV under the raw greedy allocation.
    pub greedy_iv: f64,
    /// Workload IV under the GA's best allocation (when the genome was
    /// non-degenerate).
    pub ga_iv: Option<f64>,
    /// Workload IV under the committed schedule (max of the above).
    pub chosen_iv: f64,
    /// Which candidate won (`fixed`, `greedy` or `ga`).
    pub source: &'static str,
    /// Greedy picks taken.
    pub picks: usize,
    /// Total workload evaluations spent (greedy + GA).
    pub evaluations: usize,
}

impl AdaptiveSyncPoint {
    /// Absolute IV gain of the committed schedule over fixed.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.chosen_iv - self.fixed_iv
    }

    /// Relative gain in percent.
    #[must_use]
    pub fn gain_pct(&self) -> f64 {
        if self.fixed_iv <= 0.0 {
            0.0
        } else {
            100.0 * self.gain() / self.fixed_iv
        }
    }
}

/// Runs one swept point: optimizes the seeded scenario's schedules at
/// the fixed budget (greedy, then GA) and reports each candidate's IV.
///
/// # Panics
///
/// Panics if the synthetic configuration is invalid.
#[must_use]
pub fn run_adaptive_point(config: &AdaptiveSyncConfig, seed_index: u64) -> AdaptiveSyncPoint {
    let scenario = adaptive_scenario(config, seed_index);
    let model = StylizedCostModel::paper_fig4();
    let scheduler = AdaptiveScheduler::new(
        &scenario.catalog,
        &model,
        config.rates,
        &scenario.requests,
        scenario.costs,
    );
    let mut adaptive = AdaptiveConfig::new(config.horizon);
    adaptive.ga = Some(config.ga);
    let outcome = scheduler.optimize(&scenario.fixed, &adaptive);
    AdaptiveSyncPoint {
        seed_index,
        budget: outcome.budget,
        fixed_iv: outcome.fixed_iv,
        greedy_iv: outcome.greedy.iv,
        ga_iv: outcome.ga.as_ref().map(|ga| ga.iv),
        chosen_iv: outcome.chosen_iv,
        source: outcome.source.label(),
        picks: outcome.greedy.picks.len(),
        evaluations: outcome.greedy.evaluations
            + outcome.ga.as_ref().map_or(0, |ga| ga.evaluations),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AdaptiveSyncConfig {
        AdaptiveSyncConfig {
            tables: 6,
            replicated_tables: 3,
            queries: 4,
            ga: GaConfig {
                population: 6,
                generations: 3,
                parents: 3,
                mutation_rate: 0.25,
                elites: 1,
                seed: 0x9a,
            },
            ..AdaptiveSyncConfig::default()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_never_worse() {
        let sweep = || -> Vec<AdaptiveSyncPoint> {
            (0..3).map(|i| run_adaptive_point(&small(), i)).collect()
        };
        let a = sweep();
        assert_eq!(a, sweep(), "same config must reproduce the same sweep");
        for p in &a {
            assert!(
                p.chosen_iv >= p.fixed_iv,
                "seed {}: chosen {} below fixed {}",
                p.seed_index,
                p.chosen_iv,
                p.fixed_iv
            );
            assert!(p.budget > 0.0);
            assert!(p.evaluations > 0);
        }
    }
}
