//! Figure 8 — information value vs. number of sites.
//!
//! Paper §4.3: synthetic data, 100 tables, 50 random replicas, queries
//! touching at most 10 random tables, the number of remote sites varied
//! from 2 to 22, table placement either uniform or skewed (site 0 holds
//! half the tables, site 1 a quarter, …).

use ivdss_catalog::placement::PlacementStrategy;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::AnalyticCostModel;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::stream::ArrivalStream;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

use crate::experiments::common::{
    format_method_table, method_setups, run_methods, synthetic_hybrid,
};

/// Configuration of the Fig. 8 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Config {
    /// Site counts to sweep (paper: 2–22).
    pub site_counts: [usize; 6],
    /// Query instances per point.
    pub arrivals: usize,
    /// Mean query inter-arrival time.
    pub mean_interarrival: f64,
    /// Mean replica synchronization period.
    pub mean_sync_period: f64,
    /// Discount rates.
    pub rates: DiscountRates,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            site_counts: [2, 6, 10, 14, 18, 22],
            arrivals: 120,
            mean_interarrival: 20.0,
            mean_sync_period: 2.0,
            rates: DiscountRates::new(0.01, 0.01),
            seed: 0xf8,
        }
    }
}

/// One point of Fig. 8: a site count with the mean IV of the three
/// methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Number of remote sites.
    pub sites: usize,
    /// Mean information value per method ([`super::common::Method::ALL`]
    /// order).
    pub mean_iv: [f64; 3],
}

/// Fig. 8 output: one series per placement strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Results {
    /// Skewed placement (Fig. 8a).
    pub skewed: Vec<Fig8Point>,
    /// Uniform placement (Fig. 8b).
    pub uniform: Vec<Fig8Point>,
}

impl Fig8Results {
    /// Renders both series as aligned tables.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (name, series) in [("Skewed", &self.skewed), ("Uniform", &self.uniform)] {
            let rows: Vec<(String, [f64; 3])> = series
                .iter()
                .map(|p| (format!("{} sites", p.sites), p.mean_iv))
                .collect();
            out.push_str(&format_method_table(
                &format!("Fig. 8 — Information Value vs #Sites ({name} placement)"),
                "sites",
                &rows,
            ));
            out.push('\n');
        }
        out
    }
}

fn run_series(config: &Fig8Config, placement: PlacementStrategy) -> Vec<Fig8Point> {
    let model = AnalyticCostModel::paper_scale();
    let seeds = SeedFactory::new(config.seed);
    let horizon = SimTime::new((config.arrivals as f64 + 100.0) * config.mean_interarrival);
    // The paper's 120 random queries over the 100 tables.
    let templates = random_queries(&RandomQueryConfig {
        seed: seeds.seed_for("queries"),
        ..RandomQueryConfig::default()
    });

    config
        .site_counts
        .iter()
        .map(|&sites| {
            let hybrid = synthetic_hybrid(
                sites,
                placement,
                config.mean_sync_period,
                seeds.seed_for("catalog"),
            );
            let setups = method_setups(
                &hybrid,
                config.mean_sync_period,
                horizon,
                seeds.seed_for("sync"),
            );
            let requests = ArrivalStream::new(
                templates.clone(),
                config.mean_interarrival,
                seeds.seed_for("arrivals"),
            )
            .take_requests(config.arrivals);
            let mean_iv = run_methods(&setups, &model, config.rates, &requests)
                .map(|metrics| metrics.mean_information_value());
            Fig8Point { sites, mean_iv }
        })
        .collect()
}

/// Runs the Fig. 8 experiment (both placements).
#[must_use]
pub fn run_fig8(config: &Fig8Config) -> Fig8Results {
    Fig8Results {
        skewed: run_series(config, PlacementStrategy::Skewed),
        uniform: run_series(config, PlacementStrategy::Uniform),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fig8Results {
        run_fig8(&Fig8Config {
            site_counts: [2, 6, 10, 14, 18, 22],
            arrivals: 40,
            seed: 9,
            ..Fig8Config::default()
        })
    }

    #[test]
    fn ivqp_wins_everywhere() {
        // "our IVQP gets the biggest information values than the other two
        // competing methods" for every site count and both placements.
        // Same 1 % contention-feedback tolerance as the Fig. 5 test, with
        // a strict-majority requirement.
        let r = small();
        let mut strict_wins = 0usize;
        let mut cells = 0usize;
        for series in [&r.skewed, &r.uniform] {
            for p in series {
                let [ivqp, fed, dw] = p.mean_iv;
                let best = fed.max(dw);
                cells += 1;
                assert!(
                    ivqp >= best * 0.99 - 1e-9,
                    "{} sites: IVQP {ivqp} vs fed {fed} dw {dw}",
                    p.sites
                );
                if ivqp >= best - 1e-9 {
                    strict_wins += 1;
                }
            }
        }
        assert!(
            strict_wins * 4 >= cells * 3,
            "IVQP strictly best in only {strict_wins}/{cells} points"
        );
    }

    #[test]
    fn uniform_fanout_degrades_remote_methods() {
        // "The communication overhead among different nodes will result in
        // the reduction of information value gained by IVQP and
        // Federation" as sites grow under uniform placement.
        let r = small();
        let fed_first = r.uniform.first().unwrap().mean_iv[1];
        let fed_last = r.uniform.last().unwrap().mean_iv[1];
        assert!(
            fed_last < fed_first,
            "uniform Federation should degrade: {fed_first} → {fed_last}"
        );
    }

    #[test]
    fn skewed_is_less_sensitive_than_uniform() {
        // "varying the number of nodes does not change as much as the
        // uniform distribution": compare Federation's relative drop.
        let r = small();
        let drop = |series: &[Fig8Point]| {
            let first = series.first().unwrap().mean_iv[1];
            let last = series.last().unwrap().mean_iv[1];
            (first - last) / first.max(1e-9)
        };
        assert!(
            drop(&r.skewed) <= drop(&r.uniform) + 0.05,
            "skewed drop {} vs uniform drop {}",
            drop(&r.skewed),
            drop(&r.uniform)
        );
    }

    #[test]
    fn table_renders() {
        let r = small();
        let t = r.to_table();
        assert!(t.contains("Skewed"));
        assert!(t.contains("Uniform"));
        assert!(t.contains("22 sites"));
    }
}
