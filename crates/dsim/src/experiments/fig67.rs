//! Figures 6 and 7 — per-query computational and synchronization latency.
//!
//! Paper §4.2: "we evaluate the computational latency with λCL and λSL
//! equal to 0.01 and Fq:Fs equals to 1:10. We select 15 queries which are
//! neither too cheap nor too expensive" (Fig. 6); Fig. 7 reports the
//! synchronization latency of the same 15 queries for Fq:Fs ∈ {1:1, 1:10,
//! 1:20}, comparing IVQP against Data Warehouse only (Federation's SL "is
//! caused by the delay of query processing instead of table update").

use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::AnalyticCostModel;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::stream::{ArrivalStream, FrequencyRatio};
use ivdss_workloads::tpch::mid_cost_query_specs;

use crate::experiments::common::{method_setups, run_methods, tpch_hybrid};
use crate::metrics::RunMetrics;

/// Configuration shared by the Fig. 6 and Fig. 7 runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig67Config {
    /// Query instances simulated (cycling through the 15 templates).
    pub arrivals: usize,
    /// Mean query inter-arrival time (minutes).
    pub mean_interarrival: f64,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig67Config {
    fn default() -> Self {
        Fig67Config {
            arrivals: 150,
            mean_interarrival: 20.0,
            seed: 0xf167,
        }
    }
}

/// Fig. 6 output: per-query mean computational latency for the three
/// methods.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Results {
    /// `per_query[q][m]` = mean CL of query `q+1` under method `m`
    /// ([`Method::ALL`](crate::experiments::Method::ALL) order).
    pub per_query: Vec<[f64; 3]>,
}

impl Fig6Results {
    /// Renders the per-query series as an aligned table.
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Fig. 6 — Computational Latency (λ=.01, Fq:Fs=1:10) =="
        );
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>12} {:>14}",
            "query", "IVQP", "Federation", "DataWarehouse"
        );
        for (i, row) in self.per_query.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<8} {:>12.3} {:>12.3} {:>14.3}",
                i + 1,
                row[0],
                row[1],
                row[2]
            );
        }
        out
    }
}

/// Fig. 7 output: per-query mean synchronization latency of IVQP and Data
/// Warehouse, for each Fq:Fs ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Results {
    /// One `(ratio label, per-query [IVQP, DW] series)` per ratio.
    pub per_ratio: Vec<(String, Vec<[f64; 2]>)>,
}

impl Fig7Results {
    /// Renders all ratios as aligned tables.
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (label, series) in &self.per_ratio {
            let _ = writeln!(
                out,
                "== Fig. 7 — Synchronization Latency, Fq:Fs = {label} =="
            );
            let _ = writeln!(out, "{:<8} {:>12} {:>14}", "query", "IVQP", "DataWarehouse");
            for (i, row) in series.iter().enumerate() {
                let _ = writeln!(out, "{:<8} {:>12.3} {:>14.3}", i + 1, row[0], row[1]);
            }
            out.push('\n');
        }
        out
    }
}

/// Runs one (ratio, rates) TPC-H point over the 15 mid-cost templates and
/// returns per-method metrics in [`Method::ALL`] order.
fn run_point(config: &Fig67Config, ratio: FrequencyRatio, rates: DiscountRates) -> [RunMetrics; 3] {
    let model = AnalyticCostModel::paper_scale();
    let seeds = SeedFactory::new(config.seed);
    let horizon = SimTime::new((config.arrivals as f64 + 100.0) * config.mean_interarrival);
    let sync_period = ratio.sync_period(config.mean_interarrival);
    let hybrid = tpch_hybrid(ratio, config.mean_interarrival, seeds.seed_for("catalog"));
    let setups = method_setups(&hybrid, sync_period, horizon, seeds.seed_for("sync"));
    let requests = ArrivalStream::new(
        mid_cost_query_specs(),
        config.mean_interarrival,
        seeds.seed_for("arrivals"),
    )
    .take_requests(config.arrivals);
    run_methods(&setups, &model, rates, &requests)
}

/// Runs the Fig. 6 experiment (λ = .01/.01, Fq:Fs = 1:10).
#[must_use]
pub fn run_fig6(config: &Fig67Config) -> Fig6Results {
    let metrics = run_point(
        config,
        FrequencyRatio::one_to(10.0),
        DiscountRates::new(0.01, 0.01),
    );
    let n = 15;
    let per_method: Vec<Vec<f64>> = metrics.iter().map(|m| m.per_template_mean_cl(n)).collect();
    let per_query = (0..n)
        .map(|q| [per_method[0][q], per_method[1][q], per_method[2][q]])
        .collect();
    Fig6Results { per_query }
}

/// Runs the Fig. 7 experiment (λ = .01/.01; Fq:Fs ∈ {1:1, 1:10, 1:20}).
#[must_use]
pub fn run_fig7(config: &Fig67Config) -> Fig7Results {
    let n = 15;
    let per_ratio = [1.0, 10.0, 20.0]
        .into_iter()
        .map(|x| {
            let ratio = FrequencyRatio::one_to(x);
            let metrics = run_point(config, ratio, DiscountRates::new(0.01, 0.01));
            let ivqp = metrics[0].per_template_mean_sl(n);
            let dw = metrics[2].per_template_mean_sl(n);
            let series = (0..n).map(|q| [ivqp[q], dw[q]]).collect();
            (ratio.label(), series)
        })
        .collect();
    Fig7Results { per_ratio }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Fig67Config {
        Fig67Config {
            arrivals: 60,
            mean_interarrival: 20.0,
            seed: 5,
        }
    }

    #[test]
    fn fig6_shape_and_ordering() {
        let r = run_fig6(&cfg());
        assert_eq!(r.per_query.len(), 15);
        let mut ivqp_le_fed = 0usize;
        for row in &r.per_query {
            let [ivqp, fed, dw] = *row;
            assert!(ivqp > 0.0 && fed > 0.0 && dw > 0.0);
            if ivqp <= fed + 1e-6 {
                ivqp_le_fed += 1;
            }
        }
        // IVQP does not always pick the cheapest plan ("Our IVQP does not
        // always choose the lowest computational latency"), but it should
        // be at most as slow as Federation on the vast majority of
        // queries.
        assert!(ivqp_le_fed >= 12, "IVQP ≤ Federation on {ivqp_le_fed}/15");
        // Warehouse is the cheapest method in aggregate: pure local
        // execution, no fan-out. (Per-query inversions can occur because
        // each method's queue state evolves differently.)
        let mean =
            |m: usize| r.per_query.iter().map(|row| row[m]).sum::<f64>() / r.per_query.len() as f64;
        assert!(
            mean(2) <= mean(1),
            "DW mean CL {} vs Fed {}",
            mean(2),
            mean(1)
        );
    }

    #[test]
    fn fig7_ivqp_never_staler_than_warehouse() {
        // "IVQP can always get smaller or equal synchronization latency to
        // Data Warehouse method."
        // Per query we allow a 1.5× tolerance: IVQP's hybrid catalog holds
        // only 5 of the 12 replicas, so on footprints it covers partially
        // its best *IV* plan may read fresh base tables remotely, whose SL
        // equals the (larger) remote CL; in aggregate IVQP must still be
        // no staler than the warehouse.
        let r = run_fig7(&cfg());
        assert_eq!(r.per_ratio.len(), 3);
        for (label, series) in &r.per_ratio {
            assert_eq!(series.len(), 15);
            let mut ivqp_sum = 0.0;
            let mut dw_sum = 0.0;
            for (q, row) in series.iter().enumerate() {
                assert!(
                    row[0] <= row[1] * 1.5 + 1e-6,
                    "{label} Q{}: IVQP SL {} > DW SL {}",
                    q + 1,
                    row[0],
                    row[1]
                );
                ivqp_sum += row[0];
                dw_sum += row[1];
            }
            assert!(
                ivqp_sum <= dw_sum + 1e-6,
                "{label}: mean IVQP SL {} > mean DW SL {}",
                ivqp_sum / 15.0,
                dw_sum / 15.0
            );
        }
    }

    #[test]
    fn fig7_sl_decreases_with_sync_frequency() {
        let r = run_fig7(&cfg());
        let mean_dw = |idx: usize| {
            let s = &r.per_ratio[idx].1;
            s.iter().map(|row| row[1]).sum::<f64>() / s.len() as f64
        };
        // DW's SL at 1:20 must be below its SL at 1:1.
        assert!(mean_dw(2) < mean_dw(0));
    }

    #[test]
    fn tables_render() {
        let c = cfg();
        assert!(run_fig6(&c).to_table().contains("Fig. 6"));
        assert!(run_fig7(&c).to_table().contains("Fq:Fs = 1:20"));
    }
}
