//! Shared configuration for the figure-regeneration experiments.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::replica::ReplicationPlan;
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_catalog::tpch::{tpch_catalog, TpchConfig};
use ivdss_core::plan::QueryRequest;
use ivdss_core::planner::{FederationPlanner, IvqpPlanner, Planner, WarehousePlanner};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::CostModel;
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::time::SimTime;
use ivdss_workloads::stream::FrequencyRatio;

use crate::metrics::RunMetrics;
use crate::simulator::{run_arrival_driven, Environment, ReplicaLoading};

/// The three methods the paper compares (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The proposed information value-driven query processing.
    Ivqp,
    /// All tables remote, no replicas.
    Federation,
    /// Every table replicated, all queries answered locally.
    Warehouse,
}

impl Method {
    /// All three methods in the paper's plotting order.
    pub const ALL: [Method; 3] = [Method::Ivqp, Method::Federation, Method::Warehouse];

    /// Display label matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Method::Ivqp => "IVQP",
            Method::Federation => "Federation",
            Method::Warehouse => "Data Warehouse",
        }
    }

    /// The planner implementing this method.
    #[must_use]
    pub fn planner(self) -> Box<dyn Planner> {
        match self {
            Method::Ivqp => Box::new(IvqpPlanner::new()),
            Method::Federation => Box::new(FederationPlanner::new()),
            Method::Warehouse => Box::new(WarehousePlanner::new()),
        }
    }

    /// Derives this method's replication plan from the IVQP (hybrid)
    /// catalog: IVQP keeps the partial plan, Federation drops every
    /// replica, Warehouse replicates all tables.
    ///
    /// The warehouse's per-table synchronization period is scaled by the
    /// ratio of its replica count to the hybrid's: the replication manager
    /// has a fixed refresh budget, so replicating 12 tables instead of 5
    /// refreshes each one 12/5× less often. This is the "challenges of
    /// data loading" the paper's introduction levels at centralized
    /// warehouses.
    ///
    /// # Panics
    ///
    /// Panics if the hybrid catalog's plan is inconsistent with its tables
    /// (cannot happen for catalogs built by this crate).
    #[must_use]
    pub fn catalog_from_hybrid(self, hybrid: &Catalog, mean_sync_period: f64) -> Catalog {
        let plan = match self {
            Method::Ivqp => hybrid.replication().clone(),
            Method::Federation => ReplicationPlan::new(),
            Method::Warehouse => {
                let hybrid_replicas = hybrid.replication().len().max(1);
                let budget_factor = hybrid.table_count() as f64 / hybrid_replicas as f64;
                ReplicationPlan::full(hybrid.table_ids(), mean_sync_period * budget_factor)
            }
        };
        hybrid
            .with_replication(plan)
            .expect("hybrid catalog is internally consistent")
    }
}

/// A fully built experiment point for one method: its catalog and
/// synchronization timelines.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSetup {
    /// The method.
    pub method: Method,
    /// Its catalog (replication plan varies per method).
    pub catalog: Catalog,
    /// Its synchronization timelines (stochastic, shared per-table seeds
    /// so common tables see identical sync traces across methods).
    pub timelines: SyncTimelines,
}

/// Builds the per-method catalog/timeline setups from a hybrid catalog.
///
/// All methods share the same table placement and, for tables they have in
/// common, the same stochastic synchronization traces (common random
/// numbers), which is what makes the paper's method comparison fair.
#[must_use]
pub fn method_setups(
    hybrid: &Catalog,
    mean_sync_period: f64,
    horizon: SimTime,
    seed: u64,
) -> Vec<MethodSetup> {
    Method::ALL
        .iter()
        .map(|&method| {
            let catalog = method.catalog_from_hybrid(hybrid, mean_sync_period);
            let timelines = SyncTimelines::from_plan(
                catalog.replication(),
                SyncMode::Stochastic { horizon, seed },
            );
            MethodSetup {
                method,
                catalog,
                timelines,
            }
        })
        .collect()
}

/// Runs `requests` through [`run_arrival_driven`] once per setup of
/// [`method_setups`], with paper-scale replica loading, and returns the
/// metrics in [`Method::ALL`] order.
///
/// # Panics
///
/// Panics if a method cannot plan a request on its own catalog (cannot
/// happen for the setups [`method_setups`] builds).
#[must_use]
pub fn run_methods(
    setups: &[MethodSetup],
    model: &dyn CostModel,
    rates: DiscountRates,
    requests: &[QueryRequest],
) -> [RunMetrics; 3] {
    let metrics: Vec<RunMetrics> = setups
        .iter()
        .map(|setup| {
            let env = Environment {
                catalog: &setup.catalog,
                timelines: &setup.timelines,
                model,
                rates,
                loading: Some(ReplicaLoading::paper_scale()),
            };
            run_arrival_driven(&env, setup.method.planner().as_ref(), requests)
                .expect("all methods are feasible on their own catalogs")
        })
        .collect();
    metrics.try_into().expect("one setup per method")
}

/// Builds the paper's TPC-H hybrid catalog for a given Fq:Fs ratio and
/// mean inter-arrival time.
///
/// # Panics
///
/// Panics if the derived configuration is inconsistent (cannot happen for
/// the paper's parameters).
#[must_use]
pub fn tpch_hybrid(ratio: FrequencyRatio, mean_interarrival: f64, seed: u64) -> Catalog {
    tpch_catalog(&TpchConfig {
        mean_sync_period: ratio.sync_period(mean_interarrival),
        seed,
        ..TpchConfig::default()
    })
    .expect("paper TPC-H configuration is valid")
}

/// Builds a synthetic hybrid catalog (Fig. 8): 100 tables, 50 replicated.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (cannot happen for the
/// paper's parameter ranges).
#[must_use]
pub fn synthetic_hybrid(
    sites: usize,
    placement: PlacementStrategy,
    mean_sync_period: f64,
    seed: u64,
) -> Catalog {
    synthetic_catalog(&SyntheticConfig {
        tables: 100,
        sites,
        placement,
        replicated_tables: 50,
        mean_sync_period,
        seed,
        ..SyntheticConfig::default()
    })
    .expect("paper synthetic configuration is valid")
}

/// Formats a table of labelled rows with one column per method, in the
/// paper's plotting order.
#[must_use]
pub fn format_method_table(title: &str, header: &str, rows: &[(String, [f64; 3])]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{header:<24} {:>12} {:>12} {:>14}",
        "IVQP", "Federation", "DataWarehouse"
    );
    for (label, values) in rows {
        let _ = writeln!(
            out,
            "{label:<24} {:>12.4} {:>12.4} {:>14.4}",
            values[0], values[1], values[2]
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_labels_and_order() {
        assert_eq!(Method::ALL.len(), 3);
        assert_eq!(Method::Ivqp.label(), "IVQP");
        assert_eq!(Method::Federation.label(), "Federation");
        assert_eq!(Method::Warehouse.label(), "Data Warehouse");
    }

    #[test]
    fn catalogs_derive_per_method() {
        let hybrid = tpch_hybrid(FrequencyRatio::one_to(10.0), 20.0, 1);
        assert_eq!(hybrid.replication().len(), 5);
        let fed = Method::Federation.catalog_from_hybrid(&hybrid, 2.0);
        assert!(fed.replication().is_empty());
        let dw = Method::Warehouse.catalog_from_hybrid(&hybrid, 2.0);
        assert_eq!(dw.replication().len(), 12);
        let ivqp = Method::Ivqp.catalog_from_hybrid(&hybrid, 2.0);
        assert_eq!(ivqp.replication().len(), 5);
        // Placement is shared.
        for t in hybrid.table_ids() {
            assert_eq!(hybrid.site_of(t), dw.site_of(t));
        }
    }

    #[test]
    fn setups_are_deterministic_and_budget_scaled() {
        let hybrid = tpch_hybrid(FrequencyRatio::one_to(10.0), 20.0, 1);
        let a = method_setups(&hybrid, 2.0, SimTime::new(1000.0), 7);
        let b = method_setups(&hybrid, 2.0, SimTime::new(1000.0), 7);
        assert_eq!(a, b, "setups must be reproducible");
        // The warehouse refreshes each of its 12 replicas 12/5× less often
        // than the hybrid refreshes its 5 (fixed replication budget).
        let dw = &a[2].catalog;
        let spec = dw.replication().iter().next().unwrap().1;
        assert!((spec.mean_period() - 2.0 * 12.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn planners_match_methods() {
        for m in Method::ALL {
            assert_eq!(m.planner().name(), m.label());
        }
    }

    #[test]
    fn table_formatting() {
        let s = format_method_table("Fig X", "config", &[("a".to_string(), [1.0, 2.0, 3.0])]);
        assert!(s.contains("Fig X"));
        assert!(s.contains("IVQP"));
        assert!(s.contains("1.0000"));
    }
}
