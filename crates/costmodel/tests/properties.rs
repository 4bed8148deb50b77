//! Property-based tests for the cost model.

use std::collections::BTreeSet;

use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_catalog::Catalog;
use ivdss_costmodel::model::{AnalyticCostModel, CostModel, PlanCost, StylizedCostModel};
use ivdss_costmodel::query::{QueryId, QuerySpec};
use proptest::prelude::*;

/// A synthetic catalog whose every table has a replica.
fn replicated_catalog(tables: usize, seed: u64) -> Catalog {
    let base = synthetic_catalog(&SyntheticConfig {
        tables,
        sites: 3,
        replicated_tables: 0,
        seed,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let mut plan = ReplicationPlan::new();
    for i in 0..tables {
        plan.add(TableId::new(i as u32), ReplicaSpec::new(5.0));
    }
    base.with_replication(plan).unwrap()
}

/// The cost of every local/remote combination of `query`'s footprint, as
/// `(remote tables, cost)`: mask bit `i` sends footprint table `i` to its
/// base copy.
fn every_combination(
    catalog: &Catalog,
    model: &dyn CostModel,
    query: &QuerySpec,
) -> Vec<(BTreeSet<TableId>, PlanCost)> {
    let tables = query.tables();
    (0..1usize << tables.len())
        .map(|mask| {
            let remote: BTreeSet<TableId> = tables
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &t)| t)
                .collect();
            let cost = model.plan_cost(catalog, query, &remote);
            (remote, cost)
        })
        .collect()
}

proptest! {
    /// All cost components are finite and non-negative; the all-local
    /// plan has zero transmission and zero remote processing.
    #[test]
    fn costs_are_physical(
        tables in 1usize..8,
        seed in any::<u64>(),
        weight in 0.5..3.0f64,
        selectivity in 0.001..0.5f64
    ) {
        let catalog = replicated_catalog(tables, seed);
        let model = AnalyticCostModel::paper_scale();
        let query = QuerySpec::with_profile(
            QueryId::new(0),
            (0..tables as u32).map(TableId::new).collect(),
            weight,
            selectivity,
        );
        let combinations = every_combination(&catalog, &model, &query);
        prop_assert_eq!(combinations.len(), 1 << tables);
        for (_, cost) in &combinations {
            prop_assert!(cost.local_processing.value() >= 0.0);
            prop_assert!(cost.remote_processing.value() >= 0.0);
            prop_assert!(cost.transmission.value() >= 0.0);
            prop_assert!(cost.total().value().is_finite());
        }
        let (remote, all_local) = &combinations[0];
        prop_assert!(remote.is_empty());
        prop_assert_eq!(all_local.transmission.value(), 0.0);
        prop_assert_eq!(all_local.remote_processing.value(), 0.0);
    }

    /// Stylized costs depend only on the remote-set size.
    #[test]
    fn stylized_depends_only_on_remote_count(
        tables in 2usize..8,
        seed in any::<u64>()
    ) {
        let catalog = replicated_catalog(tables, seed);
        let model = StylizedCostModel::paper_fig4();
        let query = QuerySpec::new(
            QueryId::new(0),
            (0..tables as u32).map(TableId::new).collect(),
        );
        for (remote, cost) in every_combination(&catalog, &model, &query) {
            prop_assert_eq!(cost.total().value(), 2.0 + 2.0 * remote.len() as f64);
        }
    }

    /// Footprints are canonical: sorted, deduplicated, order-insensitive.
    #[test]
    fn query_footprint_canonical(ids in prop::collection::vec(0u32..40, 1..12)) {
        let a = QuerySpec::new(QueryId::new(0), ids.iter().map(|&i| TableId::new(i)).collect());
        let mut reversed: Vec<TableId> = ids.iter().rev().map(|&i| TableId::new(i)).collect();
        reversed.extend(ids.iter().map(|&i| TableId::new(i))); // duplicates
        let b = QuerySpec::new(QueryId::new(0), reversed);
        prop_assert_eq!(a.tables(), b.tables());
        for w in a.tables().windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Overlap is symmetric and reflexive.
    #[test]
    fn overlap_symmetric(
        xs in prop::collection::vec(0u32..20, 1..6),
        ys in prop::collection::vec(0u32..20, 1..6)
    ) {
        let a = QuerySpec::new(QueryId::new(0), xs.iter().map(|&i| TableId::new(i)).collect());
        let b = QuerySpec::new(QueryId::new(1), ys.iter().map(|&i| TableId::new(i)).collect());
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert!(a.overlaps(&a));
    }
}
