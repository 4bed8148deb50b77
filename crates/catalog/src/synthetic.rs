//! Synthetic schema generator.
//!
//! The paper's second data set: "randomly generated tables based on a schema
//! similar with TPC-H but the number of tables can vary from 10 to 300",
//! distributed over 2–22 sites either uniformly or skewed, with a random
//! subset (e.g. 50 of 100) replicated to the local site.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::{Catalog, CatalogError};
use crate::ids::TableId;
use crate::placement::{place_tables, PlacementStrategy};
use crate::replica::ReplicationPlan;
use crate::table::TableMeta;

/// Configuration for the synthetic schema generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of tables (paper: 10–300; Fig. 8 and Fig. 9 fix 100).
    pub tables: usize,
    /// Number of remote sites (paper: 2–22).
    pub sites: usize,
    /// Placement strategy.
    pub placement: PlacementStrategy,
    /// Number of tables replicated locally (paper: 50 of 100).
    pub replicated_tables: usize,
    /// Mean synchronization period per replica, in time units.
    pub mean_sync_period: f64,
    /// Row-count range; each table draws log-uniformly from this range so
    /// the size distribution is TPC-H-like (a few huge fact tables, many
    /// small dimension tables).
    pub rows_range: (u64, u64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    /// The paper's Fig. 8 baseline: 100 tables, 10 sites, uniform placement,
    /// 50 replicas.
    fn default() -> Self {
        SyntheticConfig {
            tables: 100,
            sites: 10,
            placement: PlacementStrategy::Uniform,
            replicated_tables: 50,
            mean_sync_period: 10.0,
            rows_range: (1_000, 10_000_000),
            seed: 0xfeed,
        }
    }
}

/// Generates a synthetic catalog per `config`.
///
/// # Errors
///
/// Returns a [`CatalogError`] if the configuration is internally
/// inconsistent (zero tables/sites, more replicas than tables).
///
/// # Examples
///
/// ```
/// use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let catalog = synthetic_catalog(&SyntheticConfig::default())?;
/// assert_eq!(catalog.table_count(), 100);
/// assert_eq!(catalog.replication().len(), 50);
/// # Ok(())
/// # }
/// ```
pub fn synthetic_catalog(config: &SyntheticConfig) -> Result<Catalog, CatalogError> {
    if config.tables == 0 || config.sites == 0 {
        return Err(CatalogError::Empty);
    }
    if config.replicated_tables > config.tables {
        return Err(CatalogError::UnknownReplicatedTable {
            table: TableId::new(config.tables as u32),
        });
    }
    let (lo, hi) = config.rows_range;
    assert!(lo > 0 && lo < hi, "rows_range must satisfy 0 < lo < hi");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let log_lo = (lo as f64).ln();
    let log_hi = (hi as f64).ln();
    let tables: Vec<TableMeta> = (0..config.tables)
        .map(|i| {
            let rows = rng.random_range(log_lo..log_hi).exp() as u64;
            let row_bytes = rng.random_range(64..256u32);
            TableMeta::new(
                TableId::new(i as u32),
                format!("syn{i}"),
                rows.max(lo),
                row_bytes,
            )
        })
        .collect();
    let placement = place_tables(
        config.tables,
        config.sites,
        config.placement,
        config.seed ^ 0x9a7e,
    );
    let ids: Vec<TableId> = (0..config.tables as u32).map(TableId::new).collect();
    let plan = ReplicationPlan::random_subset(
        &ids,
        config.replicated_tables,
        config.mean_sync_period,
        config.seed ^ 0x5eed,
    );
    Catalog::new(tables, config.sites, placement, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let cfg = SyntheticConfig {
            tables: 40,
            sites: 4,
            replicated_tables: 10,
            ..SyntheticConfig::default()
        };
        let cat = synthetic_catalog(&cfg).unwrap();
        assert_eq!(cat.table_count(), 40);
        assert_eq!(cat.site_count(), 4);
        assert_eq!(cat.replication().len(), 10);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig::default();
        assert_eq!(
            synthetic_catalog(&cfg).unwrap(),
            synthetic_catalog(&cfg).unwrap()
        );
        let other = SyntheticConfig {
            seed: 1,
            ..SyntheticConfig::default()
        };
        assert_ne!(
            synthetic_catalog(&cfg).unwrap(),
            synthetic_catalog(&other).unwrap()
        );
    }

    #[test]
    fn rows_respect_range() {
        let cfg = SyntheticConfig {
            rows_range: (100, 1_000),
            ..SyntheticConfig::default()
        };
        let cat = synthetic_catalog(&cfg).unwrap();
        for t in cat.tables() {
            assert!((100..=1_000).contains(&t.rows()), "rows {}", t.rows());
        }
    }

    #[test]
    fn skewed_synthetic_concentrates_tables() {
        let cfg = SyntheticConfig {
            placement: PlacementStrategy::Skewed,
            sites: 8,
            ..SyntheticConfig::default()
        };
        let cat = synthetic_catalog(&cfg).unwrap();
        let site0 = (0..cat.table_count() as u32)
            .filter(|&t| cat.site_of(TableId::new(t)) == crate::ids::SiteId::new(0))
            .count();
        assert_eq!(site0, 50, "half the tables at site 0");
    }

    #[test]
    fn paper_extremes_supported() {
        for tables in [10usize, 300] {
            let cfg = SyntheticConfig {
                tables,
                replicated_tables: tables / 2,
                ..SyntheticConfig::default()
            };
            assert!(synthetic_catalog(&cfg).is_ok());
        }
    }

    #[test]
    fn too_many_replicas_is_error() {
        let cfg = SyntheticConfig {
            tables: 10,
            replicated_tables: 11,
            ..SyntheticConfig::default()
        };
        assert!(synthetic_catalog(&cfg).is_err());
    }
}
