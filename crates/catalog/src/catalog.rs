//! The catalog aggregate: tables, their placement over remote sites, and
//! the replication plan of the local DSS.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use crate::ids::{SiteId, TableId};
use crate::replica::ReplicationPlan;
use crate::table::TableMeta;

/// Error building or validating a [`Catalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CatalogError {
    /// Table ids must be dense: table `i` must have `TableId::new(i)`.
    NonDenseTableId {
        /// The position at which the mismatch occurred.
        position: usize,
        /// The id found at that position.
        found: TableId,
    },
    /// The placement vector length must equal the number of tables.
    PlacementLengthMismatch {
        /// Number of tables in the catalog.
        tables: usize,
        /// Length of the placement vector supplied.
        placement: usize,
    },
    /// A placement entry referenced a site outside `0..n_sites`.
    UnknownSite {
        /// The table whose placement is invalid.
        table: TableId,
        /// The out-of-range site.
        site: SiteId,
        /// Number of sites in the catalog.
        sites: usize,
    },
    /// The replication plan replicates a table the catalog does not contain.
    UnknownReplicatedTable {
        /// The offending table id.
        table: TableId,
    },
    /// The catalog must contain at least one table and one site.
    Empty,
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::NonDenseTableId { position, found } => {
                write!(
                    f,
                    "table at position {position} has id {found}, expected T{position}"
                )
            }
            CatalogError::PlacementLengthMismatch { tables, placement } => {
                write!(f, "{tables} tables but {placement} placement entries")
            }
            CatalogError::UnknownSite { table, site, sites } => {
                write!(
                    f,
                    "table {table} placed at {site} but only {sites} sites exist"
                )
            }
            CatalogError::UnknownReplicatedTable { table } => {
                write!(f, "replication plan references unknown table {table}")
            }
            CatalogError::Empty => write!(f, "catalog needs at least one table and one site"),
        }
    }
}

impl Error for CatalogError {}

/// Tables, sites, placement and replication plan of one DSS deployment.
///
/// A `Catalog` is immutable once built; experiments construct one per
/// configuration point. Invariants (dense table ids, placement bounds,
/// replication plan consistency) are validated at construction.
///
/// # Examples
///
/// ```
/// use ivdss_catalog::catalog::Catalog;
/// use ivdss_catalog::ids::{SiteId, TableId};
/// use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
/// use ivdss_catalog::table::TableMeta;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tables = vec![
///     TableMeta::new(TableId::new(0), "orders", 1000, 100),
///     TableMeta::new(TableId::new(1), "lineitem", 4000, 120),
/// ];
/// let placement = vec![SiteId::new(0), SiteId::new(1)];
/// let mut plan = ReplicationPlan::new();
/// plan.add(TableId::new(1), ReplicaSpec::new(10.0));
/// let catalog = Catalog::new(tables, 2, placement, plan)?;
/// assert_eq!(catalog.site_of(TableId::new(1)), SiteId::new(1));
/// assert!(catalog.is_replicated(TableId::new(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    n_sites: usize,
    placement: Vec<SiteId>,
    replication: ReplicationPlan,
}

impl Catalog {
    /// Builds and validates a catalog.
    ///
    /// # Errors
    ///
    /// Returns a [`CatalogError`] when table ids are not dense, the
    /// placement length or site indices are inconsistent, or the replication
    /// plan references unknown tables.
    pub fn new(
        tables: Vec<TableMeta>,
        n_sites: usize,
        placement: Vec<SiteId>,
        replication: ReplicationPlan,
    ) -> Result<Self, CatalogError> {
        if tables.is_empty() || n_sites == 0 {
            return Err(CatalogError::Empty);
        }
        for (position, table) in tables.iter().enumerate() {
            if table.id().index() != position {
                return Err(CatalogError::NonDenseTableId {
                    position,
                    found: table.id(),
                });
            }
        }
        if placement.len() != tables.len() {
            return Err(CatalogError::PlacementLengthMismatch {
                tables: tables.len(),
                placement: placement.len(),
            });
        }
        for (idx, &site) in placement.iter().enumerate() {
            if site.index() >= n_sites {
                return Err(CatalogError::UnknownSite {
                    table: TableId::new(idx as u32),
                    site,
                    sites: n_sites,
                });
            }
        }
        for (table, _) in replication.iter() {
            if table.index() >= tables.len() {
                return Err(CatalogError::UnknownReplicatedTable { table });
            }
        }
        Ok(Catalog {
            tables,
            n_sites,
            placement,
            replication,
        })
    }

    /// All tables in id order.
    #[must_use]
    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// Metadata of one table.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not in the catalog.
    #[must_use]
    pub fn table(&self, table: TableId) -> &TableMeta {
        &self.tables[table.index()]
    }

    /// All table ids, in order.
    #[must_use]
    pub fn table_ids(&self) -> Vec<TableId> {
        (0..self.tables.len() as u32).map(TableId::new).collect()
    }

    /// Number of tables.
    #[must_use]
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of remote sites.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.n_sites
    }

    /// The remote site holding `table`'s base copy.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not in the catalog.
    #[must_use]
    pub fn site_of(&self, table: TableId) -> SiteId {
        self.placement[table.index()]
    }

    /// The replication plan.
    #[must_use]
    pub fn replication(&self) -> &ReplicationPlan {
        &self.replication
    }

    /// Returns `true` if `table` has a local replica at the DSS.
    #[must_use]
    pub fn is_replicated(&self, table: TableId) -> bool {
        self.replication.is_replicated(table)
    }

    /// The distinct remote sites a set of tables spans — the fan-out of a
    /// query touching those tables when executed remotely.
    #[must_use]
    pub fn sites_spanned(&self, tables: &[TableId]) -> BTreeSet<SiteId> {
        tables.iter().map(|&t| self.site_of(t)).collect()
    }

    /// Returns a copy of this catalog with a different replication plan —
    /// used to derive the Federation (empty plan) and Data Warehouse (full
    /// plan) baselines from an IVQP configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::UnknownReplicatedTable`] if the plan
    /// references a table this catalog does not contain.
    pub fn with_replication(&self, replication: ReplicationPlan) -> Result<Self, CatalogError> {
        Catalog::new(
            self.tables.clone(),
            self.n_sites,
            self.placement.clone(),
            replication,
        )
    }

    /// Returns a copy of this catalog with `added` tables appended — the
    /// schema-growth hook: a scenario that lets new tables enter the
    /// catalog mid-run builds the grown catalog up front with this and
    /// gates *traffic* on each table's birth time instead of mutating a
    /// catalog the serving engines already borrow.
    ///
    /// Each added table is placed at the given site; ids must continue
    /// the dense sequence (`table_count()`, `table_count() + 1`, …),
    /// which [`Catalog::new`] re-validates. The replication plan is
    /// carried over unchanged — grow it separately via
    /// [`Catalog::with_replication`] when the newborn tables should be
    /// replicated.
    ///
    /// # Errors
    ///
    /// Returns a [`CatalogError`] if an added table breaks id density or
    /// references an out-of-range site.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_catalog::catalog::Catalog;
    /// use ivdss_catalog::ids::{SiteId, TableId};
    /// use ivdss_catalog::replica::ReplicationPlan;
    /// use ivdss_catalog::table::TableMeta;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let base = Catalog::new(
    ///     vec![TableMeta::new(TableId::new(0), "orders", 1000, 100)],
    ///     2,
    ///     vec![SiteId::new(0)],
    ///     ReplicationPlan::new(),
    /// )?;
    /// let grown = base.with_added_tables(vec![(
    ///     TableMeta::new(TableId::new(1), "clickstream", 5000, 64),
    ///     SiteId::new(1),
    /// )])?;
    /// assert_eq!(grown.table_count(), 2);
    /// assert_eq!(grown.site_of(TableId::new(1)), SiteId::new(1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_added_tables(&self, added: Vec<(TableMeta, SiteId)>) -> Result<Self, CatalogError> {
        let mut tables = self.tables.clone();
        let mut placement = self.placement.clone();
        for (meta, site) in added {
            tables.push(meta);
            placement.push(site);
        }
        Catalog::new(tables, self.n_sites, placement, self.replication.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReplicaSpec;

    fn tables(n: u32) -> Vec<TableMeta> {
        (0..n)
            .map(|i| TableMeta::new(TableId::new(i), format!("t{i}"), 100 * u64::from(i + 1), 64))
            .collect()
    }

    fn uniform_placement(n: u32, sites: u32) -> Vec<SiteId> {
        (0..n).map(|i| SiteId::new(i % sites)).collect()
    }

    #[test]
    fn valid_catalog_builds() {
        let cat = Catalog::new(
            tables(4),
            2,
            uniform_placement(4, 2),
            ReplicationPlan::new(),
        )
        .unwrap();
        assert_eq!(cat.table_count(), 4);
        assert_eq!(cat.site_count(), 2);
        assert_eq!(cat.site_of(TableId::new(3)), SiteId::new(1));
        let at_site0: Vec<TableId> = (0..4)
            .map(TableId::new)
            .filter(|&t| cat.site_of(t) == SiteId::new(0))
            .collect();
        assert_eq!(at_site0, vec![TableId::new(0), TableId::new(2)]);
        assert_eq!(cat.table(TableId::new(1)).name(), "t1");
        assert_eq!(cat.table_ids().len(), 4);
    }

    #[test]
    fn grown_catalog_appends_and_revalidates() {
        let base = Catalog::new(
            tables(4),
            2,
            uniform_placement(4, 2),
            ReplicationPlan::new(),
        )
        .unwrap();
        let grown = base
            .with_added_tables(vec![
                (
                    TableMeta::new(TableId::new(4), "g0", 500, 64),
                    SiteId::new(1),
                ),
                (
                    TableMeta::new(TableId::new(5), "g1", 700, 64),
                    SiteId::new(0),
                ),
            ])
            .unwrap();
        assert_eq!(grown.table_count(), 6);
        assert_eq!(grown.site_of(TableId::new(4)), SiteId::new(1));
        assert_eq!(grown.site_of(TableId::new(5)), SiteId::new(0));
        // The base catalog is untouched, and a gap in the id sequence
        // is rejected by revalidation.
        assert_eq!(base.table_count(), 4);
        assert!(base
            .with_added_tables(vec![(
                TableMeta::new(TableId::new(9), "gap", 10, 8),
                SiteId::new(0)
            )])
            .is_err());
    }

    #[test]
    fn sites_spanned_deduplicates() {
        let cat = Catalog::new(
            tables(4),
            2,
            uniform_placement(4, 2),
            ReplicationPlan::new(),
        )
        .unwrap();
        let span = cat.sites_spanned(&[TableId::new(0), TableId::new(2), TableId::new(1)]);
        assert_eq!(span.len(), 2);
    }

    #[test]
    fn empty_catalog_rejected() {
        assert_eq!(
            Catalog::new(vec![], 1, vec![], ReplicationPlan::new()),
            Err(CatalogError::Empty)
        );
        assert_eq!(
            Catalog::new(
                tables(1),
                0,
                uniform_placement(1, 1),
                ReplicationPlan::new()
            ),
            Err(CatalogError::Empty)
        );
    }

    #[test]
    fn non_dense_ids_rejected() {
        let bad = vec![TableMeta::new(TableId::new(1), "x", 1, 1)];
        let err = Catalog::new(bad, 1, vec![SiteId::new(0)], ReplicationPlan::new()).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::NonDenseTableId { position: 0, .. }
        ));
    }

    #[test]
    fn placement_length_checked() {
        let err =
            Catalog::new(tables(3), 1, vec![SiteId::new(0)], ReplicationPlan::new()).unwrap_err();
        assert!(matches!(
            err,
            CatalogError::PlacementLengthMismatch {
                tables: 3,
                placement: 1
            }
        ));
    }

    #[test]
    fn out_of_range_site_rejected() {
        let err = Catalog::new(
            tables(2),
            1,
            vec![SiteId::new(0), SiteId::new(5)],
            ReplicationPlan::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CatalogError::UnknownSite { sites: 1, .. }));
    }

    #[test]
    fn unknown_replica_rejected() {
        let mut plan = ReplicationPlan::new();
        plan.add(TableId::new(9), ReplicaSpec::new(1.0));
        let err = Catalog::new(tables(2), 1, uniform_placement(2, 1), plan).unwrap_err();
        assert!(matches!(err, CatalogError::UnknownReplicatedTable { .. }));
    }

    #[test]
    fn with_replication_swaps_plan() {
        let cat = Catalog::new(
            tables(3),
            1,
            uniform_placement(3, 1),
            ReplicationPlan::new(),
        )
        .unwrap();
        let full = ReplicationPlan::full(cat.table_ids(), 5.0);
        let dw = cat.with_replication(full).unwrap();
        assert!(dw.is_replicated(TableId::new(0)));
        assert!(!cat.is_replicated(TableId::new(0)));
    }

    #[test]
    fn errors_display_and_are_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(CatalogError::Empty);
        assert!(!err.to_string().is_empty());
        let e2 = CatalogError::UnknownSite {
            table: TableId::new(1),
            site: SiteId::new(7),
            sites: 2,
        };
        assert!(e2.to_string().contains("S7"));
    }
}
