//! The storage engine: materialized catalog tables + measured scans.
//!
//! [`StorageEngine::build`] materializes one [`TableStorage`] heap per
//! catalog table (capped at [`StorageConfig::row_cap`] rows so synthetic
//! catalogs with multi-million-row tables stay cheap) and executes scans
//! under a [`DeviceProfile`] that converts the deterministic access
//! counts into deterministic "measured" latencies. A scan's
//! `(bytes, seconds)` pair is one sample for
//! [`ivdss_costmodel::calibrate::fit_local`].

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_simkernel::rng::SeedFactory;

use crate::heap::TableStorage;
use crate::plan::TablePlan;
use crate::stats::AccessStats;

/// Storage build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// Page size in bytes.
    pub page_size: usize,
    /// Maximum rows materialized per table (catalog row counts above the
    /// cap are truncated; [`StorageEngine::is_full_fidelity`] reports
    /// whether any table was capped).
    pub row_cap: u64,
    /// Root seed for record payload generation.
    pub seed: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            page_size: 4096,
            row_cap: 4096,
            seed: 0x57_0A_4E,
        }
    }
}

/// Deterministic device timing: converts access counts into latency.
///
/// Measured latency is `per_scan_overhead + blocks × seconds_per_block +
/// records × seconds_per_record` — a pure function of the counts, so
/// calibration coefficients fitted from it are bit-reproducible (wall
/// clock would not be). Units follow the cost model's time unit
/// (minutes at the default rates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Latency charged per block (page) access.
    pub seconds_per_block: f64,
    /// Latency charged per record access.
    pub seconds_per_record: f64,
    /// Fixed setup latency charged once per scan.
    pub per_scan_overhead: f64,
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile {
            seconds_per_block: 2.0e-4,
            seconds_per_record: 1.0e-6,
            per_scan_overhead: 5.0e-4,
        }
    }
}

impl DeviceProfile {
    /// Latency of a scan with the given access counts.
    #[must_use]
    pub fn seconds(&self, blocks: u64, records: u64) -> f64 {
        self.per_scan_overhead
            + self.seconds_per_block * blocks as f64
            + self.seconds_per_record * records as f64
    }
}

/// Result of one executed scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanMeasurement {
    /// The scanned table.
    pub table: TableId,
    /// Blocks actually accessed.
    pub blocks: u64,
    /// Records actually accessed.
    pub records: u64,
    /// Catalog bytes the stored rows span (`stored_rows × row_bytes`).
    pub bytes: u64,
    /// Measured latency under the engine's [`DeviceProfile`].
    pub seconds: f64,
}

/// Materialized storage for every table of one catalog.
#[derive(Debug)]
pub struct StorageEngine {
    device: DeviceProfile,
    tables: Vec<TableStorage>,
    model_bytes: Vec<u64>,
    capped: bool,
}

impl StorageEngine {
    /// Materializes every catalog table with deterministic seeded data.
    ///
    /// # Panics
    ///
    /// Panics if a table's row width does not fit in a page.
    #[must_use]
    pub fn build(catalog: &Catalog, config: &StorageConfig) -> Self {
        let seeds = SeedFactory::new(config.seed);
        let mut tables = Vec::new();
        let mut model_bytes = Vec::new();
        let mut capped = false;
        for id in catalog.table_ids() {
            let meta = catalog.table(id);
            let rows = meta.rows().min(config.row_cap);
            capped |= rows < meta.rows();
            let seed = seeds.seed_for_indexed("storage:table", id.index());
            tables.push(TableStorage::populate(meta, rows, config.page_size, seed));
            model_bytes.push(rows.saturating_mul(u64::from(meta.row_bytes())));
        }
        StorageEngine {
            device: DeviceProfile::default(),
            tables,
            model_bytes,
            capped,
        }
    }

    /// Whether every table holds its full catalog row count (no table hit
    /// the row cap).
    #[must_use]
    pub fn is_full_fidelity(&self) -> bool {
        !self.capped
    }

    /// The materialized heap for a table.
    ///
    /// # Panics
    ///
    /// Panics if the table is unknown.
    #[must_use]
    pub fn table(&self, table: TableId) -> &TableStorage {
        &self.tables[table.index()]
    }

    /// Catalog bytes the stored rows of a table span.
    #[must_use]
    pub fn stored_bytes(&self, table: TableId) -> u64 {
        self.model_bytes[table.index()]
    }

    /// Executes a full table scan and measures it.
    #[must_use]
    pub fn execute_table_scan(&self, table: TableId) -> ScanMeasurement {
        let stats = AccessStats::new();
        let _ = TablePlan::new(self.table(table), &stats).open().count();
        ScanMeasurement {
            table,
            blocks: stats.blocks(),
            records: stats.records(),
            bytes: self.stored_bytes(table),
            seconds: self.device.seconds(stats.blocks(), stats.records()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::tpch::{tpch_catalog, TpchConfig};

    fn tiny_catalog() -> Catalog {
        tpch_catalog(&TpchConfig {
            scale_factor: 0.0005,
            ..TpchConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn build_is_deterministic_and_full_fidelity_when_under_cap() {
        let cat = tiny_catalog();
        let cfg = StorageConfig::default();
        let a = StorageEngine::build(&cat, &cfg);
        let b = StorageEngine::build(&cat, &cfg);
        assert!(a.is_full_fidelity());
        for t in cat.table_ids() {
            let ma = a.execute_table_scan(t);
            let mb = b.execute_table_scan(t);
            assert_eq!(ma, mb);
            assert_eq!(ma.records, a.table(t).live_records());
        }
    }

    #[test]
    fn row_cap_truncates_and_reports() {
        let cat = tiny_catalog();
        let cfg = StorageConfig {
            row_cap: 10,
            ..StorageConfig::default()
        };
        let s = StorageEngine::build(&cat, &cfg);
        assert!(!s.is_full_fidelity());
        for t in cat.table_ids() {
            assert!(s.table(t).live_records() <= 10);
        }
    }

    #[test]
    fn estimates_match_full_scan_measurement() {
        let cat = tiny_catalog();
        let s = StorageEngine::build(&cat, &StorageConfig::default());
        for t in cat.table_ids() {
            let stats = AccessStats::new();
            let plan = TablePlan::new(s.table(t), &stats);
            let (blocks, records) = (plan.blocks_accessed(), plan.records_output());
            let m = s.execute_table_scan(t);
            assert_eq!((m.blocks, m.records), (blocks, records));
            assert!(m.seconds > 0.0);
        }
    }
}
