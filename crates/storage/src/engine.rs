//! The storage engine: materialized catalog tables + measured scans.
//!
//! [`StorageEngine::build`] materializes one [`TableStorage`] heap per
//! catalog table (capped at [`StorageConfig::row_cap`] rows so synthetic
//! catalogs with multi-million-row tables stay cheap) and executes scans
//! under a [`DeviceProfile`] that converts the deterministic access
//! counts into deterministic "measured" latencies. Every scan executed
//! through the serving path records a `(bytes, seconds)` sample into the
//! engine's recorder, feeding [`ivdss_costmodel::calibrate::fit_local`].

use std::collections::BTreeSet;
use std::sync::Mutex;

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::ids::TableId;
use ivdss_costmodel::calibrate::{fit_local, CalibrationSample, LocalFit};
use ivdss_costmodel::model::{CostModel, PlanCost};
use ivdss_costmodel::query::QuerySpec;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::SimDuration;

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
    recorder: Mutex<Vec<CalibrationSample>>,
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
            recorder: Mutex::new(Vec::new()),
        }
    }

    /// Whether every table holds its full catalog row count (no table hit
    /// the row cap).
    #[must_use]
    pub fn is_full_fidelity(&self) -> bool {
        !self.capped
    }

    /// Whether a heap was materialized for this table (false for tables
    /// added to the catalog after the storage build, e.g. by a
    /// schema-growth scenario).
    #[must_use]
    pub fn has_table(&self, table: TableId) -> bool {
        table.index() < self.tables.len()
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

    /// Pre-execution full-scan estimates: `(blocks, records)`.
    #[must_use]
    pub fn scan_estimates(&self, table: TableId) -> (u64, u64) {
        let stats = AccessStats::new();
        let plan = TablePlan::new(self.table(table), &stats);
        (plan.blocks_accessed(), plan.records_output())
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

    /// Appends one calibration sample to the engine's recorder.
    ///
    /// # Panics
    ///
    /// Panics if the recorder mutex is poisoned.
    pub fn record_sample(&self, bytes: f64, seconds: f64) {
        self.recorder
            .lock()
            .expect("storage recorder poisoned")
            .push(CalibrationSample { bytes, seconds });
    }

    /// Snapshot of all recorded samples, in recording order.
    ///
    /// # Panics
    ///
    /// Panics if the recorder mutex is poisoned.
    #[must_use]
    pub fn samples(&self) -> Vec<CalibrationSample> {
        self.recorder
            .lock()
            .expect("storage recorder poisoned")
            .clone()
    }

    /// Fits local-scan coefficients from the recorded samples.
    #[must_use]
    pub fn fit(&self) -> Option<LocalFit> {
        fit_local(&self.samples())
    }
}

/// A cost model whose local-processing component is an *executed*
/// measurement rather than an estimate.
///
/// Used by `ServeEngine`'s storage-backed mode: after real scans run for
/// the chosen plan's local tables, the delivery evaluation wraps the live
/// model so the delivered IV reflects the measured local latency while
/// remote and transmission components stay modeled.
#[derive(Clone, Copy)]
pub struct MeasuredLocalCost<'a> {
    inner: &'a dyn CostModel,
    measured_local: SimDuration,
}

impl<'a> MeasuredLocalCost<'a> {
    /// Wraps `inner`, overriding local processing with `measured_local`.
    #[must_use]
    pub fn new(inner: &'a dyn CostModel, measured_local: SimDuration) -> Self {
        MeasuredLocalCost {
            inner,
            measured_local,
        }
    }
}

impl CostModel for MeasuredLocalCost<'_> {
    fn plan_cost(
        &self,
        catalog: &Catalog,
        query: &QuerySpec,
        remote: &BTreeSet<TableId>,
    ) -> PlanCost {
        let mut cost = self.inner.plan_cost(catalog, query, remote);
        cost.local_processing = self.measured_local;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::tpch::{tpch_catalog, TpchConfig};
    use ivdss_costmodel::model::AnalyticCostModel;
    use ivdss_costmodel::query::{QueryId, QuerySpec};

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
            let (blocks, records) = s.scan_estimates(t);
            let m = s.execute_table_scan(t);
            assert_eq!((m.blocks, m.records), (blocks, records));
            assert!(m.seconds > 0.0);
        }
    }

    #[test]
    fn recorder_feeds_a_reproducible_fit() {
        let cat = tiny_catalog();
        let s = StorageEngine::build(&cat, &StorageConfig::default());
        for t in cat.table_ids() {
            let m = s.execute_table_scan(t);
            s.record_sample(m.bytes as f64, m.seconds);
        }
        let a = s.fit().unwrap();
        let again = StorageEngine::build(&cat, &StorageConfig::default());
        for t in cat.table_ids() {
            let m = again.execute_table_scan(t);
            again.record_sample(m.bytes as f64, m.seconds);
        }
        let b = again.fit().unwrap();
        assert_eq!(a.overhead.to_bits(), b.overhead.to_bits());
        assert_eq!(a.secs_per_byte.to_bits(), b.secs_per_byte.to_bits());
    }

    #[test]
    fn measured_local_overrides_only_local_component() {
        let cat = tiny_catalog();
        let base = AnalyticCostModel::paper_scale();
        let q = QuerySpec::new(QueryId::new(0), cat.table_ids()[..2].to_vec());
        let remote: BTreeSet<TableId> = [cat.table_ids()[1]].into_iter().collect();
        let measured = SimDuration::new(0.125);
        let wrapped = MeasuredLocalCost::new(&base, measured);
        let got = wrapped.plan_cost(&cat, &q, &remote);
        let want = base.plan_cost(&cat, &q, &remote);
        assert_eq!(got.local_processing, measured);
        assert_eq!(got.remote_processing, want.remote_processing);
        assert_eq!(got.transmission, want.transmission);
    }
}
