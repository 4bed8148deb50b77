//! # ivdss-storage — deterministic record-page storage + measured scans
//!
//! Everything upstream of this crate estimates: [`ivdss_costmodel`]'s
//! analytic model turns catalog byte counts into latencies without ever
//! touching a byte of data. This crate measures what it estimates, with
//! a minimal, fully deterministic storage engine in the classic SimpleDB
//! shape:
//!
//! * [`schema`] — field schemas and slotted-record [`schema::Layout`]s,
//!   including the canonical mapping from a catalog
//!   [`ivdss_catalog::table::TableMeta`] to a physical layout;
//! * [`page`] — fixed-size slotted pages of fixed-length records;
//! * [`heap`] — [`heap::TableStorage`], an in-memory page heap per table
//!   with deterministic seeded population;
//! * [`scan`] — [`scan::TableScan`], an executable full table scan that
//!   counts every block and record access into an [`stats::AccessStats`]
//!   collector;
//! * [`plan`] — [`plan::TablePlan`], reporting the scan's
//!   `blocks_accessed()` / `records_output()` *estimates before execution*
//!   (deterministic functions of the heap, so the differential suite can
//!   assert estimate == measured bit-exactly);
//! * [`engine`] — [`engine::StorageEngine`], which materializes every
//!   catalog table and executes scans under a [`engine::DeviceProfile`]
//!   that converts access counts into deterministic measured latencies;
//!   each scan's `(bytes, seconds)` pair is a calibration sample for
//!   [`ivdss_costmodel::calibrate::fit_local`].
//!
//! The measured side deliberately derives latency from *access counts*,
//! not wall clock: calibration coefficients fitted from these samples are
//! bit-reproducible across runs, which is what lets the regression suite
//! pin them.
//!
//! # Example
//!
//! ```
//! use ivdss_catalog::tpch::{tpch_catalog, TpchConfig};
//! use ivdss_storage::engine::{StorageConfig, StorageEngine};
//! use ivdss_storage::{AccessStats, TablePlan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let catalog = tpch_catalog(&TpchConfig {
//!     scale_factor: 0.001,
//!     ..TpchConfig::default()
//! })?;
//! let storage = StorageEngine::build(&catalog, &StorageConfig::default());
//! let t = catalog.table_ids()[0];
//! let stats = AccessStats::new();
//! let plan = TablePlan::new(storage.table(t), &stats);
//! let m = storage.execute_table_scan(t);
//! assert_eq!(
//!     (m.blocks, m.records),
//!     (plan.blocks_accessed(), plan.records_output())
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod heap;
pub mod page;
pub mod plan;
pub mod scan;
pub mod schema;
pub mod stats;

pub use engine::{DeviceProfile, ScanMeasurement, StorageConfig, StorageEngine};
pub use heap::{RecordId, TableStorage};
pub use page::Page;
pub use plan::TablePlan;
pub use scan::TableScan;
pub use schema::{key_field, table_layout, table_schema, FieldType, Layout, Schema};
pub use stats::AccessStats;
