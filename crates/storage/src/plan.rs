//! Table plans: pre-execution estimates of a full table scan.
//!
//! A [`TablePlan`] reports `blocks_accessed()` and `records_output()` as
//! deterministic functions of the heap *before* opening a scan — the
//! classic SimpleDB planning interface. For densely packed heaps (what
//! [`crate::heap::TableStorage::populate`] builds) the estimates agree
//! bit-exactly with the [`crate::stats::AccessStats`] counts the scan
//! records; the differential suite asserts exactly that.

use crate::heap::TableStorage;
use crate::scan::TableScan;
use crate::stats::AccessStats;

/// Full sequential scan of one table heap.
pub struct TablePlan<'a> {
    table: &'a TableStorage,
    stats: &'a AccessStats,
}

impl<'a> TablePlan<'a> {
    /// Creates a table plan counting accesses into `stats`.
    #[must_use]
    pub fn new(table: &'a TableStorage, stats: &'a AccessStats) -> Self {
        TablePlan { table, stats }
    }

    /// Estimated number of block (page) accesses a full execution incurs.
    #[must_use]
    pub fn blocks_accessed(&self) -> u64 {
        self.table.blocks()
    }

    /// Estimated number of records the scan outputs.
    #[must_use]
    pub fn records_output(&self) -> u64 {
        self.table.live_records()
    }

    /// Opens the executable scan.
    #[must_use]
    pub fn open(&self) -> TableScan<'a> {
        TableScan::new(self.table, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::TableId;
    use ivdss_catalog::table::TableMeta;

    fn heap(id: u32, name: &str, rows: u64) -> TableStorage {
        let meta = TableMeta::new(TableId::new(id), name, rows, 24);
        TableStorage::populate(&meta, rows, 128, 5)
    }

    #[test]
    fn table_plan_estimates_match_execution() {
        let h = heap(0, "t", 23);
        let stats = AccessStats::new();
        let plan = TablePlan::new(&h, &stats);
        let out = plan.open().count() as u64;
        assert_eq!(out, plan.records_output());
        assert_eq!(stats.blocks(), plan.blocks_accessed());
        assert_eq!(stats.records(), plan.records_output());
    }
}
