//! Executable scans that count every block and record access.
//!
//! A [`TableScan`] walks a [`TableStorage`] heap page by page and yields
//! the id of every live record. Every page entered and every record
//! yielded is counted into the execution's [`AccessStats`].
//!
//! Creating a scan counts nothing: no access is counted until iteration
//! actually touches a page, so an empty heap costs zero blocks.

use crate::heap::{RecordId, TableStorage};
use crate::stats::AccessStats;

/// Sequential scan over one table's heap, yielding each live record's
/// [`RecordId`] in page order.
pub struct TableScan<'a> {
    table: &'a TableStorage,
    stats: &'a AccessStats,
    page: Option<usize>,
    slot: usize,
}

impl<'a> TableScan<'a> {
    /// Creates a scan positioned before the first record.
    #[must_use]
    pub fn new(table: &'a TableStorage, stats: &'a AccessStats) -> Self {
        TableScan {
            table,
            stats,
            page: None,
            slot: 0,
        }
    }
}

impl Iterator for TableScan<'_> {
    type Item = RecordId;

    fn next(&mut self) -> Option<RecordId> {
        loop {
            match self.page {
                None => {
                    if self.table.blocks() == 0 {
                        return None;
                    }
                    self.page = Some(0);
                    self.slot = 0;
                    self.stats.count_block();
                }
                Some(p) => {
                    while self.slot < self.table.slots_per_page() {
                        let rid = RecordId {
                            page: p,
                            slot: self.slot,
                        };
                        self.slot += 1;
                        if self.table.is_live(rid) {
                            self.stats.count_record();
                            return Some(rid);
                        }
                    }
                    let next = p + 1;
                    if next as u64 >= self.table.blocks() {
                        return None;
                    }
                    self.page = Some(next);
                    self.slot = 0;
                    self.stats.count_block();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::TableId;
    use ivdss_catalog::table::TableMeta;

    fn heap(name: &str, rows: u64) -> TableStorage {
        let meta = TableMeta::new(TableId::new(0), name, rows, 24);
        TableStorage::populate(&meta, rows, 128, 9)
    }

    #[test]
    fn table_scan_counts_every_block_and_record() {
        let h = heap("t", 20); // slot 25, spp 5 -> 4 pages
        let stats = AccessStats::new();
        assert_eq!(TableScan::new(&h, &stats).count(), 20);
        assert_eq!(stats.blocks(), h.blocks());
        assert_eq!(stats.records(), 20);
    }

    #[test]
    fn empty_table_touches_no_blocks() {
        let h = heap("t", 0);
        let stats = AccessStats::new();
        assert_eq!(TableScan::new(&h, &stats).count(), 0);
        assert_eq!(stats.blocks(), 0);
    }
}
