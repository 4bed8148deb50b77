//! Per-table page heaps with deterministic population.

use ivdss_catalog::ids::TableId;
use ivdss_catalog::table::TableMeta;

use crate::page::Page;
use crate::schema::{table_layout, Layout};

/// Address of one record slot: page index + slot index within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Index of the page holding the record.
    pub page: usize,
    /// Slot index within that page.
    pub slot: usize,
}

/// An in-memory heap of slotted pages for one table.
///
/// Inserts fill the lowest free slot, so a freshly populated table packs
/// records densely: a full scan touches exactly
/// `ceil(rows / slots_per_page)` pages, which is what lets plan estimates
/// match measured block counts bit-exactly.
#[derive(Debug, Clone)]
pub struct TableStorage {
    table: TableId,
    layout: Layout,
    page_size: usize,
    slots_per_page: usize,
    pages: Vec<Page>,
    live: u64,
    first_free: usize,
}

impl TableStorage {
    /// Creates an empty heap.
    ///
    /// # Panics
    ///
    /// Panics if a slot of `layout` does not fit in `page_size` bytes.
    #[must_use]
    pub fn new(table: TableId, layout: Layout, page_size: usize) -> Self {
        let slots_per_page = Page::slots_per_page(&layout, page_size);
        assert!(
            slots_per_page > 0,
            "page size {page_size} cannot hold a slot of {} bytes",
            layout.slot_size()
        );
        TableStorage {
            table,
            layout,
            page_size,
            slots_per_page,
            pages: Vec::new(),
            live: 0,
            first_free: 0,
        }
    }

    /// Builds a heap for a catalog table and fills it with `rows` records:
    /// sequential keys `0..rows` plus seeded pad bytes. Sequential keys
    /// make predicate output counts exactly computable from the layout.
    #[must_use]
    pub fn populate(meta: &TableMeta, rows: u64, page_size: usize, seed: u64) -> Self {
        let mut heap = TableStorage::new(meta.id(), table_layout(meta), page_size);
        let has_pad = heap.layout.schema().len() > 1;
        for key in 0..rows {
            let rid = heap.insert();
            heap.set_int(rid, 0, key as i64);
            if has_pad {
                let width = heap.layout.field_width(1);
                let pattern = (seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes();
                let fill: Vec<u8> = (0..width).map(|i| pattern[i % 8]).collect();
                heap.set_bytes(rid, 1, &fill);
            }
        }
        heap
    }

    /// The catalog table this heap stores.
    #[must_use]
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Record slots per page.
    #[must_use]
    pub fn slots_per_page(&self) -> usize {
        self.slots_per_page
    }

    /// Number of allocated pages (blocks).
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of live records.
    #[must_use]
    pub fn live_records(&self) -> u64 {
        self.live
    }

    fn rid_of(&self, global_slot: usize) -> RecordId {
        RecordId {
            page: global_slot / self.slots_per_page,
            slot: global_slot % self.slots_per_page,
        }
    }

    /// Inserts a record into the lowest free slot, allocating a page when
    /// the heap is full, and marks it live. Field bytes are whatever the
    /// slot last held — callers write fields after inserting.
    pub fn insert(&mut self) -> RecordId {
        loop {
            let rid = self.rid_of(self.first_free);
            if rid.page == self.pages.len() {
                self.pages.push(Page::new(self.page_size));
            }
            if self.pages[rid.page].is_live(&self.layout, rid.slot) {
                self.first_free += 1;
                continue;
            }
            self.pages[rid.page].set_live(&self.layout, rid.slot, true);
            self.live += 1;
            self.first_free += 1;
            return rid;
        }
    }

    /// Frees a live record's slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    pub fn delete(&mut self, rid: RecordId) {
        assert!(self.is_live(rid), "delete of non-live record {rid:?}");
        self.pages[rid.page].set_live(&self.layout, rid.slot, false);
        self.live -= 1;
        let global = rid.page * self.slots_per_page + rid.slot;
        self.first_free = self.first_free.min(global);
    }

    /// Whether the slot holds a live record (false for unallocated pages).
    #[must_use]
    pub fn is_live(&self, rid: RecordId) -> bool {
        rid.slot < self.slots_per_page
            && rid.page < self.pages.len()
            && self.pages[rid.page].is_live(&self.layout, rid.slot)
    }

    /// Writes an integer field of a record.
    pub fn set_int(&mut self, rid: RecordId, field: usize, value: i64) {
        self.pages[rid.page].write_int(&self.layout, rid.slot, field, value);
    }

    /// Reads an integer field of a record.
    #[must_use]
    pub fn get_int(&self, rid: RecordId, field: usize) -> i64 {
        self.pages[rid.page].read_int(&self.layout, rid.slot, field)
    }

    /// Writes a byte field of a record (zero-padded to the field width).
    pub fn set_bytes(&mut self, rid: RecordId, field: usize, value: &[u8]) {
        self.pages[rid.page].write_bytes(&self.layout, rid.slot, field, value);
    }

    /// Reads a byte field of a record (a read-back for tests).
    #[cfg(test)]
    fn get_bytes(&self, rid: RecordId, field: usize) -> &[u8] {
        self.pages[rid.page].read_bytes(&self.layout, rid.slot, field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::TableId;

    fn meta(rows: u64, row_bytes: u32) -> TableMeta {
        TableMeta::new(TableId::new(0), "t", rows, row_bytes)
    }

    #[test]
    fn populate_packs_densely() {
        let m = meta(100, 40);
        let h = TableStorage::populate(&m, 100, 256, 7);
        // slot = 41, spp = 6, 100 rows -> ceil(100/6) = 17 pages.
        assert_eq!(h.slots_per_page(), 6);
        assert_eq!(h.blocks(), 17);
        assert_eq!(h.live_records(), 100);
    }

    #[test]
    fn keys_are_sequential() {
        let m = meta(10, 16);
        let h = TableStorage::populate(&m, 10, 64, 3);
        let mut seen = Vec::new();
        for page in 0..h.blocks() as usize {
            for slot in 0..h.slots_per_page() {
                let rid = RecordId { page, slot };
                if h.is_live(rid) {
                    seen.push(h.get_int(rid, 0));
                }
            }
        }
        assert_eq!(seen, (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn delete_then_insert_reuses_lowest_slot() {
        let m = meta(5, 16);
        let mut h = TableStorage::populate(&m, 5, 64, 0);
        let victim = RecordId { page: 0, slot: 1 };
        h.delete(victim);
        assert_eq!(h.live_records(), 4);
        let rid = h.insert();
        assert_eq!(rid, victim);
        assert_eq!(h.live_records(), 5);
    }

    #[test]
    fn pad_bytes_deterministic_per_seed() {
        let m = meta(4, 32);
        let a = TableStorage::populate(&m, 4, 128, 11);
        let b = TableStorage::populate(&m, 4, 128, 11);
        let c = TableStorage::populate(&m, 4, 128, 12);
        let rid = RecordId { page: 0, slot: 2 };
        assert_eq!(a.get_bytes(rid, 1), b.get_bytes(rid, 1));
        assert_ne!(a.get_bytes(rid, 1), c.get_bytes(rid, 1));
    }

    #[test]
    #[should_panic(expected = "cannot hold a slot")]
    fn oversized_slot_rejected() {
        let m = meta(1, 1000);
        let _ = TableStorage::populate(&m, 1, 64, 0);
    }
}
