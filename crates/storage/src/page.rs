//! Fixed-size slotted pages of fixed-length records.
//!
//! A page is a flat byte buffer divided into equal slots by a
//! [`Layout`]: slot `i` starts at byte `i × slot_size`. Byte 0 of each
//! slot is a live flag (`0` = free, `1` = live); fields follow at the
//! layout's offsets. All accessors assert that the addressed bytes fall
//! inside the page, so the property suite can probe arbitrary layouts.

use crate::schema::Layout;

/// One fixed-size page of record slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    data: Box<[u8]>,
}

impl Page {
    /// Creates a zeroed page of `page_size` bytes (all slots free).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    #[must_use]
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Page {
            data: vec![0u8; page_size].into_boxed_slice(),
        }
    }

    /// Number of whole slots of `layout` that fit in a page of
    /// `page_size` bytes.
    #[must_use]
    pub fn slots_per_page(layout: &Layout, page_size: usize) -> usize {
        page_size / layout.slot_size()
    }

    fn slot_base(&self, layout: &Layout, slot: usize) -> usize {
        let base = slot * layout.slot_size();
        assert!(
            base + layout.slot_size() <= self.data.len(),
            "slot {slot} exceeds page bounds"
        );
        base
    }

    /// Whether the slot holds a live record.
    #[must_use]
    pub fn is_live(&self, layout: &Layout, slot: usize) -> bool {
        self.data[self.slot_base(layout, slot)] == 1
    }

    /// Marks the slot live or free. Freeing does not erase field bytes;
    /// a later insert into the slot overwrites them.
    pub fn set_live(&mut self, layout: &Layout, slot: usize, live: bool) {
        let base = self.slot_base(layout, slot);
        self.data[base] = u8::from(live);
    }

    fn field_range(&self, layout: &Layout, slot: usize, field: usize) -> (usize, usize) {
        let base = self.slot_base(layout, slot);
        let start = base + layout.offset(field);
        let width = layout.field_width(field);
        assert!(
            start + width <= self.data.len(),
            "field {field} of slot {slot} exceeds page bounds"
        );
        (start, width)
    }

    /// Writes a 64-bit integer field (little-endian).
    pub fn write_int(&mut self, layout: &Layout, slot: usize, field: usize, value: i64) {
        let (start, width) = self.field_range(layout, slot, field);
        assert_eq!(width, 8, "field {field} is not an integer field");
        self.data[start..start + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a 64-bit integer field.
    #[must_use]
    pub fn read_int(&self, layout: &Layout, slot: usize, field: usize) -> i64 {
        let (start, width) = self.field_range(layout, slot, field);
        assert_eq!(width, 8, "field {field} is not an integer field");
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.data[start..start + 8]);
        i64::from_le_bytes(buf)
    }

    /// Writes a byte field; `value` must not exceed the field width and is
    /// zero-padded to it.
    pub fn write_bytes(&mut self, layout: &Layout, slot: usize, field: usize, value: &[u8]) {
        let (start, width) = self.field_range(layout, slot, field);
        assert!(
            value.len() <= width,
            "value of {} bytes exceeds field width {width}",
            value.len()
        );
        self.data[start..start + value.len()].copy_from_slice(value);
        for b in &mut self.data[start + value.len()..start + width] {
            *b = 0;
        }
    }

    /// Reads a byte field at its full declared width.
    #[must_use]
    pub fn read_bytes(&self, layout: &Layout, slot: usize, field: usize) -> &[u8] {
        let (start, width) = self.field_range(layout, slot, field);
        &self.data[start..start + width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn layout() -> Layout {
        let mut s = Schema::new();
        s.add_int("k");
        s.add_bytes("b", 4);
        Layout::new(s)
    }

    #[test]
    fn int_round_trip() {
        let l = layout();
        let mut p = Page::new(64);
        p.write_int(&l, 1, 0, -42);
        assert_eq!(p.read_int(&l, 1, 0), -42);
    }

    #[test]
    fn bytes_round_trip_zero_padded() {
        let l = layout();
        let mut p = Page::new(64);
        p.write_bytes(&l, 0, 1, &[0xAB, 0xCD, 0xEF, 0x01]);
        p.write_bytes(&l, 0, 1, &[0x7F]);
        assert_eq!(p.read_bytes(&l, 0, 1), &[0x7F, 0, 0, 0]);
    }

    #[test]
    fn live_flag_toggles() {
        let l = layout();
        let mut p = Page::new(64);
        assert!(!p.is_live(&l, 2));
        p.set_live(&l, 2, true);
        assert!(p.is_live(&l, 2));
        p.set_live(&l, 2, false);
        assert!(!p.is_live(&l, 2));
    }

    #[test]
    fn slots_per_page_floors() {
        let l = layout(); // slot = 1 + 8 + 4 = 13
        assert_eq!(Page::slots_per_page(&l, 64), 4);
        assert_eq!(Page::slots_per_page(&l, 13), 1);
        assert_eq!(Page::slots_per_page(&l, 12), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds page bounds")]
    fn out_of_bounds_slot_rejected() {
        let l = layout();
        let p = Page::new(13);
        let _ = p.is_live(&l, 1);
    }
}
