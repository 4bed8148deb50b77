//! Field schemas and slotted-record layouts.
//!
//! A [`Schema`] names the fields of a record; a [`Layout`] fixes their
//! physical offsets inside a fixed-length slot. Catalog tables carry only
//! `rows × row_bytes` metadata, so [`table_schema`] maps a
//! [`TableMeta`] onto a canonical physical shape: one 8-byte integer key
//! (`<name>_key`, holding `0..rows` after population) plus a fixed-length
//! byte field padding the slot to the catalog's declared row width. The
//! mapping is deterministic, so layout-derived plan estimates are too.

use ivdss_catalog::table::TableMeta;

/// Width in bytes of an integer field.
pub const INT_BYTES: usize = 8;

/// The type of one record field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// A 64-bit signed integer, stored little-endian in 8 bytes.
    Int,
    /// A fixed-length byte string of the given width.
    Bytes(u16),
}

impl FieldType {
    /// Storage width of the field in bytes.
    #[must_use]
    pub fn width(self) -> usize {
        match self {
            FieldType::Int => INT_BYTES,
            FieldType::Bytes(n) => n as usize,
        }
    }
}

/// An ordered list of named, typed fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<(String, FieldType)>,
}

impl Schema {
    /// Creates an empty schema.
    #[must_use]
    pub fn new() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Appends an integer field.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or already present.
    pub fn add_int(&mut self, name: impl Into<String>) {
        self.add(name.into(), FieldType::Int);
    }

    /// Appends a fixed-length byte field.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or already present, or `len` is zero.
    pub fn add_bytes(&mut self, name: impl Into<String>, len: u16) {
        assert!(len > 0, "byte field must have positive width");
        self.add(name.into(), FieldType::Bytes(len));
    }

    fn add(&mut self, name: String, ty: FieldType) {
        assert!(!name.is_empty(), "field name must not be empty");
        assert!(
            !self.has_field(&name),
            "duplicate field name {name:?} in schema"
        );
        self.fields.push((name, ty));
    }

    /// Whether a field with this name exists.
    #[must_use]
    pub fn has_field(&self, name: &str) -> bool {
        self.fields.iter().any(|(n, _)| n == name)
    }

    /// The fields in declaration order.
    #[must_use]
    pub fn fields(&self) -> &[(String, FieldType)] {
        &self.fields
    }

    /// Number of fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

impl Default for Schema {
    fn default() -> Self {
        Schema::new()
    }
}

/// Physical record layout: one leading live-flag byte, then every field at
/// a fixed offset. `slot_size` is the full slot width including the flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    schema: Schema,
    offsets: Vec<usize>,
    slot_size: usize,
}

impl Layout {
    /// Computes offsets for `schema`, packing fields in declaration order
    /// after the 1-byte live flag.
    ///
    /// # Panics
    ///
    /// Panics if the schema is empty.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        assert!(!schema.is_empty(), "layout requires at least one field");
        let mut offsets = Vec::with_capacity(schema.len());
        let mut pos = 1; // live flag occupies byte 0
        for (_, ty) in schema.fields() {
            offsets.push(pos);
            pos += ty.width();
        }
        Layout {
            schema,
            offsets,
            slot_size: pos,
        }
    }

    /// The schema this layout realizes.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Byte offset of field `idx` within a slot.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn offset(&self, idx: usize) -> usize {
        self.offsets[idx]
    }

    /// Storage width of field `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn field_width(&self, idx: usize) -> usize {
        self.schema.fields()[idx].1.width()
    }

    /// Full slot width in bytes (live flag + all fields).
    #[must_use]
    pub fn slot_size(&self) -> usize {
        self.slot_size
    }
}

/// Name of the integer key field in the canonical table schema.
#[must_use]
pub fn key_field(meta: &TableMeta) -> String {
    format!("{}_key", meta.name())
}

/// Canonical schema for a catalog table: `<name>_key` (Int) plus, when the
/// declared row width exceeds 8 bytes, `<name>_pad` (Bytes) sized so the
/// fields together occupy exactly `row_bytes`.
#[must_use]
pub fn table_schema(meta: &TableMeta) -> Schema {
    let mut schema = Schema::new();
    schema.add_int(key_field(meta));
    let row_bytes = meta.row_bytes() as usize;
    if row_bytes > INT_BYTES {
        let pad = (row_bytes - INT_BYTES).min(u16::MAX as usize) as u16;
        schema.add_bytes(format!("{}_pad", meta.name()), pad);
    }
    schema
}

/// [`Layout`] of the canonical table schema.
#[must_use]
pub fn table_layout(meta: &TableMeta) -> Layout {
    Layout::new(table_schema(meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::TableId;

    #[test]
    fn layout_offsets_are_packed() {
        let mut s = Schema::new();
        s.add_int("a");
        s.add_bytes("b", 5);
        s.add_int("c");
        let l = Layout::new(s);
        assert_eq!(l.offset(0), 1);
        assert_eq!(l.offset(1), 9);
        assert_eq!(l.offset(2), 14);
        assert_eq!(l.slot_size(), 22);
        assert_eq!(l.field_width(1), 5);
    }

    #[test]
    fn table_schema_matches_row_bytes() {
        let meta = TableMeta::new(TableId::new(3), "orders", 100, 120);
        let l = table_layout(&meta);
        // flag + key(8) + pad(112) = 121 = 1 + row_bytes.
        assert_eq!(l.slot_size(), 1 + 120);
        assert!(l.schema().has_field("orders_key"));
        assert!(l.schema().has_field("orders_pad"));
    }

    #[test]
    fn narrow_rows_get_key_only() {
        let meta = TableMeta::new(TableId::new(0), "tiny", 10, 4);
        let s = table_schema(&meta);
        assert_eq!(s.len(), 1);
        assert_eq!(Layout::new(s).slot_size(), 1 + INT_BYTES);
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_field_rejected() {
        let mut s = Schema::new();
        s.add_int("x");
        s.add_int("x");
    }
}
