//! Execution statistics: the `StatManager`-style access collector.

use std::cell::Cell;

/// Counts actual block and record accesses during scan execution.
///
/// One collector is created per execution on the caller's stack and
/// shared by reference across the scan tree (`Cell` keeps scans usable
/// through shared references without making anything `!Send` at rest —
/// the collector itself never crosses threads).
#[derive(Debug, Default)]
pub struct AccessStats {
    blocks: Cell<u64>,
    records: Cell<u64>,
}

impl AccessStats {
    /// Creates a zeroed collector.
    #[must_use]
    pub fn new() -> Self {
        AccessStats::default()
    }

    /// Records one block (page) access.
    pub fn count_block(&self) {
        self.blocks.set(self.blocks.get() + 1);
    }

    /// Records one record access.
    pub fn count_record(&self) {
        self.records.set(self.records.get() + 1);
    }

    /// Blocks accessed so far.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks.get()
    }

    /// Records accessed so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let s = AccessStats::new();
        assert_eq!((s.blocks(), s.records()), (0, 0));
        s.count_block();
        s.count_block();
        s.count_record();
        assert_eq!((s.blocks(), s.records()), (2, 1));
    }
}
