//! Schedule allocations: per-table refresh counts over a horizon.
//!
//! The optimizers search over allocations, not raw timelines — an
//! allocation gives each replicated table a number of refreshes, and
//! [`ScheduleAllocation::to_timelines`] lays each table's refreshes out
//! on the staleness-optimal uniform grid. The emitted object is an
//! ordinary `SyncTimelines`, so everything downstream of replication
//! consumes adaptive schedules unchanged.

use std::collections::BTreeMap;

use ivdss_catalog::ids::TableId;
use ivdss_replication::schedule::Schedule;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;

use crate::cost::RefreshCosts;

/// Per-table refresh counts over `(0, horizon]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleAllocation {
    counts: BTreeMap<TableId, usize>,
    horizon: SimTime,
}

impl ScheduleAllocation {
    /// An allocation giving every listed table zero refreshes.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or `horizon` is not strictly positive.
    #[must_use]
    pub fn empty(tables: &[TableId], horizon: SimTime) -> Self {
        assert!(!tables.is_empty(), "allocation needs at least one table");
        assert!(
            horizon > SimTime::ZERO,
            "allocation horizon must be positive"
        );
        ScheduleAllocation {
            counts: tables.iter().map(|&t| (t, 0)).collect(),
            horizon,
        }
    }

    /// The allocation horizon.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// `table`'s refresh count.
    ///
    /// # Panics
    ///
    /// Panics if the table is not part of the allocation.
    #[must_use]
    pub fn count(&self, table: TableId) -> usize {
        *self
            .counts
            .get(&table)
            .unwrap_or_else(|| panic!("{table:?} is not in the allocation"))
    }

    /// Grants `table` one more refresh.
    ///
    /// # Panics
    ///
    /// Panics if the table is not part of the allocation.
    pub fn add(&mut self, table: TableId) {
        *self
            .counts
            .get_mut(&table)
            .unwrap_or_else(|| panic!("{table:?} is not in the allocation")) += 1;
    }

    /// Iterates `(table, count)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, usize)> + '_ {
        self.counts.iter().map(|(&t, &c)| (t, c))
    }

    /// The allocated tables, in id order.
    pub fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.counts.keys().copied()
    }

    /// The budget this allocation spends under `costs`.
    ///
    /// # Panics
    ///
    /// Panics if an allocated table has no cost.
    #[must_use]
    pub fn spend(&self, costs: &RefreshCosts) -> f64 {
        self.iter().map(|(t, c)| costs.cost(t) * c as f64).sum()
    }

    /// Emits the allocation as synchronization timelines.
    ///
    /// A table with `m ≥ 1` refreshes gets the uniform mid-phase grid
    /// `Periodic { period: H/m, phase: H/(2m) }`: exactly `m` completions
    /// in `(0, H]` at `(k − ½)·H/m`, robust to floating-point rounding
    /// (every completion sits half a period away from the window edges,
    /// where the one-ulp ambiguity of `k·(H/m)` vs `H` lives), and the
    /// spacing that minimizes mean staleness for uniformly arriving
    /// queries. A table with zero refreshes keeps only its initial
    /// version, as an explicit `trace([0])`.
    #[must_use]
    pub fn to_timelines(&self) -> SyncTimelines {
        let mut out = SyncTimelines::new();
        for (table, &count) in &self.counts {
            let schedule = if count == 0 {
                Schedule::trace(vec![SimTime::ZERO])
            } else {
                let period = self.horizon.value() / count as f64;
                Schedule::periodic(period, period / 2.0)
            };
            out.insert(*table, schedule);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    #[test]
    fn emitted_counts_match_allocation_exactly() {
        let horizon = SimTime::new(41.7);
        let mut alloc = ScheduleAllocation::empty(&[t(0), t(1), t(2)], horizon);
        for _ in 0..7 {
            alloc.add(t(0));
        }
        alloc.add(t(1));
        let tl = alloc.to_timelines();
        for (table, count) in alloc.iter() {
            let schedule = tl.schedule(table).expect("every table emitted");
            assert_eq!(
                schedule.count_in(SimTime::ZERO, horizon),
                count,
                "emitted completions must equal the allocated count for {table:?}"
            );
        }
        // The zero-count table still has its initial version.
        assert_eq!(tl.last_sync(t(2), SimTime::new(41.0)), Some(SimTime::ZERO));
    }

    #[test]
    fn mid_phase_grid_is_robust_across_counts() {
        // Sweep awkward horizons and counts; the emitted count must be
        // exact every time (this is where a phase-0 grid loses a
        // completion to one-ulp rounding of m·(H/m)).
        for &h in &[10.0, 33.3, 41.7, 100.0 / 3.0, 59.049] {
            let horizon = SimTime::new(h);
            for m in 1..60usize {
                let mut alloc = ScheduleAllocation::empty(&[t(0)], horizon);
                for _ in 0..m {
                    alloc.add(t(0));
                }
                let tl = alloc.to_timelines();
                assert_eq!(
                    tl.schedule(t(0)).unwrap().count_in(SimTime::ZERO, horizon),
                    m,
                    "horizon {h}, count {m}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in the allocation")]
    fn foreign_table_rejected() {
        let mut alloc = ScheduleAllocation::empty(&[t(0)], SimTime::new(10.0));
        alloc.add(t(3));
    }
}
