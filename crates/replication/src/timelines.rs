//! Synchronization timelines for every replicated table.

use std::collections::BTreeMap;

use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::ReplicationPlan;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::SimTime;

use crate::events::TimelineRevision;
use crate::schedule::Schedule;

/// How synchronization timelines are derived from a
/// [`ReplicationPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncMode {
    /// Strictly periodic completions (the paper's Fig. 4 example).
    Deterministic,
    /// Exponentially distributed inter-sync gaps with the plan's mean
    /// period (the paper's experimental setup), generated up to the given
    /// horizon with per-table seeds derived from the seed factory.
    Stochastic {
        /// Trace horizon; syncs beyond it are not generated.
        horizon: SimTime,
        /// Root seed for per-table streams.
        seed: u64,
    },
}

/// One synchronization [`Schedule`] per replicated table.
///
/// # Examples
///
/// ```
/// use ivdss_catalog::ids::TableId;
/// use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
/// use ivdss_replication::timelines::{SyncMode, SyncTimelines};
/// use ivdss_simkernel::time::SimTime;
///
/// let mut plan = ReplicationPlan::new();
/// plan.add(TableId::new(0), ReplicaSpec::new(8.0));
/// let tl = SyncTimelines::from_plan(&plan, SyncMode::Deterministic);
/// assert_eq!(
///     tl.last_sync(TableId::new(0), SimTime::new(11.0)),
///     Some(SimTime::new(8.0))
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SyncTimelines {
    schedules: BTreeMap<TableId, Schedule>,
}

impl SyncTimelines {
    /// Creates an empty set of timelines (no replicas).
    #[must_use]
    pub fn new() -> Self {
        SyncTimelines::default()
    }

    /// Derives timelines from a replication plan.
    #[must_use]
    pub fn from_plan(plan: &ReplicationPlan, mode: SyncMode) -> Self {
        let mut schedules = BTreeMap::new();
        for (table, spec) in plan.iter() {
            let schedule = match mode {
                SyncMode::Deterministic => Schedule::periodic(spec.mean_period(), spec.phase()),
                SyncMode::Stochastic { horizon, seed } => {
                    let table_seed = SeedFactory::new(seed).seed_for_indexed("sync", table.index());
                    Schedule::exponential_trace(spec.mean_period(), horizon, table_seed)
                }
            };
            schedules.insert(table, schedule);
        }
        SyncTimelines { schedules }
    }

    /// Inserts or replaces the schedule of one table.
    pub fn insert(&mut self, table: TableId, schedule: Schedule) -> Option<Schedule> {
        self.schedules.insert(table, schedule)
    }

    /// The timelines restricted to `tables`: schedules of tables outside
    /// the set are dropped, making them non-replicated from the holder's
    /// point of view. This is per-shard replica *ownership* — a shard
    /// holding the restriction plans remote-base access for every table
    /// it does not own, because [`SyncTimelines::has_replica`] is how
    /// the planner decides what can be served locally.
    ///
    /// Restricting to a superset of the scheduled tables returns an
    /// identical (`==`) value, so a single-shard restriction degenerates
    /// exactly to the unsharded timelines.
    #[must_use]
    pub fn restricted(&self, tables: &[TableId]) -> SyncTimelines {
        SyncTimelines {
            schedules: self
                .schedules
                .iter()
                .filter(|(t, _)| tables.contains(t))
                .map(|(t, s)| (*t, s.clone()))
                .collect(),
        }
    }

    /// Returns `true` if `table` has a replica schedule.
    #[must_use]
    pub fn has_replica(&self, table: TableId) -> bool {
        self.schedules.contains_key(&table)
    }

    /// The schedule for `table`, if replicated.
    #[must_use]
    pub fn schedule(&self, table: TableId) -> Option<&Schedule> {
        self.schedules.get(&table)
    }

    /// Timestamp of `table`'s replica at time `t` (the latest completed
    /// synchronization), or `None` if the table is not replicated or has
    /// not yet synchronized.
    #[must_use]
    pub fn last_sync(&self, table: TableId, t: SimTime) -> Option<SimTime> {
        self.schedules.get(&table)?.last_completion_at(t)
    }

    /// The next synchronization of `table` strictly after `t`.
    #[must_use]
    pub fn next_sync(&self, table: TableId, t: SimTime) -> Option<SimTime> {
        self.schedules.get(&table)?.next_completion_after(t)
    }

    /// Iterates over `(table, schedule)` pairs in table order.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &Schedule)> {
        self.schedules.iter().map(|(t, s)| (*t, s))
    }

    /// Number of replicated tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schedules.len()
    }

    /// Returns `true` if no table has a schedule.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schedules.is_empty()
    }

    /// Applies a [`TimelineRevision`] to the table's schedule: the
    /// completion at `revision.scheduled` is removed and, for a slip,
    /// `revision.new_time` is inserted in its place. A periodic schedule
    /// the revision lands on is first materialized out to `horizon` as an
    /// explicit trace, so repeated revisions compose; a trace is edited
    /// in place and stays sorted.
    ///
    /// Returns `true` if the scheduled completion existed and was revised;
    /// `false` if the table has no schedule or the completion was absent
    /// (e.g. already revised away), in which case a slip target is still
    /// *not* inserted — a revision of a nonexistent sync is a no-op, and
    /// a periodic schedule stays periodic.
    pub fn revise(&mut self, revision: &TimelineRevision, horizon: SimTime) -> bool {
        let Some(schedule) = self.schedules.get_mut(&revision.table) else {
            return false;
        };
        if let Schedule::Periodic { .. } = schedule {
            let times = schedule.materialize(horizon);
            if times.binary_search(&revision.scheduled).is_err() {
                return false;
            }
            *schedule = Schedule::Trace(times);
        }
        let Schedule::Trace(times) = schedule else {
            unreachable!("a revised schedule is a trace");
        };
        let Ok(idx) = times.binary_search(&revision.scheduled) else {
            return false;
        };
        match revision.new_time {
            // A later slip shifts the completions it overtakes down by
            // one and lands after every completion at or before it.
            Some(new_time) if new_time >= revision.scheduled => {
                let end = times.partition_point(|&x| x <= new_time);
                times[idx..end].rotate_left(1);
                times[end - 1] = new_time;
            }
            new_time => {
                times.remove(idx);
                if let Some(new_time) = new_time {
                    let at = times.partition_point(|&x| x <= new_time);
                    times.insert(at, new_time);
                }
            }
        }
        true
    }

    /// The earliest upcoming synchronization strictly after `t` across the
    /// given tables — the "very next synchronization" the scatter-gather
    /// search pushes its time line to (paper §3.1).
    #[must_use]
    pub fn next_sync_among(&self, tables: &[TableId], t: SimTime) -> Option<(TableId, SimTime)> {
        tables
            .iter()
            .filter_map(|&table| self.next_sync(table, t).map(|at| (table, at)))
            .min_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::replica::ReplicaSpec;

    fn plan() -> ReplicationPlan {
        let mut p = ReplicationPlan::new();
        p.add(TableId::new(0), ReplicaSpec::new(4.0));
        p.add(TableId::new(1), ReplicaSpec::new(10.0));
        p
    }

    #[test]
    fn deterministic_timelines() {
        let tl = SyncTimelines::from_plan(&plan(), SyncMode::Deterministic);
        assert_eq!(tl.len(), 2);
        assert!(tl.has_replica(TableId::new(0)));
        assert!(!tl.has_replica(TableId::new(5)));
        assert_eq!(
            tl.last_sync(TableId::new(0), SimTime::new(9.0)),
            Some(SimTime::new(8.0))
        );
        assert_eq!(
            tl.next_sync(TableId::new(1), SimTime::new(9.0)),
            Some(SimTime::new(10.0))
        );
        assert_eq!(tl.last_sync(TableId::new(5), SimTime::new(9.0)), None);
    }

    #[test]
    fn stochastic_timelines_reproducible() {
        let mode = SyncMode::Stochastic {
            horizon: SimTime::new(100.0),
            seed: 9,
        };
        let a = SyncTimelines::from_plan(&plan(), mode);
        let b = SyncTimelines::from_plan(&plan(), mode);
        assert_eq!(a, b);
        // Different tables get different traces.
        assert_ne!(a.schedule(TableId::new(0)), a.schedule(TableId::new(1)));
    }

    #[test]
    fn next_sync_among_picks_earliest() {
        let tl = SyncTimelines::from_plan(&plan(), SyncMode::Deterministic);
        let next = tl.next_sync_among(&[TableId::new(0), TableId::new(1)], SimTime::new(9.0));
        assert_eq!(next, Some((TableId::new(1), SimTime::new(10.0))));
        let next2 = tl.next_sync_among(&[TableId::new(0), TableId::new(1)], SimTime::new(10.0));
        assert_eq!(next2, Some((TableId::new(0), SimTime::new(12.0))));
    }

    #[test]
    fn revise_slip_moves_completion() {
        let mut tl = SyncTimelines::from_plan(&plan(), SyncMode::Deterministic);
        let table = TableId::new(0); // period 4: syncs at 0, 4, 8, 12, …
        let revision = TimelineRevision {
            revealed_at: SimTime::new(8.0),
            table,
            scheduled: SimTime::new(8.0),
            new_time: Some(SimTime::new(9.5)),
        };
        assert!(tl.revise(&revision, SimTime::new(20.0)));
        assert_eq!(
            tl.last_sync(table, SimTime::new(8.5)),
            Some(SimTime::new(4.0))
        );
        assert_eq!(
            tl.last_sync(table, SimTime::new(9.5)),
            Some(SimTime::new(9.5))
        );
        assert_eq!(
            tl.next_sync(table, SimTime::new(9.5)),
            Some(SimTime::new(12.0))
        );
    }

    #[test]
    fn revise_drop_removes_completion() {
        let mut tl = SyncTimelines::from_plan(&plan(), SyncMode::Deterministic);
        let table = TableId::new(0);
        let revision = TimelineRevision {
            revealed_at: SimTime::new(8.0),
            table,
            scheduled: SimTime::new(8.0),
            new_time: None,
        };
        assert!(tl.revise(&revision, SimTime::new(20.0)));
        assert_eq!(
            tl.last_sync(table, SimTime::new(11.0)),
            Some(SimTime::new(4.0))
        );
        assert_eq!(
            tl.next_sync(table, SimTime::new(4.0)),
            Some(SimTime::new(12.0))
        );
    }

    #[test]
    fn revise_missing_completion_is_noop() {
        let mut tl = SyncTimelines::from_plan(&plan(), SyncMode::Deterministic);
        let before = tl.clone();
        let revision = TimelineRevision {
            revealed_at: SimTime::new(7.0),
            table: TableId::new(0),
            scheduled: SimTime::new(7.0), // not a sync point
            new_time: Some(SimTime::new(9.0)),
        };
        assert!(!tl.revise(&revision, SimTime::new(20.0)));
        assert_eq!(tl, before);
        // Unknown table is also a no-op.
        let revision = TimelineRevision {
            revealed_at: SimTime::new(4.0),
            table: TableId::new(9),
            scheduled: SimTime::new(4.0),
            new_time: None,
        };
        assert!(!tl.revise(&revision, SimTime::new(20.0)));
    }

    #[test]
    fn revisions_compose_including_beyond_horizon_slips() {
        let mut tl = SyncTimelines::new();
        let table = TableId::new(0);
        tl.insert(table, Schedule::periodic(5.0, 0.0));
        let horizon = SimTime::new(20.0);
        // Slip the t=10 sync past the horizon…
        let slip = TimelineRevision {
            revealed_at: SimTime::new(10.0),
            table,
            scheduled: SimTime::new(10.0),
            new_time: Some(SimTime::new(25.0)),
        };
        assert!(tl.revise(&slip, horizon));
        // …then drop the t=15 sync. The slipped-to t=25 completion must
        // survive the second materialization even though it lies beyond
        // the horizon.
        let drop = TimelineRevision {
            revealed_at: SimTime::new(15.0),
            table,
            scheduled: SimTime::new(15.0),
            new_time: None,
        };
        assert!(tl.revise(&drop, horizon));
        // Remaining completions: 0, 5, 20, 25.
        assert_eq!(
            tl.last_sync(table, SimTime::new(19.0)),
            Some(SimTime::new(5.0))
        );
        assert_eq!(
            tl.next_sync(table, SimTime::new(20.0)),
            Some(SimTime::new(25.0))
        );
    }

    #[test]
    fn restricted_drops_unowned_tables() {
        let tl = SyncTimelines::from_plan(&plan(), SyncMode::Deterministic);
        let shard = tl.restricted(&[TableId::new(1)]);
        assert_eq!(shard.len(), 1);
        assert!(!shard.has_replica(TableId::new(0)));
        assert!(shard.has_replica(TableId::new(1)));
        assert_eq!(
            shard.schedule(TableId::new(1)),
            tl.schedule(TableId::new(1))
        );
    }

    #[test]
    fn restriction_to_superset_is_identity() {
        let tl = SyncTimelines::from_plan(&plan(), SyncMode::Deterministic);
        let all = tl.restricted(&[TableId::new(0), TableId::new(1), TableId::new(9)]);
        assert_eq!(all, tl);
    }

    #[test]
    fn insert_and_iter() {
        let mut tl = SyncTimelines::new();
        assert!(tl.is_empty());
        tl.insert(TableId::new(2), Schedule::periodic(1.0, 0.0));
        tl.insert(TableId::new(1), Schedule::periodic(2.0, 0.0));
        let order: Vec<TableId> = tl.iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![TableId::new(1), TableId::new(2)]);
    }
}
