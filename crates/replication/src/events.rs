//! Synchronization-completion events for online consumers.
//!
//! The timelines in this crate are *queryable* ("when was table T last
//! synced?"); an online serving engine instead needs them *pushed* — each
//! completed refresh invalidates cached plans whose staleness assumptions
//! it changes. [`SyncEventCursor`] bridges the two views: it walks a
//! [`SyncTimelines`] forward in time and materializes every completion in
//! the interval it is advanced across, in chronological order.
//!
//! The cursor deliberately iterates each table's [`Schedule`] via
//! [`Schedule::completions_in`] rather than repeatedly asking for the
//! global next sync: two tables syncing at the same instant are two
//! distinct events, and a strictly-after "next sync" walk would skip one
//! of them.
//!
//! # The sync-due watermark
//!
//! A consumer that polls on every step mostly finds nothing new: most
//! steps fall between two completions. Besides its position, the cursor
//! keeps `due`, a watermark with no completion of any table in
//! `(position, due)`. [`SyncEventCursor::advance_latest`] returns at once
//! while the poll instant is before `due`; otherwise it makes one pass of
//! [`Schedule::completions_around`] over the tables, which yields each
//! table's latest completion and sets `due` to the earliest next one.
//! Two things reset `due` to the position, so that the next poll scans:
//!
//! * [`SyncEventCursor::advance_to`], which does not look ahead;
//! * [`SyncEventCursor::timelines_changed`], which a consumer must call
//!   after revising the timelines it polls: a revision may move a
//!   completion before a stale `due`.
//!
//! [`SyncEventCursor::advance_latest`] comes back empty only when no
//! table completed a sync in the window, since the watermark skips only
//! windows without one. A consumer that also wants every completion of a
//! non-empty window (a trace, say) lists them with a fresh cursor at the
//! window's start: `SyncEventCursor::new(from).advance_to(timelines, now)`.
//!
//! [`Schedule`]: crate::schedule::Schedule
//! [`Schedule::completions_in`]: crate::schedule::Schedule::completions_in
//! [`Schedule::completions_around`]: crate::schedule::Schedule::completions_around

use ivdss_catalog::ids::TableId;
use ivdss_simkernel::time::SimTime;

use crate::timelines::SyncTimelines;

/// One completed replica refresh: `table`'s local copy now carries the
/// base-table state as of `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SyncEvent {
    /// When the synchronization completed.
    pub at: SimTime,
    /// The refreshed table.
    pub table: TableId,
}

/// A monotone cursor over the completions of every schedule in a
/// [`SyncTimelines`].
///
/// # Examples
///
/// ```
/// use ivdss_catalog::ids::TableId;
/// use ivdss_replication::events::SyncEventCursor;
/// use ivdss_replication::schedule::Schedule;
/// use ivdss_replication::timelines::SyncTimelines;
/// use ivdss_simkernel::time::SimTime;
///
/// let mut tl = SyncTimelines::new();
/// tl.insert(TableId::new(0), Schedule::periodic(4.0, 0.0));
/// tl.insert(TableId::new(1), Schedule::periodic(6.0, 0.0));
///
/// let mut cursor = SyncEventCursor::new(SimTime::ZERO);
/// let events = cursor.advance_to(&tl, SimTime::new(12.0));
/// // t=4, t=6, t=8, and the simultaneous pair at t=12.
/// let times: Vec<f64> = events.iter().map(|e| e.at.value()).collect();
/// assert_eq!(times, vec![4.0, 6.0, 8.0, 12.0, 12.0]);
/// // The cursor is monotone: the same interval is never re-delivered.
/// assert!(cursor.advance_to(&tl, SimTime::new(12.0)).is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncEventCursor {
    position: SimTime,
    /// No table completes a sync in `(position, due)` (see the module
    /// docs); `due == position` promises nothing.
    due: SimTime,
}

impl SyncEventCursor {
    /// Creates a cursor that has consumed everything at or before `start`.
    #[must_use]
    pub fn new(start: SimTime) -> Self {
        SyncEventCursor {
            position: start,
            due: start,
        }
    }

    /// The time up to which events have been delivered (inclusive).
    #[must_use]
    pub fn position(&self) -> SimTime {
        self.position
    }

    /// Returns every completion in `(position, now]` across all tables,
    /// sorted by time (ties broken by table id), and moves the cursor to
    /// `now`. Calling with `now <= position` is a no-op returning no
    /// events, so the cursor tolerates repeated polling at the same
    /// instant.
    pub fn advance_to(&mut self, timelines: &SyncTimelines, now: SimTime) -> Vec<SyncEvent> {
        if now <= self.position {
            return Vec::new();
        }
        let mut events: Vec<SyncEvent> = Vec::new();
        for (table, schedule) in timelines.iter() {
            events.extend(
                schedule
                    .completions_in(self.position, now)
                    .into_iter()
                    .map(|at| SyncEvent { at, table }),
            );
        }
        events.sort();
        self.position = now;
        self.due = now;
        events
    }

    /// Each table's latest completion in `(position, now]` — the last of
    /// its events [`SyncEventCursor::advance_to`] would return — written
    /// to `latest` in table order, and moves the cursor to `now`. This is
    /// one lookup per table, and none before the sync-due watermark (see
    /// the module docs): no event list is built or sorted, which is all
    /// a consumer that only asks "has this table synced since?" needs.
    pub fn advance_latest(
        &mut self,
        timelines: &SyncTimelines,
        now: SimTime,
        latest: &mut Vec<SyncEvent>,
    ) {
        latest.clear();
        if now <= self.position {
            return;
        }
        let position = self.position;
        self.position = now;
        if now < self.due {
            return;
        }
        let mut due = SimTime::MAX;
        latest.extend(timelines.iter().filter_map(|(table, schedule)| {
            let (last, next) = schedule.completions_around(now);
            if let Some(next) = next {
                due = due.min(next);
            }
            last.filter(|&at| at > position)
                .map(|at| SyncEvent { at, table })
        }));
        self.due = due;
    }

    /// Tells the cursor that the timelines it polls were revised: the
    /// next [`SyncEventCursor::advance_latest`] scans every table again
    /// instead of trusting the sync-due watermark, which a revision may
    /// have moved a completion in front of.
    pub fn timelines_changed(&mut self) {
        self.due = self.position;
    }
}

/// A published correction to a synchronization timeline: the sync of
/// `table` that was scheduled to complete at `scheduled` will instead
/// complete at `new_time` (a *slip*) or not at all (`None`, a *drop*).
///
/// Revisions model the gap between the *published* timeline a planner
/// trusts and what the replication pipeline actually delivers. A
/// revision is *revealed* at `revealed_at` — the moment consumers can
/// learn about it (no earlier than discovery is physically possible,
/// typically the nominally scheduled time itself, when the sync fails
/// to land). Consumers apply revisions to their timeline belief via
/// [`SyncTimelines::revise`] and must treat any cached decision that
/// referenced the revised sync point as stale.
///
/// [`SyncTimelines::revise`]: crate::timelines::SyncTimelines::revise
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimelineRevision {
    /// When consumers learn of the revision.
    pub revealed_at: SimTime,
    /// The table whose timeline is revised.
    pub table: TableId,
    /// The nominally scheduled completion being revised.
    pub scheduled: SimTime,
    /// The corrected completion time (`None` = the sync is dropped).
    pub new_time: Option<SimTime>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn timelines() -> SyncTimelines {
        let mut tl = SyncTimelines::new();
        tl.insert(t(0), Schedule::periodic(5.0, 0.0));
        tl.insert(t(1), Schedule::periodic(10.0, 0.0));
        tl
    }

    #[test]
    fn interval_is_half_open() {
        let tl = timelines();
        // Position at an exact completion instant: that event was already
        // delivered and must not repeat.
        let mut cursor = SyncEventCursor::new(SimTime::new(5.0));
        let events = cursor.advance_to(&tl, SimTime::new(10.0));
        assert_eq!(
            events,
            vec![
                SyncEvent {
                    at: SimTime::new(10.0),
                    table: t(0)
                },
                SyncEvent {
                    at: SimTime::new(10.0),
                    table: t(1)
                }
            ]
        );
    }

    #[test]
    fn simultaneous_syncs_of_distinct_tables_both_delivered() {
        let tl = timelines();
        let mut cursor = SyncEventCursor::new(SimTime::ZERO);
        let events = cursor.advance_to(&tl, SimTime::new(10.0));
        let at_ten: Vec<TableId> = events
            .iter()
            .filter(|e| e.at == SimTime::new(10.0))
            .map(|e| e.table)
            .collect();
        assert_eq!(at_ten, vec![t(0), t(1)]);
    }

    #[test]
    fn latest_is_each_tables_last_event() {
        let tl = timelines();
        let mut latest = vec![SyncEvent {
            at: SimTime::ZERO,
            table: t(9),
        }];
        let mut cursor = SyncEventCursor::new(SimTime::new(5.0));
        cursor.advance_latest(&tl, SimTime::new(17.0), &mut latest);
        let at = |v: f64, i: u32| SyncEvent {
            at: SimTime::new(v),
            table: t(i),
        };
        assert_eq!(latest, vec![at(15.0, 0), at(10.0, 1)]);
        // Table 1's next sync (t=20) lies beyond the window; table 0's
        // last (t=15) is not after the position.
        cursor.advance_latest(&tl, SimTime::new(19.0), &mut latest);
        assert!(latest.is_empty());
        assert_eq!(cursor.position(), SimTime::new(19.0));
        cursor.advance_latest(&tl, SimTime::new(3.0), &mut latest);
        assert!(latest.is_empty());
        assert_eq!(cursor.position(), SimTime::new(19.0));
    }

    #[test]
    fn backwards_or_equal_advance_is_noop() {
        let tl = timelines();
        let mut cursor = SyncEventCursor::new(SimTime::new(7.0));
        assert!(cursor.advance_to(&tl, SimTime::new(7.0)).is_empty());
        assert!(cursor.advance_to(&tl, SimTime::new(3.0)).is_empty());
        assert_eq!(cursor.position(), SimTime::new(7.0));
    }

    #[test]
    fn events_sorted_by_time_then_table() {
        let mut tl = SyncTimelines::new();
        tl.insert(
            t(2),
            Schedule::trace(vec![SimTime::new(1.0), SimTime::new(4.0)]),
        );
        tl.insert(t(0), Schedule::trace(vec![SimTime::new(4.0)]));
        let mut cursor = SyncEventCursor::new(SimTime::ZERO);
        let events = cursor.advance_to(&tl, SimTime::new(5.0));
        let pairs: Vec<(f64, usize)> = events
            .iter()
            .map(|e| (e.at.value(), e.table.index()))
            .collect();
        assert_eq!(pairs, vec![(1.0, 2), (4.0, 0), (4.0, 2)]);
    }
}
