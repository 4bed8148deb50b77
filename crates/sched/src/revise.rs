//! Online re-scheduling as ordinary timeline revisions.
//!
//! A running system cannot conjure refreshes it never provisioned — but
//! it *can* re-time or cancel the ones still ahead. ([`SyncTimelines::revise`]
//! has exactly this shape: it moves or drops existing completions and
//! cannot add new ones.) [`reschedule_revisions`] therefore expresses
//! "steer the current schedule toward the adaptive target" as a list of
//! plain [`TimelineRevision`]s: the `i`-th future completion of each
//! table is moved onto the target's `i`-th future completion, surplus
//! completions are dropped, and target completions beyond the current
//! schedule's remaining count are unreachable and ignored. Applying the
//! revisions can only *reduce* the remaining refresh spend — online
//! re-scheduling never exceeds the already-provisioned budget.

use ivdss_replication::events::TimelineRevision;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;

/// Computes the revisions that steer `current`'s future completions (in
/// `(from, horizon]`) onto `target`'s, pairing them in time order per
/// table. All revisions carry `revealed_at = from` — the re-scheduling
/// decision instant — and arrive sorted by `(revealed_at, table)`, the
/// order in which a consumer applies them.
///
/// Tables present in `current` but absent from `target` have all their
/// future completions dropped; tables only in `target` are ignored
/// (revisions cannot add completions).
#[must_use]
pub fn reschedule_revisions(
    current: &SyncTimelines,
    target: &SyncTimelines,
    from: SimTime,
    horizon: SimTime,
) -> Vec<TimelineRevision> {
    let mut out = Vec::new();
    for (table, schedule) in current.iter() {
        let cur = schedule.completions_in(from, horizon);
        let tgt = target
            .schedule(table)
            .map_or_else(Vec::new, |s| s.completions_in(from, horizon));
        for (i, &scheduled) in cur.iter().enumerate() {
            match tgt.get(i) {
                Some(&new_time) if new_time == scheduled => {}
                Some(&new_time) => out.push(TimelineRevision {
                    revealed_at: from,
                    table,
                    scheduled,
                    new_time: Some(new_time),
                }),
                None => out.push(TimelineRevision {
                    revealed_at: from,
                    table,
                    scheduled,
                    new_time: None,
                }),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::TableId;
    use ivdss_replication::schedule::Schedule;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn apply(
        timelines: &SyncTimelines,
        revisions: &[TimelineRevision],
        horizon: SimTime,
    ) -> SyncTimelines {
        let mut out = timelines.clone();
        for r in revisions {
            assert!(out.revise(r, horizon), "revision must land: {r:?}");
        }
        out
    }

    #[test]
    fn revisions_steer_current_onto_target() {
        let horizon = SimTime::new(40.0);
        let mut current = SyncTimelines::new();
        current.insert(t(0), Schedule::periodic(10.0, 0.0)); // 10, 20, 30, 40
        let mut target = SyncTimelines::new();
        target.insert(t(0), Schedule::periodic(20.0, 10.0)); // 10, 30 (in (5, 40])

        let revisions = reschedule_revisions(&current, &target, SimTime::new(5.0), horizon);
        let revised = apply(&current, &revisions, horizon);
        assert_eq!(
            revised
                .schedule(t(0))
                .unwrap()
                .completions_in(SimTime::new(5.0), horizon),
            vec![SimTime::new(10.0), SimTime::new(30.0)],
            "future completions must land on the target grid (truncated to the current count)"
        );
        // The completion at 0 (before `from`) is untouched.
        assert_eq!(
            revised.last_sync(t(0), SimTime::new(5.0)),
            Some(SimTime::ZERO)
        );
    }

    #[test]
    fn rescheduling_never_adds_refreshes() {
        let horizon = SimTime::new(40.0);
        let mut current = SyncTimelines::new();
        current.insert(t(0), Schedule::periodic(20.0, 0.0)); // 20, 40
        let mut target = SyncTimelines::new();
        target.insert(t(0), Schedule::periodic(5.0, 2.5)); // 8 future completions

        let from = SimTime::new(1.0);
        let before = current.schedule(t(0)).unwrap().count_in(from, horizon);
        let revisions = reschedule_revisions(&current, &target, from, horizon);
        let revised = apply(&current, &revisions, horizon);
        let after = revised.schedule(t(0)).unwrap().count_in(from, horizon);
        assert!(after <= before, "rescheduling cannot add completions");
        assert_eq!(after, 2, "both provisioned refreshes are re-timed");
    }

    #[test]
    fn missing_target_table_drops_all_future_completions() {
        let horizon = SimTime::new(30.0);
        let mut current = SyncTimelines::new();
        current.insert(t(0), Schedule::periodic(10.0, 0.0));
        let target = SyncTimelines::new();

        let from = SimTime::new(0.0);
        let revisions = reschedule_revisions(&current, &target, from, horizon);
        assert_eq!(revisions.len(), 3);
        assert!(revisions.iter().all(|r| r.new_time.is_none()));
        let revised = apply(&current, &revisions, horizon);
        assert_eq!(revised.schedule(t(0)).unwrap().count_in(from, horizon), 0);
    }

    #[test]
    fn identical_schedules_need_no_revisions() {
        let mut current = SyncTimelines::new();
        current.insert(t(0), Schedule::periodic(10.0, 0.0));
        current.insert(t(1), Schedule::periodic(4.0, 1.0));
        let revisions = reschedule_revisions(
            &current,
            &current.clone(),
            SimTime::ZERO,
            SimTime::new(50.0),
        );
        assert!(revisions.is_empty());
    }

    #[test]
    fn revisions_are_sorted_for_the_cursor() {
        let horizon = SimTime::new(30.0);
        let mut current = SyncTimelines::new();
        current.insert(t(2), Schedule::periodic(10.0, 0.0));
        current.insert(t(0), Schedule::periodic(10.0, 0.0));
        let target = SyncTimelines::new();
        let revisions = reschedule_revisions(&current, &target, SimTime::ZERO, horizon);
        let mut sorted = revisions.clone();
        sorted.sort_by(|a, b| {
            a.revealed_at
                .cmp(&b.revealed_at)
                .then(a.table.cmp(&b.table))
        });
        assert_eq!(revisions, sorted);
    }
}
