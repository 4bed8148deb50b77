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

use ivdss_core::repair::ReplanCache;
use ivdss_replication::events::TimelineRevision;
use ivdss_replication::timelines::SyncTimelines;
use ivdss_simkernel::time::SimTime;

/// Computes the revisions that steer `current`'s future completions (in
/// `(from, horizon]`) onto `target`'s, pairing them in time order per
/// table. All revisions carry `revealed_at = from` — the re-scheduling
/// decision instant — and arrive sorted by `(revealed_at, table)`, the
/// order `RevisionCursor` delivers.
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

/// Computes *and applies* the reschedule in one step: clones `current`,
/// lands every [`reschedule_revisions`] revision on the clone, and —
/// when a [`ReplanCache`] is steering dispatch — invalidates each
/// revision's dirty window so subsequent repaired searches stay
/// bit-identical to from-scratch searches over the revised timelines.
///
/// Returns the revised timelines plus the revisions that were applied
/// (the caller typically forwards them to engines as fault events).
///
/// # Panics
///
/// Panics if a computed revision fails to land — impossible for
/// revisions derived from `current`'s own future completions.
#[must_use]
pub fn apply_reschedule(
    current: &SyncTimelines,
    target: &SyncTimelines,
    from: SimTime,
    horizon: SimTime,
    repair: Option<&ReplanCache>,
) -> (SyncTimelines, Vec<TimelineRevision>) {
    let revisions = reschedule_revisions(current, target, from, horizon);
    let mut revised = current.clone();
    for revision in &revisions {
        assert!(
            revised.revise(revision, horizon),
            "reschedule revision must land: {revision:?}"
        );
        if let Some(cache) = repair {
            cache.invalidate_revision(revision);
        }
    }
    (revised, revisions)
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
    fn apply_reschedule_lands_revisions_and_invalidates_the_replan_cache() {
        use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
        use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
        use ivdss_core::plan::{NoQueues, PlanContext, QueryRequest};
        use ivdss_core::repair::ReplanCache;
        use ivdss_core::search::{ScatterGatherSearch, SearchOpts};
        use ivdss_core::value::DiscountRates;
        use ivdss_costmodel::model::StylizedCostModel;
        use ivdss_costmodel::query::{QueryId, QuerySpec};
        use ivdss_replication::timelines::SyncMode;

        let base = synthetic_catalog(&SyntheticConfig {
            tables: 4,
            sites: 2,
            replicated_tables: 0,
            ..SyntheticConfig::default()
        })
        .expect("base catalog configuration is valid");
        let mut plan = ReplicationPlan::new();
        plan.add(t(0), ReplicaSpec::new(8.0));
        plan.add(t(1), ReplicaSpec::new(2.0));
        let catalog = base.with_replication(plan).expect("replication fits");
        let current = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
        let model = StylizedCostModel::paper_fig4();
        let rates = DiscountRates::new(0.01, 0.05);
        let request = QueryRequest::new(
            QuerySpec::new(QueryId::new(7), vec![t(0), t(1)]),
            SimTime::new(11.0),
        );
        let search = ScatterGatherSearch::new();
        let cache = ReplanCache::new();
        let repaired = |ctx: &PlanContext<'_>| {
            let opts = SearchOpts {
                repair: Some(&cache),
                ..SearchOpts::default()
            };
            search.search_with(ctx, &request, request.submitted_at, opts)
        };
        // Warm the cache under the pre-reschedule timelines.
        let warm_ctx = PlanContext {
            catalog: &catalog,
            timelines: &current,
            model: &model,
            rates,
            queues: &NoQueues,
        };
        let before = repaired(&warm_ctx).expect("warming search plans");

        // Steer table 1's refreshes onto a sparser, shifted grid.
        let mut target = current.clone();
        target.insert(t(1), Schedule::periodic(4.0, 1.0));
        let horizon = SimTime::new(200.0);
        let (revised, revisions) =
            apply_reschedule(&current, &target, SimTime::new(11.0), horizon, Some(&cache));
        assert!(!revisions.is_empty(), "the reschedule must change table 1");
        assert!(
            cache.stats().invalidated > 0,
            "warm scores in the dirty window must be discarded"
        );

        // A repaired search over the revised timelines must equal the
        // from-scratch search bit for bit — the invalidation left only
        // scores whose slots precede every dirty window.
        let revised_ctx = PlanContext {
            catalog: &catalog,
            timelines: &revised,
            model: &model,
            rates,
            queues: &NoQueues,
        };
        let after = repaired(&revised_ctx).expect("repaired search plans");
        let scratch = search
            .search_from(&revised_ctx, &request, request.submitted_at)
            .expect("from-scratch search plans");
        assert_eq!(after, scratch, "repair diverged after a reschedule");
        // The warm search ran at the same phase, so any surviving scores
        // were genuinely reusable — and the counters prove the pin is
        // not vacuous: the repaired search really consulted the cache.
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "scatter scores before the dirty floor must survive the reschedule"
        );
        assert_eq!(
            stats.hits + stats.misses,
            (before.plans_explored + after.plans_explored) as u64,
            "every scored candidate probes the cache exactly once"
        );
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
