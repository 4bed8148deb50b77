//! Property-based tests for synchronization schedules and timelines.

use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_replication::events::{SyncEvent, SyncEventCursor, TimelineRevision};
use ivdss_replication::schedule::Schedule;
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_simkernel::time::SimTime;
use proptest::prelude::*;

/// Completion times on a half-unit grid: small step ranges give many
/// duplicate times and slips onto equal neighbours.
fn grid(steps: &[u32]) -> Vec<SimTime> {
    steps
        .iter()
        .map(|&k| SimTime::new(f64::from(k) * 0.5))
        .collect()
}

/// The revision rule as first written: materialize the schedule, remove
/// the scheduled completion, push the slip target and re-sort. `None`
/// when the scheduled completion is absent (the revision is a no-op).
fn revised_by_resort(
    schedule: &Schedule,
    revision: &TimelineRevision,
    horizon: SimTime,
) -> Option<Vec<SimTime>> {
    let mut times = schedule.materialize(horizon);
    let idx = times.binary_search(&revision.scheduled).ok()?;
    times.remove(idx);
    if let Some(new_time) = revision.new_time {
        times.push(new_time);
    }
    times.sort();
    Some(times)
}

/// Applies `revision` to a one-table timeline holding `schedule` and
/// asserts the result equals [`revised_by_resort`]'s, returning the
/// revised schedule.
fn assert_revision_matches_resort(
    schedule: &Schedule,
    revision: &TimelineRevision,
    horizon: SimTime,
) -> Schedule {
    let mut timelines = SyncTimelines::new();
    timelines.insert(revision.table, schedule.clone());
    let landed = timelines.revise(revision, horizon);
    let revised = timelines.schedule(revision.table).expect("still scheduled");
    match revised_by_resort(schedule, revision, horizon) {
        Some(expected) => {
            assert!(landed, "{revision:?} must land on {schedule:?}");
            assert_eq!(revised, &Schedule::Trace(expected), "{revision:?}");
        }
        None => {
            assert!(!landed, "{revision:?} must not land on {schedule:?}");
            assert_eq!(revised, schedule, "a no-op keeps the schedule");
        }
    }
    revised.clone()
}

/// `completions_in` by stepping `next_completion_after` through the
/// window, as it worked before traces were sliced.
fn completions_by_stepping(schedule: &Schedule, from: SimTime, to: SimTime) -> Vec<SimTime> {
    let mut out = Vec::new();
    let mut t = from;
    while let Some(next) = schedule.next_completion_after(t) {
        if next > to {
            break;
        }
        out.push(next);
        t = next;
    }
    out
}

proptest! {
    /// For periodic schedules: last ≤ t < next, and the two are exactly
    /// one period apart once past the phase.
    #[test]
    fn periodic_last_next_bracket(
        period in 0.1..50.0f64,
        phase in 0.0..20.0f64,
        t in 0.0..1000.0f64
    ) {
        let s = Schedule::periodic(period, phase);
        let t = SimTime::new(t);
        let next = s.next_completion_after(t).unwrap();
        prop_assert!(next > t);
        if let Some(last) = s.last_completion_at(t) {
            prop_assert!(last <= t);
            prop_assert!((next - last).value() - period < 1e-6);
        } else {
            prop_assert!(t.value() < phase);
        }
    }

    /// For any trace: last_completion_at ≤ t < next_completion_after and
    /// both are members of the trace.
    #[test]
    fn trace_last_next_members(
        times in prop::collection::vec(0.0..500.0f64, 1..50),
        t in 0.0..600.0f64
    ) {
        let trace: Vec<SimTime> = times.iter().map(|&x| SimTime::new(x)).collect();
        let s = Schedule::trace(trace.clone());
        let t = SimTime::new(t);
        let mut sorted = trace;
        sorted.sort();
        if let Some(last) = s.last_completion_at(t) {
            prop_assert!(last <= t);
            prop_assert!(sorted.contains(&last));
        }
        if let Some(next) = s.next_completion_after(t) {
            prop_assert!(next > t);
            prop_assert!(sorted.contains(&next));
        }
    }

    /// `completions_in` returns exactly the completions in `(from, to]`,
    /// in order.
    #[test]
    fn completions_window_consistent(
        period in 0.5..20.0f64,
        from in 0.0..100.0f64,
        span in 0.0..200.0f64
    ) {
        let s = Schedule::periodic(period, 0.0);
        let from = SimTime::new(from);
        let to = from + ivdss_simkernel::time::SimDuration::new(span);
        let window = s.completions_in(from, to);
        for w in window.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &c in &window {
            prop_assert!(c > from && c <= to);
        }
        // Count agrees with arithmetic.
        let expect = ((to.value() / period).floor() - (from.value() / period).floor()) as usize;
        prop_assert_eq!(window.len(), expect);
    }

    /// Stochastic timelines are reproducible and per-table independent.
    #[test]
    fn stochastic_timelines_reproducible(seed in any::<u64>(), n in 2u32..8) {
        let mut plan = ReplicationPlan::new();
        for i in 0..n {
            plan.add(TableId::new(i), ReplicaSpec::new(3.0));
        }
        let mode = SyncMode::Stochastic { horizon: SimTime::new(200.0), seed };
        let a = SyncTimelines::from_plan(&plan, mode);
        let b = SyncTimelines::from_plan(&plan, mode);
        prop_assert_eq!(&a, &b);
        // Distinct tables get distinct traces (same mean, different seeds).
        let s0 = a.schedule(TableId::new(0)).unwrap();
        let s1 = a.schedule(TableId::new(1)).unwrap();
        prop_assert_ne!(s0, s1);
    }

    /// Revising a trace in place gives the materialize → remove → push →
    /// sort result, over sequences of slips (earlier, later, onto equal
    /// neighbours, past the end), drops and absent targets on traces
    /// with duplicate times.
    #[test]
    fn trace_revision_matches_resort(
        steps in prop::collection::vec(0u32..12, 0..24),
        revisions in prop::collection::vec((0usize..32, 0u32..12, any::<bool>(), 0u32..14), 1..5)
    ) {
        let table = TableId::new(0);
        let horizon = SimTime::new(10.0);
        let mut schedule = Schedule::trace(grid(&steps));
        for &(pick, absent_step, slip, new_step) in &revisions {
            let Schedule::Trace(times) = &schedule else { unreachable!() };
            // A pick inside the trace targets a present completion; past
            // it, an off-grid time that no completion sits on.
            let scheduled = times
                .get(pick)
                .copied()
                .unwrap_or(SimTime::new(f64::from(absent_step) * 0.5 + 0.25));
            let revision = TimelineRevision {
                revealed_at: scheduled,
                table,
                scheduled,
                new_time: slip.then(|| grid(&[new_step])[0]),
            };
            schedule = assert_revision_matches_resort(&schedule, &revision, horizon);
        }
    }

    /// Revising a periodic schedule materializes it only when the
    /// revision lands; a revision of an absent completion keeps it
    /// periodic.
    #[test]
    fn periodic_revision_matches_resort(
        period in 0.5..5.0f64,
        phase in 0.0..1.0f64,
        k in 0usize..12,
        absent in any::<bool>(),
        slip in any::<bool>(),
        new_at in 0.0..40.0f64
    ) {
        let schedule = Schedule::periodic(period, phase * period);
        let horizon = SimTime::new(30.0);
        let completions = schedule.materialize(horizon);
        let scheduled = match completions.get(k) {
            Some(&at) if !absent => at,
            _ => SimTime::new(phase * period + (k as f64 + 0.5) * period),
        };
        let revision = TimelineRevision {
            revealed_at: scheduled,
            table: TableId::new(3),
            scheduled,
            new_time: slip.then(|| SimTime::new(new_at)),
        };
        assert_revision_matches_resort(&schedule, &revision, horizon);
    }

    /// Slicing a trace's window gives what stepping through it gives:
    /// each distinct time once, for duplicate times, empty and inverted
    /// windows (`from ≥ to`) and windows past the end.
    #[test]
    fn trace_completions_match_stepping(
        steps in prop::collection::vec(0u32..12, 0..24),
        from_step in 0u32..30,
        to_step in 0u32..30
    ) {
        let schedule = Schedule::trace(grid(&steps));
        let from = SimTime::new(f64::from(from_step) * 0.25);
        let to = SimTime::new(f64::from(to_step) * 0.25);
        prop_assert_eq!(
            schedule.completions_in(from, to),
            completions_by_stepping(&schedule, from, to)
        );
        prop_assert_eq!(
            schedule.count_in(from, to),
            schedule.completions_in(from, to).len()
        );
    }
}

/// The instants one ulp below, at and one ulp above `t`.
fn ulp_neighbourhood(t: f64) -> [SimTime; 3] {
    [t.next_down(), t, t.next_up()].map(SimTime::new)
}

/// Tables `0..kinds.len()`: `(true, step, _)` is a trace on the
/// half-unit grid with a completion every `step` half-units, each listed
/// twice, so poll instants on that grid land on completions; `(false,
/// period, phase)` is periodic.
fn polled_timelines(kinds: &[(bool, f64, f64)]) -> SyncTimelines {
    let mut timelines = SyncTimelines::new();
    for (i, &(trace, period, phase)) in kinds.iter().enumerate() {
        let schedule = if trace {
            let step = 1 + (period as u32) % 4;
            let steps: Vec<u32> = (0..40).flat_map(|k| [k * step, k * step]).collect();
            Schedule::trace(grid(&steps))
        } else {
            Schedule::periodic(period, phase * period)
        };
        timelines.insert(TableId::new(i as u32), schedule);
    }
    timelines
}

proptest! {
    /// `completions_around` is `last_completion_at` and
    /// `next_completion_after` in one lookup, and on a periodic schedule
    /// it brackets each completion instant exactly: at the instant the
    /// last completion is that instant, one ulp below it the next one
    /// is, one ulp above it the last one still is. (One ulp below a
    /// completion, `(t − phase) / period` can round up to the
    /// completion's index; the next completion must not skip it.)
    #[test]
    fn periodic_completions_around_bracket_each_instant(
        period in 0.1..20.0f64,
        phase in 0.0..1.0f64,
        k in 1u32..2000
    ) {
        let phase = phase * period;
        let s = Schedule::periodic(period, phase);
        let at = phase + f64::from(k) * period;
        let [below, exact, above] = ulp_neighbourhood(at);
        for t in [below, exact, above] {
            prop_assert_eq!(
                s.completions_around(t),
                (s.last_completion_at(t), s.next_completion_after(t))
            );
        }
        let completion = SimTime::new(at);
        prop_assert_eq!(s.next_completion_after(below), Some(completion));
        prop_assert!(s.last_completion_at(below).is_some_and(|last| last < completion));
        prop_assert_eq!(s.last_completion_at(exact), Some(completion));
        prop_assert!(s.next_completion_after(exact).is_some_and(|next| next > completion));
        prop_assert_eq!(s.last_completion_at(above), Some(completion));
        prop_assert_eq!(s.next_completion_after(above), s.next_completion_after(exact));
    }

    /// Stepping a periodic window by index gives what stepping
    /// `next_completion_after` through it gives, for windows that start
    /// and end on completion instants, one ulp either side of them, and
    /// before the phase; `count_in` agrees.
    #[test]
    fn periodic_completions_match_stepping(
        period in 0.1..20.0f64,
        phase in 0.0..1.0f64,
        (first, span, from_ulp, to_ulp) in (0u32..500, 0u32..40, 0usize..3, 0usize..3)
    ) {
        let phase = phase * period;
        let s = Schedule::periodic(period, phase);
        let at = |k: u32| phase + f64::from(k) * period;
        let from = if first == 0 {
            SimTime::new(phase / 2.0)
        } else {
            ulp_neighbourhood(at(first))[from_ulp]
        };
        let to = ulp_neighbourhood(at(first + span))[to_ulp];
        prop_assert_eq!(s.completions_in(from, to), completions_by_stepping(&s, from, to));
        prop_assert_eq!(s.count_in(from, to), s.completions_in(from, to).len());
    }

    /// On traces with duplicate instants, `completions_around` is the
    /// pair of single lookups, at every grid instant and one ulp either
    /// side of it.
    #[test]
    fn trace_completions_around_match_single_lookups(
        steps in prop::collection::vec(0u32..12, 0..24),
        probe in 0u32..30
    ) {
        let s = Schedule::trace(grid(&steps));
        for t in ulp_neighbourhood(f64::from(probe) * 0.25) {
            prop_assert_eq!(
                s.completions_around(t),
                (s.last_completion_at(t), s.next_completion_after(t))
            );
        }
    }

    /// One long-lived cursor, polled through `advance_latest` at a
    /// non-decreasing sequence of instants (repeats included), returns
    /// at every poll exactly what a fresh cursor at the previous poll
    /// instant returns, while the timelines are revised between polls —
    /// by drops, later slips and the earlier slips `FaultPlan::generate`
    /// never makes, which can move a completion before the cursor's
    /// sync-due watermark — each revision followed by
    /// `timelines_changed`.
    #[test]
    fn watermark_cursor_matches_a_fresh_cursor(
        kinds in prop::collection::vec((any::<bool>(), 0.5..6.0f64, 0.0..1.0f64), 1..4),
        polls in prop::collection::vec(
            (0u32..4, prop::collection::vec((0usize..4, 0usize..64, any::<bool>(), 0u32..13), 0..3)),
            1..48
        )
    ) {
        let horizon = SimTime::new(40.0);
        let mut timelines = polled_timelines(&kinds);
        let mut cursor = SyncEventCursor::new(SimTime::ZERO);
        let (mut latest, mut expected): (Vec<SyncEvent>, Vec<SyncEvent>) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        for (step, revisions) in &polls {
            for &(table, pick, slip, shift) in revisions {
                let table = TableId::new((table % kinds.len()) as u32);
                let times = timelines.schedule(table).expect("scheduled").materialize(horizon);
                let Some(&scheduled) = times.get(pick % times.len().max(1)) else {
                    continue;
                };
                // Slips move up to three units either way, on the grid.
                let new_time = slip.then(|| {
                    SimTime::new((scheduled.value() + (f64::from(shift) - 6.0) * 0.5).max(0.0))
                });
                let revision = TimelineRevision {
                    revealed_at: now,
                    table,
                    scheduled,
                    new_time,
                };
                if timelines.revise(&revision, horizon) {
                    cursor.timelines_changed();
                }
            }
            let previous = now;
            now = SimTime::new(now.value() + f64::from(*step) * 0.5);
            cursor.advance_latest(&timelines, now, &mut latest);
            SyncEventCursor::new(previous).advance_latest(&timelines, now, &mut expected);
            prop_assert_eq!(&latest, &expected, "poll ({}, {}]", previous.value(), now.value());
            prop_assert_eq!(cursor.position(), now);
        }
    }
}
