//! Property-based tests for synchronization schedules and timelines.

use ivdss_catalog::ids::TableId;
use ivdss_catalog::replica::{ReplicaSpec, ReplicationPlan};
use ivdss_replication::events::TimelineRevision;
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
