//! Per-replica synchronization schedules.
//!
//! A [`Schedule`] answers the two questions plan selection needs (paper
//! §3.1, Fig. 3 & 4):
//!
//! * *last completion* — when was the replica last synchronized at or
//!   before time `t`? This timestamps the replica's data, and hence the
//!   synchronization latency of any plan that reads it.
//! * *next completion* — when is the next synchronization strictly after
//!   `t`? Delayed plans wait for this point before executing.
//!
//! Two flavors exist: [`Schedule::periodic`] (deterministic, as in the
//! paper's Fig. 4 worked example) and [`Schedule::trace`] (an explicit list
//! of completion times, e.g. drawn from the exponential stream that the
//! paper's experiments use).

use ivdss_simkernel::rng::{ExponentialStream, Stream};
use ivdss_simkernel::time::SimTime;

/// A replica's synchronization-completion timeline.
///
/// # Examples
///
/// ```
/// use ivdss_replication::schedule::Schedule;
/// use ivdss_simkernel::time::SimTime;
///
/// let s = Schedule::periodic(8.0, 0.0);
/// assert_eq!(s.last_completion_at(SimTime::new(11.0)), Some(SimTime::new(8.0)));
/// assert_eq!(s.next_completion_after(SimTime::new(11.0)), Some(SimTime::new(16.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Completions at `phase + k·period`, `k = 0, 1, 2, …`.
    Periodic {
        /// The synchronization period (> 0).
        period: f64,
        /// Offset of the first completion (≥ 0).
        phase: f64,
    },
    /// Explicit, sorted completion times.
    Trace(Vec<SimTime>),
}

impl Schedule {
    /// Creates a strictly periodic schedule.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not strictly positive and finite, or `phase`
    /// is negative or not finite.
    #[must_use]
    pub fn periodic(period: f64, phase: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "period must be positive and finite"
        );
        assert!(
            phase.is_finite() && phase >= 0.0,
            "phase must be non-negative and finite"
        );
        Schedule::Periodic { period, phase }
    }

    /// Creates a trace schedule from completion times (sorted internally).
    #[must_use]
    pub fn trace(mut times: Vec<SimTime>) -> Self {
        times.sort();
        Schedule::Trace(times)
    }

    /// Creates a trace schedule by sampling exponential inter-sync gaps with
    /// the given `mean` until `horizon` (the paper's experimental setup).
    ///
    /// The trace begins with a completion at `t = 0` so every replica has a
    /// well-defined initial version.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    #[must_use]
    pub fn exponential_trace(mean: f64, horizon: SimTime, seed: u64) -> Self {
        let mut stream = ExponentialStream::new(mean, seed);
        let mut times = vec![SimTime::ZERO];
        let mut t = SimTime::ZERO;
        loop {
            t += stream.next_duration();
            if t > horizon {
                break;
            }
            times.push(t);
        }
        Schedule::Trace(times)
    }

    /// The latest completion at or before `t`, if any.
    #[must_use]
    pub fn last_completion_at(&self, t: SimTime) -> Option<SimTime> {
        self.completions_around(t).0
    }

    /// The earliest completion strictly after `t`, if any.
    ///
    /// Periodic schedules always have one; trace schedules return `None`
    /// past their horizon.
    #[must_use]
    pub fn next_completion_after(&self, t: SimTime) -> Option<SimTime> {
        self.completions_around(t).1
    }

    /// [`Schedule::last_completion_at`] and
    /// [`Schedule::next_completion_after`] of `t` in one lookup: one
    /// binary search on a trace, one guarded division on a periodic
    /// schedule.
    #[must_use]
    pub fn completions_around(&self, t: SimTime) -> (Option<SimTime>, Option<SimTime>) {
        match self {
            &Schedule::Periodic { period, phase } => match periodic_index(period, phase, t) {
                None => (None, Some(SimTime::new(phase))),
                Some(k) => (
                    Some(SimTime::new(phase + k * period)),
                    Some(SimTime::new(phase + (k + 1.0) * period)),
                ),
            },
            Schedule::Trace(times) => {
                let idx = times.partition_point(|&x| x <= t);
                (
                    idx.checked_sub(1).map(|i| times[i]),
                    times.get(idx).copied(),
                )
            }
        }
    }

    /// All completions in the half-open window `(from, to]` — the events a
    /// discrete-event simulation must schedule — each distinct instant
    /// once. Trace schedules slice the window out by binary search (one
    /// search when it is empty); periodic schedules step through it.
    #[must_use]
    pub fn completions_in(&self, from: SimTime, to: SimTime) -> Vec<SimTime> {
        match self {
            Schedule::Trace(times) => {
                let mut out = trace_window(times, from, to).to_vec();
                out.dedup();
                out
            }
            &Schedule::Periodic { period, phase } => {
                periodic_window(period, phase, from, to).collect()
            }
        }
    }

    /// The number of completions in the half-open window `(from, to]`,
    /// without materializing them — the refresh-budget accounting path
    /// (`ivdss-sched`) calls this per table per candidate schedule, so it
    /// must not allocate. Trace schedules count by binary search; periodic
    /// schedules walk the same iteration as [`Schedule::completions_in`]
    /// so the two never disagree at window boundaries.
    #[must_use]
    pub fn count_in(&self, from: SimTime, to: SimTime) -> usize {
        match self {
            Schedule::Trace(times) => {
                // Duplicate trace times are one completion, as in
                // `completions_in`.
                let window = trace_window(times, from, to);
                window
                    .iter()
                    .enumerate()
                    .filter(|&(i, &t)| i == 0 || window[i - 1] != t)
                    .count()
            }
            &Schedule::Periodic { period, phase } => {
                periodic_window(period, phase, from, to).count()
            }
        }
    }

    /// Materializes the schedule as an explicit list of completion times:
    /// the completion at or before [`SimTime::ZERO`] (if any, so the
    /// replica's initial version survives) followed by every completion in
    /// `(0, horizon]`. Trace schedules return *all* their times regardless
    /// of `horizon` — they are already finite, and truncating them would
    /// silently lose completions a previous revision pushed past the
    /// horizon.
    #[must_use]
    pub fn materialize(&self, horizon: SimTime) -> Vec<SimTime> {
        match self {
            Schedule::Trace(times) => times.clone(),
            Schedule::Periodic { .. } => {
                let mut out = Vec::new();
                if let Some(at) = self.last_completion_at(SimTime::ZERO) {
                    out.push(at);
                }
                out.extend(self.completions_in(SimTime::ZERO, horizon));
                out
            }
        }
    }

    /// The mean gap between completions, where defined.
    #[must_use]
    pub fn mean_period(&self) -> Option<f64> {
        match self {
            Schedule::Periodic { period, .. } => Some(*period),
            Schedule::Trace(times) if times.len() >= 2 => {
                let span = (*times.last().expect("non-empty") - times[0]).value();
                Some(span / (times.len() - 1) as f64)
            }
            Schedule::Trace(_) => None,
        }
    }
}

/// The index `k` of a periodic schedule's last completion at or before
/// `t`, the largest with `phase + k·period ≤ t`; `None` before the phase.
///
/// Floating-point guards: `(t − phase) / period` can round either side of
/// the integer it mathematically equals, so at an exact completion
/// instant the unguarded floor names the completion one period early, and
/// one ulp below it one period late. As `phase + k·period` never
/// decreases in `k`, the next completion after `t` is then index `k + 1`,
/// strictly after `t`, so iteration always advances.
fn periodic_index(period: f64, phase: f64, t: SimTime) -> Option<f64> {
    let t = t.value();
    if t < phase {
        return None;
    }
    let at = |k: f64| phase + k * period;
    let mut k = ((t - phase) / period).floor();
    while at(k + 1.0) <= t {
        k += 1.0;
    }
    while k > 0.0 && at(k) > t {
        k -= 1.0;
    }
    Some(k)
}

/// The distinct completions of a periodic schedule in `(from, to]`, in
/// order — what stepping [`Schedule::next_completion_after`] from `from`
/// yields: one guarded lookup finds the first, then the index steps, and
/// a completion that rounds onto its predecessor is skipped.
fn periodic_window(
    period: f64,
    phase: f64,
    from: SimTime,
    to: SimTime,
) -> impl Iterator<Item = SimTime> {
    let mut k = periodic_index(period, phase, from).map_or(0.0, |k| k + 1.0);
    let mut previous = None;
    std::iter::from_fn(move || loop {
        let at = SimTime::new(phase + k * period);
        if at > to {
            return None;
        }
        k += 1.0;
        if previous != Some(at) {
            previous = Some(at);
            return Some(at);
        }
    })
}

/// The times of a sorted trace in `(from, to]`, found by binary search;
/// an empty window (including `from ≥ to`) costs one search.
fn trace_window(times: &[SimTime], from: SimTime, to: SimTime) -> &[SimTime] {
    let lo = times.partition_point(|&x| x <= from);
    if times.get(lo).is_none_or(|&first| first > to) {
        return &[];
    }
    let hi = lo + times[lo..].partition_point(|&x| x <= to);
    &times[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_in_matches_completions_in() {
        let schedules = [
            Schedule::periodic(8.0, 0.0),
            Schedule::periodic(3.7, 1.2),
            Schedule::trace(vec![
                SimTime::ZERO,
                SimTime::new(2.0),
                SimTime::new(2.0),
                SimTime::new(9.5),
            ]),
            Schedule::trace(Vec::new()),
        ];
        let probes = [0.0, 1.2, 2.0, 7.9, 8.0, 9.5, 40.0];
        for s in &schedules {
            for &a in &probes {
                for &b in &probes {
                    if b < a {
                        continue;
                    }
                    let (from, to) = (SimTime::new(a), SimTime::new(b));
                    assert_eq!(
                        s.count_in(from, to),
                        s.completions_in(from, to).len(),
                        "count_in must agree with completions_in on {s:?} ({a}, {b}]"
                    );
                }
            }
        }
    }

    #[test]
    fn periodic_last_and_next() {
        let s = Schedule::periodic(8.0, 0.0);
        assert_eq!(s.last_completion_at(SimTime::ZERO), Some(SimTime::ZERO));
        assert_eq!(s.last_completion_at(SimTime::new(7.9)), Some(SimTime::ZERO));
        assert_eq!(
            s.last_completion_at(SimTime::new(8.0)),
            Some(SimTime::new(8.0))
        );
        assert_eq!(
            s.next_completion_after(SimTime::new(8.0)),
            Some(SimTime::new(16.0))
        );
        assert_eq!(
            s.next_completion_after(SimTime::ZERO),
            Some(SimTime::new(8.0))
        );
    }

    #[test]
    fn periodic_with_phase() {
        let s = Schedule::periodic(10.0, 3.0);
        assert_eq!(s.last_completion_at(SimTime::new(2.9)), None);
        assert_eq!(
            s.last_completion_at(SimTime::new(3.0)),
            Some(SimTime::new(3.0))
        );
        assert_eq!(
            s.next_completion_after(SimTime::new(1.0)),
            Some(SimTime::new(3.0))
        );
        assert_eq!(
            s.next_completion_after(SimTime::new(3.0)),
            Some(SimTime::new(13.0))
        );
    }

    #[test]
    fn trace_last_and_next() {
        let s = Schedule::trace(vec![
            SimTime::new(5.0),
            SimTime::new(1.0),
            SimTime::new(9.0),
        ]);
        assert_eq!(s.last_completion_at(SimTime::new(0.5)), None);
        assert_eq!(
            s.last_completion_at(SimTime::new(1.0)),
            Some(SimTime::new(1.0))
        );
        assert_eq!(
            s.last_completion_at(SimTime::new(6.0)),
            Some(SimTime::new(5.0))
        );
        assert_eq!(
            s.next_completion_after(SimTime::new(5.0)),
            Some(SimTime::new(9.0))
        );
        assert_eq!(s.next_completion_after(SimTime::new(9.0)), None);
    }

    #[test]
    fn completions_in_window() {
        let s = Schedule::periodic(2.0, 0.0);
        let w = s.completions_in(SimTime::new(1.0), SimTime::new(7.0));
        assert_eq!(
            w,
            vec![SimTime::new(2.0), SimTime::new(4.0), SimTime::new(6.0)]
        );
    }

    #[test]
    fn exponential_trace_starts_at_zero_and_is_sorted() {
        let s = Schedule::exponential_trace(5.0, SimTime::new(200.0), 3);
        if let Schedule::Trace(times) = &s {
            assert_eq!(times[0], SimTime::ZERO);
            for w in times.windows(2) {
                assert!(w[0] <= w[1]);
            }
            assert!(times.len() > 10, "expected many syncs over horizon");
        } else {
            panic!("expected trace");
        }
    }

    #[test]
    fn exponential_trace_mean_near_target() {
        let s = Schedule::exponential_trace(4.0, SimTime::new(100_000.0), 11);
        let mean = s.mean_period().unwrap();
        assert!((mean - 4.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn mean_period_of_degenerate_trace_is_none() {
        assert_eq!(Schedule::trace(vec![]).mean_period(), None);
        assert_eq!(Schedule::trace(vec![SimTime::ZERO]).mean_period(), None);
        assert_eq!(Schedule::periodic(3.0, 0.0).mean_period(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = Schedule::periodic(0.0, 0.0);
    }

    #[test]
    fn periodic_is_consistent_at_unrepresentable_completion_instants() {
        // `3·p / p` rounds to 2.9999999999999996 for this period; the
        // unguarded floor then reported the completion at `2p` as the
        // last one *at the exact instant of the `3p` completion*,
        // disagreeing with both `next_completion_after` and the
        // materialized trace. Regression for the guarded arithmetic.
        let p = 6.871_045_525_054_468_f64;
        let s = Schedule::periodic(p, 0.0);
        let trace = Schedule::trace(s.materialize(SimTime::new(400.0)));
        for k in 1..50 {
            let at = SimTime::new(f64::from(k) * p);
            assert_eq!(
                s.last_completion_at(at),
                Some(at),
                "k={k}: a periodic completion instant must report itself"
            );
            assert_eq!(
                s.last_completion_at(at),
                trace.last_completion_at(at),
                "k={k}: periodic and materialized answers must agree"
            );
            let next = s.next_completion_after(at).unwrap();
            assert!(next > at, "k={k}: next must move strictly forward");
            assert_eq!(s.last_completion_at(next), Some(next));
        }
    }

    #[test]
    fn materialize_periodic_keeps_initial_completion() {
        let s = Schedule::periodic(4.0, 0.0);
        let times = s.materialize(SimTime::new(10.0));
        assert_eq!(
            times,
            vec![SimTime::ZERO, SimTime::new(4.0), SimTime::new(8.0)]
        );
    }

    #[test]
    fn materialize_phased_periodic_has_no_initial_completion() {
        let s = Schedule::periodic(4.0, 3.0);
        let times = s.materialize(SimTime::new(8.0));
        assert_eq!(times, vec![SimTime::new(3.0), SimTime::new(7.0)]);
    }

    #[test]
    fn materialize_trace_ignores_horizon() {
        let s = Schedule::trace(vec![SimTime::new(1.0), SimTime::new(50.0)]);
        let times = s.materialize(SimTime::new(10.0));
        assert_eq!(times, vec![SimTime::new(1.0), SimTime::new(50.0)]);
    }

    #[test]
    fn materialized_trace_is_equivalent_inside_horizon() {
        let s = Schedule::periodic(3.0, 1.0);
        let t = Schedule::trace(s.materialize(SimTime::new(20.0)));
        // Probe only far enough below the horizon that `next` stays inside
        // it — beyond that the finite trace legitimately ends.
        for i in 0..48 {
            let at = SimTime::new(f64::from(i) * 0.33);
            assert_eq!(s.last_completion_at(at), t.last_completion_at(at));
            assert_eq!(s.next_completion_after(at), t.next_completion_after(at));
        }
    }
}
