//! Property-based tests for the simulation kernel invariants.

use ivdss_simkernel::events::{Engine, EventQueue};
use ivdss_simkernel::facility::{Calendar, ServiceWindow};
use ivdss_simkernel::rng::{ExponentialStream, SeedFactory, Stream};
use ivdss_simkernel::stats::{OnlineStats, SampleSet};
use ivdss_simkernel::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// The calendar's linear scan from the first booking, kept as the
/// reference its binary-search skip is checked against.
#[derive(Default)]
struct LinearCalendar {
    bookings: Vec<(SimTime, SimTime)>,
}

impl LinearCalendar {
    fn probe(&self, arrival: SimTime, service: SimDuration) -> ServiceWindow {
        let mut cursor = arrival;
        for &(start, end) in &self.bookings {
            if end <= cursor {
                continue;
            }
            if start >= cursor + service {
                break;
            }
            cursor = cursor.max(end);
        }
        ServiceWindow {
            start: cursor,
            finish: cursor + service,
        }
    }

    fn book(&mut self, arrival: SimTime, service: SimDuration) -> ServiceWindow {
        let window = self.probe(arrival, service);
        if service.value() > 0.0 {
            let idx = self
                .bookings
                .partition_point(|&(start, _)| start < window.start);
            self.bookings.insert(idx, (window.start, window.finish));
            let mut i = idx.saturating_sub(1);
            while i + 1 < self.bookings.len() {
                if self.bookings[i].1 >= self.bookings[i + 1].0 {
                    self.bookings[i].1 = self.bookings[i].1.max(self.bookings[i + 1].1);
                    self.bookings.remove(i + 1);
                } else {
                    i += 1;
                }
            }
        }
        window
    }

    fn horizon(&self) -> SimTime {
        self.bookings.last().map_or(SimTime::ZERO, |&(_, end)| end)
    }
}

fn finite_time() -> impl Strategy<Value = f64> {
    -1.0e6..1.0e6f64
}

proptest! {
    /// Popping an event queue always yields a non-decreasing time sequence,
    /// regardless of insertion order.
    #[test]
    fn event_queue_pops_in_time_order(times in prop::collection::vec(finite_time(), 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::new(t), i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some(s) = q.pop() {
            let (time, _) = s.into_parts();
            prop_assert!(time.value() >= last);
            last = time.value();
        }
    }

    /// Events at the same time fire in insertion (FIFO) order.
    #[test]
    fn event_queue_is_fifo_at_equal_times(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::new(1.0), i);
        }
        for expect in 0..n {
            let got = q.pop().map(|s| s.into_parts().1);
            prop_assert_eq!(got, Some(expect));
        }
    }

    /// The engine clock is monotone non-decreasing over a whole run.
    #[test]
    fn engine_clock_is_monotone(delays in prop::collection::vec(0.0..100.0f64, 1..100)) {
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, 0usize);
        let mut last = SimTime::ZERO;
        let mut fired = 0usize;
        engine.run(|eng, idx: usize| {
            assert!(eng.now() >= last);
            last = eng.now();
            fired += 1;
            if idx < delays.len() {
                eng.schedule(eng.now() + SimDuration::new(delays[idx]), idx + 1);
            }
        });
        prop_assert_eq!(fired, delays.len() + 1);
    }

    /// Exponential samples are always non-negative and finite.
    #[test]
    fn exponential_samples_valid(mean in 0.001..1000.0f64, seed in any::<u64>()) {
        let mut s = ExponentialStream::new(mean, seed);
        for _ in 0..64 {
            let x = s.next_sample();
            prop_assert!(x.is_finite());
            prop_assert!(x >= 0.0);
        }
    }

    /// `Calendar::probe` skips the bookings that end by the arrival with a
    /// binary search; over random interleavings of probes and bookings
    /// (half-unit grid times, so touching intervals, exact-fit gaps and
    /// zero-length jobs all occur) every window equals the linear scan's.
    #[test]
    fn calendar_matches_linear_scan(
        ops in prop::collection::vec((0u32..400, 0u32..24, any::<bool>()), 1..200)
    ) {
        let mut calendar = Calendar::new();
        let mut reference = LinearCalendar::default();
        for &(arrival, service, commit) in &ops {
            let arrival = SimTime::new(f64::from(arrival) * 0.5);
            let service = SimDuration::new(f64::from(service) * 0.5);
            prop_assert_eq!(
                calendar.probe(arrival, service),
                reference.probe(arrival, service)
            );
            if commit {
                prop_assert_eq!(
                    calendar.book(arrival, service),
                    reference.book(arrival, service)
                );
            }
            prop_assert_eq!(calendar.horizon(), reference.horizon());
        }
    }

    /// Welford merge is equivalent to sequential recording at any split.
    #[test]
    fn stats_merge_any_split(
        data in prop::collection::vec(-1.0e3..1.0e3f64, 2..200),
        split_frac in 0.0..1.0f64
    ) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let mut whole = OnlineStats::new();
        for &x in &data { whole.record(x); }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..split] { a.record(x); }
        for &x in &data[split..] { b.record(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-4);
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(data in prop::collection::vec(-100.0..100.0f64, 1..200)) {
        let mut s = SampleSet::new();
        for &x in &data { s.record(x); }
        let q25 = s.quantile(0.25).unwrap();
        let q50 = s.quantile(0.5).unwrap();
        let q75 = s.quantile(0.75).unwrap();
        let lo = s.quantile(0.0).unwrap();
        let hi = s.quantile(1.0).unwrap();
        prop_assert!(lo <= q25 && q25 <= q50 && q50 <= q75 && q75 <= hi);
    }

    /// Seed factory: same (root, name) ⇒ same seed; this is what makes the
    /// common-random-number comparisons in the experiments reproducible.
    #[test]
    fn seed_factory_deterministic(root in any::<u64>(), name in "[a-z]{1,12}") {
        let a = SeedFactory::new(root).seed_for(&name);
        let b = SeedFactory::new(root).seed_for(&name);
        prop_assert_eq!(a, b);
    }
}
