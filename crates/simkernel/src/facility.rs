//! Server calendars: when does a job on a busy server start?
//!
//! The paper's computational latency is "query queuing time + query
//! processing time + query result transmission time". A [`Calendar`]
//! models one server (a remote database server or the local federation
//! server) as a set of reserved intervals: work arriving while the server
//! is busy waits for the first idle gap that fits it.
//!
//! Calendars are *analytic*: they answer "if a job of length `d` arrives at
//! `t`, when does it start and finish?" and can also answer hypothetically
//! (without committing the job), which is exactly what plan selection needs
//! when it weighs candidate execution times.

use crate::time::{SimDuration, SimTime};

/// Start and finish times assigned to one job by a calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ServiceWindow {
    /// When the job begins service (arrival + queuing delay).
    pub start: SimTime,
    /// When the job completes service.
    pub finish: SimTime,
}

impl ServiceWindow {
    /// Queuing delay experienced by a job that arrived at `arrival`.
    #[must_use]
    pub fn queue_delay(&self, arrival: SimTime) -> SimDuration {
        (self.start - arrival).clamp_non_negative()
    }
}

/// A single server with an *interval calendar*: bookings occupy
/// `[start, start + duration)` windows and later arrivals may backfill
/// idle gaps before existing reservations.
///
/// A reservation-based server is the right abstraction when plans may be
/// *released in the future* (delayed execution, paper Fig. 2): a
/// reservation at a future time must not block the server for the idle
/// gap before it.
///
/// # Examples
///
/// ```
/// use ivdss_simkernel::facility::Calendar;
/// use ivdss_simkernel::time::{SimDuration, SimTime};
///
/// let mut cal = Calendar::new();
/// // Reserve [20, 25) for a delayed plan…
/// cal.book(SimTime::new(20.0), SimDuration::new(5.0));
/// // …a short job arriving at t=2 backfills the gap before it.
/// let w = cal.book(SimTime::new(2.0), SimDuration::new(3.0));
/// assert_eq!(w.start, SimTime::new(2.0));
/// // A long job arriving at t=18 cannot fit before the reservation.
/// let w = cal.book(SimTime::new(18.0), SimDuration::new(4.0));
/// assert_eq!(w.start, SimTime::new(25.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Calendar {
    /// Sorted, non-overlapping, coalesced busy intervals (so their ends
    /// ascend too).
    bookings: Vec<(SimTime, SimTime)>,
    jobs: u64,
    busy_time: SimDuration,
}

impl Calendar {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Calendar::default()
    }

    /// Earliest start `≥ arrival` at which a job of length `service`
    /// fits, without committing it.
    ///
    /// Bookings that end by `arrival` cannot delay the job. They form a
    /// prefix of the calendar (bookings are sorted and disjoint, so their
    /// ends ascend), which a binary search skips: the cost does not grow
    /// with the calendar's past.
    ///
    /// # Panics
    ///
    /// Panics if `service` is negative.
    #[must_use]
    pub fn probe(&self, arrival: SimTime, service: SimDuration) -> ServiceWindow {
        assert!(!service.is_negative(), "service time must be non-negative");
        let first = self.bookings.partition_point(|&(_, end)| end <= arrival);
        let mut cursor = arrival;
        for &(start, end) in &self.bookings[first..] {
            if end <= cursor {
                continue;
            }
            if start >= cursor + service {
                break; // the gap before this booking fits
            }
            cursor = cursor.max(end);
        }
        ServiceWindow {
            start: cursor,
            finish: cursor + service,
        }
    }

    /// Commits a job of length `service` at the earliest fit `≥ arrival`
    /// and returns its window.
    pub fn book(&mut self, arrival: SimTime, service: SimDuration) -> ServiceWindow {
        let window = self.probe(arrival, service);
        if service.value() > 0.0 {
            let idx = self
                .bookings
                .partition_point(|&(start, _)| start < window.start);
            self.bookings.insert(idx, (window.start, window.finish));
            self.coalesce(idx);
        }
        self.jobs += 1;
        self.busy_time += service;
        window
    }

    fn coalesce(&mut self, around: usize) {
        // Merge adjacent touching intervals to keep the calendar compact.
        let mut i = around.saturating_sub(1);
        while i + 1 < self.bookings.len() {
            if self.bookings[i].1 >= self.bookings[i + 1].0 {
                let merged_end = self.bookings[i].1.max(self.bookings[i + 1].1);
                self.bookings[i].1 = merged_end;
                self.bookings.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// Number of jobs booked.
    #[must_use]
    pub fn jobs_booked(&self) -> u64 {
        self.jobs
    }

    /// Total booked (busy) time.
    #[must_use]
    pub fn total_busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// The latest booked finish time, or [`SimTime::ZERO`] if empty.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.bookings.last().map_or(SimTime::ZERO, |&(_, end)| end)
    }
}

#[cfg(test)]
mod calendar_tests {
    use super::*;

    #[test]
    fn empty_calendar_starts_immediately() {
        let mut c = Calendar::new();
        let w = c.book(SimTime::new(3.0), SimDuration::new(2.0));
        assert_eq!(w.start, SimTime::new(3.0));
        assert_eq!(w.finish, SimTime::new(5.0));
        assert_eq!(c.jobs_booked(), 1);
        assert_eq!(c.total_busy_time(), SimDuration::new(2.0));
    }

    #[test]
    fn backfills_gap_before_reservation() {
        let mut c = Calendar::new();
        c.book(SimTime::new(10.0), SimDuration::new(5.0));
        let w = c.book(SimTime::new(0.0), SimDuration::new(10.0));
        assert_eq!(w.start, SimTime::new(0.0), "exact-fit backfill");
        let w2 = c.book(SimTime::new(0.0), SimDuration::new(1.0));
        assert_eq!(w2.start, SimTime::new(15.0), "no gap left");
    }

    #[test]
    fn skips_too_small_gaps() {
        let mut c = Calendar::new();
        c.book(SimTime::new(2.0), SimDuration::new(2.0)); // [2,4)
        c.book(SimTime::new(6.0), SimDuration::new(2.0)); // [6,8)
                                                          // 3-long job at t=0: gap [0,2) too small, [4,6) too small → t=8.
        let w = c.book(SimTime::new(0.0), SimDuration::new(3.0));
        assert_eq!(w.start, SimTime::new(8.0));
        // 2-long job at t=0 fits the first gap exactly.
        let w2 = c.book(SimTime::new(0.0), SimDuration::new(2.0));
        assert_eq!(w2.start, SimTime::new(0.0));
    }

    #[test]
    fn probe_does_not_commit() {
        let mut c = Calendar::new();
        c.book(SimTime::ZERO, SimDuration::new(4.0));
        let p1 = c.probe(SimTime::new(1.0), SimDuration::new(2.0));
        let p2 = c.probe(SimTime::new(1.0), SimDuration::new(2.0));
        assert_eq!(p1, p2);
        assert_eq!(c.jobs_booked(), 1);
    }

    #[test]
    fn zero_length_jobs_do_not_block() {
        let mut c = Calendar::new();
        let w = c.book(SimTime::new(1.0), SimDuration::ZERO);
        assert_eq!(w.start, w.finish);
        let w2 = c.book(SimTime::new(1.0), SimDuration::new(2.0));
        assert_eq!(w2.start, SimTime::new(1.0));
    }

    #[test]
    fn booking_at_exact_end_boundary_does_not_double_book() {
        // Regression: busy intervals are half-open [start, end), so a
        // reservation starting exactly at another's end time shares the
        // boundary instant without overlapping or being pushed.
        let mut c = Calendar::new();
        let first = c.book(SimTime::new(0.0), SimDuration::new(5.0)); // [0,5)
        let second = c.book(SimTime::new(5.0), SimDuration::new(3.0)); // [5,8)
        assert_eq!(first.finish, SimTime::new(5.0));
        assert_eq!(second.start, SimTime::new(5.0), "no artificial delay");
        assert_eq!(second.finish, SimTime::new(8.0));
        assert_eq!(c.total_busy_time(), SimDuration::new(8.0));
        // The two intervals coalesced into one busy block [0,8): new work
        // arriving inside either original interval starts at 8, proving
        // neither window was double-booked.
        let third = c.book(SimTime::new(2.0), SimDuration::new(1.0));
        assert_eq!(third.start, SimTime::new(8.0));
    }

    #[test]
    fn exact_fit_backfill_touching_both_neighbors() {
        // A gap [5,10) between [0,5) and [10,15): an exact-fit job whose
        // start equals the left booking's end AND whose finish equals the
        // right booking's start must claim the gap, not skip past it.
        let mut c = Calendar::new();
        c.book(SimTime::new(0.0), SimDuration::new(5.0));
        c.book(SimTime::new(10.0), SimDuration::new(5.0));
        let w = c.book(SimTime::new(5.0), SimDuration::new(5.0));
        assert_eq!(w.start, SimTime::new(5.0), "exact-fit gap claimed");
        assert_eq!(w.finish, SimTime::new(10.0));
        // Everything merged to [0,15); the next job queues at 15 exactly
        // once (a double-booked gap would report an earlier start).
        let next = c.book(SimTime::new(0.0), SimDuration::new(1.0));
        assert_eq!(next.start, SimTime::new(15.0));
        assert_eq!(c.total_busy_time(), SimDuration::new(16.0));
    }

    #[test]
    fn coalesces_touching_intervals() {
        let mut c = Calendar::new();
        c.book(SimTime::new(0.0), SimDuration::new(2.0));
        c.book(SimTime::new(2.0), SimDuration::new(2.0));
        c.book(SimTime::new(4.0), SimDuration::new(2.0));
        assert_eq!(c.horizon(), SimTime::new(6.0));
        // Everything is one block: a job at 0 starts at 6.
        let w = c.book(SimTime::new(0.0), SimDuration::new(1.0));
        assert_eq!(w.start, SimTime::new(6.0));
    }
}
