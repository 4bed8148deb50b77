//! A stable priority event queue and the discrete-event engine.
//!
//! The engine is deliberately minimal: it owns the clock and a time-ordered
//! queue of user events; the caller supplies the dispatch logic. Events
//! scheduled for the same instant fire in FIFO order (insertion order), which
//! makes simulations reproducible run-to-run — the property the paper relies
//! on when it compares three planners on *identical* arrival and
//! synchronization streams.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event together with its firing time and a tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// Consumes the entry, returning the firing time and payload.
    #[must_use]
    pub fn into_parts(self) -> (SimTime, E) {
        (self.time, self.event)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest (and for
        // ties the *lowest* sequence number) on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of events with stable FIFO ordering at equal times.
///
/// # Examples
///
/// ```
/// use ivdss_simkernel::events::EventQueue;
/// use ivdss_simkernel::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::new(2.0), "late");
/// q.push(SimTime::new(1.0), "early");
/// q.push(SimTime::new(1.0), "early-second");
///
/// assert_eq!(q.pop().map(|s| s.into_parts().1), Some("early"));
/// assert_eq!(q.pop().map(|s| s.into_parts().1), Some("early-second"));
/// assert_eq!(q.pop().map(|s| s.into_parts().1), Some("late"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop()
    }
}

/// A discrete-event engine: a clock plus an [`EventQueue`].
///
/// The engine never interprets events itself; [`Engine::run`] hands each one
/// to the supplied handler with the clock already advanced to the event's
/// firing time. Handlers may schedule further events.
///
/// # Examples
///
/// Simulate a tiny Poisson-less arrival chain:
///
/// ```
/// use ivdss_simkernel::events::Engine;
/// use ivdss_simkernel::time::{SimDuration, SimTime};
///
/// #[derive(Debug)]
/// enum Ev { Tick(u32) }
///
/// let mut engine = Engine::new();
/// engine.schedule(SimTime::ZERO, Ev::Tick(0));
/// let mut seen = Vec::new();
/// engine.run(|eng, Ev::Tick(n)| {
///     seen.push((eng.now().value(), n));
///     if n < 2 {
///         eng.schedule(eng.now() + SimDuration::new(1.5), Ev::Tick(n + 1));
///     }
/// });
/// assert_eq!(seen, vec![(0.0, 0), (1.5, 1), (3.0, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past would violate causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < now {})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn step(&mut self) -> Option<E> {
        let scheduled = self.queue.pop()?;
        let (time, event) = scheduled.into_parts();
        self.now = time;
        Some(event)
    }

    /// Runs until the queue drains, dispatching every event to `handler`.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, E),
    {
        while let Some(event) = self.step() {
            handler(self, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn queue_orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(5.0), 1u32);
        q.push(SimTime::new(3.0), 2);
        q.push(SimTime::new(5.0), 3);
        q.push(SimTime::new(4.0), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.into_parts().1)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn engine_advances_clock() {
        let mut e = Engine::new();
        e.schedule(SimTime::new(10.0), "a");
        e.schedule(SimTime::new(4.0), "b");
        assert_eq!(e.step(), Some("b"));
        assert_eq!(e.now(), SimTime::new(4.0));
        assert_eq!(e.step(), Some("a"));
        assert_eq!(e.now(), SimTime::new(10.0));
        assert_eq!(e.step(), None);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new();
        e.schedule(SimTime::new(5.0), ());
        e.step();
        e.schedule(SimTime::new(1.0), ());
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut e = Engine::new();
        e.schedule(SimTime::ZERO, 0u32);
        let mut count = 0;
        e.run(|eng, n| {
            count += 1;
            if n < 9 {
                eng.schedule(eng.now() + SimDuration::new(1.0), n + 1);
            }
        });
        assert_eq!(count, 10);
        assert_eq!(e.now(), SimTime::new(9.0));
    }
}
