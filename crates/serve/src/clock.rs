//! Time sources for the serving engine.
//!
//! The engine is written against one small [`Clock`] trait so the same
//! code runs in two worlds:
//!
//! * [`DesClock`] — discrete-event simulated time. Tests, benches and the
//!   load generator drive it explicitly, so every run is deterministic
//!   and a million simulated minutes cost nothing to "wait" through.
//! * [`WallClock`] — real elapsed time since construction, for running
//!   the engine against live arrivals. Advancing it is a no-op: wall
//!   time moves on its own.
//!
//! Simulated time is in the same unit as the rest of the workspace
//! (minutes, per the paper's figures). `WallClock` reads one real
//! second as one such unit, so a live run replays the paper's time line
//! 60× faster than real time.

use std::time::Instant;

use ivdss_simkernel::time::SimTime;

/// A monotone source of "now" for the serving engine.
pub trait Clock {
    /// The current time.
    fn now(&self) -> SimTime;

    /// Moves the clock forward to `to` if that is in the future;
    /// otherwise leaves it unchanged. Real-time clocks ignore this.
    fn advance_to(&mut self, to: SimTime);
}

/// Deterministic discrete-event clock: time moves only when advanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct DesClock {
    now: SimTime,
}

impl DesClock {
    /// Creates a clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        DesClock::default()
    }
}

impl Clock for DesClock {
    fn now(&self) -> SimTime {
        self.now
    }

    fn advance_to(&mut self, to: SimTime) {
        self.now = self.now.max(to);
    }
}

/// Real elapsed time since construction: one real **second** advances
/// the clock by one simulation time unit — one paper *minute* — so the
/// system replays 60× faster than real time.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Creates a wall clock reading zero now.
    #[must_use]
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::new(self.origin.elapsed().as_secs_f64())
    }

    fn advance_to(&mut self, _to: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn des_clock_is_explicit_and_monotone() {
        let mut clock = DesClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.advance_to(SimTime::new(5.0));
        assert_eq!(clock.now(), SimTime::new(5.0));
        // Backwards advances are ignored, not applied.
        clock.advance_to(SimTime::new(2.0));
        assert_eq!(clock.now(), SimTime::new(5.0));
    }

    #[test]
    fn wall_clock_moves_on_its_own() {
        let mut clock = WallClock::new();
        let a = clock.now();
        clock.advance_to(SimTime::new(1e9)); // ignored
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = clock.now();
        assert!(b > a);
        assert!(b < SimTime::new(1e9));
    }

    /// One real second is one time unit — one paper *minute*, not one
    /// paper second. The clock is created after `before` and read before
    /// `real`, so its reading is bracketed by the sleep and `real`.
    #[test]
    fn wall_clock_scale_one_maps_seconds_to_units() {
        let before = Instant::now();
        let clock = WallClock::new();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let units = clock.now().value();
        let real = before.elapsed().as_secs_f64();
        assert!(units >= 0.02, "slept 20ms, read {units} units");
        assert!(units <= real, "read {units} units over {real}s");
    }
}
