//! Non-homogeneous Poisson arrival processes.
//!
//! The paper drives arrivals with a single homogeneous exponential
//! stream (§4.1). Real decision-support traffic is not flat: it has a
//! diurnal rhythm and flash crowds. This module models arrivals as a
//! non-homogeneous Poisson process with a deterministic intensity
//! function `rate(t)`, sampled exactly by **thinning** (Lewis–Shedler):
//! candidate gaps are exponential at the peak rate, and each candidate
//! at time `t` is accepted with probability `rate(t) / peak`. Both
//! draws ride the workspace's seeded [`UniformStream`], so a scenario
//! replays bit-identically per seed.

use ivdss_simkernel::rng::{Stream, UniformStream};
use ivdss_simkernel::time::SimTime;

use std::f64::consts::TAU;

/// A deterministic arrival-intensity function `rate(t)`, in queries per
/// time unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntensityProfile {
    /// Homogeneous Poisson arrivals — the paper's §4.1 regime.
    Constant {
        /// Arrival rate (queries per time unit).
        rate: f64,
    },
    /// A diurnal rhythm: `rate(t) = base · (1 + a · sin(2πt/period))`.
    Diurnal {
        /// Mean arrival rate.
        base: f64,
        /// Relative swing `a ∈ [0, 1)` around the base rate.
        relative_amplitude: f64,
        /// Length of one day on the sim clock.
        period: f64,
    },
    /// A flash crowd: base-rate traffic with a rectangular burst at
    /// `peak` queries per time unit over `[start, start + duration)`.
    FlashCrowd {
        /// Quiet-period arrival rate.
        base: f64,
        /// Burst arrival rate (`≥ base`).
        peak: f64,
        /// When the burst begins.
        start: f64,
        /// How long the burst lasts.
        duration: f64,
    },
}

impl IntensityProfile {
    /// Homogeneous arrivals at `rate` queries per time unit.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_scenarios::arrival::IntensityProfile;
    /// use ivdss_simkernel::time::SimTime;
    ///
    /// let flat = IntensityProfile::constant(2.0);
    /// assert_eq!(flat.rate_at(SimTime::new(7.0)), 2.0);
    /// assert_eq!(flat.expected_count(SimTime::new(10.0)), 20.0);
    /// ```
    #[must_use]
    pub fn constant(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        IntensityProfile::Constant { rate }
    }

    /// A sinusoidal diurnal profile around `base` with relative swing
    /// `relative_amplitude` and day length `period`.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `period` is not strictly positive and
    /// finite, or if `relative_amplitude` is outside `[0, 1)` (an
    /// amplitude of 1 would zero the rate at the trough and stall the
    /// thinning sampler).
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_scenarios::arrival::IntensityProfile;
    /// use ivdss_simkernel::time::SimTime;
    ///
    /// let day = IntensityProfile::diurnal(4.0, 0.5, 24.0);
    /// // Peak at a quarter day, trough at three quarters.
    /// assert_eq!(day.rate_at(SimTime::new(6.0)), 6.0);
    /// assert_eq!(day.rate_at(SimTime::new(18.0)), 2.0);
    /// // One whole day integrates back to the base rate.
    /// assert!((day.expected_count(SimTime::new(24.0)) - 96.0).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn diurnal(base: f64, relative_amplitude: f64, period: f64) -> Self {
        assert!(base.is_finite() && base > 0.0, "base rate must be positive");
        assert!(
            (0.0..1.0).contains(&relative_amplitude),
            "relative amplitude must lie in [0, 1)"
        );
        assert!(
            period.is_finite() && period > 0.0,
            "period must be positive"
        );
        IntensityProfile::Diurnal {
            base,
            relative_amplitude,
            period,
        }
    }

    /// A flash crowd: `base` rate everywhere except a `peak`-rate burst
    /// over `[start, start + duration)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not strictly positive, `peak < base`,
    /// `start` is negative, or `duration` is not strictly positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use ivdss_scenarios::arrival::IntensityProfile;
    /// use ivdss_simkernel::time::SimTime;
    ///
    /// let crowd = IntensityProfile::flash_crowd(0.5, 5.0, 40.0, 10.0);
    /// assert_eq!(crowd.rate_at(SimTime::new(39.9)), 0.5);
    /// assert_eq!(crowd.rate_at(SimTime::new(45.0)), 5.0);
    /// // 100 units of base load plus the burst's extra mass.
    /// assert_eq!(crowd.expected_count(SimTime::new(200.0)), 145.0);
    /// ```
    #[must_use]
    pub fn flash_crowd(base: f64, peak: f64, start: f64, duration: f64) -> Self {
        assert!(base.is_finite() && base > 0.0, "base rate must be positive");
        assert!(peak.is_finite() && peak >= base, "peak must be >= base");
        assert!(start.is_finite() && start >= 0.0, "start must be >= 0");
        assert!(
            duration.is_finite() && duration > 0.0,
            "duration must be positive"
        );
        IntensityProfile::FlashCrowd {
            base,
            peak,
            start,
            duration,
        }
    }

    /// The instantaneous arrival rate at `t`.
    #[must_use]
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match *self {
            IntensityProfile::Constant { rate } => rate,
            IntensityProfile::Diurnal {
                base,
                relative_amplitude,
                period,
            } => base * (1.0 + relative_amplitude * (TAU * t.value() / period).sin()),
            IntensityProfile::FlashCrowd {
                base,
                peak,
                start,
                duration,
            } => {
                if t.value() >= start && t.value() < start + duration {
                    peak
                } else {
                    base
                }
            }
        }
    }

    /// The supremum of `rate(t)` — the thinning sampler's candidate
    /// rate.
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        match *self {
            IntensityProfile::Constant { rate } => rate,
            IntensityProfile::Diurnal {
                base,
                relative_amplitude,
                ..
            } => base * (1.0 + relative_amplitude),
            IntensityProfile::FlashCrowd { peak, .. } => peak,
        }
    }

    /// The exact expected arrival count over `[0, horizon)`:
    /// `∫₀ʰ rate(t) dt`, in closed form per profile.
    #[must_use]
    pub fn expected_count(&self, horizon: SimTime) -> f64 {
        let h = horizon.value();
        match *self {
            IntensityProfile::Constant { rate } => rate * h,
            IntensityProfile::Diurnal {
                base,
                relative_amplitude,
                period,
            } => {
                // ∫ base·(1 + a·sin(2πt/P)) dt
                //   = base·h + base·a·P/(2π)·(1 − cos(2πh/P))
                base * h
                    + base * relative_amplitude * period / TAU * (1.0 - (TAU * h / period).cos())
            }
            IntensityProfile::FlashCrowd {
                base,
                peak,
                start,
                duration,
            } => {
                let overlap = (h.min(start + duration) - start).clamp(0.0, duration);
                base * h + (peak - base) * overlap
            }
        }
    }
}

/// A seeded sampler drawing one arrival sequence from an
/// [`IntensityProfile`] by thinning.
///
/// # Examples
///
/// ```
/// use ivdss_scenarios::arrival::{ArrivalProcess, IntensityProfile};
/// use ivdss_simkernel::time::SimTime;
///
/// let mut a = ArrivalProcess::new(IntensityProfile::constant(1.0), 7);
/// let mut b = ArrivalProcess::new(IntensityProfile::constant(1.0), 7);
/// // Same seed, same sequence — and times strictly increase.
/// let first = a.next_arrival();
/// assert_eq!(first, b.next_arrival());
/// assert!(a.next_arrival() > first);
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    profile: IntensityProfile,
    draws: UniformStream,
    now: SimTime,
}

impl ArrivalProcess {
    /// Creates a process for `profile` seeded with `seed`.
    #[must_use]
    pub fn new(profile: IntensityProfile, seed: u64) -> Self {
        ArrivalProcess {
            profile,
            draws: UniformStream::new(0.0, 1.0, seed),
            now: SimTime::ZERO,
        }
    }

    /// Draws the next arrival time (strictly after the previous one).
    ///
    /// Thinning: candidate gaps are `Exp(peak)`; a candidate at `t` is
    /// kept with probability `rate(t) / peak`. Rejected candidates
    /// still advance the candidate clock, preserving exactness.
    pub fn next_arrival(&mut self) -> SimTime {
        let peak = self.profile.peak_rate();
        loop {
            let gap = -(1.0 - self.draws.next_sample()).ln() / peak;
            self.now = SimTime::new(self.now.value() + gap);
            let accept = self.draws.next_sample();
            if accept * peak <= self.profile.rate_at(self.now) {
                return self.now;
            }
        }
    }

    /// Draws every arrival strictly before `horizon`, in order.
    #[must_use]
    pub fn arrivals_until(&mut self, horizon: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        loop {
            let t = self.next_arrival();
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_is_flat() {
        let p = IntensityProfile::constant(3.0);
        assert_eq!(p.rate_at(SimTime::ZERO), 3.0);
        assert_eq!(p.rate_at(SimTime::new(1e6)), 3.0);
        assert_eq!(p.peak_rate(), 3.0);
        assert_eq!(p.expected_count(SimTime::new(4.0)), 12.0);
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let p = IntensityProfile::diurnal(10.0, 0.8, 100.0);
        assert!((p.rate_at(SimTime::new(25.0)) - 18.0).abs() < 1e-9);
        assert!((p.rate_at(SimTime::new(75.0)) - 2.0).abs() < 1e-9);
        assert_eq!(p.peak_rate(), 18.0);
        // Whole periods integrate to base·h exactly (cos term vanishes).
        assert!((p.expected_count(SimTime::new(200.0)) - 2000.0).abs() < 1e-9);
        // Half a period carries the full sine lobe: base·a·P/π extra.
        let half = p.expected_count(SimTime::new(50.0));
        let lobe = 10.0 * 0.8 * 100.0 * 2.0 / TAU;
        assert!((half - (500.0 + lobe)).abs() < 1e-9, "half-day mass {half}");
    }

    #[test]
    fn flash_crowd_burst_window() {
        let p = IntensityProfile::flash_crowd(1.0, 9.0, 10.0, 5.0);
        assert_eq!(p.rate_at(SimTime::new(9.999)), 1.0);
        assert_eq!(p.rate_at(SimTime::new(10.0)), 9.0);
        assert_eq!(p.rate_at(SimTime::new(14.999)), 9.0);
        assert_eq!(p.rate_at(SimTime::new(15.0)), 1.0);
        // Before, straddling, and after the burst.
        assert_eq!(p.expected_count(SimTime::new(10.0)), 10.0);
        assert_eq!(p.expected_count(SimTime::new(12.0)), 12.0 + 8.0 * 2.0);
        assert_eq!(p.expected_count(SimTime::new(20.0)), 20.0 + 8.0 * 5.0);
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut a = ArrivalProcess::new(IntensityProfile::flash_crowd(0.5, 5.0, 4.0, 2.0), 3);
        let times = a.arrivals_until(SimTime::new(50.0));
        assert!(times.len() > 10);
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        let horizon = SimTime::new(200.0);
        let p = IntensityProfile::diurnal(2.0, 0.6, 30.0);
        let a = ArrivalProcess::new(p, 42).arrivals_until(horizon);
        let b = ArrivalProcess::new(p, 42).arrivals_until(horizon);
        assert_eq!(a, b);
        let c = ArrivalProcess::new(p, 43).arrivals_until(horizon);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn full_amplitude_rejected() {
        let _ = IntensityProfile::diurnal(1.0, 1.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "peak must be >= base")]
    fn inverted_flash_crowd_rejected() {
        let _ = IntensityProfile::flash_crowd(2.0, 1.0, 0.0, 1.0);
    }
}
