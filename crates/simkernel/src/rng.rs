//! Random streams for the simulation.
//!
//! The paper drives both query arrival and table synchronization with
//! JavaSim's `ExponentialStream` ("returns an exponentially distributed
//! stream of random numbers with mean value specified by mean"). This module
//! reproduces that interface: a [`Stream`] yields positive `f64` samples, and
//! two concrete streams ([`ExponentialStream`], [`UniformStream`]) cover the
//! distributions the experiments need. All streams are deterministic given a
//! seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// A source of random (or deterministic) non-negative durations.
///
/// Implementors must return finite, non-negative samples; callers use the
/// samples as inter-arrival times or service times.
pub trait Stream {
    /// Draws the next sample.
    fn next_sample(&mut self) -> f64;

    /// Draws the next sample as a [`SimDuration`].
    fn next_duration(&mut self) -> SimDuration {
        SimDuration::new(self.next_sample())
    }

    /// The theoretical mean of the stream, if known.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// Exponentially distributed stream with the given mean.
///
/// Equivalent to JavaSim's `ExponentialStream(mean)`; used for query
/// inter-arrival times and synchronization cycles in the paper's
/// experiments.
///
/// # Examples
///
/// ```
/// use ivdss_simkernel::rng::{ExponentialStream, Stream};
///
/// let mut s = ExponentialStream::new(10.0, 42);
/// let x = s.next_sample();
/// assert!(x > 0.0);
/// assert_eq!(s.mean(), Some(10.0));
/// ```
#[derive(Debug, Clone)]
pub struct ExponentialStream {
    mean: f64,
    rng: StdRng,
}

impl ExponentialStream {
    /// Creates a stream with the given `mean` and RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    #[must_use]
    pub fn new(mean: f64, seed: u64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive and finite, got {mean}"
        );
        ExponentialStream {
            mean,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Stream for ExponentialStream {
    fn next_sample(&mut self) -> f64 {
        // Inverse-CDF sampling; 1 - u is in (0, 1] so ln() is finite.
        let u: f64 = self.rng.random();
        -self.mean * (1.0 - u).ln()
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Uniformly distributed stream over `[low, high)`.
#[derive(Debug, Clone)]
pub struct UniformStream {
    low: f64,
    high: f64,
    rng: StdRng,
}

impl UniformStream {
    /// Creates a stream over `[low, high)` with the given RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite, `low` is negative, or
    /// `low >= high`.
    #[must_use]
    pub fn new(low: f64, high: f64, seed: u64) -> Self {
        assert!(
            low.is_finite() && high.is_finite() && low >= 0.0 && low < high,
            "uniform bounds must satisfy 0 <= low < high, got [{low}, {high})"
        );
        UniformStream {
            low,
            high,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Stream for UniformStream {
    fn next_sample(&mut self) -> f64 {
        self.rng.random_range(self.low..self.high)
    }

    fn mean(&self) -> Option<f64> {
        Some((self.low + self.high) / 2.0)
    }
}

/// A seed factory that derives independent, reproducible sub-seeds.
///
/// Each named component of a simulation (arrival stream, per-table sync
/// streams, workload generator…) gets its own stream so that changing one
/// component's consumption pattern does not perturb the others — essential
/// for the paper's method comparisons on common random numbers.
///
/// # Examples
///
/// ```
/// use ivdss_simkernel::rng::SeedFactory;
///
/// let f = SeedFactory::new(7);
/// assert_eq!(f.seed_for("arrivals"), SeedFactory::new(7).seed_for("arrivals"));
/// assert_ne!(f.seed_for("arrivals"), f.seed_for("sync:0"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedFactory {
    root: u64,
}

impl SeedFactory {
    /// Creates a factory from a root seed.
    #[must_use]
    pub fn new(root: u64) -> Self {
        SeedFactory { root }
    }

    /// Derives a sub-seed for the named component (FNV-1a over the name,
    /// mixed with the root).
    #[must_use]
    pub fn seed_for(&self, name: &str) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // SplitMix64 finalizer to decorrelate from the root.
        let mut z = hash ^ self.root.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Derives a sub-seed for an indexed component, e.g. per-table streams.
    #[must_use]
    pub fn seed_for_indexed(&self, name: &str, index: usize) -> u64 {
        self.seed_for(&format!("{name}:{index}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_is_close() {
        let mut s = ExponentialStream::new(5.0, 123);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| s.next_sample()).sum();
        let mean = total / f64::from(n);
        assert!((mean - 5.0).abs() < 0.1, "empirical mean {mean}");
    }

    #[test]
    fn exponential_is_positive_and_finite() {
        let mut s = ExponentialStream::new(0.1, 9);
        for _ in 0..10_000 {
            let x = s.next_sample();
            assert!(x.is_finite() && x >= 0.0);
        }
    }

    #[test]
    fn exponential_deterministic_per_seed() {
        let a: Vec<f64> = {
            let mut s = ExponentialStream::new(2.0, 42);
            (0..16).map(|_| s.next_sample()).collect()
        };
        let b: Vec<f64> = {
            let mut s = ExponentialStream::new(2.0, 42);
            (0..16).map(|_| s.next_sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_within_bounds() {
        let mut s = UniformStream::new(1.0, 3.0, 7);
        for _ in 0..10_000 {
            let x = s.next_sample();
            assert!((1.0..3.0).contains(&x));
        }
        assert_eq!(s.mean(), Some(2.0));
    }

    #[test]
    fn seed_factory_is_stable_and_distinct() {
        let f = SeedFactory::new(99);
        let s1 = f.seed_for("a");
        let s2 = f.seed_for("b");
        assert_ne!(s1, s2);
        assert_eq!(s1, SeedFactory::new(99).seed_for("a"));
        assert_ne!(s1, SeedFactory::new(100).seed_for("a"));
        assert_ne!(
            f.seed_for_indexed("t", 0),
            f.seed_for_indexed("t", 1),
            "indexed seeds must differ"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        let _ = ExponentialStream::new(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "bounds")]
    fn bad_uniform_bounds_rejected() {
        let _ = UniformStream::new(3.0, 1.0, 1);
    }
}
