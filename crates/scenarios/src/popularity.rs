//! Zipf-skewed popularity sampling.
//!
//! Real workloads concentrate on a few hot tables (cs/0007044 models
//! exactly this heterogeneity). [`ZipfSampler`] draws template indices
//! with probability `P(i) ∝ (i + 1)^(−s)` via a precomputed prefix-sum
//! CDF and binary search — O(log n) per draw, no rejection, and
//! bit-identical per seed. [`ZipfSampler::sample_bounded`] renormalizes
//! over an eligibility prefix, which is how schema-growth scenarios
//! keep newborn-table templates out of the draw until their birth.

use ivdss_simkernel::rng::{Stream, UniformStream};

/// A seeded Zipf(`exponent`) sampler over indices `0..len`.
///
/// # Examples
///
/// ```
/// use ivdss_scenarios::popularity::ZipfSampler;
///
/// let mut z = ZipfSampler::new(100, 1.1, 7);
/// let i = z.sample();
/// assert!(i < 100);
/// // Bounded draws never escape the eligibility prefix.
/// assert!(z.sample_bounded(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// `prefix[i]` = sum of weights of ranks `0..=i`.
    prefix: Vec<f64>,
    draws: UniformStream,
}

impl ZipfSampler {
    /// Creates a sampler over `len` ranks with skew `exponent`
    /// (`exponent = 0` degenerates to uniform).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or `exponent` is negative or non-finite.
    #[must_use]
    pub fn new(len: usize, exponent: f64, seed: u64) -> Self {
        assert!(len > 0, "need at least one rank");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "exponent must be non-negative"
        );
        let mut prefix = Vec::with_capacity(len);
        let mut total = 0.0;
        for i in 0..len {
            total += ((i + 1) as f64).powf(-exponent);
            prefix.push(total);
        }
        ZipfSampler {
            prefix,
            draws: UniformStream::new(0.0, 1.0, seed),
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// `true` iff the sampler has no ranks (never: `new` rejects 0).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }

    /// The probability mass of rank `i` under the full distribution (a
    /// read-back for tests).
    #[cfg(test)]
    fn probability(&self, i: usize) -> f64 {
        let total = *self.prefix.last().expect("non-empty by construction");
        let below = if i == 0 { 0.0 } else { self.prefix[i - 1] };
        (self.prefix[i] - below) / total
    }

    /// Draws a rank from the full distribution.
    pub fn sample(&mut self) -> usize {
        let n = self.len();
        self.sample_bounded(n)
    }

    /// Draws a rank from the distribution renormalized over the first
    /// `eligible` ranks — used when only a prefix of the catalog exists
    /// yet (schema growth).
    ///
    /// # Panics
    ///
    /// Panics if `eligible` is zero or exceeds `len()`.
    pub fn sample_bounded(&mut self, eligible: usize) -> usize {
        assert!(
            eligible > 0 && eligible <= self.prefix.len(),
            "eligible prefix must be within 1..=len"
        );
        let total = self.prefix[eligible - 1];
        let target = self.draws.next_sample() * total;
        // First rank whose cumulative weight exceeds the target.
        self.prefix[..eligible].partition_point(|&cum| cum <= target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(50, 1.1, 0);
        let sum: f64 = (0..50).map(|i| z.probability(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for i in 1..50 {
            assert!(z.probability(i) < z.probability(i - 1));
        }
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0, 0);
        for i in 0..10 {
            assert!((z.probability(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_skew_matches_head_mass() {
        let mut z = ZipfSampler::new(100, 1.1, 9);
        let head_mass: f64 = (0..10).map(|i| z.probability(i)).sum();
        let draws = 20_000;
        let head_hits = (0..draws).filter(|_| z.sample() < 10).count();
        let observed = head_hits as f64 / draws as f64;
        assert!(
            (observed - head_mass).abs() < 0.02,
            "head mass {head_mass}, observed {observed}"
        );
    }

    #[test]
    fn bounded_sampling_renormalizes() {
        let mut z = ZipfSampler::new(100, 1.1, 4);
        for _ in 0..5_000 {
            assert!(z.sample_bounded(7) < 7);
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        let a: Vec<usize> = {
            let mut z = ZipfSampler::new(30, 0.9, 11);
            (0..200).map(|_| z.sample()).collect()
        };
        let b: Vec<usize> = {
            let mut z = ZipfSampler::new(30, 0.9, 11);
            (0..200).map(|_| z.sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "eligible prefix")]
    fn zero_eligible_rejected() {
        let mut z = ZipfSampler::new(5, 1.0, 0);
        let _ = z.sample_bounded(0);
    }
}
