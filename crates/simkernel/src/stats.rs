//! Statistics collectors for simulation outputs.
//!
//! Every figure in the paper reports an aggregate over many simulated
//! queries (mean information value, per-query latencies, …). These
//! collectors provide numerically stable online moments ([`OnlineStats`]),
//! time-weighted averages of gauges ([`TimeWeighted`]) and exact
//! quantiles ([`SampleSet`]).

use std::fmt;

use crate::time::SimTime;

/// Numerically stable online mean/variance/min/max (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use ivdss_simkernel::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another collector into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations, or `0.0` if none were recorded.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of the observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Population variance, or `0.0` with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

/// Time-weighted average of a piecewise-constant gauge (e.g. queue length).
///
/// Call [`TimeWeighted::set`] whenever the gauge changes; the collector
/// integrates `value × dt` between updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
    peak: f64,
}

impl TimeWeighted {
    /// Creates a gauge with initial `value` at time `start`.
    #[must_use]
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: value,
            weighted_sum: 0.0,
            start,
            peak: value,
        }
    }

    /// Updates the gauge to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: f64) {
        assert!(now >= self.last_time, "gauge updates must be in time order");
        self.weighted_sum += self.last_value * (now - self.last_time).value();
        self.last_time = now;
        self.last_value = value;
        self.peak = self.peak.max(value);
    }

    /// Adds `delta` to the gauge at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.last_value + delta;
        self.set(now, v);
    }

    /// The current gauge value.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Largest value the gauge has taken.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean over `[start, now]`.
    ///
    /// Returns the current value if no time has elapsed.
    #[must_use]
    pub fn mean_until(&self, now: SimTime) -> f64 {
        let elapsed = (now - self.start).value();
        if elapsed <= 0.0 {
            return self.last_value;
        }
        let tail = self.last_value * (now - self.last_time).value();
        (self.weighted_sum + tail) / elapsed
    }
}

/// Stores all samples for exact quantiles — fine at experiment scale
/// (thousands of queries per run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Creates an empty sample set.
    #[must_use]
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (nearest-rank), `0.0 <= q <= 1.0`.
    ///
    /// Returns `None` on an empty set.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be within [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
        let rank = ((self.samples.len() as f64) * q).ceil() as usize;
        let idx = rank.saturating_sub(1).min(self.samples.len() - 1);
        Some(self.samples[idx])
    }

    /// Mean of the observations, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_collector_tracks_min_and_max_like_new() {
        let mut s = OnlineStats::default();
        s.record(5.0);
        s.record(7.0);
        assert_eq!((s.min(), s.max()), (Some(5.0), Some(7.0)));
        let mut neg = OnlineStats::default();
        neg.record(-3.0);
        assert_eq!((neg.min(), neg.max()), (Some(-3.0), Some(-3.0)));
        assert_eq!(OnlineStats::default(), OnlineStats::new());
    }

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(3.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 0.0);
        g.set(SimTime::new(10.0), 2.0); // 0 for 10 units
        g.set(SimTime::new(20.0), 4.0); // 2 for 10 units
                                        // 4 for 10 units until t=30
        let mean = g.mean_until(SimTime::new(30.0));
        assert!((mean - 2.0).abs() < 1e-12, "mean {mean}");
        assert_eq!(g.current(), 4.0);
        assert_eq!(g.peak(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut g = TimeWeighted::new(SimTime::ZERO, 1.0);
        g.add(SimTime::new(5.0), 2.0);
        assert_eq!(g.current(), 3.0);
        g.add(SimTime::new(5.0), -3.0);
        assert_eq!(g.current(), 0.0);
        assert_eq!(g.peak(), 3.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = SampleSet::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(3.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn quantile_on_empty_is_none() {
        let mut s = SampleSet::new();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn display_is_nonempty() {
        let mut s = OnlineStats::new();
        s.record(1.0);
        assert!(!s.to_string().is_empty());
    }
}
