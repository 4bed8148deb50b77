//! Fixed-boundary histograms with exact merge semantics.
//!
//! [`FixedHistogram`] is the workspace's one histogram type. Bin
//! placement is a **binary search over precomputed edges**, not a
//! floating-point division. `(x - low) / width as usize` can misplace a
//! sample lying exactly on a bin boundary (with 20 bins over `[0, 1)`,
//! 0.15 divides to 2.9999999999999996 and lands one bin low — the same
//! ULP class of bug as the old `Periodic::last_completion_at`
//! regression); searching the edge array makes
//! boundary behaviour exact *by construction*: a sample equal to an
//! interior edge always lands in the bin whose inclusive lower edge it
//! is.
//!
//! Merging adds per-bin integer counts of identically-bounded
//! histograms, so `merge(a, b)` is *exactly* the histogram of the
//! union of the recorded samples — counts, bucket contents and
//! nearest-rank quantiles all coincide with a single-pass histogram.
//! The property suite in `tests/hist_props.rs` checks this over ~200
//! seeded cases.

use std::fmt::Write as _;

/// A histogram over `[low, high)` with `n` equal-width bins, exact
/// boundary placement and exact merge.
///
/// Out-of-range samples are tallied in underflow/overflow counters, so
/// counts are conserved no matter what is recorded.
///
/// # Examples
///
/// ```
/// use ivdss_obs::FixedHistogram;
///
/// let mut h = FixedHistogram::new(0.0, 10.0, 5);
/// h.record(0.0); // inclusive lower edge of bin 0
/// h.record(2.0); // exactly on the bin 0/1 boundary → bin 1
/// h.record(10.0); // at the exclusive upper bound → overflow
/// assert_eq!(h.bins(), &[1, 1, 0, 0, 0]);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    /// `bins.len() + 1` ascending edges; bin `i` covers
    /// `[edges[i], edges[i+1])`.
    edges: Vec<f64>,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl FixedHistogram {
    /// Creates a histogram over `[low, high)` with `bins` equal-width
    /// bins. The last edge is pinned to exactly `high`, so the
    /// exclusive upper bound is representable-exact.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, if the bounds are not finite, or if
    /// `low >= high`.
    #[must_use]
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(
            low.is_finite() && high.is_finite() && low < high,
            "histogram bounds must be finite with low < high"
        );
        let n = bins as f64;
        let mut edges: Vec<f64> = (0..bins)
            .map(|i| low + (high - low) * (i as f64) / n)
            .collect();
        edges.push(high);
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "degenerate bins");
        FixedHistogram {
            edges,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one sample. Values below `low` count as underflow,
    /// values at or above `high` as overflow; interior edges belong to
    /// the bin they open (inclusive lower edge).
    pub fn record(&mut self, x: f64) {
        if x < self.edges[0] {
            self.underflow += 1;
        } else if x >= self.edges[self.bins.len()] {
            self.overflow += 1;
        } else {
            // First edge strictly greater than x closes x's bin. For
            // x == edges[i] every edge up to i satisfies `<= x`, so the
            // partition point is i + 1 and x lands in bin i — exact at
            // every representable boundary.
            let idx = self.edges.partition_point(|&e| e <= x);
            self.bins[idx - 1] += 1;
        }
        self.count += 1;
        self.sum += x;
    }

    /// Per-bin counts.
    #[must_use]
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The bin edges: `bins().len() + 1` ascending values.
    #[must_use]
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Samples below the first edge.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the last edge.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including out-of-range ones.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every recorded sample (including out-of-range ones).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// `true` if identically bounded (bitwise-equal edges), i.e.
    /// mergeable.
    #[must_use]
    pub fn same_shape(&self, other: &FixedHistogram) -> bool {
        self.edges.len() == other.edges.len()
            && self
                .edges
                .iter()
                .zip(&other.edges)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Adds `other`'s tallies into `self`. Exact: the result equals a
    /// single histogram that recorded both sample streams (in either
    /// interleaving — integer bin counts commute; the floating `sum`
    /// is added as one term per histogram, so merged sums equal
    /// `sum_a + sum_b` exactly as written).
    ///
    /// # Panics
    ///
    /// Panics if the histograms are not identically bounded.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert!(
            self.same_shape(other),
            "cannot merge histograms with different bounds"
        );
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The nearest-rank `q`-quantile resolved to bucket bounds: the
    /// upper edge of the bucket containing the `⌈q·count⌉`-th smallest
    /// sample. Underflow resolves to the first edge, overflow to
    /// `+∞`. Returns `None` on an empty histogram or `q` outside
    /// `[0, 1]`.
    ///
    /// Because it is a pure function of the integer bucket counts,
    /// merged histograms report exactly the quantiles of a single-pass
    /// histogram over the union of the samples.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.edges[0]);
        }
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return Some(self.edges[i + 1]);
            }
        }
        Some(f64::INFINITY)
    }

    /// Appends a Prometheus-style exposition of this histogram:
    /// cumulative `_bucket` lines with `le` upper bounds (underflow
    /// folded into the first bucket, overflow into `+Inf`), then
    /// `_sum` and `_count`. `labels` (such as `shard="0"`, or empty
    /// for none) go on every line, before `le`.
    pub fn expose(&self, name: &str, labels: &str, out: &mut String) {
        let (bucket, set) = if labels.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{labels},"), format!("{{{labels}}}"))
        };
        let mut cumulative = self.underflow;
        for (i, &c) in self.bins.iter().enumerate() {
            cumulative += c;
            let _ = writeln!(
                out,
                "{name}_bucket{{{bucket}le=\"{}\"}} {cumulative}",
                self.edges[i + 1]
            );
        }
        cumulative += self.overflow;
        let _ = writeln!(out, "{name}_bucket{{{bucket}le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum{set} {}", self.sum);
        let _ = writeln!(out, "{name}_count{set} {cumulative}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_exact_at_every_edge() {
        let mut h = FixedHistogram::new(0.0, 1.0, 20);
        let edges = h.edges().to_vec();
        for (i, &e) in edges.iter().enumerate() {
            h.record(e);
            if i < 20 {
                assert_eq!(h.bins()[i], 1, "edge {e} must open bin {i}");
            } else {
                assert_eq!(h.overflow(), 1, "the last edge is exclusive");
            }
        }
        assert_eq!(h.count(), 21);
        assert_eq!(h.underflow(), 0);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = FixedHistogram::new(0.0, 10.0, 4);
        let mut b = FixedHistogram::new(0.0, 10.0, 4);
        let mut all = FixedHistogram::new(0.0, 10.0, 4);
        for (h, xs) in [(&mut a, [-1.0, 2.5, 5.0]), (&mut b, [5.0, 9.9, 12.0])] {
            for x in xs {
                h.record(x);
                all.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let mut h = FixedHistogram::new(0.0, 4.0, 4);
        for x in [0.5, 1.5, 2.5, 3.5] {
            h.record(x);
        }
        assert_eq!(h.quantile(0.25), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        h.record(99.0);
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(FixedHistogram::new(0.0, 1.0, 1).quantile(0.5), None);
    }

    #[test]
    fn exposition_is_cumulative() {
        let mut h = FixedHistogram::new(0.0, 2.0, 2);
        h.record(-1.0);
        h.record(0.5);
        h.record(3.0);
        let mut out = String::new();
        h.expose("obs_test", "", &mut out);
        assert_eq!(
            out,
            "obs_test_bucket{le=\"1\"} 2\n\
             obs_test_bucket{le=\"2\"} 2\n\
             obs_test_bucket{le=\"+Inf\"} 3\n\
             obs_test_sum 2.5\n\
             obs_test_count 3\n"
        );
        let mut labelled = String::new();
        h.expose("obs_test", "shard=\"1\"", &mut labelled);
        assert!(labelled.contains("obs_test_bucket{shard=\"1\",le=\"+Inf\"} 3\n"));
        assert!(labelled.contains("obs_test_sum{shard=\"1\"} 2.5\n"));
        assert!(labelled.contains("obs_test_count{shard=\"1\"} 3\n"));
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn mismatched_merge_rejected() {
        let mut a = FixedHistogram::new(0.0, 1.0, 4);
        a.merge(&FixedHistogram::new(0.0, 2.0, 4));
    }
}
