//! Serving-engine metrics: counters, a queue-depth gauge and
//! fixed-boundary histograms, with point-in-time snapshots and a
//! Prometheus-style text exposition.
//!
//! Latency and information-value distributions are
//! [`FixedHistogram`]s: *fixed* bucket boundaries (so expositions from
//! different runs and shards compare bucket by bucket and merge
//! exactly) and exact placement of a sample that lies on an edge. Each
//! quantity is kept once: the completed-query count is the `iv`
//! histogram's count, the delivered-IV total its running sum, and the
//! IV lost to faults the `faults_iv_lost` histogram's sum. Queue depth
//! is a [`TimeWeighted`] gauge (its mean weights each depth by how long
//! the queue sat at it, the standard DES occupancy statistic).
//!
//! The plan cache keeps its own counters ([`PlanCache::hits`] and
//! friends); a snapshot copies them rather than keeping a second count.
//!
//! [`ServeMetrics::snapshot`] freezes everything into a plain-data
//! [`MetricsSnapshot`] holding clones of the histograms;
//! [`MetricsSnapshot::to_text`] renders it (counters end in `_total`,
//! histograms render through [`FixedHistogram::expose`]: cumulative
//! `le` buckets, `_sum` and `_count`).

use ivdss_obs::FixedHistogram;
use ivdss_simkernel::stats::TimeWeighted;
use ivdss_simkernel::time::{SimDuration, SimTime};

use crate::cache::PlanCache;

/// Upper bound (minutes) of the computational/synchronization latency
/// histograms; 24 ten-minute buckets span `[0, 240)`.
pub const LATENCY_HIST_MAX: f64 = 240.0;
/// Bucket count of the latency histograms.
pub const LATENCY_HIST_BINS: usize = 24;
/// Upper bound of the delivered-IV histogram: 20 buckets over `[0, 1)`,
/// sized for unit business value. Queries with larger business values
/// land in the overflow count, which the dump reports explicitly.
pub const IV_HIST_MAX: f64 = 1.0;
/// Bucket count of the delivered-IV histogram.
pub const IV_HIST_BINS: usize = 20;

/// The serving engine's metrics registry.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    queries_submitted: u64,
    queries_admitted: u64,
    queries_shed: u64,
    shed_iv: f64,
    faults_syncs_slipped: u64,
    faults_syncs_dropped: u64,
    faults_outages: u64,
    faults_replans: u64,
    faults_iv_lost: FixedHistogram,
    queue_depth: TimeWeighted,
    cl: FixedHistogram,
    sl: FixedHistogram,
    iv: FixedHistogram,
}

impl ServeMetrics {
    /// Creates an empty registry whose queue-depth gauge starts ticking
    /// at `start`.
    #[must_use]
    pub fn new(start: SimTime) -> Self {
        ServeMetrics {
            queries_submitted: 0,
            queries_admitted: 0,
            queries_shed: 0,
            shed_iv: 0.0,
            faults_syncs_slipped: 0,
            faults_syncs_dropped: 0,
            faults_outages: 0,
            faults_replans: 0,
            faults_iv_lost: FixedHistogram::new(0.0, IV_HIST_MAX, IV_HIST_BINS),
            queue_depth: TimeWeighted::new(start, 0.0),
            cl: FixedHistogram::new(0.0, LATENCY_HIST_MAX, LATENCY_HIST_BINS),
            sl: FixedHistogram::new(0.0, LATENCY_HIST_MAX, LATENCY_HIST_BINS),
            iv: FixedHistogram::new(0.0, IV_HIST_MAX, IV_HIST_BINS),
        }
    }

    /// Counts one submission.
    pub fn record_submitted(&mut self) {
        self.queries_submitted += 1;
    }

    /// Counts one admission into the queue.
    pub fn record_admitted(&mut self) {
        self.queries_admitted += 1;
    }

    /// Counts one IV-aware shed and accumulates the marginal IV the
    /// victim carried at eviction time.
    pub fn record_shed(&mut self, marginal_iv: f64) {
        self.queries_shed += 1;
        self.shed_iv += marginal_iv;
    }

    /// Counts one injected synchronization slip.
    pub fn record_fault_slip(&mut self) {
        self.faults_syncs_slipped += 1;
    }

    /// Counts one injected synchronization drop.
    pub fn record_fault_drop(&mut self) {
        self.faults_syncs_dropped += 1;
    }

    /// Counts one remote-site outage window opening.
    pub fn record_fault_outage(&mut self) {
        self.faults_outages += 1;
    }

    /// Counts one dispatch-time re-plan forced by a fault.
    pub fn record_fault_replan(&mut self) {
        self.faults_replans += 1;
    }

    /// Records the IV a completion lost to degradation (delivered IV vs.
    /// the fault-free planning bound).
    pub fn record_fault_iv_lost(&mut self, iv_lost: f64) {
        self.faults_iv_lost.record(iv_lost);
    }

    /// Records one completed query's latencies and delivered
    /// information value.
    pub fn record_completion(&mut self, cl: SimDuration, sl: SimDuration, iv: f64) {
        self.cl.record(cl.value());
        self.sl.record(sl.value());
        self.iv.record(iv);
    }

    /// Sets the queue-depth gauge at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier update (time-weighted gauges
    /// require monotone time).
    pub fn set_queue_depth(&mut self, now: SimTime, depth: usize) {
        self.queue_depth.set(now, depth as f64);
    }

    /// Freezes the registry into a snapshot; `now` closes the
    /// time-weighted queue-depth window and `cache` supplies the
    /// plan-cache fields. The completion count and the IV totals are
    /// read off the histograms.
    #[must_use]
    pub fn snapshot(&self, now: SimTime, cache: &PlanCache) -> MetricsSnapshot {
        let completed = self.iv.count();
        MetricsSnapshot {
            at: now,
            queries_submitted: self.queries_submitted,
            queries_admitted: self.queries_admitted,
            queries_shed: self.queries_shed,
            shed_iv: self.shed_iv,
            queries_completed: completed,
            plan_cache_hits: cache.hits(),
            plan_cache_misses: cache.misses(),
            plan_cache_invalidations: cache.invalidations(),
            plan_cache_size: cache.len() as u64,
            faults_syncs_slipped: self.faults_syncs_slipped,
            faults_syncs_dropped: self.faults_syncs_dropped,
            faults_outages: self.faults_outages,
            faults_replans: self.faults_replans,
            faults_iv_lost_total: self.faults_iv_lost.sum(),
            faults_iv_lost: self.faults_iv_lost.clone(),
            queue_depth: self.queue_depth.current(),
            queue_depth_peak: self.queue_depth.peak(),
            queue_depth_mean: self.queue_depth.mean_until(now),
            total_delivered_iv: self.iv.sum(),
            mean_delivered_iv: if completed == 0 {
                0.0
            } else {
                self.iv.sum() / completed as f64
            },
            cl: self.cl.clone(),
            sl: self.sl.clone(),
            iv: self.iv.clone(),
        }
    }
}

/// A point-in-time copy of every metric in a [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Queries offered to the engine.
    pub queries_submitted: u64,
    /// Queries accepted into the admission queue.
    pub queries_admitted: u64,
    /// Queries dropped by IV-aware load shedding.
    pub queries_shed: u64,
    /// Total marginal IV the shed queries carried when evicted.
    pub shed_iv: f64,
    /// Queries planned, dispatched and delivered (the `iv`
    /// histogram's count).
    pub queries_completed: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (each populates an entry).
    pub plan_cache_misses: u64,
    /// Cache entries evicted by synchronization events.
    pub plan_cache_invalidations: u64,
    /// Live cache entries at snapshot time.
    pub plan_cache_size: u64,
    /// Injected synchronization slips applied so far.
    pub faults_syncs_slipped: u64,
    /// Injected synchronization drops applied so far.
    pub faults_syncs_dropped: u64,
    /// Remote-site outage windows opened so far.
    pub faults_outages: u64,
    /// Dispatch-time re-plans forced by faults.
    pub faults_replans: u64,
    /// Total IV lost to degradation across completions (the
    /// `faults_iv_lost` histogram's sum).
    pub faults_iv_lost_total: f64,
    /// Distribution of per-completion IV lost to degradation.
    pub faults_iv_lost: FixedHistogram,
    /// Queue depth at snapshot time.
    pub queue_depth: f64,
    /// Highest queue depth observed.
    pub queue_depth_peak: f64,
    /// Time-weighted mean queue depth over the run.
    pub queue_depth_mean: f64,
    /// Sum of delivered information value (the `iv` histogram's sum).
    pub total_delivered_iv: f64,
    /// Mean delivered information value per completed query; zero when
    /// none completed.
    pub mean_delivered_iv: f64,
    /// Computational-latency distribution (minutes).
    pub cl: FixedHistogram,
    /// Synchronization-latency distribution (minutes).
    pub sl: FixedHistogram,
    /// Delivered-IV distribution.
    pub iv: FixedHistogram,
}

impl MetricsSnapshot {
    /// Cache hit rate in `[0, 1]`; zero when no lookups happened.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.plan_cache_hits + self.plan_cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / lookups as f64
        }
    }

    /// Renders the snapshot in a Prometheus-flavoured text format,
    /// without labels.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text("", &mut out);
        out
    }

    /// Appends the text rendering with `labels` (such as `shard="0"`,
    /// or empty for none) on every sample line, so several engines'
    /// sections can share one exposition. The completed count, the
    /// delivered-IV total and the IV lost to faults appear once, as the
    /// `_count` and `_sum` lines of their histograms.
    pub fn write_text(&self, labels: &str, out: &mut String) {
        use std::fmt::Write as _;
        let set = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let _ = writeln!(out, "# ivdss-serve metrics at t={}", self.at.value());
        let samples: [(&str, &dyn std::fmt::Display); 16] = [
            ("serve_queries_submitted_total", &self.queries_submitted),
            ("serve_queries_admitted_total", &self.queries_admitted),
            ("serve_queries_shed_total", &self.queries_shed),
            ("serve_shed_iv_total", &self.shed_iv),
            ("serve_plan_cache_hits_total", &self.plan_cache_hits),
            ("serve_plan_cache_misses_total", &self.plan_cache_misses),
            (
                "serve_plan_cache_invalidations_total",
                &self.plan_cache_invalidations,
            ),
            ("serve_plan_cache_size", &self.plan_cache_size),
            ("serve_queue_depth", &self.queue_depth),
            ("serve_queue_depth_peak", &self.queue_depth_peak),
            ("serve_queue_depth_mean", &self.queue_depth_mean),
            ("serve_delivered_iv_mean", &self.mean_delivered_iv),
            (
                "serve_faults_syncs_slipped_total",
                &self.faults_syncs_slipped,
            ),
            (
                "serve_faults_syncs_dropped_total",
                &self.faults_syncs_dropped,
            ),
            ("serve_faults_outages_total", &self.faults_outages),
            ("serve_faults_replans_total", &self.faults_replans),
        ];
        for (name, value) in samples {
            let _ = writeln!(out, "{name}{set} {value}");
        }
        for (name, histogram) in self.histograms() {
            histogram.expose(&format!("serve_{name}"), labels, out);
        }
    }

    /// The four histograms in rendering order, each with its exposition
    /// name minus the `serve_` (or a cluster's `cluster_`) prefix.
    #[must_use]
    pub fn histograms(&self) -> [(&'static str, &FixedHistogram); 4] {
        [
            ("cl_minutes", &self.cl),
            ("sl_minutes", &self.sl),
            ("delivered_iv", &self.iv),
            ("faults_iv_lost", &self.faults_iv_lost),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_accumulate() {
        let mut m = ServeMetrics::new(SimTime::ZERO);
        m.record_submitted();
        m.record_admitted();
        m.record_completion(SimDuration::new(15.0), SimDuration::new(45.0), 0.62);
        m.record_completion(SimDuration::new(500.0), SimDuration::new(5.0), 1.7);
        let snap = m.snapshot(SimTime::new(10.0), &PlanCache::new(1));
        assert_eq!(snap.queries_completed, 2);
        assert_eq!(snap.cl.count(), 2);
        assert_eq!(snap.cl.overflow(), 1, "500 min exceeds the fixed range");
        assert_eq!(snap.iv.overflow(), 1, "IV above unit BV overflows");
        assert!((snap.total_delivered_iv - 2.32).abs() < 1e-12);
        assert!((snap.mean_delivered_iv - 1.16).abs() < 1e-12);
    }

    #[test]
    fn iv_on_a_bin_edge_lands_in_the_bin_it_opens() {
        let mut m = ServeMetrics::new(SimTime::ZERO);
        let on_edges = [0.15, 0.3, 0.35, 0.6, 0.7, 0.95];
        for iv in on_edges {
            m.record_completion(SimDuration::ZERO, SimDuration::ZERO, iv);
        }
        let snap = m.snapshot(SimTime::ZERO, &PlanCache::new(1));
        for (iv, bin) in on_edges.into_iter().zip([3, 6, 7, 12, 14, 19]) {
            assert_eq!(snap.iv.bins()[bin], 1, "IV {iv} must land in bin {bin}");
            assert_eq!(snap.iv.edges()[bin], iv, "bin {bin} opens at {iv}");
        }
        let text = snap.to_text();
        assert!(text.contains("serve_delivered_iv_bucket{le=\"0.15\"} 0"));
        assert!(text.contains("serve_delivered_iv_bucket{le=\"0.2\"} 1"));
    }

    #[test]
    fn queue_depth_gauge_is_time_weighted() {
        let mut m = ServeMetrics::new(SimTime::ZERO);
        m.set_queue_depth(SimTime::new(0.0), 4);
        m.set_queue_depth(SimTime::new(5.0), 0);
        let snap = m.snapshot(SimTime::new(10.0), &PlanCache::new(1));
        // Depth 4 for half the window, 0 for the other half.
        assert!((snap.queue_depth_mean - 2.0).abs() < 1e-12);
        assert_eq!(snap.queue_depth_peak, 4.0);
        assert_eq!(snap.queue_depth, 0.0);
    }

    #[test]
    fn text_dump_has_cumulative_buckets() {
        let mut m = ServeMetrics::new(SimTime::ZERO);
        m.record_completion(SimDuration::new(5.0), SimDuration::new(5.0), 0.5);
        m.record_completion(SimDuration::new(15.0), SimDuration::new(15.0), 0.9);
        let text = m.snapshot(SimTime::new(1.0), &PlanCache::new(1)).to_text();
        assert!(text.contains("serve_delivered_iv_count 2"));
        assert!(text.contains("serve_cl_minutes_bucket{le=\"10\"} 1"));
        assert!(text.contains("serve_cl_minutes_bucket{le=\"20\"} 2"));
        assert!(text.contains("serve_cl_minutes_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("serve_cl_minutes_sum 20\n"));
        assert!(text.contains("serve_cl_minutes_count 2"));
    }

    #[test]
    fn fault_counters_accumulate_and_dump() {
        let mut m = ServeMetrics::new(SimTime::ZERO);
        m.record_fault_slip();
        m.record_fault_slip();
        m.record_fault_drop();
        m.record_fault_outage();
        m.record_fault_replan();
        m.record_fault_iv_lost(0.25);
        m.record_fault_iv_lost(0.5);
        m.record_shed(0.4);
        let snap = m.snapshot(SimTime::new(1.0), &PlanCache::new(1));
        assert_eq!(snap.faults_syncs_slipped, 2);
        assert_eq!(snap.faults_syncs_dropped, 1);
        assert_eq!(snap.faults_outages, 1);
        assert_eq!(snap.faults_replans, 1);
        assert!((snap.faults_iv_lost_total - 0.75).abs() < 1e-12);
        assert_eq!(snap.faults_iv_lost.count(), 2);
        assert!((snap.shed_iv - 0.4).abs() < 1e-12);
        let text = snap.to_text();
        assert!(text.contains("serve_faults_syncs_slipped_total 2"));
        assert!(text.contains("serve_faults_syncs_dropped_total 1"));
        assert!(text.contains("serve_faults_outages_total 1"));
        assert!(text.contains("serve_faults_replans_total 1"));
        assert!(text.contains("serve_faults_iv_lost_sum 0.75"));
        assert!(text.contains("serve_faults_iv_lost_count 2"));
        assert!(text.contains("serve_shed_iv_total 0.4"));
    }

    #[test]
    fn labelled_text_puts_the_labels_on_every_sample() {
        let mut m = ServeMetrics::new(SimTime::ZERO);
        m.record_completion(SimDuration::new(5.0), SimDuration::new(5.0), 0.5);
        let snap = m.snapshot(SimTime::new(1.0), &PlanCache::new(1));
        let mut text = String::new();
        snap.write_text("shard=\"3\"", &mut text);
        assert!(text.contains("serve_delivered_iv_count{shard=\"3\"} 1\n"));
        assert!(text.contains("serve_cl_minutes_bucket{shard=\"3\",le=\"10\"} 1\n"));
        assert!(text.contains("serve_delivered_iv_sum{shard=\"3\"} 0.5\n"));
        let samples = text.lines().filter(|l| !l.starts_with('#'));
        assert!(samples.clone().count() > 0);
        for line in samples {
            assert!(line.contains("{shard=\"3\""), "unlabelled sample: {line}");
        }
    }

    #[test]
    fn cache_hit_rate_handles_zero_lookups() {
        let m = ServeMetrics::new(SimTime::ZERO);
        let mut snap = m.snapshot(SimTime::ZERO, &PlanCache::new(1));
        assert_eq!(snap.cache_hit_rate(), 0.0);
        snap.plan_cache_hits = 2;
        snap.plan_cache_misses = 1;
        assert!((snap.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
