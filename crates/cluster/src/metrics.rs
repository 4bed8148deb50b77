//! Cluster-level counters and the aggregated snapshot.
//!
//! Each shard's [`ServeEngine`](ivdss_serve::engine::ServeEngine) keeps
//! its own full [`ServeMetrics`](ivdss_serve::metrics::ServeMetrics)
//! registry; the cluster adds only what no single engine can see —
//! routing coverage, steals, shard outages and failovers — and its
//! snapshot embeds every per-shard [`MetricsSnapshot`] next to the
//! cross-shard sums. The cluster-wide latency and IV histograms are
//! the shards' [`FixedHistogram`](ivdss_obs::FixedHistogram)s merged
//! at render time. [`FixedHistogram::merge`](ivdss_obs::FixedHistogram::merge)
//! is exact, so they equal one histogram fed every shard's
//! completions, with or without a tracer attached.

use ivdss_serve::metrics::MetricsSnapshot;
use ivdss_simkernel::time::SimTime;

use crate::router::RouteDecision;

/// Counters of cross-shard decisions the front door makes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterMetrics {
    submitted: u64,
    routed_full: u64,
    routed_partial: u64,
    unroutable_shed: u64,
    steals: u64,
    steal_iv_gain: f64,
    shard_outages: u64,
    failover_rerouted: u64,
    failover_shed: u64,
}

impl ClusterMetrics {
    /// Fresh, all-zero counters.
    #[must_use]
    pub fn new() -> Self {
        ClusterMetrics::default()
    }

    /// Counts a query offered to the cluster front door.
    pub fn record_submitted(&mut self) {
        self.submitted += 1;
    }

    /// Counts a routing decision by its coverage.
    pub fn record_routed(&mut self, decision: &RouteDecision) {
        if decision.is_full() {
            self.routed_full += 1;
        } else {
            self.routed_partial += 1;
        }
    }

    /// Counts a query dropped because no live shard could take it.
    pub fn record_unroutable(&mut self) {
        self.unroutable_shed += 1;
    }

    /// Counts a work-stealing transfer and the strict IV improvement
    /// that justified it.
    pub fn record_steal(&mut self, iv_gain: f64) {
        self.steals += 1;
        self.steal_iv_gain += iv_gain;
    }

    /// Counts an observed shard-outage window.
    pub fn record_shard_outage(&mut self) {
        self.shard_outages += 1;
    }

    /// Counts the outcome of one shard failover.
    pub fn record_failover(&mut self, rerouted: u64, shed: u64) {
        self.failover_rerouted += rerouted;
        self.failover_shed += shed;
    }

    /// Point-in-time snapshot combining the cluster counters with every
    /// shard's full metrics snapshot.
    #[must_use]
    pub fn snapshot(&self, at: SimTime, shards: Vec<MetricsSnapshot>) -> ClusterSnapshot {
        ClusterSnapshot {
            at,
            queries_submitted: self.submitted,
            routed_full: self.routed_full,
            routed_partial: self.routed_partial,
            unroutable_shed: self.unroutable_shed,
            steals: self.steals,
            steal_iv_gain: self.steal_iv_gain,
            shard_outages: self.shard_outages,
            failover_rerouted: self.failover_rerouted,
            failover_shed: self.failover_shed,
            shards,
        }
    }
}

/// A point-in-time copy of the cluster counters plus each shard's
/// metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Queries offered to the cluster front door.
    pub queries_submitted: u64,
    /// Queries routed to a shard covering their whole replicated
    /// footprint.
    pub routed_full: u64,
    /// Queries routed with partial coverage (remote-base fallback for
    /// the missing tables).
    pub routed_partial: u64,
    /// Queries dropped because every shard was down.
    pub unroutable_shed: u64,
    /// Work-stealing transfers between shards.
    pub steals: u64,
    /// Summed strict IV improvement over the stay-put plan across all
    /// steals.
    pub steal_iv_gain: f64,
    /// Shard-outage windows observed.
    pub shard_outages: u64,
    /// Queries re-admitted to surviving shards during failovers.
    pub failover_rerouted: u64,
    /// Queries dropped during failovers (no live shard).
    pub failover_shed: u64,
    /// Per-shard engine snapshots, in shard-id order.
    pub shards: Vec<MetricsSnapshot>,
}

impl ClusterSnapshot {
    /// Sum of queries completed across shards.
    #[must_use]
    pub fn queries_completed(&self) -> u64 {
        self.shards.iter().map(|s| s.queries_completed).sum()
    }

    /// Queries dropped anywhere: engine-side IV-aware shedding plus
    /// cluster-side unroutable drops.
    #[must_use]
    pub fn queries_shed(&self) -> u64 {
        self.shards.iter().map(|s| s.queries_shed).sum::<u64>() + self.unroutable_shed
    }

    /// Sum of delivered information value across shards.
    #[must_use]
    pub fn total_delivered_iv(&self) -> f64 {
        self.shards.iter().map(|s| s.total_delivered_iv).sum()
    }

    /// Renders the cluster counters, the cluster-wide histograms
    /// (each shard's merged), then each shard's full section with every
    /// sample labelled `shard="<i>"`, so no two lines share a name and
    /// label set. Completed queries, delivered IV and IV lost to faults
    /// appear once, as the merged histograms' `_count` and `_sum`.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# ivdss-cluster metrics at t={}", self.at.value());
        let _ = writeln!(out, "cluster_shards {}", self.shards.len());
        let counters: [(&str, &dyn std::fmt::Display); 10] = [
            ("cluster_queries_submitted_total", &self.queries_submitted),
            ("cluster_routed_full_total", &self.routed_full),
            ("cluster_routed_partial_total", &self.routed_partial),
            ("cluster_unroutable_shed_total", &self.unroutable_shed),
            ("cluster_steals_total", &self.steals),
            ("cluster_steal_iv_gain_total", &self.steal_iv_gain),
            ("cluster_shard_outages_total", &self.shard_outages),
            ("cluster_failover_rerouted_total", &self.failover_rerouted),
            ("cluster_failover_shed_total", &self.failover_shed),
            ("cluster_queries_shed_total", &self.queries_shed()),
        ];
        for (name, value) in counters {
            let _ = writeln!(out, "{name} {value}");
        }
        if let Some((first, rest)) = self.shards.split_first() {
            for (i, (name, histogram)) in first.histograms().into_iter().enumerate() {
                let mut merged = histogram.clone();
                for shard in rest {
                    merged.merge(shard.histograms()[i].1);
                }
                merged.expose(&format!("cluster_{name}"), "", &mut out);
            }
        }
        for (idx, shard) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "# shard {idx}");
            shard.write_text(&format!("shard=\"{idx}\""), &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivdss_catalog::ids::ShardId;
    use ivdss_catalog::ids::TableId;

    fn full(shard: u32) -> RouteDecision {
        RouteDecision {
            shard: ShardId::new(shard),
            covered: 2,
            missing: Vec::new(),
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let mut m = ClusterMetrics::new();
        m.record_submitted();
        m.record_submitted();
        m.record_routed(&full(0));
        m.record_routed(&RouteDecision {
            shard: ShardId::new(1),
            covered: 1,
            missing: vec![TableId::new(3)],
        });
        m.record_steal(0.25);
        m.record_shard_outage();
        m.record_failover(3, 1);
        m.record_unroutable();
        let snap = m.snapshot(SimTime::new(10.0), Vec::new());
        assert_eq!(snap.queries_submitted, 2);
        assert_eq!(snap.routed_full, 1);
        assert_eq!(snap.routed_partial, 1);
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.steal_iv_gain, 0.25);
        assert_eq!(snap.shard_outages, 1);
        assert_eq!(snap.failover_rerouted, 3);
        assert_eq!(snap.failover_shed, 1);
        assert_eq!(snap.queries_shed(), 1, "unroutable counts as shed");
    }

    #[test]
    fn to_text_renders_cluster_lines_and_shard_sections() {
        let mut m = ClusterMetrics::new();
        m.record_submitted();
        let snap = m.snapshot(SimTime::new(1.0), Vec::new());
        let text = snap.to_text();
        assert!(text.contains("cluster_queries_submitted_total 1"));
        assert!(text.contains("cluster_shards 0"));
        assert!(text.starts_with("# ivdss-cluster metrics at t=1"));
    }
}
