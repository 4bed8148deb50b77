//! Shard-scaling experiment — the cluster front door across shard counts.
//!
//! Not a figure from the paper: a scale-out study the paper's §5
//! (deployment discussion) motivates. The *same* seeded catalog,
//! workload and arrival stream are served by clusters of 1, 2, 4 and 8
//! shards; each point reports routing coverage, work-stealing activity
//! and total realized IV. Every shard count sees identical inputs, so
//! differences between points are attributable to sharding alone, and
//! the whole sweep is reproducible from `ClusterScalingConfig::seed`.
//! The `cluster_scaling` bench bin owns the sweep loop and the table.

use ivdss_catalog::placement::PlacementStrategy;
use ivdss_catalog::sharding::{ShardAssignment, ShardStrategy};
use ivdss_catalog::synthetic::{synthetic_catalog, SyntheticConfig};
use ivdss_cluster::{Cluster, ClusterConfig, ShardRouter, ShardTimelines};
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::StylizedCostModel;
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_serve::clock::DesClock;
use ivdss_serve::engine::ServeConfig;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::SimDuration;
use ivdss_workloads::stream::ArrivalStream;
use ivdss_workloads::synthetic::{random_queries, RandomQueryConfig};

/// Configuration of the shard-scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterScalingConfig {
    /// Open-loop queries per point.
    pub queries: usize,
    /// Mean exponential inter-arrival time. Tight arrivals (relative to
    /// plan durations) build shard queues and give work stealing
    /// something to move.
    pub mean_interarrival: f64,
    /// Tables in the synthetic catalog.
    pub tables: usize,
    /// Sites in the synthetic catalog.
    pub sites: usize,
    /// Replicated tables (the shardable portion of the catalog).
    pub replicated_tables: usize,
    /// Root seed for catalog, workload and arrivals.
    pub seed: u64,
}

impl Default for ClusterScalingConfig {
    fn default() -> Self {
        ClusterScalingConfig {
            queries: 200,
            mean_interarrival: 0.5,
            tables: 16,
            sites: 4,
            replicated_tables: 10,
            seed: 0x5CA1E,
        }
    }
}

/// One swept shard count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterScalingPoint {
    /// Shards in the cluster.
    pub shards: usize,
    /// Queries routed with full replicated-footprint coverage.
    pub routed_full: u64,
    /// Queries routed with partial coverage (remote-base fallback).
    pub routed_partial: u64,
    /// Cross-shard work-stealing transfers.
    pub steals: u64,
    /// Summed strict IV improvement the steal guard banked.
    pub steal_iv_gain: f64,
    /// Queries completed across all shards.
    pub completed: u64,
    /// Queries shed across all shards.
    pub shed: u64,
    /// Total realized information value.
    pub total_iv: f64,
}

/// Shard counts the `cluster_scaling` bench bin sweeps.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs one shard count over the seeded workload.
#[must_use]
pub fn run_cluster_point(config: &ClusterScalingConfig, shards: usize) -> ClusterScalingPoint {
    let seeds = SeedFactory::new(config.seed);
    let catalog = synthetic_catalog(&SyntheticConfig {
        tables: config.tables,
        sites: config.sites,
        placement: PlacementStrategy::Skewed,
        replicated_tables: config.replicated_tables,
        mean_sync_period: 5.0,
        seed: seeds.seed_for("catalog"),
        ..SyntheticConfig::default()
    })
    .expect("cluster-scaling catalog configuration is valid");
    let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
    let assignment = ShardAssignment::partition(
        &catalog,
        shards,
        ShardStrategy::Balanced,
        seeds.seed_for("shards"),
    );
    let router = ShardRouter::new(assignment);
    let shard_timelines = ShardTimelines::build(&timelines, &router);
    let model = StylizedCostModel::paper_fig4();
    // A zero-tolerance dispatch gate and a CL-dominant discount build
    // real per-shard queues, so stealing has both work to move and an
    // IV incentive to move it.
    let mut serve = ServeConfig::new(DiscountRates::new(0.05, 0.01));
    serve.dispatch_backlog = SimDuration::ZERO;

    let templates = random_queries(&RandomQueryConfig {
        queries: 12,
        tables: config.tables,
        max_tables_per_query: 4,
        weight_range: (0.8, 2.5),
        seed: seeds.seed_for("queries"),
    });
    let mut stream = ArrivalStream::new(
        templates,
        config.mean_interarrival,
        seeds.seed_for("arrivals"),
    );

    let mut cluster = Cluster::new(
        &catalog,
        &shard_timelines,
        &model,
        router,
        ClusterConfig { serve, steal: true },
        DesClock::new(),
    );
    for _ in 0..config.queries {
        cluster
            .submit(stream.next_request())
            .expect("cluster-scaling submission plans");
    }
    cluster.drain().expect("cluster-scaling drain plans");
    let snapshot = cluster.snapshot();

    ClusterScalingPoint {
        shards,
        routed_full: snapshot.routed_full,
        routed_partial: snapshot.routed_partial,
        steals: snapshot.steals,
        steal_iv_gain: snapshot.steal_iv_gain,
        completed: snapshot.queries_completed(),
        shed: snapshot.queries_shed(),
        total_iv: snapshot.total_delivered_iv(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClusterScalingConfig {
        ClusterScalingConfig {
            queries: 60,
            ..ClusterScalingConfig::default()
        }
    }

    /// The sweep the `cluster_scaling` bin runs, one point per shard
    /// count.
    fn sweep() -> Vec<ClusterScalingPoint> {
        SHARD_COUNTS
            .into_iter()
            .map(|shards| run_cluster_point(&small(), shards))
            .collect()
    }

    #[test]
    fn every_point_conserves_queries() {
        let points = sweep();
        assert_eq!(points.len(), SHARD_COUNTS.len());
        for p in &points {
            assert_eq!(
                p.completed + p.shed,
                60,
                "{} shards: completions + shed must cover every submission",
                p.shards
            );
            assert_eq!(p.routed_full + p.routed_partial, 60);
            assert!(p.total_iv > 0.0);
        }
    }

    #[test]
    fn multi_shard_points_exercise_stealing() {
        let points = sweep();
        assert_eq!(points[0].steals, 0, "one shard has nobody to rob");
        let multi_steals: u64 = points[1..].iter().map(|p| p.steals).sum();
        assert!(
            multi_steals > 0,
            "the sweep workload must exercise work stealing"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(
            sweep(),
            sweep(),
            "same config must reproduce the same sweep"
        );
    }
}
