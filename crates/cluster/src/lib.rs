//! # ivdss-cluster — sharded multi-engine cluster serving
//!
//! Scales the single [`ServeEngine`](ivdss_serve::engine::ServeEngine)
//! out to a deterministic cluster: a footprint-based
//! [`ShardRouter`] in front of N per-shard
//! engines, each owning a disjoint slice of the replicated tables
//! (its [restricted](ivdss_replication::timelines::SyncTimelines::restricted)
//! sync timelines) and running the full IV-aware serve pipeline.
//!
//! Layer by layer:
//!
//! - [`router`] — route each query to the live shard whose owned
//!   replicas best cover its replicated footprint; whatever the chosen
//!   shard does not own is explicit *partial coverage*, served through
//!   the planner's remote-base fallback rather than failed.
//! - [`cluster`] — the front door: lockstep clock driving in shard-id
//!   order, IV-guarded cross-shard work stealing when a shard idles,
//!   and full-shard outage failover (evacuate, re-route, re-admit)
//!   that never silently loses a query.
//! - [`metrics`] — cluster counters plus per-shard snapshots, whose
//!   histograms merge exactly into the cluster-wide ones. Traces
//!   aggregate through the shared [`Trace`](ivdss_obs::Trace) every
//!   engine emits into, scoped per shard via
//!   [`Tracer::for_shard`](ivdss_obs::Tracer::for_shard).
//!
//! Everything is driven by one starting [`Clock`](ivdss_serve::clock::Clock)
//! and contains no randomness of its own, so seeded cluster runs are
//! bit-for-bit replayable. The differential suite pins the two anchor
//! properties down: a 1-shard cluster is *identical* (plans, IV,
//! metrics) to a bare engine, and stealing never lowers total realized
//! IV.

pub mod cluster;
pub mod metrics;
pub mod router;

pub use cluster::{Cluster, ClusterConfig, ClusterReport, ShardOutage, ShardTimelines};
pub use metrics::{ClusterMetrics, ClusterSnapshot};
pub use router::{RouteDecision, ShardRouter};
