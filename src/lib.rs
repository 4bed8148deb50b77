//! # ivdss — Information Value-Driven Near Real-Time Decision Support
//!
//! A full Rust reproduction of *Information Value-driven Near Real-Time
//! Decision Support Systems* (Ying Yan, Wen-Syan Li, Jian Xu — ICDCS
//! 2009): a federated decision-support system that routes and schedules
//! queries to maximize the **information value** of each report,
//!
//! ```text
//! IV = BusinessValue × (1 − λ_CL)^CL × (1 − λ_SL)^SL
//! ```
//!
//! where `CL` is the computational latency and `SL` the synchronization
//! latency of the data the plan read.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`simkernel`] | Discrete-event simulation kernel (clock, events, random streams, statistics, server calendars) |
//! | [`catalog`] | Tables, sites, placement, replication plans; TPC-H and synthetic schemas |
//! | [`costmodel`] | Query footprints; stylized and analytic cost models for one local/remote combination; a least-squares fit of local-scan latency from measured scans |
//! | [`replication`] | Synchronization schedules and timelines, sync-event and revision cursors |
//! | [`core`] | **The paper's contribution**: the IV model, plan evaluation, the bounded scatter-and-gather optimal plan search and its exhaustive oracle, a fork-join pool for planning many queries at once, IVQP/Federation/Warehouse planners, starvation aging |
//! | [`ga`] | Genetic algorithm with permutation genomes and order crossover |
//! | [`mqo`] | Workload formation and GA-driven multi-query (order) optimization |
//! | [`workloads`] | The 22 TPC-H query footprints, synthetic query generators, arrival streams |
//! | [`faults`] | Deterministic fault injection: seeded sync slips/drops, site outages, cost jitter |
//! | [`obs`] | Deterministic observability: sim-time-stamped structured traces, plan-decision audits, exact fixed-boundary histograms, Prometheus text exposition |
//! | [`serve`] | Online query-serving engine: IV-aware admission, sync-phase plan caching, calendar dispatch, metrics |
//! | [`cluster`] | Sharded multi-engine cluster serving: footprint-based shard routing with explicit partial-coverage fallback, IV-guarded work stealing, shard-outage failover, aggregated metrics |
//! | [`net`] | TCP front door: length-delimited binary protocol, hand-rolled `std::net` server over the serving engines, blocking client |
//! | [`sched`] | Adaptive synchronization scheduling: refresh schedules as a decision variable — marginal-IV greedy + GA search at the fixed schedules' refresh budget, behind a never-worse guard |
//! | [`scenarios`] | Seeded composable traffic scenarios: Zipf popularity, diurnal/flash-crowd arrivals, multi-tenant SLA mixes, schema growth with cold timelines |
//! | [`storage`] | Record-page storage engine: slotted pages over catalog tables, full table scans with pre-execution estimates and deterministic measured latencies (the calibration study's samples) |
//! | [`dsim`] | End-to-end DSS simulator and the per-figure experiment drivers |
//!
//! # Quickstart
//!
//! ```
//! use ivdss::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's TPC-H setup: 12 tables over 3 sites, 5 replicated.
//! let catalog = tpch_catalog(&TpchConfig::default())?;
//! let timelines = SyncTimelines::from_plan(catalog.replication(), SyncMode::Deterministic);
//! let model = AnalyticCostModel::paper_scale();
//!
//! let ctx = PlanContext {
//!     catalog: &catalog,
//!     timelines: &timelines,
//!     model: &model,
//!     rates: DiscountRates::new(0.01, 0.05),
//!     queues: &NoQueues,
//! };
//! let query = QuerySpec::new(QueryId::new(1), catalog.table_ids()[..4].to_vec());
//! let request = QueryRequest::new(query, SimTime::new(11.0));
//!
//! let plan = IvqpPlanner::new().select_plan(&ctx, &request)?;
//! println!("IV = {}, {}", plan.information_value, plan.latencies);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ivdss_catalog as catalog;
pub use ivdss_cluster as cluster;
pub use ivdss_core as core;
pub use ivdss_costmodel as costmodel;
pub use ivdss_dsim as dsim;
pub use ivdss_faults as faults;
pub use ivdss_ga as ga;
pub use ivdss_mqo as mqo;
pub use ivdss_net as net;
pub use ivdss_obs as obs;
pub use ivdss_replication as replication;
pub use ivdss_scenarios as scenarios;
pub use ivdss_sched as sched;
pub use ivdss_serve as serve;
pub use ivdss_simkernel as simkernel;
pub use ivdss_storage as storage;
pub use ivdss_workloads as workloads;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use ivdss_catalog::{
        synthetic_catalog, tpch_catalog, Catalog, PlacementStrategy, ReplicaSpec, ReplicationPlan,
        ShardAssignment, ShardId, ShardStrategy, SiteId, SyntheticConfig, TableId, TableMeta,
        TpchConfig,
    };
    pub use ivdss_cluster::{
        Cluster, ClusterConfig, ClusterSnapshot, RouteDecision, ShardOutage, ShardRouter,
        ShardTimelines,
    };
    pub use ivdss_core::{
        evaluate_plan, exhaustive_search, AgingPolicy, BusinessValue, DiscountRate, DiscountRates,
        FacilityQueues, FederationPlanner, InformationValue, IvqpPlanner, Latencies, NoQueues,
        PlanContext, PlanError, PlanEvaluation, Planner, PlannerPool, QueryRequest,
        ScatterGatherSearch, SearchOpts, WarehousePlanner,
    };
    pub use ivdss_costmodel::{
        AnalyticCostModel, CostModel, LocalFit, PlanCost, QueryId, QuerySpec, StylizedCostModel,
    };
    pub use ivdss_dsim::{
        run_arrival_driven, run_prioritized, Environment, ReplicaLoading, RunMetrics,
    };
    pub use ivdss_faults::{FaultConfig, FaultPlan, JitteredCostModel, Outage};
    pub use ivdss_ga::{optimize_permutation, GaConfig, Permutation};
    pub use ivdss_mqo::{
        form_workloads, FifoScheduler, MqoScheduler, WorkloadEvaluator, WorkloadScheduler,
    };
    pub use ivdss_net::{
        NetClient, NetConfig, NetError, NetServer, QueryService, ReportMsg, SubmitSpec,
    };
    pub use ivdss_obs::{
        AuditLog, EventKind, FixedHistogram, PlanAudit, PlanSource, SearchAudit, Trace, TraceEvent,
        Tracer,
    };
    pub use ivdss_replication::{
        Schedule, SyncEvent, SyncEventCursor, SyncMode, SyncTimelines, TimelineRevision,
    };
    pub use ivdss_scenarios::{
        all_scenarios, ArrivalProcess, GrowthSpec, IntensityProfile, Popularity, ScenarioEvent,
        ScenarioSpec, ScenarioWorld, TenantMix, TenantSpec, ZipfSampler,
    };
    pub use ivdss_sched::{
        fixed_budget, greedy_schedule, reschedule_revisions, AdaptiveConfig, AdaptiveOutcome,
        AdaptiveScheduler, RefreshCosts, ScheduleAllocation, ScheduleEvaluator, ScheduleSource,
    };
    pub use ivdss_serve::{
        run_open_loop, AdmissionQueue, Clock, DesClock, MetricsSnapshot, OpenLoopConfig, PlanCache,
        ServeConfig, ServeEngine, WallClock,
    };
    pub use ivdss_simkernel::{
        Engine, ExponentialStream, OnlineStats, SeedFactory, SimDuration, SimTime, Stream,
    };
    pub use ivdss_storage::{DeviceProfile, ScanMeasurement, StorageConfig, StorageEngine};
    pub use ivdss_workloads::{
        mid_cost_query_specs, overlapping_queries, random_queries, tpch_query_specs, ArrivalStream,
        FrequencyRatio, OverlapConfig, RandomQueryConfig,
    };
}
