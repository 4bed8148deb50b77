//! Seeded workload generation.
//!
//! Everything a run serves is a pure function of the workload, the
//! `--seed` and the stream length. The server side ([`World`]) and the
//! client side ([`offered`]) are generated separately: the served
//! program only ever receives the generated catalog, timelines, fault
//! plan and query stream, never the seed itself.
//!
//! Each workload keeps its catalog fixed across seeds (placement,
//! replica choice and shard assignment use the workload's own pinned
//! seed), so a seed varies the traffic — arrival times, sync traces,
//! tenant draws and faults — and not the federation being served.

use ivdss_catalog::catalog::Catalog;
use ivdss_catalog::sharding::{ShardAssignment, ShardStrategy};
use ivdss_catalog::tpch::{tpch_catalog, TpchConfig};
use ivdss_cluster::{Cluster, ClusterConfig, ShardRouter, ShardTimelines};
use ivdss_core::plan::QueryRequest;
use ivdss_core::value::DiscountRates;
use ivdss_costmodel::model::{AnalyticCostModel, CostModel, StylizedCostModel};
use ivdss_costmodel::query::QuerySpec;
use ivdss_faults::{FaultConfig, FaultPlan};
use ivdss_replication::timelines::{SyncMode, SyncTimelines};
use ivdss_scenarios::named::multi_tenant_sla;
use ivdss_scenarios::ScenarioSpec;
use ivdss_serve::clock::DesClock;
use ivdss_simkernel::rng::SeedFactory;
use ivdss_simkernel::time::{SimDuration, SimTime};
use ivdss_workloads::stream::{ArrivalStream, FrequencyRatio};
use ivdss_workloads::tpch::{tpch_query_specs, TPCH_QUERIES};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 6 operating point: all 22 TPC-H templates in
    /// round robin at Fq:Fs = 1:10, one shard, one query per frame.
    TpchPaper,
    /// Four hot TPC-H templates with refreshes 100x rarer than
    /// arrivals: the plan cache answers most lookups.
    DashboardHot,
    /// The multi-tenant SLA mix, oversubscribed, on two shards with a
    /// seeded fault plan and batched frames.
    TenantsOverload,
}

/// Mean TPC-H inter-arrival time (§4.2).
const TPCH_INTERARRIVAL: f64 = 20.0;
/// λ_CL = λ_SL of the TPC-H workloads (§4.2).
const TPCH_RATE: f64 = 0.01;
/// TPC-H template numbers of the dashboard-hot stream.
const DASHBOARD_TEMPLATES: [u8; 4] = [1, 3, 5, 10];
/// Mean arrival rate of the multi-tenant-sla diurnal profile.
const TENANTS_MEAN_RATE: f64 = 1.2;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TpchPaper,
        Workload::DashboardHot,
        Workload::TenantsOverload,
    ];

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchPaper => "tpch-paper",
            Workload::DashboardHot => "dashboard-hot",
            Workload::TenantsOverload => "tenants-overload",
        }
    }

    /// Queries per pass per requested second of run length. These are
    /// fixed constants, sized so the passes of one run together serve
    /// for roughly the requested time on a 2-core host: the stream
    /// length never depends on how fast the served code is, because
    /// per-query cost grows with the number of queries served.
    fn queries_per_second(self) -> usize {
        match self {
            Workload::TpchPaper => 330,
            Workload::DashboardHot => 2_000,
            Workload::TenantsOverload => 4_500,
        }
    }

    /// Socket passes per run. `tpch-paper`'s per-query cost is heavy
    /// tailed, so it makes fewer, longer passes: a longer stream keeps
    /// the tail of each seed's stream close to the workload's.
    pub fn passes(self) -> usize {
        match self {
            Workload::TpchPaper => 3,
            Workload::DashboardHot | Workload::TenantsOverload => 6,
        }
    }

    /// Queries offered by one pass of a run of `seconds`.
    pub fn queries(self, seconds: u32) -> usize {
        self.queries_per_second() * seconds as usize
    }

    /// Queries per request frame.
    pub fn batch(self) -> usize {
        match self {
            Workload::TpchPaper | Workload::DashboardHot => 1,
            Workload::TenantsOverload => 8,
        }
    }

    /// Fq:Fs of the TPC-H workloads.
    fn tpch_ratio(self) -> FrequencyRatio {
        match self {
            Workload::DashboardHot => FrequencyRatio::one_to(0.01),
            _ => FrequencyRatio::one_to(10.0),
        }
    }
}

/// The multi-tenant-sla scenario stretched to carry `queries`
/// arrivals. The 5% slack is more than ten standard deviations of the
/// arrival count, so the stream does not run dry first.
fn tenants_spec(queries: usize) -> ScenarioSpec {
    multi_tenant_sla().with_horizon(queries as f64 / TENANTS_MEAN_RATE * 1.05)
}

/// Everything the server is built from.
pub struct World {
    /// The federation's catalog.
    pub catalog: Catalog,
    /// Published sync timelines.
    pub timelines: SyncTimelines,
    /// The computational-latency model.
    pub model: Box<dyn CostModel>,
    /// Cluster configuration: shipped defaults plus the fields the
    /// workload names.
    pub config: ClusterConfig,
    /// Replica ownership per shard.
    pub assignment: ShardAssignment,
    /// The fault plan, on the workload that injects faults.
    pub faults: Option<FaultPlan>,
}

impl World {
    /// Generates the server-side inputs of a run of `queries` queries.
    ///
    /// # Panics
    ///
    /// Panics if a pinned catalog configuration is invalid, which the
    /// constants above rule out.
    pub fn build(workload: Workload, seed: u64, queries: usize) -> World {
        let seeds = SeedFactory::new(seed);
        match workload {
            Workload::TpchPaper | Workload::DashboardHot => {
                let catalog = tpch_catalog(&TpchConfig {
                    mean_sync_period: workload.tpch_ratio().sync_period(TPCH_INTERARRIVAL),
                    ..TpchConfig::default()
                })
                .expect("the paper's TPC-H configuration is valid");
                // Sum of `queries` exponential gaps stays below 1.1x its
                // mean by more than ten standard deviations.
                let horizon = SimTime::new((queries as f64 * 1.1 + 50.0) * TPCH_INTERARRIVAL);
                let timelines = SyncTimelines::from_plan(
                    catalog.replication(),
                    SyncMode::Stochastic {
                        horizon,
                        seed: seeds.seed_for("sync"),
                    },
                );
                let assignment =
                    ShardAssignment::partition(&catalog, 1, ShardStrategy::Balanced, 0);
                World {
                    catalog,
                    timelines,
                    model: Box::new(AnalyticCostModel::paper_scale()),
                    config: ClusterConfig::new(DiscountRates::new(TPCH_RATE, TPCH_RATE)),
                    assignment,
                    faults: None,
                }
            }
            Workload::TenantsOverload => {
                let spec = tenants_spec(queries);
                let scenario = spec.build_world().expect("multi-tenant-sla world builds");
                let mut config = ClusterConfig::new(spec.rates);
                config.serve.queue_capacity = spec.queue_capacity;
                config.serve.dispatch_backlog = SimDuration::ZERO;
                let assignment = ShardAssignment::partition(
                    &scenario.catalog,
                    2,
                    ShardStrategy::Balanced,
                    spec.seeds().seed_for("shards"),
                );
                let faults = FaultPlan::generate(
                    &FaultConfig {
                        slip_probability: 0.10,
                        drop_probability: 0.05,
                        slip_delay: (1.0, 6.0),
                        outage_mtbf: 180.0,
                        outage_duration: (5.0, 20.0),
                        horizon: SimTime::new(spec.horizon),
                        ..FaultConfig::default()
                    },
                    &scenario.timelines,
                    scenario.catalog.site_count(),
                    seeds.seed_for("faults"),
                );
                World {
                    catalog: scenario.catalog,
                    timelines: scenario.timelines,
                    model: Box::new(StylizedCostModel::paper_fig4()),
                    config,
                    assignment,
                    faults: Some(faults),
                }
            }
        }
    }

    /// Builds the served cluster over this world (shard restriction,
    /// engines, fault plan) and hands it to `f`.
    pub fn with_cluster<R>(&self, f: impl FnOnce(&mut Cluster<'_, DesClock>) -> R) -> R {
        let router = ShardRouter::new(self.assignment.clone());
        let timelines = ShardTimelines::build(&self.timelines, &router);
        let cluster = Cluster::new(
            &self.catalog,
            &timelines,
            self.model.as_ref(),
            router,
            self.config,
            DesClock::new(),
        );
        let mut cluster = match &self.faults {
            Some(plan) => cluster.with_faults(plan.clone()),
            None => cluster,
        };
        f(&mut cluster)
    }
}

/// One offered query: the request and its tenant's SLA deadline.
#[derive(Debug, Clone)]
pub struct Offer {
    /// The request, stamped with its simulated arrival time.
    pub request: QueryRequest,
    /// Absolute SLA deadline, for SLA-tracked queries.
    pub deadline: Option<SimTime>,
}

/// Generates the client-side stream: `queries` offers with ids
/// `0..queries`, in arrival order.
///
/// # Panics
///
/// Panics if the multi-tenant scenario's pinned world fails to build.
pub fn offered(workload: Workload, seed: u64, queries: usize) -> Vec<Offer> {
    let seeds = SeedFactory::new(seed);
    match workload {
        Workload::TpchPaper | Workload::DashboardHot => {
            let templates: Vec<QuerySpec> = match workload {
                Workload::DashboardHot => TPCH_QUERIES
                    .iter()
                    .filter(|q| DASHBOARD_TEMPLATES.contains(&q.number))
                    .map(|q| q.to_spec())
                    .collect(),
                _ => tpch_query_specs(),
            };
            ArrivalStream::new(templates, TPCH_INTERARRIVAL, seeds.seed_for("arrivals"))
                .take_requests(queries)
                .into_iter()
                .map(|request| Offer {
                    request,
                    deadline: None,
                })
                .collect()
        }
        Workload::TenantsOverload => {
            let pinned = tenants_spec(queries);
            let scenario = pinned.build_world().expect("multi-tenant-sla world builds");
            let traffic = ScenarioSpec { seed, ..pinned };
            traffic
                .stream(&scenario)
                .take(queries)
                .map(|event| Offer {
                    request: event.request,
                    deadline: event.deadline,
                })
                .collect()
        }
    }
}
